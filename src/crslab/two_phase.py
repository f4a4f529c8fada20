"""Two-phase pruned contention resolution for 1-regular fractional matchings.

Each active edge is first thinned by an independent Bernoulli(a_t(x_e))
"pruning" bit, so an edge survives its proposal with probability
f_t(x) = x * a_t(x). Proposals before the switch time t additionally pass a
load-balancing bit B with success probability 1/(2 - sum of f_t over the
target's already-arrived incident edges); after t the scheme accepts every
surviving proposal whose target is free (greedy phase).

t = 0 degenerates to prune-greedy and t = 1 to the pure balanced scheme; the
guarantee polynomial (16 + 5t^2 - 10t^3 + 4t^5)/30 is certified up to the
root t0 of the degree-6 switch polynomial.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .arrivals import _active_choices, _before, _flat, two_phase_arrivals
from .graph import Graph
from .matching import BatchResult, SimResult, _run_batch, _run_trials
from .numerics import bisect

__all__ = [
    "prune_factor",
    "survival_prob",
    "t_root_poly",
    "find_t0",
    "run_two_phase_batch",
    "simulate_two_phase",
]


def prune_factor(x, t):
    """Pruning probability a_t(x) in [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    big_n = 3.0 + 6.0 * t + 4.0 * t * t + 2.0 * t**3
    out = big_n / (big_n + 2.0 * x * (1.0 - t) * (1.0 + 3.0 * t + t * t))
    return float(out) if out.ndim == 0 else out


def survival_prob(x, t):
    """Edge survival f_t(x) = x * a_t(x)."""
    x = np.asarray(x, dtype=np.float64)
    out = x * prune_factor(x, t)
    return float(out) if out.ndim == 0 else out


def t_root_poly(t: float) -> float:
    """Switch-time polynomial 4t^6 + 16t^5 + 100t^4 + 180t^3 + 80t^2 - 4t - 1."""
    return ((((4.0 * t + 16.0) * t + 100.0) * t + 180.0) * t + 80.0) * t * t - 4.0 * t - 1.0


@functools.lru_cache(maxsize=1)
def find_t0() -> float:
    """Unique root of t_root_poly on (0, 1), by bisection to 1e-16."""
    return bisect(t_root_poly, 0.0, 1.0, xtol=1e-16)


# -- runners -------------------------------------------------------------------


def _phase1_mode(g: Graph) -> tuple[str, np.ndarray | None]:
    """Pick the cheapest way to accumulate the phase-1 neighbor sums.

    All-equal x on a complete graph makes the sum f*(k-1) at arrival rank k;
    on a complete bipartite graph it is f times the arrived count of the
    proposer's side. Anything else ("dense") sums f over the target's adjacency.
    """
    n, m = g.vertex_count, g.edge_count
    uniform = m > 0 and float(np.ptp(g.x)) <= 1e-15
    if uniform and m == n * (n - 1) // 2:
        return "complete", None
    if uniform:
        # K_{a,n-a}: each edge joins a neighbor of vertex 0 to a non-neighbor, and m = a (n - a)
        side = np.zeros(n, dtype=np.int64)
        side[g.adj_v[g.indptr[0] : g.indptr[1]]] = 1
        a = n - int(side.sum())
        if m == a * (n - a) and np.all(side[g.eu] != side[g.ev]):
            return "bipartite", side
    return "dense", None


def _phase1_sums(g: Graph, mode: str, side, fvals: np.ndarray, Y: np.ndarray, row, proposer, target, y) -> np.ndarray:
    """Sum of f over the target's neighbors that arrived before the proposer.

    `complete` counts every earlier arrival but the target, `bipartite` the
    earlier arrivals on the proposer's side, each times the common f; `dense`
    adds f over the target's adjacency in CSR order. Y is the block's
    (rows, n) times, C-contiguous.
    """
    n = Y.shape[1]
    if mode == "dense":
        s = np.zeros(row.size)
        start = g.indptr[target]
        deg = g.indptr[target + 1] - start
        for d in range(int(deg.max(initial=0))):
            slot = start + np.minimum(d, deg - 1)
            w = g.adj_v[slot]
            yw = Y[row, w]
            earlier = (d < deg) & _before(yw, w, y, proposer)
            s += np.where(earlier, fvals[g.adj_eid[slot]], 0.0)
        return s
    cnt = np.empty(row.size, dtype=np.int64)
    cols = np.arange(n)
    step = max(1, Y.shape[0])  # keeps the (count, n) comparison within the block's size
    for lo in range(0, row.size, step):
        sl = slice(lo, lo + step)
        yr, yv, pv = Y[row[sl]], y[sl, None], proposer[sl, None]
        earlier = _before(yr, cols, yv, pv)
        if mode == "bipartite":
            earlier &= side == side[pv]
        cnt[sl] = earlier.sum(axis=1)
    if mode == "complete":
        cnt -= 1  # the target itself arrived earlier
    return fvals[0] * cnt


def run_two_phase_batch(
    g: Graph,
    t: float,
    Y: np.ndarray,
    F: np.ndarray,
    UA: np.ndarray,
    UB: np.ndarray,
    t_stop: float = 1.0,
    bins: int | None = None,
    watch: np.ndarray | None = None,
) -> BatchResult:
    """Vectorized two-phase runs; Y/F/UA/UB are (trials, n) per-vertex arrays.

    The result's `matched` holds the flags at the (trials, k) vertex ids
    `watch` (None without it).
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    avals = prune_factor(g.x, t)
    fvals = survival_prob(g.x, t)
    mode, side = _phase1_mode(g)

    def propose(lo, hi, lock):
        yb = np.ascontiguousarray(Y[lo:hi])
        c = _active_choices(g, yb, F[lo:hi], t_stop)
        keep = _flat(UA[lo:hi]).take(c.cell) <= avals.take(c.edge)
        if t > 0.0:
            p1 = np.flatnonzero(c.y < t)
            s = _phase1_sums(g, mode, side, fvals, yb, c.row.take(p1), c.proposer.take(p1), c.target.take(p1), c.y.take(p1))
            assert float(np.max(s, initial=0.0)) <= 1.0 + 1e-9, "phase-1 sums must stay within the unit load"
            keep[p1] &= _flat(UB[lo:hi]).take(c.cell.take(p1)) <= 1.0 / (2.0 - s)
        k = np.flatnonzero(keep)
        return (c.edge, c.y), (c.row.take(k), c.y.take(k), c.target.take(k), c.proposer.take(k), c.edge.take(k))

    return _run_batch(g, *Y.shape, bins, propose, watch)


TRIAL_CHUNK = 200_000


def simulate_two_phase(g: Graph, t: float, trials: int, seed: int, bins: int = 20) -> SimResult:
    """Acceptance over independent trials; warns when the instance is not 1-regular."""
    if not g.is_one_regular():
        warnings.warn("instance is not 1-regular: the guarantee is void, reporting observed rates only", stacklevel=2)

    def batch(rng, count):
        return run_two_phase_batch(g, t, *two_phase_arrivals(g, rng, count), bins=bins)

    return _run_trials(g, trials, bins, seed, TRIAL_CHUNK, "trials-two-phase", batch)

