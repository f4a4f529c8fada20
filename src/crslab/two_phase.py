"""Two-phase pruned contention resolution for 1-regular fractional matchings.

Each active edge is first thinned by an independent Bernoulli(a_t(x_e))
"pruning" bit, so an edge survives its proposal with probability
f_t(x) = x * a_t(x). Proposals before the switch time t additionally pass a
load-balancing bit B with success probability 1/(2 - sum of f_t over the
target's already-arrived incident edges); after t the scheme accepts every
surviving proposal whose target is free (greedy phase).

t = 0 degenerates to prune-greedy and t = 1 to the pure balanced scheme; the
guarantee polynomial (16 + 5t^2 - 10t^3 + 4t^5)/30 is certified up to the
root t0 of the degree-6 switch polynomial. The L/U recursion bounds the
conditional matching rate of a directed edge by alternating upper/lower
expansions on vertex-deleted subgraphs; with polynomial inputs every level
stays polynomial, so the evaluator uses exact coefficient arithmetic.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .arrivals import NO_CHOICE, ArrivalSample, _active_choices, _flat, sample_choices_batch
from .graph import Graph
from .matching import BatchResult, Matching, SimResult, _BatchTally, _for_blocks
from .numerics import bisect
from .rng import chunks

__all__ = [
    "prune_factor",
    "survival_prob",
    "survival_prob_closed",
    "t_root_poly",
    "find_t0",
    "guarantee_poly",
    "TwoValuesReport",
    "check_two_values_inequality",
    "run_two_phase",
    "run_two_phase_batch",
    "prune_greedy_batch",
    "balanced_ocrs_batch",
    "simulate_two_phase",
    "RecursionBound",
    "recursion_bound",
    "overall_recursion_bound",
    "pinned_phase1_frequency",
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


def survival_prob_closed(x, t):
    """Alternative closed form of f_t.

    Identical to x * a_t(x) but written with a removable (t-1)^2 factor, so
    it degenerates to 0/0 at t = 1 and loses precision close to it; kept for
    the algebraic identity check on t <= 0.9.
    """
    x = np.asarray(x, dtype=np.float64)
    num = x * (3.0 + 2.0 * t**5 - 5.0 * t * t)
    den = 3.0 + 2.0 * t**5 * (1.0 - x) + 2.0 * x + 10.0 * t**3 * x - 5.0 * t * t * (1.0 + 2.0 * x)
    out = num / den
    return float(out) if out.ndim == 0 else out


def t_root_poly(t: float) -> float:
    """Switch-time polynomial 4t^6 + 16t^5 + 100t^4 + 180t^3 + 80t^2 - 4t - 1."""
    return ((((4.0 * t + 16.0) * t + 100.0) * t + 180.0) * t + 80.0) * t * t - 4.0 * t - 1.0


@functools.lru_cache(maxsize=1)
def find_t0() -> float:
    """Unique root of t_root_poly on (0, 1), by bisection to 1e-16."""
    return bisect(t_root_poly, 0.0, 1.0, xtol=1e-16)


def guarantee_poly(t: float) -> float:
    """Certified selectability (16 + 5t^2 - 10t^3 + 4t^5)/30 for t <= t0."""
    return (16.0 + 5.0 * t * t - 10.0 * t**3 + 4.0 * t**5) / 30.0


@dataclass
class TwoValuesReport:
    t: float
    grid: int
    max_violation: float  # max over the grid of lhs - rhs (<= 0 means holds)
    argmax: tuple[float, float]
    violations: list[tuple[float, float, float]]  # (x, y, violation) above 1e-10

    @property
    def holds(self) -> bool:
        return self.max_violation <= 1e-10


def check_two_values_inequality(t: float, grid: int) -> TwoValuesReport:
    """Grid check of the two-point survival inequality behind the guarantee."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    base = 1.0 / 3.0 + t**3 / 6.0 - t * t / 2.0
    kk = 3.0 + 2.0 * t**5 - 5.0 * t * t
    vals = np.linspace(0.0, 1.0, grid)
    xs, ys = np.meshgrid(vals, vals, indexing="ij")
    fx = survival_prob(xs, t)
    fy = survival_prob(ys, t)
    lhs = fx * (base - (2.0 - 2.0 * xs - ys) * kk / 60.0) + fy * (base - (2.0 - 2.0 * ys - xs) * kk / 60.0)
    rhs = (base - kk / 30.0) * (xs + ys)
    diff = lhs - rhs
    flat = int(np.argmax(diff))
    i, j = np.unravel_index(flat, diff.shape)
    bad = np.argwhere(diff > 1e-10)
    violations = [(float(vals[a]), float(vals[b]), float(diff[a, b])) for a, b in bad[:100]]
    return TwoValuesReport(t, grid, float(diff[i, j]), (float(vals[i]), float(vals[j])), violations)


# -- runners -------------------------------------------------------------------


def _warn_if_not_one_regular(g: Graph) -> None:
    if not g.is_one_regular():
        warnings.warn("instance is not 1-regular: the guarantee is void, reporting observed rates only", stacklevel=3)


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
        side = np.full(n, -1, dtype=np.int64)
        queue = []
        ok = True
        for s in range(n):
            if side[s] >= 0:
                continue
            side[s] = 0
            queue.append(s)
            while queue:
                v = queue.pop()
                for w in g.neighbors(v):
                    if side[w] < 0:
                        side[w] = side[v] ^ 1
                        queue.append(int(w))
                    elif side[w] == side[v]:
                        ok = False
        counts = (int(np.sum(side == 0)), int(np.sum(side == 1)))
        degs = np.diff(g.indptr)
        if ok and m == counts[0] * counts[1] and np.all(degs == np.where(side == 0, counts[1], counts[0])):
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
            earlier = (d < deg) & ((yw < y) | ((yw == y) & (w < proposer)))
            s += np.where(earlier, fvals[g.adj_eid[slot]], 0.0)
        return s
    cnt = np.empty(row.size, dtype=np.int64)
    cols = np.arange(n)
    step = max(1, Y.shape[0])  # keeps the (count, n) comparison within the block's size
    for lo in range(0, row.size, step):
        sl = slice(lo, lo + step)
        yr, yv, pv = Y[row[sl]], y[sl, None], proposer[sl, None]
        earlier = (yr < yv) | ((yr == yv) & (cols < pv))
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
    track_edges: bool = False,
    check_regular: bool = True,
) -> BatchResult:
    """Vectorized two-phase runs; Y/F/UA/UB are (trials, n) per-vertex arrays."""
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    if check_regular:
        _warn_if_not_one_regular(g)
    trials, n = Y.shape
    avals = prune_factor(g.x, t)
    fvals = survival_prob(g.x, t)
    mode, side = _phase1_mode(g)
    tally = _BatchTally(g, trials, bins, track_edges)

    def block(lo, hi):
        yb = np.ascontiguousarray(Y[lo:hi])
        c = _active_choices(g, yb, F[lo:hi], t_stop)
        tally.count_active(c.edge, c.y)
        keep = _flat(UA[lo:hi])[c.cell] <= avals[c.edge]
        if t > 0.0:
            p1 = np.flatnonzero(c.y < t)
            s = _phase1_sums(g, mode, side, fvals, yb, c.row[p1], c.proposer[p1], c.target[p1], c.y[p1])
            assert float(np.max(s, initial=0.0)) <= 1.0 + 1e-9, "phase-1 sums must stay within the unit load"
            keep[p1] &= _flat(UB[lo:hi])[c.cell[p1]] <= 1.0 / (2.0 - s)
        tally.resolve(lo, hi, c.row[keep], c.y[keep], c.target[keep], c.proposer[keep], c.edge[keep])

    _for_blocks(trials, n, block)
    return tally.result()


def run_two_phase(g: Graph, t: float, s: ArrivalSample, UA: np.ndarray, UB: np.ndarray) -> Matching:
    """Single-sample reference implementation (plain event loop)."""
    if s.mode != "vertex":
        raise ValueError("vertex-mode sample required")
    _warn_if_not_one_regular(g)
    y, f = s.times, s.choices
    n = g.vertex_count
    fvals = survival_prob(g.x, t)
    out = Matching(n)
    for v in sorted(range(n), key=lambda w: (y[w], w)):
        u = int(f[v])
        if u == NO_CHOICE or not ((y[u], u) < (y[v], v)):
            continue
        eid = g.edge_id(u, v)
        if UA[v] > prune_factor(float(g.x[eid]), t):
            continue
        if y[v] < t:
            s_sum = sum(
                float(fvals[g.edge_id(u, int(w))])
                for w in g.neighbors(u)
                if (y[w], int(w)) < (y[v], v)
            )
            assert s_sum <= 1.0 + 1e-9
            if UB[v] > 1.0 / (2.0 - s_sum):
                continue
        if not out.matched[u]:
            out.add(g, eid, float(y[v]), v)
    return out


def prune_greedy_batch(g: Graph, Y: np.ndarray, F: np.ndarray, UA: np.ndarray) -> BatchResult:
    """Independent baseline: accept active edges passing Bernoulli(a_0(x)) greedily."""
    return run_two_phase_batch(g, 0.0, Y, F, UA, UA, check_regular=False)


def balanced_ocrs_batch(g: Graph, Y: np.ndarray, F: np.ndarray, UB: np.ndarray) -> BatchResult:
    """Independent baseline: no pruning, balancing bit everywhere (switch time 1)."""
    ones = np.zeros_like(UB)  # UA <= a_1 = 1 always; any array works
    return run_two_phase_batch(g, 1.0, Y, F, ones, UB, check_regular=False)


TRIAL_CHUNK = 200_000


def simulate_two_phase(g: Graph, t: float, trials: int, seed: int, bins: int = 20) -> SimResult:
    _warn_if_not_one_regular(g)
    n = g.vertex_count
    out = SimResult.zeros(g, trials, bins)
    for rng, _, count in chunks(seed, trials, TRIAL_CHUNK, "trials-two-phase"):
        Y = rng.random((count, n))
        F = sample_choices_batch(g, rng, count)
        UA = rng.random((count, n))
        UB = rng.random((count, n))
        out.add(run_two_phase_batch(g, t, Y, F, UA, UB, bins=bins, check_regular=False))
    return out


def pinned_phase1_frequency(
    g: Graph,
    t: float,
    u0: int,
    u1: int,
    y0: float,
    pinned: dict[int, float],
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Frequency that (u0,u1) is picked by time y0 with all other times pinned.

    u0 arrives exactly at y0 <= t, u1 uniformly before y0, every other vertex
    at its pinned time; choices and decision bits stay random. Returns
    (frequency, binomial sigma).
    """
    if not (0.0 < y0 <= t):
        raise ValueError("need 0 < y0 <= t")
    missing = set(range(g.vertex_count)) - {u0, u1} - set(pinned)
    if missing:
        raise ValueError(f"pinned times missing for vertices {sorted(missing)}")
    n = g.vertex_count
    eid = g.edge_id(u0, u1)
    hits = 0
    for rng, _, count in chunks(seed, trials, TRIAL_CHUNK, "pinned-phase1"):
        Y = np.empty((count, n))
        for w, yw in pinned.items():
            Y[:, w] = yw
        Y[:, u0] = y0
        Y[:, u1] = rng.random(count) * y0
        F = sample_choices_batch(g, rng, count)
        UA = rng.random((count, n))
        UB = rng.random((count, n))
        res = run_two_phase_batch(g, t, Y, F, UA, UB, t_stop=y0, track_edges=True, check_regular=False)
        hits += int(res.acc_edge[:, eid].sum())
    freq = hits / trials
    sigma = math.sqrt(max(freq * (1.0 - freq), 1e-12) / trials)
    return freq, sigma


# -- recursive bound ------------------------------------------------------------


@dataclass
class RecursionBound:
    direction: str  # "lower" | "upper"
    ell: int
    t: float
    poly: Polynomial
    ys: np.ndarray
    values: np.ndarray


def _bound_poly(g: Graph, t: float, memo: dict, deleted: frozenset, a: int, b: int, ell: int) -> Polynomial:
    """Bound polynomial for the directed pair a->b at level ell, vertices in
    `deleted` removed. Odd levels are upper bounds, even levels lower bounds;
    level 1 is the base y0."""
    key = (deleted, a, b, ell)
    hit = memo.get(key)
    if hit is not None:
        return hit
    y_poly = Polynomial([0.0, 1.0])
    if ell == 1:
        memo[key] = y_poly
        return y_poly
    total = y_poly
    half_t2 = 0.5 * t * t
    inner_deleted = deleted | {a}
    for w in g.neighbors(b):
        w = int(w)
        if w == a or w in deleted:
            continue
        f = survival_prob(float(g.x[g.edge_id(b, w)]), t)
        p1 = _bound_poly(g, t, memo, inner_deleted, b, w, ell - 1)
        p2 = _bound_poly(g, t, memo, inner_deleted, w, b, ell - 1)
        q1, q2 = p1.integ(), p2.integ()
        contrib = Polynomial([half_t2 - q1(t) - q2(t)]) + q1 + q2
        total = total - f * contrib
    memo[key] = total
    return total


def recursion_bound(g: Graph, t: float, edge: tuple[int, int], ell: int, direction: str, grid: int = 201) -> RecursionBound:
    """Dense table (and exact polynomial) of the level-ell bound on (t, 1]."""
    if ell not in (1, 2, 3, 4):
        raise ValueError("ell must be in 1..4")
    if direction not in ("lower", "upper"):
        raise ValueError("direction must be 'lower' or 'upper'")
    if direction == "lower" and ell % 2 == 1:
        raise ValueError("lower bounds have even ell")
    if direction == "upper" and ell % 2 == 0:
        raise ValueError("upper bounds have odd ell")
    u0, u1 = edge
    g.edge_id(u0, u1)  # validates adjacency
    memo: dict = {}
    poly = _bound_poly(g, t, memo, frozenset(), u0, u1, ell)
    ys = np.linspace(t, 1.0, grid)
    return RecursionBound(direction, ell, t, poly, ys, poly(ys))


def overall_recursion_bound(g: Graph, t: float, edge: tuple[int, int], ell: int = 4) -> float:
    """a(x_e) * (t^2/2 + int_t^1 (L_{u0->u1} + L_{u1->u0}) dy0), exactly integrated."""
    u0, u1 = edge
    lower_fwd = recursion_bound(g, t, (u0, u1), ell, "lower").poly
    lower_bwd = recursion_bound(g, t, (u1, u0), ell, "lower").poly
    total = lower_fwd + lower_bwd
    anti = total.integ()
    integral = anti(1.0) - anti(t)
    x = float(g.x[g.edge_id(u0, u1)])
    return prune_factor(x, t) * (0.5 * t * t + integral)
