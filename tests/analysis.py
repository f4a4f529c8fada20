"""Paper-analysis helpers that only the tests use.

These compute the paper's closed forms and bounds next to what the library
simulates: the numeric guarantee integral and piecewise-linear selection
tables, the two-phase guarantee polynomial, the two-point survival
inequality, the L/U recursion bound, the pinned phase-1 probe, the rank-1
safety tally, and the one-step drift audit of the hardness trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from crslab import recursive, two_phase
from crslab.arrivals import rank1_arrivals, sample_choices_batch
from crslab.graph import Graph
from crslab.hardness import TrajectoryReport
from crslab.matching import _bin_of
from crslab.numerics import adaptive_simpson
from crslab.rng import chunks
from crslab.selection import SelectionFunction, c_vertex
from crslab.two_phase import prune_factor, run_two_phase_batch, survival_prob

from .oracles import neighbors

# -- selection functions ------------------------------------------------------------


def alpha_numeric(g, tol: float = 1e-10) -> float:
    """Quadrature of 2 int_0^1 c_vertex(y, g) y dy to absolute tolerance tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return adaptive_simpson(lambda y: 2.0 * c_vertex(y, g) * y, 0.0, 1.0, tol)


def custom_selection(ys, values, floor: float) -> SelectionFunction:
    """Piecewise-linear table on [0,1]; floor must be supplied by the caller."""
    ys = np.asarray(ys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if ys.ndim != 1 or ys.shape != values.shape or ys.size < 2:
        raise ValueError("need matching 1-d arrays with at least two knots")
    if ys[0] != 0.0 or ys[-1] != 1.0 or np.any(np.diff(ys) <= 0):
        raise ValueError("knots must increase strictly from 0 to 1")
    if floor <= 0.0:
        raise ValueError("floor must be positive")
    fn = lambda y: np.interp(y, ys, values)  # noqa: E731
    alpha = adaptive_simpson(lambda y: 2.0 * fn(y) * y, 0.0, 1.0, 1e-10)
    return SelectionFunction(floor=float(floor), alpha=alpha, _fn=fn)


# -- two-phase scheme ---------------------------------------------------------------


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
    (frequency, binomial sigma). The chunk size is read from
    `two_phase.TRIAL_CHUNK` at each call, as the library's trial loop reads it.
    """
    if not (0.0 < y0 <= t):
        raise ValueError("need 0 < y0 <= t")
    missing = set(range(g.vertex_count)) - {u0, u1} - set(pinned)
    if missing:
        raise ValueError(f"pinned times missing for vertices {sorted(missing)}")
    n = g.vertex_count
    eid = g.edge_id(u0, u1)
    hits = 0
    for rng, _, count in chunks(seed, trials, two_phase.TRIAL_CHUNK, "pinned-phase1"):
        Y = np.empty((count, n))
        for w, yw in pinned.items():
            Y[:, w] = yw
        Y[:, u0] = y0
        Y[:, u1] = rng.random(count) * y0
        F = sample_choices_batch(g, rng, count)
        UA = rng.random((count, n))
        UB = rng.random((count, n))
        res = run_two_phase_batch(g, t, Y, F, UA, UB, t_stop=y0)
        hits += int(res.accepted[eid])  # at most once per trial: it matches both ends
    freq = hits / trials
    sigma = math.sqrt(max(freq * (1.0 - freq), 1e-12) / trials)
    return freq, sigma


def rank1_safety(g: Graph, trials: int, seed: int, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """(safe_bin, all_bin) over the runs of `simulate_rank1(g, trials, seed, bins)`.

    Replays its "trials-rank1" chunks through `rank1_arrivals`, the chunk
    size read from `recursive.TRIAL_CHUNK` at each call. all_bin[e, b]
    counts the trials with Y_e in bin b, and safe_bin[e, b] those in which
    nothing other than e was taken before Y_e: the earliest eligible time
    over the other elements, which is the second minimum where e is the
    winner and the minimum elsewhere, comes after Y_e.
    """
    m = g.edge_count
    safe_bin = np.zeros((m, bins), dtype=np.int64)
    all_bin = np.zeros((m, bins), dtype=np.int64)
    for rng, _, count in chunks(seed, trials, recursive.TRIAL_CHUNK, "trials-rank1"):
        active, Ye, U = (a[:] for a in rank1_arrivals(g, rng, count))
        elig_y = np.where(active & (U <= np.exp(-Ye * g.x[None, :])), Ye, np.inf)
        rows = np.arange(count)
        winner = np.argmin(elig_y, axis=1)
        first = elig_y[rows, winner]
        elig_y[rows, winner] = np.inf
        safe = first[:, None] > Ye
        safe[rows, winner] = elig_y.min(axis=1) > Ye[rows, winner]
        cell = _bin_of(Ye, bins) + np.arange(m) * bins
        all_bin += np.bincount(cell.reshape(-1), minlength=m * bins).reshape(m, bins)
        safe_bin += np.bincount(cell[safe], minlength=m * bins).reshape(m, bins)
    return safe_bin, all_bin


# -- L/U recursion bound -------------------------------------------------------------
#
# The L/U recursion bounds the conditional matching rate of a directed edge by
# alternating upper/lower expansions on vertex-deleted subgraphs; with
# polynomial inputs every level stays polynomial, so the evaluator uses exact
# coefficient arithmetic.


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
    for w in neighbors(g, b):
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


# -- hardness drift audit -------------------------------------------------------------


@dataclass
class DriftBucket:
    t_lo: int
    t_hi: int
    count: int
    mean_residual: float
    sigma: float

    @property
    def ok(self) -> bool:
        return self.mean_residual <= 3.0 * self.sigma


def drift_report(report: TrajectoryReport, buckets: int = 20) -> list[DriftBucket]:
    """One-step drift audit on rounds where the balance event held.

    Residual per step: Delta M - (1 + n^{-1/3}) (t/(2n) - M(t)/n). Each
    step's conditional mean is <= 0 under Q_t, so every bucket mean must
    sit below 3 standard errors.
    """
    n = report.n
    N = 2 * n
    factor = 1.0 + n ** (-1.0 / 3.0)
    delta_m = np.diff(report.matched, axis=1).astype(np.float64)
    m_before = report.matched[:, :-1].astype(np.float64)
    t_idx = np.arange(N, dtype=np.float64)[None, :]
    residual = delta_m - factor * (t_idx / N - m_before / n)
    mask = report.balance[:, :-1]
    edges = np.linspace(0, N, buckets + 1).astype(np.int64)
    out: list[DriftBucket] = []
    for b in range(buckets):
        lo, hi = int(edges[b]), int(edges[b + 1])
        vals = residual[:, lo:hi][mask[:, lo:hi]]
        if vals.size < 2:
            continue
        mean = float(vals.mean())
        sigma = float(vals.std(ddof=1) / math.sqrt(vals.size))
        out.append(DriftBucket(lo, hi, int(vals.size), mean, sigma))
    return out
