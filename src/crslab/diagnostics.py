"""Coupled-execution diagnostics for the recursive vertex scheme.

Deleting one vertex v and replaying the exact same randomness can flip
another vertex u from matched to unmatched only when a specific witness is
present in the sampled data: an even-length path (v = p_1, ..., p_d) in the
choice digraph with F_u = p_d, F_{p_i} = p_{i-1} for i >= 3 and the last
hop closed by either endpoint ("potential"), whose arrival times all
precede Y_u in one of two permissible orders ("badly ordered"), and whose
consecutive pairs all survive their proposal bits. These helpers detect
the witness pieces on shared samples, replay the coupled executions, and
measure the conditional correlation gap that the witness bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrivals import (
    NO_CHOICE,
    ArrivalSample,
    _choice_edges,
    sample_vertex_arrivals_batch,
)
from .graph import Graph
from .recursive import EstimateTable, _proposal_param, phase_of, run_vertex, run_vertex_batch
from .rng import stream
from .selection import INFINITE, SelectionFunction

__all__ = [
    "CoupledRun",
    "FlippingReport",
    "PotentialPaths",
    "GapReport",
    "coupled_run",
    "coupled_batch",
    "detect_potential_path",
    "detect_potential_paths_batch",
    "check_badly_ordered",
    "flip_indicators",
    "analyze_flipping",
    "gap_bound",
    "correlation_gap",
]

GAP_TRIAL_CHUNK = 100_000


@dataclass
class CoupledRun:
    """One shared-randomness pair of executions: on G and on G minus v."""

    u: int
    v: int
    t_k: float
    sample: ArrivalSample
    decision_u: np.ndarray
    matched_full: np.ndarray  # (n,) matched status by t_k with v present
    matched_dropped: np.ndarray  # (n,) matched status by t_k with v deleted

    @property
    def m_u(self) -> bool:
        return bool(self.matched_full[self.u])

    @property
    def m_u_dropped(self) -> bool:
        return bool(self.matched_dropped[self.u])


def coupled_run(
    g: Graph,
    sel: SelectionFunction,
    table: EstimateTable,
    u: int,
    v: int,
    t_k: float,
    rng: np.random.Generator,
) -> CoupledRun:
    """Draw one sample and run the scheme with and without vertex v.

    Both executions consume the identical times, choices and decision bits;
    only v's participation differs.
    """
    if u == v:
        raise ValueError("u and v must differ")
    g.edge_id(u, v)  # (u, v) must be an edge
    times, choices = sample_vertex_arrivals_batch(g, rng, 1)
    decision = rng.random(g.vertex_count)
    s = ArrivalSample("vertex", times[0], choices[0], None, None)
    full = run_vertex(g, sel, table, s, decision, t_stop=t_k)
    dropped = run_vertex(g, sel, table, s, decision, t_stop=t_k, exclude=v)
    return CoupledRun(u, v, t_k, s, decision, full.matched, dropped.matched)


def coupled_batch(
    g: Graph,
    sel: SelectionFunction,
    table: EstimateTable,
    v: int,
    Y: np.ndarray,
    F: np.ndarray,
    U: np.ndarray,
    t_k: float = 1.0,
    track_targets: bool = False,
):
    """Vectorized coupled executions; returns (full, dropped) BatchResults."""
    full = run_vertex_batch(g, sel, table, Y, F, U, t_stop=t_k, track_targets=track_targets)
    dropped = run_vertex_batch(g, sel, table, Y, F, U, t_stop=t_k, exclude=v, track_targets=track_targets)
    return full, dropped


# -- potential paths ------------------------------------------------------------


def detect_potential_path(g: Graph, s: ArrivalSample, u: int, v: int) -> list[int] | None:
    """Shortest path (v, p_2, ..., p_d) with potential, or None.

    Walks the choice digraph backwards from F_u; a candidate closes at even
    walk index k (so d = k + 2 is even) when either v chose the walk head
    or the walk head chose v.
    """
    if s.mode != "vertex":
        raise ValueError("vertex-mode sample required")
    if u == v:
        raise ValueError("u and v must differ")
    f = s.choices
    w = int(f[u])
    if w == NO_CHOICE or w == u or w == v:
        return None
    chain: list[int] = []  # visited walk, p_d down to the current vertex
    seen = {u, v}
    k = 0
    while True:
        chain.append(w)
        seen.add(w)
        if k % 2 == 0 and (int(f[v]) == w or int(f[w]) == v):
            return [v] + chain[::-1]
        nxt = int(f[w])
        if nxt == NO_CHOICE or nxt in seen:
            return None
        w = nxt
        k += 1


@dataclass
class PotentialPaths:
    """Per-trial potential-path scan results (padded, -1 terminated)."""

    length: np.ndarray  # (trials,) d of the first path found, 0 if none
    path: np.ndarray  # (trials, n) vertices of that path
    count: np.ndarray  # (trials,) number of candidate paths seen


def detect_potential_paths_batch(g: Graph, F: np.ndarray, u: int, v: int) -> PotentialPaths:
    """Vectorized potential-path scan over the trial axis.

    Only the rows still walking are visited: their offsets, walk heads and
    F_v sit in one (3, live) array that is compacted whenever a walk stops,
    and the visited sets in one flat (trials, n) array addressed through
    the offsets. A row's first path is the reverse of its walk up to the
    closing step, so it is written afterwards by walking again from F_u.
    """
    if u == v:
        raise ValueError("u and v must differ")
    trials, n = F.shape
    Ff = np.ascontiguousarray(F).reshape(-1)
    dout = np.zeros(trials, dtype=np.int64)
    npaths = np.zeros(trials, dtype=np.int64)
    visited = np.zeros(trials * n, dtype=bool)
    w = F[:, u]  # walk position, starts at F_u = p_d
    live = np.flatnonzero((w != NO_CHOICE) & (w != v) & (w != u))
    walk = np.stack([live * n, w[live], F[live, v]])
    k = 0
    while walk.shape[1] and k < n:
        base, w, fv = walk
        at = base + w
        visited[at] = True
        nxt = Ff[at]
        if k % 2 == 0:
            rows = base[(fv == w) | (nxt == v)] // n
            npaths[rows] += 1
            dout[rows[dout[rows] == 0]] = k + 2
        # NO_CHOICE reads some other visited cell, masked by the first test
        ok = (nxt != NO_CHOICE) & (nxt != u) & (nxt != v) & ~visited[base + nxt]
        walk[1] = nxt
        if not ok.all():
            walk = walk.compress(ok, axis=1)
        k += 1
    path = np.full((trials, n), -1, dtype=np.int64)
    rows = np.flatnonzero(dout)
    path[rows, 0] = v
    col = dout[rows] - 1  # where F_u goes; each later walk step one column left
    w = F[rows, u]
    while rows.size:
        path[rows, col] = w
        keep = col > 1
        rows, col, w = rows[keep], col[keep] - 1, Ff[rows[keep] * n + w[keep]]
    return PotentialPaths(dout, path, npaths)


def check_badly_ordered(s: ArrivalSample, path: list[int], u: int) -> bool:
    """All path times precede Y_u, sorted or with the first two swapped."""
    y = s.times
    times = [float(y[w]) for w in path]
    if max(times) >= float(y[u]):
        return False
    inc = all(a < b for a, b in zip(times, times[1:]))
    swapped = [times[1], times[0]] + times[2:]
    inc_swapped = all(a < b for a, b in zip(swapped, swapped[1:]))
    return inc or inc_swapped


# -- survival and the flip indicator --------------------------------------------


def _survives_batch(g, sel, table, Y, F, U, FE, rows, a, b) -> np.ndarray:
    """Pairs (a, b) per row: later endpoint chose earlier and its bit passed."""
    ya, yb = Y[rows, a], Y[rows, b]
    a_first = (ya < yb) | ((ya == yb) & (a < b))
    later = np.where(a_first, b, a)
    earlier = np.where(a_first, a, b)
    chose = F[rows, later] == earlier
    # where `later` chose `earlier`, its choice edge is the pair's edge;
    # elsewhere the threshold is computed on some other edge and discarded
    eid = np.where(chose, FE[rows, later], 0)
    y = Y[rows, later]
    shat = table.values[phase_of(y, table.T), 2 * eid + (earlier == g.ev[eid])]
    return chose & (U[rows, later] <= _proposal_param(sel, table, y, shat))


def flip_indicators(
    g: Graph,
    sel: SelectionFunction,
    table: EstimateTable,
    Y: np.ndarray,
    F: np.ndarray,
    U: np.ndarray,
    u: int,
    v: int,
) -> tuple[np.ndarray, PotentialPaths]:
    """Indicator B per trial: potential path, badly ordered, all pairs survive."""
    paths = detect_potential_paths_batch(g, F, u, v)
    trials = Y.shape[0]
    B = np.zeros(trials, dtype=bool)
    FE = _choice_edges(g, F)
    has = np.nonzero(paths.length > 0)[0]
    for d in np.unique(paths.length[has]):
        ii = has[paths.length[has] == d]
        P = paths.path[ii, :d]
        ys = Y[ii[:, None], P]
        yu = Y[ii, u]
        ok = (ys < yu[:, None]).all(axis=1)
        inc = (np.diff(ys, axis=1) > 0).all(axis=1)
        swapped = ys.copy()
        swapped[:, [0, 1]] = swapped[:, [1, 0]]
        inc_swapped = (np.diff(swapped, axis=1) > 0).all(axis=1)
        ok &= inc | inc_swapped
        survive = np.ones(len(ii), dtype=bool)
        for i in range(d - 1):
            survive &= _survives_batch(g, sel, table, Y, F, U, FE, ii, P[:, i], P[:, i + 1])
        B[ii] = ok & survive
    return B, paths


@dataclass
class FlippingReport:
    potential_path: list[int] | None
    badly_ordered: bool
    flipping: bool  # the indicator B for this sample
    indicator_violation: bool  # matched-without-v minus matched exceeded B


def analyze_flipping(
    g: Graph,
    sel: SelectionFunction,
    table: EstimateTable,
    run: CoupledRun,
) -> FlippingReport:
    """Witness analysis of one coupled run."""
    Y = run.sample.times[None, :]
    F = run.sample.choices[None, :]
    U = run.decision_u[None, :]
    B, _ = flip_indicators(g, sel, table, Y, F, U, run.u, run.v)
    path = detect_potential_path(g, run.sample, run.u, run.v)
    badly = path is not None and check_badly_ordered(run.sample, path, run.u)
    flipped = run.m_u_dropped and not run.m_u
    return FlippingReport(path, badly, bool(B[0]), flipped and not bool(B[0]))


# -- correlation gap -------------------------------------------------------------


def gap_bound(girth, t_k: float) -> float:
    """Analytic conditioning-gap bound (1/t) * integral of 2 phi_g on [0, t]."""
    if girth == INFINITE:
        return 0.0
    return 2.0 * t_k ** (girth - 1) / math.factorial(girth)


@dataclass
class GapReport:
    u: int
    v: int
    t_k: float
    trials: int
    mean_inner: float  # E[M_u(t_k) | Y_u < t_k < Y_v]
    mean_outer: float  # E[M_u(t_k) | Y_u < t_k]
    count_inner: int
    count_outer: int
    gap: float
    sigma: float
    bound: float
    flip_count: int  # trials where deleting v flipped u to matched
    violation_count: int  # flips without the witness B (must be 0)
    max_paths: int  # most candidate paths seen in any one trial

    @property
    def within_bound(self) -> bool:
        return self.gap <= self.bound + 3.0 * self.sigma


def correlation_gap(
    g: Graph,
    sel: SelectionFunction,
    table: EstimateTable,
    u: int,
    v: int,
    t_k: float,
    trials: int,
    seed: int,
) -> GapReport:
    """Estimate the conditioning gap and audit the flip indicator.

    Both conditional means come from the same trial pool (common random
    numbers); alongside, every trial is replayed without v and checked
    against M_u_dropped - M_u <= B.
    """
    if u == v:
        raise ValueError("u and v must differ")
    g.edge_id(u, v)
    n = g.vertex_count
    sum_inner = cnt_inner = sum_outer = cnt_outer = 0
    flips = violations = 0
    max_paths = 0
    done = 0
    ci = 0
    while done < trials:
        count = min(GAP_TRIAL_CHUNK, trials - done)
        rng = stream(seed, "corr-gap", ci)
        Y, F = sample_vertex_arrivals_batch(g, rng, count)
        U = rng.random((count, n))
        full, dropped = coupled_batch(g, sel, table, v, Y, F, U, t_k=t_k)
        outer = Y[:, u] < t_k
        inner = outer & (Y[:, v] > t_k)
        m_u = full.matched[:, u]
        sum_inner += int(m_u[inner].sum())
        cnt_inner += int(inner.sum())
        sum_outer += int(m_u[outer].sum())
        cnt_outer += int(outer.sum())
        B, paths = flip_indicators(g, sel, table, Y, F, U, u, v)
        need = dropped.matched[:, u] & ~m_u
        flips += int(need.sum())
        violations += int((need & ~B).sum())
        max_paths = max(max_paths, int(paths.count.max()))
        done += count
        ci += 1
    mean_inner = sum_inner / cnt_inner if cnt_inner else math.nan
    mean_outer = sum_outer / cnt_outer if cnt_outer else math.nan
    gap = mean_inner - mean_outer
    var_inner = mean_inner * (1.0 - mean_inner) / cnt_inner if cnt_inner else math.inf
    var_outer = mean_outer * (1.0 - mean_outer) / cnt_outer if cnt_outer else math.inf
    sigma = math.sqrt(var_inner + var_outer)
    return GapReport(
        u,
        v,
        t_k,
        trials,
        mean_inner,
        mean_outer,
        cnt_inner,
        cnt_outer,
        gap,
        sigma,
        gap_bound(sel.g, t_k),
        flips,
        violations,
        max_paths,
    )
