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

The gap loop holds a bounded working set. Each chunk runs in its own
scope, so its arrays are gone before the next chunk draws; the chunk keeps
only its narrow picks and the watched flags of the two coupled runs, which
read the times and decision uniforms as `crslab.rng.Rows`. The tallies and
the witness scan then go one row block (`matching._row_blocks`) at a
time, each block drawing its own rows again. The witness reads the
engine's own keep rule, so a pair survives exactly when the engine keeps
the proposal that joins it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .arrivals import NO_CHOICE, vertex_arrivals
from .graph import Graph
from .matching import _row_blocks
from .recursive import EstimateTable, _vertex_keep, run_vertex_batch
from .rng import Rows, chunks
from .selection import INFINITE, SelectionFunction

__all__ = [
    "PotentialPaths",
    "GapReport",
    "coupled_batch",
    "detect_potential_paths_batch",
    "flip_indicators",
    "gap_bound",
    "correlation_gap",
]

GAP_TRIAL_CHUNK = 100_000


def coupled_batch(
    g: Graph,
    sel: SelectionFunction,
    table: EstimateTable,
    v: int,
    Y: np.ndarray | Rows,
    F: np.ndarray,
    U: np.ndarray | Rows,
    t_k: float = 1.0,
    watch: np.ndarray | None = None,
):
    """Vectorized coupled executions; returns (full, dropped) BatchResults.

    Both carry the matched flags at the (trials, k) vertex ids `watch`. Y
    and U may be `crslab.rng.Rows`, as for `run_vertex_batch`.
    """
    full = run_vertex_batch(g, sel, table, Y, F, U, t_stop=t_k, watch=watch)
    dropped = run_vertex_batch(g, sel, table, Y, F, U, t_stop=t_k, exclude=v, watch=watch)
    return full, dropped


# -- potential paths ------------------------------------------------------------


@dataclass
class PotentialPaths:
    """Per-trial potential-path scan results (padded, -1 terminated)."""

    length: np.ndarray  # (trials,) int32 d of the first path found, 0 if none
    path: np.ndarray  # (trials, n) vertices of that path, in the picks' type
    count: np.ndarray  # (trials,) int32 number of candidate paths seen


def detect_potential_paths_batch(g: Graph, F: np.ndarray, u: int, v: int) -> PotentialPaths:
    """Vectorized potential-path scan over the trial axis.

    Only the rows still walking are visited: their offsets, walk heads and
    F_v sit in one (3, live) array that is compacted whenever a walk stops,
    and the visited sets in one flat (trials, n) array addressed through
    the offsets. A row's first path is the reverse of its walk up to the
    closing step, so it is written afterwards by walking again from F_u.
    The path keeps the picks' type and the counters are int32.
    """
    if u == v:
        raise ValueError("u and v must differ")
    trials, n = F.shape
    Ff = np.ascontiguousarray(F).reshape(-1)
    dout = np.zeros(trials, dtype=np.int32)
    npaths = np.zeros(trials, dtype=np.int32)
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
    path = np.full((trials, n), -1, dtype=F.dtype)
    rows = np.flatnonzero(dout)
    path[rows, 0] = v
    col = dout[rows] - 1  # where F_u goes; each later walk step one column left
    w = F[rows, u]
    while rows.size:
        path[rows, col] = w
        keep = col > 1
        rows, col, w = rows[keep], col[keep] - 1, Ff[rows[keep] * n + w[keep]]
    return PotentialPaths(dout, path, npaths)


# -- survival and the flip indicator --------------------------------------------


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
    """Indicator B per trial: potential path, badly ordered, all pairs survive.

    Only the rows that hold a path are read past the scan. The engine's keep
    rule (`recursive._vertex_keep`) runs once on them, and a pair (a, b)
    survives iff a kept proposal joins it: F_a = b with a kept, or F_b = a
    with b kept.
    """
    paths = detect_potential_paths_batch(g, F, u, v)
    B = np.zeros(Y.shape[0], dtype=bool)
    has = np.flatnonzero(paths.length)
    Y, F, U, length = Y[has], F[has], U[has], paths.length[has]
    c, k = _vertex_keep(g, sel, table, Y, F, U, 1.0, None, contextlib.nullcontext())
    kept = np.zeros(F.size, dtype=bool)  # by flat (row, proposer) cell
    kept[c.cell.take(k)] = True
    for d in np.unique(length):
        ii = np.flatnonzero(length == d)
        P = paths.path[has[ii], :d]
        ys = Y[ii[:, None], P]
        yu = Y[ii, u]
        ok = (ys < yu[:, None]).all(axis=1)
        inc = (np.diff(ys, axis=1) > 0).all(axis=1)
        swapped = ys.copy()
        swapped[:, [0, 1]] = swapped[:, [1, 0]]
        inc_swapped = (np.diff(swapped, axis=1) > 0).all(axis=1)
        ok &= inc | inc_swapped
        # each consecutive pair needs a kept proposal along it, from either end
        kp, picks = kept[ii[:, None] * F.shape[1] + P], F[ii[:, None], P]
        ok &= ((kp[:, :-1] & (picks[:, :-1] == P[:, 1:])) | (kp[:, 1:] & (picks[:, 1:] == P[:, :-1]))).all(axis=1)
        B[has[ii]] = ok
    return B, paths


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


def _gap_chunk(g, sel, table, u, v, t_k, rng, count):
    """One chunk of `correlation_gap` (see the module docstring): its six
    counts and the most candidate paths seen in one trial."""
    Y, F, U = vertex_arrivals(g, rng, count)
    full, dropped = coupled_batch(g, sel, table, v, Y, F, U, t_k=t_k, watch=np.broadcast_to(np.intp(u), (count, 1)))
    m_u, m_dropped = full.matched[:, 0], dropped.matched[:, 0]
    tally = np.zeros(6, dtype=np.int64)
    most = 0
    for lo, hi in _row_blocks(count, g.vertex_count):
        Yb, Ub, mb = Y[lo:hi], U[lo:hi], m_u[lo:hi]
        outer = Yb[:, u] < t_k
        inner = outer & (Yb[:, v] > t_k)
        B, paths = flip_indicators(g, sel, table, Yb, F[lo:hi], Ub, u, v)
        need = m_dropped[lo:hi] & ~mb
        tally += [np.count_nonzero(x) for x in (mb & inner, inner, mb & outer, outer, need, need & ~B)]
        most = max(most, int(paths.count.max()))
    return tally, most


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
    tally = np.zeros(6, dtype=np.int64)
    max_paths = 0
    for rng, _, count in chunks(seed, trials, GAP_TRIAL_CHUNK, "corr-gap"):
        counts, most = _gap_chunk(g, sel, table, u, v, t_k, rng, count)
        tally += counts
        max_paths = max(max_paths, most)
    sum_inner, cnt_inner, sum_outer, cnt_outer, flips, violations = tally.tolist()
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
