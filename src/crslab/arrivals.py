"""Arrival-process sampling.

Vertex mode: every vertex v independently picks at most one neighbor
(F_v = u with probability x_{u,v}, no pick with the leftover mass) and an
arrival time Y_v uniform on [0,1]. Edge (u,v) is active when the later
endpoint picked the earlier one; the later endpoint is the proposer.

Edge mode: every edge is independently active with probability x_e and
carries its own uniform arrival time Y_e; one uniform per (row, edge)
gives both, and a chunk keeps only the edges that arrive.

An engine chunk's rows are drawn from its keyed stream in the one order
that `vertex_arrivals`, `two_phase_arrivals`, `edge_arrivals` or
`rank1_arrivals` fixes, and no other module draws them; the table fills
force the arrivals they condition on by moving the times. This module
also samples the neighbor choices (`sample_choices_batch`) and finds a
batch's active proposals.
The choices of a chunk are drawn vertex by vertex, each vertex's uniforms
at its fixed offset in the chunk's stream, on the engine threads, and
stored in the narrowest signed integer type that holds every vertex id:
a guide table finds each draw's slot, and one answer table per vertex, in
the picks' type, turns slots into picks with one `take` into the vertex's
row. The edge ids of a block's picks come from one table indexed by
(vertex, pick) for a group of vertices, so a block makes a few whole-block
numpy calls per group instead of a few small ones per vertex; calls on a
thousand elements barely run in parallel on the engine threads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import Graph
from .matching import _for_blocks, _row_blocks
from .rng import Rows, rows

__all__ = [
    "vertex_arrivals",
    "two_phase_arrivals",
    "edge_arrivals",
    "EdgeTimes",
    "rank1_arrivals",
    "sample_choices_batch",
    "NO_CHOICE",
]

NO_CHOICE = -1


def _pick(cum: np.ndarray, u: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """out[:] = values[np.searchsorted(cum, u, side="right")] for a sorted `cum`
    and u in [0, 1); `values` holds the answer of each of the cum.size + 1 slots.

    A guide table (Chen & Asau 1974; Devroye 1986, III.2.4) over the distinct
    breakpoints b of `cum`: K = 2^p cells, start[k] = count(b <= k/K). A draw
    starts at j = start[floor(u K)], which never overshoots count(b <= u)
    because K is a power of two, so u K, its floor and k/K are exact and
    k/K <= u. Each pass steps over one more breakpoint only when it is <= u,
    and `steps` passes (the most breakpoints strictly inside one cell) reach
    count(b <= u). p grows from the smallest K >= 2 len(b) until every cell
    holds at most one breakpoint or K reaches the number of draws, so the
    table never costs more than the draws it serves. The final j indexes one
    answer table in `out`'s dtype, so each draw costs one `take` into `out`.
    The guide index stays intp: `take` copies any other index type to intp
    first.
    """
    b = np.unique(cum)
    # answer[j] = values[count(cum <= b[j - 1])], the answer once j = count(b <= u)
    answer = values.take(np.concatenate(([0], np.searchsorted(cum, b, side="right")))).astype(out.dtype)
    p = (2 * b.size - 1).bit_length()
    while True:
        K = 1 << p
        scaled = b * K
        inner = scaled[(scaled < K) & (scaled != np.floor(scaled))]
        steps = int(np.bincount(inner.astype(np.intp)).max()) if inner.size else 0
        if steps <= 1 or K >= u.size:
            break
        p += 1
    start = np.searchsorted(b, np.arange(K) / K, side="right")
    b_ext = np.append(b, np.inf)
    j = start.take((u * K).astype(np.intp))
    for _ in range(steps):
        j += b_ext.take(j) <= u
    # j never leaves 0..b.size, so "clip" clips nothing; unlike "raise" it
    # writes `out` directly instead of through a buffer
    answer.take(j, out=out, mode="clip")


def sample_choices_batch(g: Graph, rng: np.random.Generator, trials: int) -> np.ndarray:
    """(trials, n) array of neighbor picks (NO_CHOICE for the leftover mass).

    Vertex v picks its s-th neighbor when u lands in [cum[s-1], cum[s]) of its
    cumulative loads, and nothing past the last one. The draws are one
    `rng.random(trials)` per vertex with neighbors, in vertex order, that is
    `rng.random((k, trials))` for the k such vertices, handed out by
    `crslab.rng.rows`: `matching._for_blocks` runs the vertex rows on the
    engine threads, each row draws its uniforms at its stream offset and
    fills its own row of an (n, trials) array, returned transposed, and
    `rng` ends past all k * trials draws. The pick is `_pick`'s guide table,
    which finds exactly the slot of the binary search `np.searchsorted(cum,
    u, side="right")` for every u in [0, 1) in a constant number of passes
    per draw at any degree (it relies only on power-of-two cell widths, not
    on how the generator makes its numbers), and writes that slot's
    neighbor, or NO_CHOICE, straight into the vertex's row.

    The picks take the narrowest signed type that holds n - 1 and
    NO_CHOICE: int8 up to n = 128, int16 up to 2^15, int32 beyond. Readers
    promote them before any arithmetic (`_active_choices` returns intp
    targets).
    """
    n = g.vertex_count
    verts = np.flatnonzero(np.diff(g.indptr))
    out = np.full((n, trials), NO_CHOICE, dtype=np.min_scalar_type(min(-n, NO_CHOICE)))
    U = rows(rng, verts.size, trials)

    def block(first, last):
        for i in range(first, last):
            v = verts[i]
            lo, hi = g.indptr[v], g.indptr[v + 1]
            # slot hi - lo (the leftover mass) picks the trailing NO_CHOICE
            _pick(g.adj_cumx[lo:hi], U[i : i + 1][0], np.append(g.adj_v[lo:hi], NO_CHOICE), out[v])

    _for_blocks(verts.size, trials, block)
    return out.T


def vertex_arrivals(g: Graph, rng: np.random.Generator, count: int, then=None) -> tuple[Rows, np.ndarray, Rows]:
    """(Y, F, U) of `count` vertex-mode rows, drawn from `rng` in this order:
    times and decision uniforms as `crslab.rng.rows` (Y mapped by `then`),
    and the neighbor picks of `sample_choices_batch` between them.
    """
    n = g.vertex_count
    Y = rows(rng, count, n, then=then)
    F = sample_choices_batch(g, rng, count)
    return Y, F, rows(rng, count, n)


def two_phase_arrivals(g: Graph, rng: np.random.Generator, count: int) -> tuple[Rows, np.ndarray, Rows, Rows]:
    """(Y, F, UA, UB) of `count` two-phase rows: the `vertex_arrivals`
    draws, then the load-balancing uniforms UB as `crslab.rng.rows`."""
    return (*vertex_arrivals(g, rng, count), rows(rng, count, g.vertex_count))


class EdgeTimes(NamedTuple):
    """The arrival times `y` of a (rows, m) edge-mode batch, one per arrival id."""

    shape: tuple[int, int]
    y: np.ndarray


def edge_arrivals(g: Graph, rng: np.random.Generator, count: int, t_stop: float = 1.0, then=None) -> tuple[np.ndarray, EdgeTimes, np.ndarray]:
    """(ids, Ye, U) of the arrivals by t_stop in `count` edge-mode rows.

    One uniform a per (row, edge), in row-major order, carries both the
    activity and the time: the edge is active iff a < x_e, and then arrives
    at a / x_e, which is below 1 exactly when a < x_e under IEEE division.
    The count * m uniforms are drawn in the pieces of
    `matching._row_blocks`, one after another, which gives the stream
    of one call, and then(lo, times) may map the times of the piece of rows
    lo.. (the edge fill moves each row's forced edge to inf). Only the
    arrivals are kept, time < 1 and <= t_stop: their flat ids row * m + e
    in ascending order (int32 while count * m < 2^31) and their times. Then
    one decision uniform is drawn per arrival, in the same order, so the
    stream ends count * m + arrivals draws past its start.
    """
    m = g.edge_count
    id_type = np.int32 if count * m < 2**31 else np.int64
    # the largest time kept: t_stop, or the last double below 1
    last = min(t_stop, np.nextafter(1.0, 0.0))
    ids, ys = [], []
    for lo, hi in _row_blocks(count, m):
        times = rng.random((hi - lo, m))
        with np.errstate(divide="ignore", invalid="ignore"):  # x_e = 0 never arrives
            np.divide(times, g.x, out=times)
        if then is not None:
            times = then(lo, times)
        flat = times.reshape(-1)
        cell = np.flatnonzero(flat <= last)
        ids.append(np.add(cell, lo * m, dtype=id_type))
        ys.append(flat.take(cell))
    ids, y = (np.concatenate(parts or [np.empty(0, dtype)]) for parts, dtype in ((ids, id_type), (ys, np.float64)))
    return ids, EdgeTimes((count, m), y), rng.random(ids.size)


def rank1_arrivals(g: Graph, rng: np.random.Generator, count: int) -> tuple[Rows, Rows, Rows]:
    """(active, Ye, U) of `count` rows of the closed-form rank-1 scheme,
    drawn from `rng` in this order as `crslab.rng.rows`: an element is
    active when its uniform is below x_e, then its arrival time and its
    thinning uniform. This is the edge layout from before `edge_arrivals`;
    rank-1 keeps it until its acceptance check can tell a change of draws
    from a fault (ROADMAP item 7)."""
    m = g.edge_count
    active = rows(rng, count, m, then=lambda _, u: u < g.x)
    return active, rows(rng, count, m), rows(rng, count, m)


def _edge_block(ids: np.ndarray, Ye: EdgeTimes, U: np.ndarray, lo: int, hi: int, t_stop: float):
    """(row, e, y, u) of the arrivals by t_stop in rows lo..hi-1 of an
    `edge_arrivals` batch, found by a binary search of `ids`; `row` is
    block-local, and row and e are intp."""
    m = Ye.shape[1]
    a, b = np.searchsorted(ids, (lo * m, hi * m))
    cell, y, u = np.subtract(ids[a:b], lo * m, dtype=np.intp), Ye.y[a:b], U[a:b]
    keep = y <= t_stop
    if not keep.all():
        k = np.flatnonzero(keep)
        cell, y, u = cell.take(k), y.take(k), u.take(k)
    row = cell // m
    return row, cell - row * m, y, u


def _flat(a: np.ndarray) -> np.ndarray:
    """A flat C-order view of `a` (a copy only when `a` is not contiguous)."""
    return np.ascontiguousarray(a).reshape(-1)


def _choice_edges(g: Graph, F: np.ndarray) -> np.ndarray:
    """Edge id of every pick: out[i, v] is the edge (v, F[i, v]), -1 for none.

    The vertices go in groups v0..v1-1, each served by one table of edge ids
    indexed by (vertex, pick): row v - v0 holds -1 in column 0, where
    NO_CHOICE + 1 lands, and the edge (v, u) in column u + 1. A group
    scatters its CSR slice into the table, looks every pick up with one
    `take` through an intp index of its rows and resets what it wrote. The
    groups are `matching._row_blocks` of n rows of max(n + 1, rows), so an
    engine's row block is one group up to n = 361, the memory beyond the
    int32 output never grows with n^2, and the work is O(m + rows * n).
    The output is vertex-major, like `sample_choices_batch`.
    """
    n, count = g.vertex_count, F.shape[0]
    width = n + 1
    groups = _row_blocks(n, max(width, count))
    group = max((v1 - v0 for v0, v1 in groups), default=0)
    out = np.empty((n, count), dtype=np.int32)
    table = np.full(group * width, -1, dtype=np.int32)
    index = np.empty((group, count), dtype=np.intp)
    for v0, v1 in groups:
        lo, hi = g.indptr[v0], g.indptr[v1]
        base = np.arange(v1 - v0) * width + 1  # table entry of (v, pick) is base[v - v0] + pick
        keys = np.repeat(base, np.diff(g.indptr[v0 : v1 + 1])) + g.adj_v[lo:hi]
        table[keys] = g.adj_eid[lo:hi]
        np.add(F.T[v0:v1], base[:, None], out=index[: v1 - v0])
        table.take(index[: v1 - v0], out=out[v0:v1], mode="clip")  # "clip" writes `out` unbuffered
        table[keys] = -1
    return out.T


class _ActiveChoices(NamedTuple):
    """Active proposals of a (rows, n) batch, in row-major (row, proposer) order."""

    cell: np.ndarray  # flat index row * n + proposer
    row: np.ndarray
    proposer: np.ndarray  # the later endpoint, which picked the target
    target: np.ndarray
    edge: np.ndarray
    y: np.ndarray  # the proposer's arrival time


def _before(ya, a, yb, b):
    """Whether a arrives strictly before b in (time, then lower id) order."""
    return (ya < yb) | ((ya == yb) & (a < b))


def _active_choices(g: Graph, Y: np.ndarray, F: np.ndarray, t_stop: float = 1.0, exclude: int | None = None) -> _ActiveChoices:
    """Every active proposal of a vertex-mode batch that arrives by t_stop.

    A proposal is active when the proposer's pick arrived strictly earlier
    in (time, id) order. `exclude` removes one vertex from the instance.
    """
    rows, n = Y.shape
    y_flat = _flat(Y)
    Fc = np.ascontiguousarray(F)
    Yc = y_flat.reshape(rows, n)
    has = (Yc <= t_stop) & (Fc != NO_CHOICE)
    if exclude is not None:
        has[:, exclude] = False
        has &= Fc != exclude
    # the pick's time; NO_CHOICE reads some other cell, masked by `has`
    yu = y_flat.take(Fc + (np.arange(rows) * n)[:, None])
    arrived = has & _before(yu, Fc, Yc, np.arange(n))
    cell = np.flatnonzero(arrived)
    row = cell // n
    proposer = cell - row * n
    edge = _choice_edges(g, F).T.reshape(-1).take(proposer * rows + row)
    # the targets leave as intp: narrow picks would wrap in the callers' arithmetic
    return _ActiveChoices(cell, row, proposer, Fc.reshape(-1).take(cell).astype(np.intp), edge, y_flat.take(cell))
