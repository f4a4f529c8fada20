"""Recursive self-sampling contention resolution.

The scheme targets an exact conditional acceptance rate c(y) for an active
element arriving at time y. It cannot observe the true safety probability
S (the chance its partner is still free), so it estimates S by simulating
itself: time is split into T phases, and at the start of phase j the scheme
runs Q forced-arrival simulations of phases 1..j-1 (reusing the estimates
already recorded for those phases) to tabulate. An arrival at y in phase j
then proposes with probability

    min( c(y) / S_hat(j) * (1 - delta) / (1 + 1/(C T y)), 1 ).

Vertex mode keeps one estimate per directed adjacent pair (proposer ->
target); edge mode keeps one per edge. Tables are written once per phase and
never mutated afterwards, and nested simulations reuse them verbatim.

The rank-1 closed-form scheme (single star, loads summing to 1) needs no
tables: it accepts the first active element that passes an independent
Bernoulli(e^{-y x_e}) thinning.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .arrivals import EdgeTimes, _active_choices, _edge_block, _flat, edge_arrivals, rank1_arrivals, vertex_arrivals
from .graph import Graph
from .matching import BatchResult, SimResult, _ahead, _run_batch, _run_trials
from .rng import chunks
from .selection import SelectionFunction

__all__ = [
    "EstimateTable",
    "required_samples",
    "phase_of",
    "fill_tables",
    "fill_tables_edge",
    "run_vertex_batch",
    "run_edge_batch",
    "simulate_vertex",
    "simulate_edge",
    "simulate_rank1",
    "BatchResult",
    "SimResult",
]

# Row budget for one estimator batch; keeps peak memory modest and makes
# chunk boundaries (and hence RNG keys) independent of available RAM.
FILL_ROW_CHUNK = 1_000_000


def required_samples(C: float, delta: float, T: int, n: int) -> int:
    """Smallest integer Q >= (3/(C delta^2)) ln(2 T n^2 / delta)."""
    if not (0.0 < C <= 1.0):
        raise ValueError("C must lie in (0, 1]")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if T < 1 or n < 1:
        raise ValueError("T and n must be >= 1")
    return math.ceil(3.0 / (C * delta * delta) * math.log(2.0 * T * n * n / delta))


def phase_of(y, T: int):
    """Phase index j for arrival time y in (t_j, t_{j+1}] with t_j = j/T, as intp."""
    j = np.ceil(np.asarray(y, dtype=np.float64) * T) - 1.0
    return np.clip(j, 0.0, T - 1.0).astype(np.intp)


@dataclass
class EstimateTable:
    T: int
    delta: float
    values: np.ndarray  # (T, 2m) vertex / (T, m) edge; row 0 is all ones

    def at(self, y: np.ndarray, col: np.ndarray) -> np.ndarray:
        """values[phase_of(y, T), col], read through one flat index."""
        width = self.values.shape[1]
        return self.values.reshape(-1).take(phase_of(y, self.T) * width + col)


def _pair_estimate(g: Graph, table: EstimateTable, y: np.ndarray, edge: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Vertex-mode S_hat at times y of the pairs proposing to `target` along `edge`."""
    return table.at(y, 2 * edge + (target == g.ev.take(edge)))


def _proposal_param(sel: SelectionFunction, table: EstimateTable, y: np.ndarray, shat: np.ndarray, lock=contextlib.nullcontext()) -> np.ndarray:
    """Proposal probability min(c(y) / S_hat * (1 - delta) / (1 + 1/(C T y)), 1).

    `sel` is called under `lock`: it may be a user callable that is not
    thread-safe. At y = 0 the damping is infinite and the probability is its
    limit 0.
    """
    with lock:
        c = sel(y)
    with np.errstate(divide="ignore"):
        param = c / shat * (1.0 - table.delta) / (1.0 + 1.0 / (sel.floor * table.T * y))
    return np.minimum(param, 1.0, out=param)


def run_vertex_batch(
    g: Graph,
    sel: SelectionFunction,
    table: EstimateTable,
    Y: np.ndarray,
    F: np.ndarray,
    U: np.ndarray,
    t_stop: float = 1.0,
    exclude: int | None = None,
    bins: int | None = None,
    watch: np.ndarray | None = None,
) -> BatchResult:
    """Vectorized vertex-mode runs over the trial axis.

    Y, F, U are (trials, n): arrival times, neighbor choices and per-vertex
    decision uniforms. Y and U may be `crslab.rng.Rows`, as every array
    input of the engines may: only their shape and row slices are read.
    Passing the same arrays with different `exclude` values realizes
    coupled executions on G and G minus a vertex. The result's `matched`
    holds the flags at the (trials, k) vertex ids `watch`, as in every
    engine (None without it).
    """

    def propose(lo, hi, lock):
        c = _active_choices(g, Y[lo:hi], F[lo:hi], t_stop, exclude)
        shat = _pair_estimate(g, table, c.y, c.edge, c.target)
        k = np.flatnonzero(_flat(U[lo:hi]).take(c.cell) <= _proposal_param(sel, table, c.y, shat, lock))
        return (c.edge, c.y), (c.row.take(k), c.y.take(k), c.target.take(k), c.proposer.take(k), c.edge.take(k))

    return _run_batch(g, *Y.shape, bins, propose, watch)


def _forced(width: int, tj: float, late: np.ndarray, early: np.ndarray | None = None):
    """then(lo, times) of an arrival layout on rows lo.. of a fill chunk: each
    row's `late` cell moves to inf, so it does not arrive by t_j, and its
    `early` cell, when given, is scaled into [0, t_j)."""

    def force(lo, times):
        start = np.arange(times.shape[0]) * width  # each row's first flat cell
        flat = times.reshape(-1)  # a fresh C-order block: the view writes through
        if early is not None:
            flat[start + early[lo : lo + start.size]] *= tj
        flat[start + late[lo : lo + start.size]] = np.inf
        return times

    return force


def _fill(g: Graph, sel: SelectionFunction, T: int, delta: float, Q: int | None, seed: int, tag: str, ends: np.ndarray, run, draw=None) -> EstimateTable:
    """The estimate table of either mode, one phase at a time.

    Phase j runs Q rows per entry i (Q defaults to `required_samples`) in
    chunks of FILL_ROW_CHUNK rows from the streams (seed, tag, j, chunk);
    row r forces entry r // Q, and entry i is the share of its rows that
    leave every vertex of ends[i] free at t_j, clamped to [C/2, 1].
    run(table, t_j, entry, watch, drawn) runs a chunk on the rows written so
    far; `drawn` is the chunk's stream or, with `draw`, draw(stream, entry,
    t_j), made on the `_ahead` helper while the previous chunk runs. The
    streams are created on the calling thread either way.
    """
    if Q is None:
        if delta == 0.0:
            raise ValueError("delta=0 (idealized mode) needs an explicit Q")
        Q = required_samples(sel.floor, delta, T, g.vertex_count)
    width = ends.shape[0]
    table = EstimateTable(T, delta, np.ones((T, width), dtype=np.float64))
    rows = width * Q
    phases = ((j, chunk) for j in range(1, T) for chunk in chunks(seed, rows, FILL_ROW_CHUNK, tag, j))

    def make(item):
        j, (rng, base, count) = item
        entry = (base + np.arange(count)) // Q
        return j, base + count == rows, entry, ends.take(entry, axis=0), rng if draw is None else draw(rng, entry, j / T)

    free = np.zeros(width, dtype=np.float64)
    with contextlib.closing((make(item) for item in phases) if draw is None else _ahead(make, phases)) as made:
        for j, last, entry, watch, drawn in made:
            matched = run(table, j / T, entry, watch, drawn).matched
            hit = matched[:, 0]
            for k in range(1, matched.shape[1]):  # column by column: cheaper than any(axis=1)
                hit = hit | matched[:, k]
            free += np.bincount(entry, weights=~hit, minlength=width)
            if last:  # the phase's rows are all in
                table.values[j] = np.clip(free / Q, sel.floor / 2.0, 1.0)
                free[:] = 0.0
    return table


def fill_tables(g: Graph, sel: SelectionFunction, T: int, delta: float, Q: int | None, seed: int) -> EstimateTable:
    """Estimate tables for vertex mode (`_fill`): Q forced runs per directed
    pair, its target's time scaled into [0, t_j) and its proposer's at inf,
    each watching its target; a chunk is drawn on the calling thread."""
    targets = np.column_stack((g.eu, g.ev)).reshape(-1)  # the column rule of `_pair_estimate`
    proposers = np.column_stack((g.ev, g.eu)).reshape(-1)

    def run(table, tj, entry, watch, rng):
        Y, F, U = vertex_arrivals(g, rng, entry.size, then=_forced(g.vertex_count, tj, proposers.take(entry), targets.take(entry)))
        return run_vertex_batch(g, sel, table, Y, F, U, t_stop=tj, watch=watch)

    return _fill(g, sel, T, delta, Q, seed, "fill-vertex", targets[:, None], run)


# -- edge mode ----------------------------------------------------------------


def run_edge_batch(
    g: Graph,
    sel: SelectionFunction,
    table: EstimateTable,
    ids: np.ndarray,
    Ye: EdgeTimes,
    U: np.ndarray,
    t_stop: float = 1.0,
    bins: int | None = None,
    watch: np.ndarray | None = None,
) -> BatchResult:
    """Vectorized edge-mode runs; feasibility is both endpoints unmatched.

    ids, Ye, U are a batch's arrivals as `crslab.arrivals.edge_arrivals`
    gives them, and `Ye.shape` is the batch's (trials, m). Each row block
    finds its arrivals by a binary search of `ids` and drops those after
    t_stop, so one arrival set serves any t_stop.
    """

    def propose(lo, hi, lock):
        row, e, y, u = _edge_block(ids, Ye, U, lo, hi, t_stop)
        k = np.flatnonzero(u <= _proposal_param(sel, table, y, table.at(y, e), lock))
        ek = e.take(k)
        return (e, y), (row.take(k), y.take(k), g.eu.take(ek), g.ev.take(ek), ek)

    return _run_batch(g, *Ye.shape, bins, propose, watch)


def fill_tables_edge(g: Graph, sel: SelectionFunction, T: int, delta: float, Q: int | None, seed: int) -> EstimateTable:
    """Estimate tables for edge mode (`_fill`): S_hat_e(j) = P[e feasible at t_j | Y_e > t_j].

    Q forced rows per edge are drawn by `edge_arrivals` to t_j with the
    forced edge at inf, so it never arrives and draws no decision uniform;
    the draws do not depend on the table, so the next chunk's are made on
    the `_ahead` helper. Each run watches the two ends of its forced edge.
    """
    m = g.edge_count

    def draw(rng, entry, tj):
        return edge_arrivals(g, rng, entry.size, tj, _forced(m, tj, entry))

    def run(table, tj, entry, watch, arrivals):
        return run_edge_batch(g, sel, table, *arrivals, t_stop=tj, watch=watch)

    return _fill(g, sel, T, delta, Q, seed, "fill-edge", np.column_stack((g.eu, g.ev)), run, draw)


# -- top-level experiment loops -------------------------------------------------


TRIAL_CHUNK = 100_000


def simulate_vertex(
    g: Graph,
    sel: SelectionFunction,
    T: int,
    delta: float,
    trials: int,
    seed: int,
    Q: int | None = None,
    bins: int = 20,
) -> SimResult:
    """Fill tables once, then measure acceptance over independent trials."""
    table = fill_tables(g, sel, T, delta, Q, seed)
    return _run_trials(g, trials, bins, seed, TRIAL_CHUNK, "trials-vertex",
                       lambda rng, count: run_vertex_batch(g, sel, table, *vertex_arrivals(g, rng, count), bins=bins))


def simulate_edge(
    g: Graph,
    sel: SelectionFunction,
    T: int,
    delta: float,
    trials: int,
    seed: int,
    Q: int | None = None,
    bins: int = 20,
) -> SimResult:
    table = fill_tables_edge(g, sel, T, delta, Q, seed)
    return _run_trials(g, trials, bins, seed, TRIAL_CHUNK, "trials-edge",
                       lambda rng, count: run_edge_batch(g, sel, table, *edge_arrivals(g, rng, count), bins=bins))


def simulate_rank1(g: Graph, trials: int, seed: int, bins: int = 20) -> SimResult:
    """Vectorized closed-form rank-1 runs.

    The first active element passing its thinning bit is the unique accept.
    Each kept element proposes with target = proposer = 0, so the elements
    of a row compete for one slot and `resolve` accepts the earliest (the
    lowest edge id on a tie). Row blocks draw their own rows.
    """
    if abs(float(np.sum(g.x)) - 1.0) > 1e-9:
        raise ValueError("rank-1 closed form needs element values summing to 1")
    m = g.edge_count

    def batch(rng, count):
        active, Ye, U = rank1_arrivals(g, rng, count)

        def propose(lo, hi, lock):
            cell = np.flatnonzero(_flat(active[lo:hi]))
            row = cell // m
            e = cell - row * m
            y = _flat(Ye[lo:hi]).take(cell)
            k = np.flatnonzero(_flat(U[lo:hi]).take(cell) <= np.exp(-y * g.x.take(e)))
            slot = np.zeros(k.size, dtype=np.intp)
            return (e, y), (row.take(k), y.take(k), slot, slot, e.take(k))

        return _run_batch(g, count, m, bins, propose)

    return _run_trials(g, trials, bins, seed, TRIAL_CHUNK, "trials-rank1", batch)
