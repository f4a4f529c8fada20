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


def fill_tables(g: Graph, sel: SelectionFunction, T: int, delta: float, Q: int, seed: int) -> EstimateTable:
    """Estimate tables for vertex mode, one phase at a time.

    Phase j is estimated from Q forced runs per directed pair (target's time
    uniform on [0, t_j), proposer's on (t_j, 1], fresh choices), executed as
    one stacked batch over all 2m pairs and reusing rows 0..j-1 of the table.
    Each run watches its forced target only.
    """
    m = g.edge_count
    n = g.vertex_count
    floor_clamp = sel.floor / 2.0
    values = np.ones((T, 2 * m), dtype=np.float64)
    table = EstimateTable(T, delta, values)
    # the column rule of `_pair_estimate`: 2 eid targets eu, 2 eid + 1 targets ev
    targets = np.column_stack((g.eu, g.ev)).reshape(-1)
    proposers = np.column_stack((g.ev, g.eu)).reshape(-1)
    for j in range(1, T):
        tj = j / T
        unmatched = np.zeros(2 * m, dtype=np.float64)
        for rng, base, count in chunks(seed, 2 * m * Q, FILL_ROW_CHUNK, "fill-vertex", j):
            dir_id = (base + np.arange(count)) // Q

            def force(lo, Y):
                """Rows lo.. of the times: target uniform on [0, t_j), proposer on (t_j, 1]."""
                d = dir_id[lo : lo + Y.shape[0]]
                start = np.arange(d.size) * n  # each row's first flat cell
                # Y is a fresh C-order block, so its flat view writes through
                flat, tgt, prop = Y.reshape(-1), start + targets.take(d), start + proposers.take(d)
                flat[tgt] *= tj
                flat[prop] = tj + flat.take(prop) * (1.0 - tj)
                return Y

            Y, F, U = vertex_arrivals(g, rng, count, then=force)
            res = run_vertex_batch(g, sel, table, Y, F, U, t_stop=tj, watch=targets.take(dir_id)[:, None])
            free = ~res.matched[:, 0]
            unmatched += np.bincount(dir_id, weights=free, minlength=2 * m)
        values[j] = np.clip(unmatched / Q, floor_clamp, 1.0)
    return table


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


def fill_tables_edge(g: Graph, sel: SelectionFunction, T: int, delta: float, Q: int, seed: int) -> EstimateTable:
    """Estimate tables for edge mode: S_hat_e(j) = P[e feasible at t_j | Y_e > t_j].

    Phase j runs Q forced rows per edge, in chunks of FILL_ROW_CHUNK rows
    drawn from the stream (seed, "fill-edge", j, chunk) by `edge_arrivals`
    to t_stop = t_j, with each row's forced edge moved to inf: it never
    arrives, and only the edges that arrive by t_j draw a decision uniform.
    A chunk's draws do not depend on the table, so the next chunk's are
    made on the fill's one helper thread while the engine runs this one;
    the streams are created on the calling thread, so the table does not
    depend on it. Each run watches the two endpoints of its forced edge.
    """
    m = g.edge_count
    floor_clamp = sel.floor / 2.0
    values = np.ones((T, m), dtype=np.float64)
    table = EstimateTable(T, delta, values)
    ends = np.column_stack((g.eu, g.ev))  # each edge's two endpoints
    rows_total = m * Q
    phases = ((j, chunk) for j in range(1, T) for chunk in chunks(seed, rows_total, FILL_ROW_CHUNK, "fill-edge", j))

    def draw(item):
        j, (rng, base, count) = item
        erow = (base + np.arange(count)) // Q  # each row's forced edge

        def force(lo, times):
            """Rows lo.. of the times, each row's forced edge at inf."""
            times.reshape(-1)[np.arange(times.shape[0]) * m + erow[lo : lo + times.shape[0]]] = np.inf
            return times

        return j, base + count == rows_total, erow, ends.take(erow, axis=0), edge_arrivals(g, rng, count, j / T, force)

    feasible = np.zeros(m, dtype=np.float64)
    with contextlib.closing(_ahead(draw, phases)) as drawn:
        for j, last, erow, watch, arrivals in drawn:
            res = run_edge_batch(g, sel, table, *arrivals, t_stop=j / T, watch=watch)
            free = ~(res.matched[:, 0] | res.matched[:, 1])
            feasible += np.bincount(erow, weights=free, minlength=m)
            if last:  # the phase's rows are all in
                values[j] = np.clip(feasible / Q, floor_clamp, 1.0)
                feasible[:] = 0.0
    return table


# -- top-level experiment loops -------------------------------------------------


TRIAL_CHUNK = 100_000


def _table(fill, g: Graph, sel: SelectionFunction, T: int, delta: float, Q: int | None, seed: int) -> EstimateTable:
    """fill(...) with Q samples per phase (by default the required number)."""
    if Q is None:
        if delta == 0.0:
            raise ValueError("delta=0 (idealized mode) needs an explicit Q")
        Q = required_samples(sel.floor, delta, T, g.vertex_count)
    return fill(g, sel, T, delta, Q, seed)


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
    table = _table(fill_tables, g, sel, T, delta, Q, seed)
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
    table = _table(fill_tables_edge, g, sel, T, delta, Q, seed)
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
