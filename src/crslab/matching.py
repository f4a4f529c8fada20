"""Engine result types, the trial driver and the candidate-then-resolve kernel.

In every batch engine the only sequential state is which vertices are
matched: arrival order, active proposals and decision bits depend on the
arrivals alone. So the engines (recursive vertex and edge, two-phase,
rank-1) differ only in the keep rule that `_run_batch` applies to one row
block in a single vectorized pass; `_BatchTally.resolve` accepts the kept
proposals in greedy rounds, visiting only the proposals themselves. It
keeps the matched flags of its block only, and a batch returns those of
the vertices its caller watches (`watch`, k ids per row): a table fill
reads one or two per row and a trial loop none, so no batch holds a
(trials, n) flag matrix. A keep rule gathers its kept proposals through
one integer index (`np.flatnonzero` of its keep mask, then `take`), and
`resolve` gathers its accepted ones the same way: at the densities keep
rules produce, a boolean-mask gather costs several times as much per
element. Every trial loop is one `_run_trials`, which runs its chunks and
sums their counters into a SimResult.

Row blocks share no state but the tally's counters, so `_for_blocks` runs
them on up to `WORKERS` threads (numpy releases the interpreter lock in its
kernels and in its draws). The arrival layouts of `crslab.arrivals` hand
out a chunk's uniforms as `crslab.rng.rows`, so each block draws its own
rows there; the choice sampler runs its vertex rows through `_for_blocks` the same way. The memory
budget of one serial block is split across the workers, the counters are
integer sums taken under one lock, and the selection function is called
under that lock too, so the result is the same for every worker count and
block budget.

`_ahead` overlaps the making of a batch's inputs with the run of the
previous batch: the next item is made on one helper thread per call, on
any number of CPUs. Of the table fills only the edge-mode one uses it, for
its arrival draws (the vertex-mode fill draws on the calling thread, where
it holds less memory), and the streams are still created on the calling
thread, so the draws, and every result, are the same for every worker
count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .rng import chunks

__all__ = ["BatchResult", "SimResult"]

# Element budget (rows x width) of the row blocks in flight in a batch
# engine, split evenly across its workers; a block's uniforms, candidate and
# kernel arrays stay within a small multiple of its share. A block draws its
# own uniforms at their fixed offsets in the chunk's stream
# (`crslab.rng.rows`), so results do not depend on the budget.
ROW_BLOCK_ELEMS = 1 << 17

# Engine threads: the CPUs this process may run on (`taskset -c 0` gives a
# serial run). A batch uses at most one per whole ROW_BLOCK_ELEMS block.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass
class BatchResult:
    """Counters produced by one vectorized batch of trials."""

    matched: np.ndarray | None  # (trials, k) matched-by-t_stop flags of the watched vertices
    accepted: np.ndarray  # (m,) accepted count per edge
    active: np.ndarray  # (m,) active-proposal count per edge
    acc_bin: np.ndarray | None = None  # (m, bins)
    act_bin: np.ndarray | None = None  # (m, bins)


@dataclass
class SimResult:
    """Per-edge and per-bin counts accumulated over all trials of a simulation."""

    trials: int
    bins: int
    accepted: np.ndarray  # (m,)
    active: np.ndarray  # (m,)
    acc_bin: np.ndarray  # (m, bins) accepted by arrival bin
    act_bin: np.ndarray  # (m, bins) active by arrival bin

    def ratio_active(self) -> np.ndarray:
        """Accepted / active per edge (nan when an edge was never active)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.active > 0, self.accepted / np.maximum(self.active, 1), np.nan)

    def ratio_x(self, g: Graph) -> np.ndarray:
        """Accepted / (trials * x_e) per edge (nan where x_e is 0)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = self.trials * g.x
            return np.where(denom > 0, self.accepted / np.where(denom > 0, denom, 1.0), np.nan)


def _run_trials(g: Graph, trials: int, bins: int, seed: int, size: int, tag: str, batch) -> SimResult:
    """The four counters of `trials` runs, summed over chunks of `size` rows.

    Chunk i of `crslab.rng.chunks` is run by batch(rng, count), which
    draws its rows from `rng`, the stream (seed, tag, i), and returns the
    chunk's BatchResult with `bins` arrival bins.
    """
    m = g.edge_count
    totals = [np.zeros(m, np.int64), np.zeros(m, np.int64), np.zeros((m, bins), np.int64), np.zeros((m, bins), np.int64)]
    for rng, _, count in chunks(seed, trials, size, tag):
        res = batch(rng, count)
        for total, part in zip(totals, (res.accepted, res.active, res.acc_bin, res.act_bin)):
            total += part
    return SimResult(trials, bins, *totals)


def _row_blocks(rows: int, width: int) -> list[tuple[int, int]]:
    """(lo, hi) ranges of `rows` rows of `width`, ROW_BLOCK_ELEMS elements at most (one row at least)."""
    step = max(1, ROW_BLOCK_ELEMS // max(width, 1))
    return [(lo, min(rows, lo + step)) for lo in range(0, rows, step)]


def _for_blocks(trials: int, width: int, body) -> None:
    """Call body(lo, hi) once for each row block lo..hi-1 of a batch.

    A batch that fills b whole ROW_BLOCK_ELEMS blocks runs on
    w = min(WORKERS, b) threads (one if b is 0), the caller's and w - 1
    helpers, each taking every w-th block of `_row_blocks` at w times the
    width. A batch under two whole blocks stays serial: split,
    its blocks carry too little numpy work to outweigh the interpreter-lock
    hand-offs. The first exception raised in a block stops the blocks not
    yet started and is re-raised here once every helper has finished.
    """
    width = max(width, 1)
    workers = max(1, min(WORKERS, trials // max(1, ROW_BLOCK_ELEMS // width)))
    blocks = _row_blocks(trials, width * workers)
    errors: list[BaseException] = []

    def run(share):
        try:
            for lo, hi in share:
                if errors:
                    return
                body(lo, hi)
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(blocks[k::workers],), daemon=True) for k in range(1, workers)]
    for h in helpers:
        h.start()
    run(blocks[::workers])
    for h in helpers:
        h.join()
    if errors:
        raise errors[0]


def _ahead(make, items):
    """Yield make(item) for each item of `items`, in order.

    make(item k + 1) runs on one helper thread while the caller consumes
    the result of item k. `items` is advanced on the calling thread only,
    so whatever it creates (random streams, say) is created there.
    make(item k + 2) starts only once the caller asks for result k + 1, so
    it may reuse the buffers of result k. An exception raised in make is
    re-raised here, and no later item is made; closing the generator early
    waits for the helper first.
    """
    # imported here: only the edge fill pays for concurrent.futures (and logging)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        futures = (helper.submit(make, item) for item in items)
        pending = next(futures, None)
        while pending is not None:
            value = pending.result()
            pending = next(futures, None)
            yield value


def _bin_of(y: np.ndarray, bins: int) -> np.ndarray:
    return np.minimum((y * bins).astype(np.int64), bins - 1)


class _BatchTally:
    """The BatchResult of one engine batch, filled row block by row block.

    `_run_batch` counts each block's active proposals, then passes those
    its engine kept to `resolve`. Blocks may run on several threads: each
    writes only its own rows, and adds to the shared counters under `lock`,
    which also serializes the engine's selection calls. `watch`, when
    given, is a (trials, k) array of vertex ids: each row's k flags at
    those ids are kept in `watched`.
    """

    def __init__(self, g: Graph, trials: int, bins: int | None = None, watch: np.ndarray | None = None):
        m = g.edge_count
        self.n = g.vertex_count
        self.bins = bins
        self.watch = watch
        self.watched = None if watch is None else np.zeros(watch.shape, dtype=bool)
        self.accepted = np.zeros(m, dtype=np.int64)
        self.active = np.zeros(m, dtype=np.int64)
        self.acc_bin = np.zeros((m, bins), dtype=np.int64) if bins else None
        self.act_bin = np.zeros((m, bins), dtype=np.int64) if bins else None
        self.lock = threading.Lock()

    def _add(self, total: np.ndarray, ids: np.ndarray) -> None:
        """Counts of `ids` (computed outside the lock) added to `total` under it."""
        counts = np.bincount(ids, minlength=total.size)
        with self.lock:
            total += counts

    def count(self, total: np.ndarray, by_bin: np.ndarray | None, edge: np.ndarray, y: np.ndarray | None) -> None:
        """Count proposals per edge into `total` (and per arrival bin into
        `by_bin`); the times `y` are read only with bins."""
        self._add(total, edge)
        if self.bins:
            self._add(by_bin.reshape(-1), edge * self.bins + _bin_of(y, self.bins))

    def resolve(self, lo: int, hi: int, row, y, target, proposer, edge) -> np.ndarray:
        """Accept one block's proposals by the greedy rule, count them, keep
        the watched flags of rows lo..hi-1 and return the mask of the
        accepted ones.

        Rows lo..hi-1 start all unmatched, so each row's proposals must come
        in one call; `row` is block-local. A proposal is
        accepted iff both endpoints are still unmatched when it arrives, in
        (y, index) order within its row, so a row's proposals must come in
        slot order (proposer id or edge id): index order breaks ties in `y`.
        Its two vertex keys are distinct in every engine: rank-1 gives each
        element slot vertices 0 and 1, so a row's elements share both keys and
        the earliest wins. target == proposer still resolves, by the tie branch.

        The rule runs in greedy rounds (Blelloch, Fineman & Shun, SPAA
        2012), each over the live proposals. A proposal wins a round when it
        is the earliest live one at both its endpoints (the vertex keys
        row*n + target and row*n + proposer). Every earlier proposal at those
        vertices has then been decided, so sequential greedy accepts it too;
        and any live proposal touching a winner's endpoint came later, so it
        is rejected. Winners mark their endpoints matched, and every live
        proposal touching a matched vertex drops out. Equal times at a shared
        vertex are detected per round, and only then broken by the lowest
        index. The earliest live proposal of every row wins each round, so
        the rounds never outnumber the most proposals in any row.
        """
        n = self.n
        flat = np.zeros((hi - lo) * n, dtype=bool)  # the block's matched flags
        # the live proposals: index, vertex keys and time
        live, a, b, t = np.arange(row.size), row * n + target, row * n + proposer, y
        acc = np.zeros(row.size, dtype=bool)
        first = np.full(flat.size, np.inf)  # earliest live time per key
        while live.size:
            np.minimum.at(first, a, t)
            np.minimum.at(first, b, t)
            at_a, at_b = t == first.take(a), t == first.take(b)
            win = at_a & at_b
            # without ties, each touched key has exactly one proposal at its minimum
            if np.count_nonzero(at_a) + np.count_nonzero(at_b) > np.count_nonzero(first != np.inf):
                lowest = np.full(flat.size, row.size)
                np.minimum.at(lowest, a[at_a], live[at_a])
                np.minimum.at(lowest, b[at_b], live[at_b])
                win &= (lowest.take(a) == live) & (lowest.take(b) == live)
            first[a] = np.inf
            first[b] = np.inf
            w = np.flatnonzero(win)
            acc[live.take(w)] = True
            flat[a.take(w)] = True
            flat[b.take(w)] = True
            keep = np.flatnonzero(~(flat.take(a) | flat.take(b)))
            live, a, b, t = live.take(keep), a.take(keep), b.take(keep), t.take(keep)
        if self.watch is not None:
            # a flat take: `np.take_along_axis` costs twice as much here
            self.watched[lo:hi] = flat.take(np.arange(hi - lo)[:, None] * n + self.watch[lo:hi])
        k = np.flatnonzero(acc)
        self.count(self.accepted, self.acc_bin, edge.take(k), y.take(k) if self.bins else None)
        return acc

    def result(self) -> BatchResult:
        return BatchResult(self.watched, self.accepted, self.active, self.acc_bin, self.act_bin)


def _run_batch(g: Graph, trials: int, width: int, bins: int | None, propose, watch: np.ndarray | None = None) -> BatchResult:
    """One engine batch of `trials` rows of `width` arrivals.

    propose(lo, hi, lock), the engine's keep rule on rows lo..hi-1, returns
    the (edge, y) of every active proposal and the (row, y, target,
    proposer, edge) of the kept ones; it calls selection under `lock`.
    `watch` is a (trials, k) intp array of the vertex ids whose matched
    flags the result carries, one row per trial row; with None it carries
    none.
    """
    tally = _BatchTally(g, trials, bins, watch)

    def block(lo, hi):
        (edge, y), kept = propose(lo, hi, tally.lock)
        tally.count(tally.active, tally.act_bin, edge, y)
        tally.resolve(lo, hi, *kept)

    _for_blocks(trials, width, block)
    return tally.result()
