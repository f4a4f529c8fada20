"""Round-based matching process on K_{n,n} and its fluid-limit trajectory.

The 2n vertices arrive one at a time in uniform random order; an arriving
vertex picks one uniform partner on the opposite side (the x = 1/n choice
distribution) and greedy accepts that pair if the partner has already
arrived and both are unmatched. The matched fraction M(t)/n tracks
the solution m(s) = (e^{-s} + s - 1)/2 of m' = s/2 - m, and the balance
event Q_t controls how far the two sides' unarrived counts may drift apart.

`hardness_trajectory` does not replay the rounds one by one. Whether a pick
is feasible depends only on the draws (its partner arrived in an earlier
round), so one pass over all rounds finds every feasible pick. The arriving
vertex is never matched yet, so a feasible pick is accepted iff its partner
is still free: a greedy pass visits only the feasible picks, the s-th one of
every trial at once. M(t) is the running count of accepted picks, and Q_t
follows from the running count of left-side arrivals.

No (trials, 2n) array is int64 or intp. The arrival orders are kept in
the narrow round type, and one row block (`matching._row_blocks`) at a
time turns them into Q_t and then, in place, into partner rounds, drawing
its partners as it goes. The feasible picks are then laid out in two int32
slot grids, and M(t) is summed in place in the round type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import _row_blocks
from .rng import stream

__all__ = [
    "m_de",
    "TrajectoryReport",
    "hardness_trajectory",
]

def m_de(s: float) -> float:
    """Matched-fraction fluid limit (e^{-s} + s - 1)/2."""
    return (math.exp(-s) + s - 1.0) / 2.0


@dataclass
class TrajectoryReport:
    n: int
    trials: int
    matched: np.ndarray  # (trials, 2n+1) M(t) after t rounds, int16 while 2n < 2^14, else int32
    balance: np.ndarray  # (trials, 2n+1) Q_t indicator

    @property
    def rounds(self) -> np.ndarray:
        return np.arange(2 * self.n + 1)

    @property
    def mean_trajectory(self) -> np.ndarray:
        """Mean M(t)/n per round."""
        return self.matched.mean(axis=0) / self.n

    @property
    def reference(self) -> np.ndarray:
        """m(t/n) per round."""
        s = self.rounds / self.n
        return (np.exp(-s) + s - 1.0) / 2.0

    @property
    def finals(self) -> np.ndarray:
        return self.matched[:, -1] / self.n

    @property
    def mean_final(self) -> float:
        return float(self.finals.mean())

    @property
    def sup_distance(self) -> float:
        return float(np.abs(self.mean_trajectory - self.reference).max())

    @property
    def q_frequency(self) -> np.ndarray:
        """Per-round frequency of the balance event."""
        return self.balance.mean(axis=0)

    def q_min_frequency(self, t_max: int) -> float:
        """Smallest per-round Q_t frequency over rounds 0..t_max."""
        return float(self.q_frequency[: t_max + 1].min())

    def q_all_frequency(self, t_max: int) -> float:
        """Fraction of trials where Q_t held at every round 0..t_max."""
        return float(self.balance[:, : t_max + 1].all(axis=1).mean())


def hardness_trajectory(n: int, trials: int, seed: int) -> TrajectoryReport:
    """Simulate the greedy round process on K_{n,n} with x = 1/n choices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    N = 2 * n
    # vertex ids, rounds, counts and the balance bounds (within [-n, 3n]) fit in `small`
    small = np.int16 if N < 2**14 else np.int32
    rounds = np.arange(N, dtype=small)
    rng = stream(seed, "hardness", n)
    order = np.tile(rounds, (trials, 1))
    rng.permuted(order, axis=1, out=order)  # its draws do not depend on the dtype
    balance = np.empty((trials, N + 1), dtype=bool)
    balance[:, 0], lo_bound, hi_bound = _balance_bounds(n, small)
    # Row block by row block, each row's arrival order becomes its partner
    # rounds in place. A block draws its partners as one `integers` call
    # would, since int64 draws come one after another whatever their shape.
    for lo, hi in _row_blocks(trials, N):
        block = order[lo:hi]
        is_left = block < n
        left = np.cumsum(is_left, axis=1, dtype=small)
        np.greater_equal(left, lo_bound, out=balance[lo:hi, 1:])
        balance[lo:hi, 1:] &= left <= hi_bound
        # from here on a vertex is named by the round it arrives in
        base = np.arange(0, block.size, N, dtype=np.int32)[:, None]
        arrival = np.empty_like(block)
        arrival.reshape(-1)[block + base] = rounds
        partner = rng.integers(0, n, size=block.shape)
        np.add(partner, n, out=partner, where=is_left)
        partner += base
        arrival.reshape(-1).take(partner, out=block, mode="clip")  # "clip" writes `block` unbuffered
    cells, partners, width = _slots(order, rounds)
    del order

    # greedy pass, one slot at a time. The arriving vertex is never matched
    # yet, so a pick is accepted iff its partner is still free; then the
    # partner is matched whatever happened, and the arriving vertex with it.
    free = np.ones(trials * (N + 1), dtype=bool)  # by (row, arrival round + 1)
    taken = np.zeros(cells.shape, dtype=bool)
    for s, w in enumerate(width.tolist()):
        at = partners[s, :w]
        ok = np.take(free, at, out=taken[s, :w])
        free[at] = False
        free[cells[s, :w]] = ~ok
    del free, partners
    # an accepted pick adds one to M(t) from its own round on (at most n);
    # the unused cells are 0, M(0) of the first row, and write 0 there
    matched = np.zeros((trials, N + 1), dtype=small)
    matched.reshape(-1)[cells] = taken
    del cells, taken
    np.cumsum(matched, axis=1, out=matched)  # in place: no temporary
    return TrajectoryReport(n, trials, matched, balance)


def _balance_bounds(n: int, small):
    """Q_0, and the bounds of the left-arrival count under Q_t, rounds 1..2n.

    After t rounds with L left arrivals, max(n - L, n - (t - L)) unarrived
    vertices must be at most the round's threshold, i.e. at most its floor
    `b`: both L and t - L at least n - b.
    """
    N = 2 * n
    thresholds = (1.0 + n ** (-1.0 / 3.0)) * (N - np.arange(N + 1)) / 2.0
    need = n - np.floor(thresholds[1:]).astype(np.int64)
    return n <= thresholds[0], need.astype(small), (np.arange(1, N + 1) - need).astype(small)


def _slots(partner_round: np.ndarray, rounds: np.ndarray):
    """The feasible picks laid out slot by slot for the greedy pass.

    A pick is feasible when its partner arrived in an earlier round, and
    slot s holds the s-th feasible pick of every row that has more than s.
    Taken in order of decreasing pick count, those rows come first, so row
    s of the (slots, trials) outputs holds slot s in its first width[s]
    entries, zeros after them; the picks of a slot lie in distinct rows,
    so their order does not matter to the pass. A vertex
    arriving in round t of row r is the cell r * (2n + 1) + t + 1 of a
    (trials, 2n + 1) array, the entry of M(t + 1). Returns each pick's
    cell, which names its arriving vertex, the cell of its partner, and
    the width of each slot. The rows are read one block at a time.
    """
    trials, N = partner_round.shape
    idx = np.int32 if trials * (N + 1) < 2**31 else np.int64
    blocks = _row_blocks(trials, N)
    counts = np.empty(trials, dtype=np.intp)
    for lo, hi in blocks:
        counts[lo:hi] = np.count_nonzero(partner_round[lo:hi] < rounds, axis=1)
    by_count = np.argsort(-counts)
    counts = counts.take(by_count)
    width = trials - np.cumsum(np.bincount(counts))[:-1]
    cells = np.zeros((width.size, trials), dtype=idx)
    partners = np.zeros_like(cells)
    for lo, hi in blocks:
        rows = by_count[lo:hi]
        block = partner_round[rows]
        feasible = block < rounds
        grid = np.arange(width.size) < counts[lo:hi, None]
        first = (rows.astype(idx) * (N + 1) + 1)[:, None]  # each row's cell of round 0
        cells[:, lo:hi].T[grid] = (first + rounds)[feasible]
        partners[:, lo:hi].T[grid] = (first + block)[feasible]
    return cells, partners, width
