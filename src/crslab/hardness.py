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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    matched: np.ndarray  # (trials, 2n+1) M(t) after t rounds
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
    # vertex ids, rounds and the balance bounds (within [-n, 3n]) fit in `small`
    small = np.int16 if N < 2**14 else np.int32
    rounds = np.arange(N, dtype=small)
    rng = stream(seed, "hardness", n)
    order = np.tile(rounds, (trials, 1))
    rng.permuted(order, axis=1, out=order)  # its draws do not depend on the dtype
    is_left = order < n
    balance = _balance(n, is_left, small)
    # from here on a vertex is named by the round it arrives in
    arrival = np.empty_like(order)
    np.put_along_axis(arrival, order, rounds[None, :], axis=1)
    del order
    partner = rng.integers(0, n, size=(trials, N))
    np.add(partner, n, out=partner, where=is_left)
    del is_left
    partner_round = np.take_along_axis(arrival, partner, axis=1)
    del arrival, partner
    feasible = partner_round < rounds
    picks, partner_at, width = _slots(feasible, partner_round)
    del feasible, partner_round

    # greedy pass, one slot at a time. The arriving vertex is never matched
    # yet, so a pick is accepted iff its partner is still free; then the
    # partner is matched whatever happened, and the arriving vertex with it.
    free = np.ones(trials * N, dtype=bool)  # by (row, arrival round)
    taken = np.empty(picks.size, dtype=bool)
    lo = 0
    for hi in np.cumsum(width).tolist():
        at = partner_at[lo:hi]
        ok = np.take(free, at, out=taken[lo:hi])
        free[at] = False
        free[picks[lo:hi]] = ~ok
        lo = hi
    del free, partner_at
    accepted = np.zeros((trials, N), dtype=bool)
    accepted.reshape(-1)[picks] = taken
    del picks, taken
    matched = np.zeros((trials, N + 1), dtype=np.int64)
    matched[:, 1:] = np.cumsum(accepted, axis=1, dtype=small)  # at most n
    return TrajectoryReport(n, trials, matched, balance)


def _balance(n: int, is_left: np.ndarray, small) -> np.ndarray:
    """(trials, 2n+1) indicator of Q_t from which side each arrival is on.

    After t rounds with L left arrivals, max(n - L, n - (t - L)) unarrived
    vertices must be at most the round's threshold, i.e. at most its floor
    `b`: both L and t - L at least n - b.
    """
    trials, N = is_left.shape
    thresholds = (1.0 + n ** (-1.0 / 3.0)) * (N - np.arange(N + 1)) / 2.0
    need = n - np.floor(thresholds).astype(np.int64)
    lo = need[1:].astype(small)
    hi = (np.arange(1, N + 1) - need[1:]).astype(small)
    left = np.cumsum(is_left, axis=1, dtype=small)
    balance = np.empty((trials, N + 1), dtype=bool)
    balance[:, 0] = n <= thresholds[0]
    np.greater_equal(left, lo, out=balance[:, 1:])
    balance[:, 1:] &= left <= hi
    return balance


def _slots(feasible: np.ndarray, partner_round: np.ndarray):
    """The feasible picks laid out slot by slot for the greedy pass.

    Slot s holds the s-th feasible pick of every row that has more than s.
    Returns each pick's flat (row, round) cell, which also names its
    arriving vertex, the flat (row, arrival round) of its partner, and the
    width of each slot.
    """
    trials, N = feasible.shape
    idx = np.int32 if trials * N < 2**31 else np.int64
    counts = np.count_nonzero(feasible, axis=1)
    width = trials - np.cumsum(np.bincount(counts))[:-1]
    # row r's picks fill the first counts[r] cells of its row of a
    # (trials, slots) grid, which is then read slot by slot
    grid = np.arange(width.size) < counts[:, None]
    cells = np.zeros(grid.shape, dtype=idx)
    cells[grid] = np.flatnonzero(feasible)
    partners = np.zeros(grid.shape, dtype=idx)
    partners[grid] = partner_round[feasible]
    partners += np.arange(0, trials * N, N, dtype=idx)[:, None]
    grid = grid.T
    return cells.T[grid], partners.T[grid], width

