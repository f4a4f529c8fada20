import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crslab.matching
from crslab.graph import complete, path
from crslab.matching import _ahead, _BatchTally

from .oracles import greedy_resolve


@pytest.mark.parametrize("workers", [1, 2])
def test_ahead_yields_in_order_and_close_joins_helper(monkeypatch, workers):
    monkeypatch.setattr(crslab.matching, "WORKERS", workers)
    assert list(_ahead(lambda k: k * k, range(6))) == [0, 1, 4, 9, 16, 25]
    threads = threading.active_count()
    slow = _ahead(lambda k: (time.sleep(0.05), k)[1], range(6))
    assert next(slow) == 0  # item 1 is now being made ahead
    slow.close()
    assert threading.active_count() == threads


def _resolve_vs_oracle(g, trials, lo, hi, block, bins=None):
    """Run one block through a fresh tally's resolve and compare with greedy_resolve."""
    tally = _BatchTally(g, trials, bins, track_edges=True, track_targets=True)
    tally.resolve(lo, hi, *block)
    got = tally.result()
    want = greedy_resolve(g, trials, lo, *block, bins=bins)
    for name, value in want.items():
        assert np.array_equal(getattr(got, name), value), name  # None equals only None
    return got


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    n=st.integers(2, 12),
    rows=st.integers(1, 40),
    lo=st.integers(0, 3),
    per_row=st.sampled_from([0, 1, 3, 30]),
    grid=st.sampled_from([None, 1, 2, 4]),
    bins=st.sampled_from([None, 3]),
    interleave=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_resolve_equals_greedy_oracle(n, rows, lo, per_row, grid, bins, interleave, seed):
    """Random blocks, with ties on grid times, against the sequential greedy rule."""
    g = complete(n)
    eid = np.full((n, n), -1)
    eid[g.eu, g.ev] = eid[g.ev, g.eu] = np.arange(g.edge_count)
    rng = np.random.default_rng(seed)
    row = np.repeat(np.arange(rows), rng.integers(0, per_row + 1, size=rows))
    target = rng.integers(0, n, size=row.size)
    proposer = (target + rng.integers(1, n, size=row.size)) % n
    y = rng.random(row.size) if grid is None else (rng.integers(0, grid, size=row.size) + 1) / grid
    block = (row, y, target, proposer, eid[target, proposer])
    if interleave:  # rows in any order, each row's proposals still in slot order
        perm = np.empty(row.size, dtype=np.int64)
        perm[np.argsort(rng.permutation(row), kind="stable")] = np.arange(row.size)
        block = tuple(x[perm] for x in block)
    _resolve_vs_oracle(g, lo + rows + 1, lo, lo + rows, block, bins)


def test_resolve_path_with_increasing_times():
    """Each edge waits for the one before it: about half the path length in rounds."""
    length = 60
    g = path(length + 1)
    e = np.arange(length)
    block = (np.zeros(length, dtype=np.int64), (e + 1.0) / length, g.eu[e], g.ev[e], e)
    got = _resolve_vs_oracle(g, 2, 1, 2, block)
    assert np.array_equal(got.accepted, e % 2 == 0)
