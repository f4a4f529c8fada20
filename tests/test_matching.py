import dataclasses
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crslab.matching
from crslab.arrivals import sample_choices_batch
from crslab.graph import complete, complete_bipartite, cycle, path
from crslab.matching import BatchResult, _ahead
from crslab.recursive import fill_tables, fill_tables_edge, run_edge_batch, run_vertex_batch
from crslab.rng import stream
from crslab.selection import edge_selection, vertex_selection
from crslab.two_phase import run_two_phase_batch

from .oracles import RecordedResult, RecordingTally, edge_inputs, greedy_resolve, recorded, stopped, watch_all


@pytest.mark.parametrize("workers", [1, 2])
def test_ahead_yields_in_order_and_close_joins_helper(monkeypatch, workers):
    monkeypatch.setattr(crslab.matching, "WORKERS", workers)
    assert list(_ahead(lambda k: k * k, range(6))) == [0, 1, 4, 9, 16, 25]
    threads = threading.active_count()
    slow = _ahead(lambda k: (time.sleep(0.05), k)[1], range(6))
    assert next(slow) == 0  # item 1 is now being made ahead
    slow.close()
    assert threading.active_count() == threads


class _Boom(Exception):
    pass


def test_ahead_error_reaches_caller_at_its_item():
    made = []

    def make(k):
        made.append(k)
        if k == 3:
            raise _Boom(k)
        return k

    threads = threading.active_count()
    got = []
    with pytest.raises(_Boom):
        for value in _ahead(make, range(8)):
            assert max(made) <= value + 1  # at most one item made ahead
            got.append(value)
    assert got == [0, 1, 2]
    assert made == [0, 1, 2, 3]  # nothing made after the failing item
    assert threading.active_count() == threads  # the helper has finished


def test_ahead_advances_items_on_calling_thread():
    advanced, made_on = [], []

    def items():
        for k in range(6):
            advanced.append(threading.get_ident())
            yield k

    def make(k):
        made_on.append(threading.get_ident())
        return k

    assert list(_ahead(make, items())) == list(range(6))
    assert set(advanced) == {threading.get_ident()}
    assert threading.get_ident() not in made_on  # made on the helper


def _resolve_vs_oracle(g, trials, lo, hi, block, bins=None):
    """Run one block through a fresh recording tally and compare every array,
    the recorded ones included, with greedy_resolve."""
    tally = RecordingTally(g, trials, bins, watch_all(g, trials))
    acc = tally.resolve(lo, hi, *block)
    got = tally.result()
    want = greedy_resolve(g, trials, lo, *block, bins=bins)
    for name, value in want.items():
        assert np.array_equal(getattr(got, name), value), name  # None equals only None
    assert acc.dtype == bool and acc.shape == block[0].shape
    assert acc.sum() == want["accepted"].sum()
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
    single=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_resolve_equals_greedy_oracle(n, rows, lo, per_row, grid, bins, interleave, single, seed):
    """Random blocks, with ties on grid times, against the sequential greedy rule.

    With `single`, about half the proposals have target == proposer: in
    each row they name one vertex and an edge at it, so no edge is accepted
    twice in a row. No engine makes such a proposal (rank-1 names two slot
    vertices), but `resolve` still accepts them by the greedy rule.
    """
    g = complete(n)
    eid = np.full((n, n), -1)
    eid[g.eu, g.ev] = eid[g.ev, g.eu] = np.arange(g.edge_count)
    rng = np.random.default_rng(seed)
    row = np.repeat(np.arange(rows), rng.integers(0, per_row + 1, size=rows))
    target = rng.integers(0, n, size=row.size)
    proposer = (target + rng.integers(1, n, size=row.size)) % n
    y = rng.random(row.size) if grid is None else (rng.integers(0, grid, size=row.size) + 1) / grid
    edge = eid[target, proposer]
    if single:
        one = rng.random(row.size) < 0.5
        v = row[one] % n
        target[one] = proposer[one] = v
        edge[one] = eid[v, (v + rng.integers(1, n, size=v.size)) % n]
    block = (row, y, target, proposer, edge)
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


def _engine_calls():
    """One run of each batch engine to t_stop < 1 with bins, on 300 rows."""
    rows = 300
    c5, sel5 = cycle(5, 0.5), vertex_selection(5)
    tab5 = fill_tables(c5, sel5, T=4, delta=0.1, Q=50, seed=1301)
    rng = stream(1302, "test-matching")
    Y, F, U = rng.random((rows, 5)), sample_choices_batch(c5, rng, rows), rng.random((rows, 5))
    k33, sel_e = complete_bipartite(3), edge_selection("edge_general")
    tab_e = fill_tables_edge(k33, sel_e, T=4, delta=0.1, Q=50, seed=1303)
    active, Ye, Ue = rng.random((rows, 9)) < 2.0 * k33.x, rng.random((rows, 9)), rng.random((rows, 9))
    UB = rng.random((rows, 5))
    return (
        (run_vertex_batch, (c5, sel5, tab5, Y, F, U, 0.7, None, 4, watch_all(c5, rows))),
        (run_edge_batch, (k33, sel_e, tab_e, *edge_inputs(active, Ye, Ue), 0.7, 4, watch_all(k33, rows))),
        (run_two_phase_batch, (c5, 0.6, stopped(Y, 0.7), F, U, UB, 4)),
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_recording_leaves_engine_results_unchanged(monkeypatch, workers):
    """Recording reads the accepted mask only: every BatchResult field of a
    recorded run equals the plain run's, on one and on two engine threads."""
    monkeypatch.setattr(crslab.matching, "WORKERS", workers)
    monkeypatch.setattr(crslab.matching, "ROW_BLOCK_ELEMS", 64)  # many blocks
    for engine, args in _engine_calls():
        plain = engine(*args)
        rec = recorded(engine, *args)
        assert type(plain) is BatchResult and type(rec) is RecordedResult
        assert rec.acc_edge.any()
        for f in dataclasses.fields(BatchResult):
            assert np.array_equal(getattr(plain, f.name), getattr(rec, f.name)), (engine.__name__, f.name)
