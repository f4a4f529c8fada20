import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crslab.matching
import crslab.recursive
import crslab.rng
import crslab.two_phase
from crslab.arrivals import edge_arrivals
from crslab.graph import Graph, complete, complete_bipartite, cycle, single_edge, star, weighted_star
from crslab.numerics import adaptive_simpson
from crslab.recursive import (
    _pair_estimate,
    fill_tables,
    fill_tables_edge,
    phase_of,
    required_samples,
    simulate_edge,
    simulate_rank1,
    simulate_vertex,
)
from crslab.rng import stream
from crslab.selection import INFINITE, edge_selection, vertex_selection
from crslab.two_phase import simulate_two_phase

from .analysis import rank1_safety
from .oracles import _phase, dir_index, run_rank1_closed_form, star_edge_safety


def test_required_samples_frozen_example():
    assert required_samples(0.2, 0.1, 10, 10) == 14856


def test_required_samples_validation():
    with pytest.raises(ValueError):
        required_samples(0.0, 0.1, 10, 10)
    with pytest.raises(ValueError):
        required_samples(1.5, 0.1, 10, 10)
    with pytest.raises(ValueError):
        required_samples(0.2, 0.0, 10, 10)
    with pytest.raises(ValueError):
        required_samples(0.2, 1.0, 10, 10)
    with pytest.raises(ValueError):
        required_samples(0.2, 0.1, 0, 10)
    with pytest.raises(ValueError):
        required_samples(0.2, 0.1, 10, 0)


def test_phase_of_boundaries():
    T = 10
    assert phase_of(0.0, T) == 0
    assert phase_of(1e-9, T) == 0
    assert phase_of(0.1, T) == 0  # t_1 itself belongs to phase 0
    assert phase_of(0.1 + 1e-12, T) == 1
    assert phase_of(1.0, T) == 9
    out = phase_of(np.array([0.05, 0.35, 0.95]), T)
    assert out.tolist() == [0, 3, 9]


@settings(max_examples=80)
@given(st.floats(min_value=1e-9, max_value=1.0), st.integers(min_value=1, max_value=50))
def test_phase_of_interval_property(y, T):
    j = int(phase_of(y, T))
    assert 0 <= j <= T - 1
    assert j / T < y or j == 0
    assert y <= (j + 1) / T or j == T - 1


@pytest.mark.parametrize("T", [1, 2, 3, 7, 10, 240, 8000, 10**4])
def test_phase_of_at_phase_boundaries(T):
    """intp phases equal clip(ceil(y T) - 1, 0, T - 1) at 0, 1, every k/T and its two neighbours."""
    grid = np.arange(T + 1) / T
    y = np.concatenate(([0.0, 1.0], grid, np.nextafter(grid, 1.0), np.nextafter(grid, -1.0)))
    got = phase_of(y, T)
    assert got.dtype == np.intp
    assert got.tolist() == [_phase(v, T) for v in y.tolist()]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=10**4), st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_phase_of_equals_clipped_ceil(T, ys):
    got = phase_of(np.array(ys), T)
    assert got.dtype == np.intp
    assert got.tolist() == [_phase(v, T) for v in ys]
    assert np.asarray(phase_of(ys[0], T)).dtype == np.intp and phase_of(ys[0], T) == _phase(ys[0], T)


def test_table_flat_lookup_equals_2d(c5, table_c5_small):
    """`EstimateTable.at` and `_pair_estimate` read what 2-D indexing reads,
    on a filled vertex table and a filled edge table."""
    edge_table = fill_tables_edge(c5, edge_selection("edge_general"), T=6, delta=0.1, Q=200, seed=851)
    rng = stream(852, "test-recursive")
    y = np.concatenate((rng.random(500), np.arange(7) / 6))  # both tables have T = 6
    for table in (table_c5_small, edge_table):
        T, width = table.values.shape
        assert T == 6 and len(np.unique(table.values[1:])) > 1  # a filled table, not its ones
        col = rng.integers(0, width, size=y.size)
        assert np.array_equal(table.at(y, col), table.values[phase_of(y, T), col])
    # vertex mode: the pair proposer -> target along each edge, both ways
    edge = rng.integers(0, c5.edge_count, size=y.size)
    target = np.where(rng.random(y.size) < 0.5, c5.eu[edge], c5.ev[edge])
    proposer = c5.eu[edge] + c5.ev[edge] - target
    want = [table_c5_small.values[_phase(v, 6), dir_index(c5, int(p), int(t))] for v, p, t in zip(y, proposer, target)]
    assert _pair_estimate(c5, table_c5_small, y, edge, target).tolist() == want


def test_dir_index_layout(c5, table_c5_small):
    g = c5
    eid = g.edge_id(0, 1)
    assert dir_index(g, proposer=0, target=1) == 2 * eid + 1
    assert dir_index(g, proposer=1, target=0) == 2 * eid
    with pytest.raises(KeyError):
        dir_index(g, 0, 2)


def test_fill_tables_shape_and_clamp(c5, sel5, table_c5_small):
    t = table_c5_small
    assert t.values.shape == (6, 2 * c5.edge_count)
    assert np.all(t.values[0] == 1.0)
    assert np.all(t.values >= sel5.floor / 2.0 - 1e-15)
    assert np.all(t.values <= 1.0)


def test_fill_tables_deterministic(c5, sel5, table_c5_small):
    again = fill_tables(c5, sel5, T=6, delta=0.1, Q=400, seed=9001)
    assert np.array_equal(again.values, table_c5_small.values)
    other = fill_tables(c5, sel5, T=6, delta=0.1, Q=400, seed=9009)
    assert not np.array_equal(other.values, table_c5_small.values)


def test_fill_tables_edge_shape(k33):
    sel = edge_selection("edge_general")
    t = fill_tables_edge(k33, sel, T=5, delta=0.1, Q=300, seed=3303)
    assert t.values.shape == (5, 9)
    assert np.all(t.values[0] == 1.0)
    assert np.all((t.values >= sel.floor / 2.0 - 1e-15) & (t.values <= 1.0))


# -- edge fill drawn ahead --------------------------------------------------------


def _fill_k33():
    return fill_tables_edge(complete_bipartite(3), edge_selection("edge_general"), T=5, delta=0.1, Q=300, seed=3310)


@pytest.mark.parametrize("chunk", [crslab.recursive.FILL_ROW_CHUNK, 500])
def test_fill_tables_edge_same_for_any_workers(monkeypatch, chunk):
    # 2700 rows per phase; chunks of 500 cut through the 300-row edge groups
    monkeypatch.setattr(crslab.recursive, "FILL_ROW_CHUNK", chunk)
    tables = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(crslab.matching, "WORKERS", workers)
            tables.append(_fill_k33().values)
    finally:
        sys.setswitchinterval(switch)
    assert np.array_equal(tables[0], tables[1]) and np.array_equal(tables[0], tables[2])


def _record_thread_starts(monkeypatch, workers):
    """Set matching.WORKERS; return the list every thread started from now on joins."""
    started = []

    class _Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(crslab.matching, "WORKERS", workers)
    monkeypatch.setattr(crslab.matching.threading, "Thread", _Thread)
    return started


@pytest.mark.parametrize(
    "fill, sel, width",
    [(fill_tables_edge, edge_selection("edge_general"), 9), (fill_tables, vertex_selection(INFINITE), 18)],
    ids=["edge", "vertex"],
)
def test_one_phase_fill_starts_no_thread(monkeypatch, fill, sel, width):
    started = _record_thread_starts(monkeypatch, 2)
    t = fill(complete_bipartite(3), sel, T=1, delta=0.1, Q=300, seed=3311)
    assert t.values.shape == (1, width) and np.all(t.values == 1.0)
    assert not started


def test_vertex_fill_draws_on_the_calling_thread(monkeypatch):
    """The vertex fill makes no draw-ahead helper: on one worker it starts no thread at all."""
    started = _record_thread_starts(monkeypatch, 1)
    t = fill_tables(complete_bipartite(3), vertex_selection(INFINITE), T=4, delta=0.1, Q=300, seed=3312)
    assert np.any(t.values[1:] < 1.0)  # the phases ran
    assert not started


class _Boom(Exception):
    pass


class _WatchedStream:
    """A stream whose `random` records the calling thread and can raise on
    the k-th call made across all watched streams."""

    def __init__(self, rng, calls, fail_on):
        self.rng, self.calls, self.fail_on = rng, calls, fail_on

    def random(self, *args, **kwargs):
        self.calls.append(threading.current_thread())
        if len(self.calls) == self.fail_on:
            raise _Boom("draw failed")
        return self.rng.random(*args, **kwargs)


def _watch_streams(monkeypatch, fail_on=None):
    """Patch rng.stream, which rng.chunks looks up; return (threads that created streams, threads that drew)."""
    created, calls = [], []

    def watched(*key):
        created.append(threading.current_thread())
        return _WatchedStream(stream(*key), calls, fail_on)

    monkeypatch.setattr(crslab.rng, "stream", watched)
    return created, calls


@pytest.mark.parametrize("workers", [1, 2])
def test_fill_tables_edge_draw_error_reaches_caller(monkeypatch, workers):
    monkeypatch.setattr(crslab.recursive, "FILL_ROW_CHUNK", 500)
    monkeypatch.setattr(crslab.matching, "WORKERS", workers)
    threads = threading.active_count()
    # a chunk draws its 500 x 9 uniforms in one piece, then its decision
    # uniforms: call 6 is the third chunk's second draw
    _, calls = _watch_streams(monkeypatch, fail_on=6)
    with pytest.raises(_Boom):
        _fill_k33()
    assert len(calls) == 6
    assert threading.active_count() == threads  # the helper has joined


def test_fill_tables_edge_streams_created_on_calling_thread(monkeypatch):
    monkeypatch.setattr(crslab.recursive, "FILL_ROW_CHUNK", 500)
    monkeypatch.setattr(crslab.matching, "WORKERS", 2)
    created, calls = _watch_streams(monkeypatch)
    values = _fill_k33().values
    assert len(created) == 4 * 6  # phases 1..4, six chunks each
    assert all(t is threading.main_thread() for t in created)
    assert any(t is not threading.main_thread() for t in calls)  # drawn ahead
    monkeypatch.setattr(crslab.rng, "stream", stream)
    assert np.array_equal(values, _fill_k33().values)


def test_fill_tables_edge_draws_the_edge_layout(monkeypatch):
    """Every chunk the edge fill runs is `edge_arrivals` to t_j on its
    stream, with each row's forced edge removed before the decision
    uniforms are drawn; chunks of 500 leave a partial last chunk of 200
    rows in each phase."""
    monkeypatch.setattr(crslab.recursive, "FILL_ROW_CHUNK", 500)
    engine, ran = crslab.recursive.run_edge_batch, []

    def recording(g, sel, table, ids, Ye, U, t_stop, **kwargs):
        ran.append((t_stop, ids, Ye.shape, Ye.y, U))
        return engine(g, sel, table, ids, Ye, U, t_stop, **kwargs)

    monkeypatch.setattr(crslab.recursive, "run_edge_batch", recording)
    _fill_k33()
    g, Q = complete_bipartite(3), 300
    expected = []
    for j in range(1, 5):
        tj = j / 5
        for chunk, base in enumerate(range(0, g.edge_count * Q, 500)):
            count = min(500, g.edge_count * Q - base)
            forced = np.arange(count) * g.edge_count + (base + np.arange(count)) // Q

            def remove(lo, times):
                flat = times.reshape(-1)
                mine = forced[(forced >= lo * g.edge_count) & (forced < lo * g.edge_count + flat.size)]
                flat[mine - lo * g.edge_count] = np.inf
                return times

            ids, Ye, U = edge_arrivals(g, stream(3310, "fill-edge", j, chunk), count, tj, remove)
            assert not np.isin(forced, ids).any()
            expected.append((tj, ids, (count, g.edge_count), Ye.y, U))
    assert len(ran) == len(expected) == 4 * 6
    for got, want in zip(ran, expected):
        assert got[0] == want[0] and got[2] == want[2]
        for k in (1, 3, 4):  # ids, times, decision uniforms
            assert got[k].dtype == want[k].dtype and np.array_equal(got[k], want[k])


def test_edge_fill_follows_the_exact_law_on_a_star():
    """Each entry of an edge fill is Binomial(Q, S)/Q, S the exact
    `star_edge_safety` given the table's earlier rows: the z-scores of 20
    fills (11 phases x 4 edges each) have mean 0 within 3.5/sqrt(N), sd
    near 1 and no |z| above 4.5. At Q = 4000 the floor clamp never binds."""
    g, sel, T, Q = weighted_star([0.3, 0.25, 0.2, 0.15]), edge_selection("edge_general"), 12, 4000
    zs = []
    for seed in range(20):
        table = fill_tables_edge(g, sel, T, 0.0, Q, 7100 + seed)
        S = star_edge_safety(g, sel, table)[1:]
        assert table.values[1:].min() > sel.floor / 2.0
        zs.append((table.values[1:] - S) / np.sqrt(S * (1.0 - S) / Q))
    z = np.concatenate(zs).reshape(-1)
    assert z.size == 880
    assert abs(z.mean()) <= 3.5 / math.sqrt(z.size), z.mean()
    assert abs(z.std() - 1.0) <= 0.1, z.std()
    assert np.abs(z).max() <= 4.5


def test_single_edge_acceptance_matches_damped_integral():
    # one edge, x=1: the estimate table is exactly 1, so acceptance is
    # E[min(c(y), ...) * damping] with y = max(Y_u, Y_v) ~ density 2y
    g = single_edge()
    sel = vertex_selection(INFINITE)
    T, delta = 10, 0.05
    res = simulate_vertex(g, sel, T, delta, trials=200_000, seed=606, Q=200)
    assert np.all(fill_tables(g, sel, T, delta, 200, 606).values == 1.0)  # the table it ran on
    C = sel.floor
    def integrand(y):
        if y == 0.0:
            return 0.0  # damping 1/(1 + 1/(CTy)) -> 0 as y -> 0
        return 2.0 * y * min(1.0, float(sel(y)) * (1 - delta) / (1 + 1 / (C * T * y)))

    target = adaptive_simpson(integrand, 0.0, 1.0, 1e-10)
    rate = res.accepted[0] / res.trials
    sigma = math.sqrt(target * (1 - target) / res.trials)
    assert abs(rate - target) < 4 * sigma
    assert res.active[0] == res.trials  # x=1: the edge is always active


def test_simulate_vertex_consistency(c5, sel5):
    res = simulate_vertex(c5, sel5, T=6, delta=0.1, trials=5_000, seed=607, Q=400)
    assert np.array_equal(res.acc_bin.sum(axis=1), res.accepted)
    assert np.array_equal(res.act_bin.sum(axis=1), res.active)
    assert np.all(res.accepted <= res.active)
    ra = res.ratio_active()
    rx = res.ratio_x(c5)
    assert np.all((ra >= 0) & (ra <= 1))
    assert np.all(np.abs(rx - ra) < 0.2)  # both estimate the same quantity


def test_simulate_requires_q_when_idealized(c5, sel5, k33, monkeypatch):
    with pytest.raises(ValueError, match="explicit Q"):
        simulate_vertex(c5, sel5, T=4, delta=0.0, trials=10, seed=1)
    with pytest.raises(ValueError, match="explicit Q"):
        simulate_edge(k33, edge_selection("edge_general"), T=4, delta=0.0, trials=10, seed=1)
    calls = []

    def recording_fill(*args):
        calls.append(args)
        return fill_tables(*args)

    monkeypatch.setattr(crslab.recursive, "fill_tables", recording_fill)
    simulate_vertex(c5, sel5, T=3, delta=0.0, trials=100, seed=1, Q=50)
    assert calls[0][3:5] == (0.0, 50)  # (delta, Q)


def test_simulate_chunking_invariant(c5, sel5, monkeypatch):
    a = simulate_vertex(c5, sel5, T=6, delta=0.1, trials=2_500, seed=611, Q=400)
    monkeypatch.setattr(crslab.recursive, "TRIAL_CHUNK", 1_000)
    b = simulate_vertex(c5, sel5, T=6, delta=0.1, trials=2_500, seed=611, Q=400)
    # chunk boundaries change the stream layout, so totals differ; shapes and
    # scale must not
    assert a.trials == b.trials
    assert abs(int(a.accepted.sum()) - int(b.accepted.sum())) < 4 * math.sqrt(a.accepted.sum())


# Each simulation over several chunks (the last partial, and fill chunks that
# cut through a directed pair's Q rows), returning its counters or table.
_SIMULATIONS = {
    "two-phase": lambda: simulate_two_phase(complete(7), 0.5, 2_500, 621, bins=4),
    "vertex": lambda: simulate_vertex(cycle(5, 0.5), vertex_selection(5), 4, 0.1, 2_500, 622, Q=90, bins=4),
    "edge": lambda: simulate_edge(complete_bipartite(3), edge_selection("edge_general"), 4, 0.1, 2_500, 623, Q=90, bins=4),
    "fill": lambda: fill_tables(complete_bipartite(3), vertex_selection(INFINITE), 4, 0.1, 90, 624),
    "fill-edge": lambda: fill_tables_edge(complete_bipartite(3), edge_selection("edge_general"), 4, 0.1, 90, 626),
    "rank1": lambda: simulate_rank1(weighted_star([1.0 / 6.0] * 6), 2_500, 625, bins=4),
}


@pytest.mark.parametrize("name", sorted(_SIMULATIONS))
def test_simulations_ignore_block_budget_and_workers(monkeypatch, name):
    """Row blocks draw their own uniforms: the same bytes for any block
    budget (a few rows, or the default) on one, two or three engine threads
    (more than this machine may have cores), with frequent thread switches."""
    monkeypatch.setattr(crslab.recursive, "TRIAL_CHUNK", 1_000)
    monkeypatch.setattr(crslab.two_phase, "TRIAL_CHUNK", 1_000)
    monkeypatch.setattr(crslab.recursive, "FILL_ROW_CHUNK", 700)
    fields = ("values",) if name.startswith("fill") else ("accepted", "active", "acc_bin", "act_bin")
    results = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(crslab.matching, "WORKERS", workers)
            for budget in (40, crslab.matching.ROW_BLOCK_ELEMS):
                monkeypatch.setattr(crslab.matching, "ROW_BLOCK_ELEMS", budget)
                res = _SIMULATIONS[name]()
                results.append([getattr(res, f) for f in fields])
    finally:
        sys.setswitchinterval(switch)
    for got in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(results[0], got))


def test_rank1_requires_unit_mass():
    with pytest.raises(ValueError, match="summing to 1"):
        simulate_rank1(star(3, 0.25), trials=10, seed=1)


def test_rank1_single_run_rule():
    g = weighted_star([0.5, 0.5])
    both = np.array([True, True])
    assert run_rank1_closed_form(g, both, np.array([0.8, 0.3]), np.array([0.99, 0.5])) == [(1, 0.3, 0)]
    # first element fails its thinning bit, scan continues
    assert run_rank1_closed_form(g, both, np.array([0.2, 0.6]), np.array([0.999, 0.1])) == [(1, 0.6, 0)]
    # nothing active: empty matching
    assert run_rank1_closed_form(g, ~both, np.array([0.2, 0.6]), np.array([0.0, 0.0])) == []


def test_rank1_batch_matches_single_runs():
    # a star, and two disjoint edges: every element of a row competes for
    # one slot whether or not the elements share a vertex
    for g in (weighted_star([0.3, 0.3, 0.4]), Graph(4, [(0, 1, 0.5), (2, 3, 0.5)])):
        m, trials = g.edge_count, 4_000
        res = simulate_rank1(g, trials=trials, seed=608, bins=10)
        assert int(res.accepted.sum()) <= trials  # at most one accept per trial
        # replay the same stream and compare against the single-run reference
        rng = stream(608, "trials-rank1", 0)
        active = rng.random((trials, m)) < g.x[None, :]
        Ye = rng.random((trials, m))
        U = rng.random((trials, m))
        accepted = np.zeros(m, dtype=np.int64)
        for i in range(trials):
            for eid, _, _ in run_rank1_closed_form(g, active[i], Ye[i], U[i]):
                accepted[eid] += 1
        assert np.array_equal(accepted, res.accepted)
        assert np.array_equal(active.sum(axis=0), res.active)
        assert np.array_equal(res.acc_bin.sum(axis=1), res.accepted)
        assert np.array_equal(res.act_bin.sum(axis=1), res.active)
        safe_bin, all_bin = rank1_safety(g, trials, 608, bins=10)
        assert np.all(safe_bin <= all_bin)
        assert np.array_equal(all_bin.sum(axis=1), np.full(m, trials))


def test_estimate_tables_reflect_contention():
    # K33 has real contention: later phases must estimate below 1
    g = complete_bipartite(3)
    sel = vertex_selection(INFINITE)
    table = fill_tables(g, sel, T=6, delta=0.1, Q=500, seed=9002)
    assert table.values[5].min() < 1.0
    # and phase estimates (weakly) decrease as more time passes, on average
    means = table.values.mean(axis=1)
    assert means[5] < means[1] + 0.05
