import sys
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import crslab.matching
from crslab.arrivals import NO_CHOICE, _active_choices, _choice_edges, _pick, edge_arrivals, sample_choices_batch
from crslab.diagnostics import detect_potential_paths_batch
from crslab.graph import LOAD_TOL, Graph, complete, cycle, star, weighted_star
from crslab.recursive import EstimateTable, run_vertex_batch, simulate_edge
from crslab.rng import stream
from crslab.selection import INFINITE, edge_selection, vertex_selection
from crslab.two_phase import run_two_phase_batch

from .oracles import choice_edges_reference, choices_reference, edge_arrivals_reference, neighbors, vertex_draws, watch_all


def _active(g, y, f):
    """{edge id: (proposer, arrival)} of one row's active proposals."""
    c = _active_choices(g, np.asarray([y], dtype=np.float64), np.asarray([f]))
    return {int(e): (int(p), float(t)) for e, p, t in zip(c.edge, c.proposer, c.y)}


def test_choice_marginals_match_x():
    g = weighted_star([0.5, 0.25, 0.1])
    rng = stream(11, "test-choices")
    F = sample_choices_batch(g, rng, 200_000)
    # center picks leaf i with prob x_i, nothing with prob 0.15
    center = F[:, 0]
    probs = [np.mean(center == leaf) for leaf in (1, 2, 3)]
    assert np.allclose(probs, [0.5, 0.25, 0.1], atol=0.004)
    assert abs(np.mean(center == NO_CHOICE) - 0.15) < 0.004
    # each leaf picks the center w.p. x_i
    for leaf, x in ((1, 0.5), (2, 0.25), (3, 0.1)):
        assert abs(np.mean(F[:, leaf] == 0) - x) < 0.004


def test_pick_dtype_is_the_narrowest_that_holds_every_id():
    # int8 up to n = 128, int16 up to 2^15; the edge ids stay int32
    for g, dtype in ((complete(7), np.int8), (star(127, 1 / 127), np.int8), (star(128, 1 / 128), np.int16)):
        F = sample_choices_batch(g, stream(13, "test-choices"), 500)
        assert F.dtype == dtype and F.shape == (500, g.vertex_count)
        assert _choice_edges(g, F).dtype == np.int32
        # the largest id, 127 at n = 128, does not wrap
        assert np.array_equal(F, choices_reference(g, stream(13, "test-choices"), 500))
        assert F.max() == g.vertex_count - 1


def test_choice_array_is_one_byte_per_pick(monkeypatch):
    """K61 picks are int8: the returned array is trials * n bytes, and each
    of the two threads holds one vertex row's temporaries on top."""
    monkeypatch.setattr(crslab.matching, "WORKERS", 2)
    g, trials = complete(61), 20_000
    sample_choices_batch(g, stream(1, "test-choices"), 200)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        sample_choices_batch(g, stream(2, "test-choices"), trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= trials * g.vertex_count + 2 * 4 * 8 * trials


def test_narrow_picks_run_like_wide_ones():
    """The engines and the path scan read int8 picks as they read int64 ones,
    on a 128-vertex instance whose largest id, 127, is a target of degree 4
    (the two-phase sum over its adjacency takes the dense route)."""
    g = Graph(128, [(i, i + 1, 0.2 + 0.001 * (i % 7)) for i in range(127)] + [(j, 127, 0.25) for j in (0, 40, 80)])
    rng = stream(17, "test-choices")
    Y, F, U = rng.random((2000, 128)), sample_choices_batch(g, rng, 2000), rng.random((2000, 128))
    assert F.dtype == np.int8 and (F == 127).any()
    wide = F.astype(np.int64)
    sel, table = vertex_selection(INFINITE), EstimateTable(4, 0.1, np.ones((4, 2 * g.edge_count)))
    every = watch_all(g, 2000)
    for a, b in (
        (run_two_phase_batch(g, 0.4, Y, F, U, Y[::-1], watch=every), run_two_phase_batch(g, 0.4, Y, wide, U, Y[::-1], watch=every)),
        (run_vertex_batch(g, sel, table, Y, F, U, watch=every), run_vertex_batch(g, sel, table, Y, wide, U, watch=every)),
    ):
        assert np.array_equal(a.accepted, b.accepted) and np.array_equal(a.matched, b.matched)
    a, b = detect_potential_paths_batch(g, F, 127, 126), detect_potential_paths_batch(g, wide, 127, 126)
    assert np.array_equal(a.path, b.path) and np.array_equal(a.count, b.count)


def test_choices_only_hit_neighbors():
    g = cycle(5, 0.5)
    F = sample_choices_batch(g, stream(12, "test-choices"), 2000)
    for v in range(5):
        picked = set(np.unique(F[:, v])) - {NO_CHOICE}
        assert picked <= set(neighbors(g, v).tolist())


@st.composite
def cumulative_loads(draw):
    """Sorted cumulative loads: repeats, gaps near 1e-12, totals below 1 or just above."""
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    if draw(st.booleans()):  # a cluster of breakpoints about 1e-12 apart
        base = draw(st.floats(0.0, 1.0 - 1e-9))
        gaps = draw(st.lists(st.sampled_from([1e-13, 5e-13, 1e-12, 2e-12, 3e-12]), min_size=1, max_size=12))
        values += list(base + np.cumsum(gaps))
    values += draw(st.lists(st.sampled_from(values), max_size=10))  # equal breakpoints
    cum = np.sort(np.array(values))
    total = draw(st.sampled_from(["below", "one", "above"]))
    if total == "one":
        cum[-1] = 1.0
    elif total == "above":
        cum[-1] = 1.0 + draw(st.floats(0.0, LOAD_TOL))
    return cum


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cum=cumulative_loads(), n_random=st.sampled_from([0, 5, 3000]), dtype=st.sampled_from([np.int8, np.int16]))
def test_pick_equals_binary_search(cum, n_random, dtype):
    below = np.nextafter(cum, -np.inf)
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum, below, np.random.default_rng(n_random).random(n_random)])
    u = u[(u >= 0.0) & (u < 1.0)]
    # one distinct answer per slot, beyond int8's range for the int16 output, so
    # the answers name the slot the draw landed in, never one of the zero-mass
    # slots that repeated breakpoints leave
    values = np.arange(cum.size + 1) * (1 if dtype == np.int8 else 300) - 1
    out = np.empty(u.size, dtype)
    # the number of draws bounds the table size, so both small and large counts matter
    _pick(cum, u, values, out)
    assert np.array_equal(out, values[np.searchsorted(cum, u, side="right")])


@st.composite
def picks_on_graphs(draw):
    """A random graph with isolated vertices and its (rows, n) picks, NO_CHOICE
    included, in the sampler's dtype (int8 at n = 128, int16 at n = 129)."""
    n = draw(st.sampled_from([1, 2, 5, 17, 128, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < min(1.0, 3.0 / n)]
    if n > 2:  # the largest id, a target of a narrow pick, always has a neighbor
        pairs.append((0, n - 1))
    g = Graph(n, [(u, v, 0.1) for u, v in set(pairs)])
    count = draw(st.sampled_from([0, 1, 3, 40]))
    F = np.full((count, n), NO_CHOICE, dtype=np.min_scalar_type(min(-n, NO_CHOICE)))
    for v in range(n):
        options = np.append(neighbors(g, v), NO_CHOICE)
        F[:, v] = options[rng.integers(0, options.size, count)]
    return g, F


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=picks_on_graphs(), groups=st.sampled_from([None, 1, 2, 3, 7]))
def test_choice_edges_equal_reference(case, groups):
    g, F = case
    # `groups` shrinks the table budget so that a group holds that many vertices
    budget = crslab.matching.ROW_BLOCK_ELEMS if groups is None else groups * max(g.vertex_count + 1, F.shape[0])
    with mock.patch.object(crslab.matching, "ROW_BLOCK_ELEMS", budget):
        out = _choice_edges(g, F)
    assert out.dtype == np.int32 and out.shape == F.shape
    assert np.array_equal(out, choice_edges_reference(g, F))


def test_choice_edges_memory_stays_linear_in_n():
    """On a 3001-vertex star the lookup holds its int32 output plus one group's
    table and intp index, each within ROW_BLOCK_ELEMS entries; a table for
    every vertex pair would need n^2 entries, ten times the output here."""
    g, count = star(3000, 1 / 3000), 300
    F = sample_choices_batch(g, stream(20, "test-choices"), count)
    _choice_edges(g, F[:5])  # warm caches outside the measurement
    tracemalloc.start()
    try:
        _choice_edges(g, F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= count * g.vertex_count * 4 + crslab.matching.ROW_BLOCK_ELEMS * (4 + 8)


def test_sampler_equals_binary_search_reference():
    xs = [0.0, 1e-12, 0.3, 0.0, 1e-13, 0.25, 2e-12, 0.0, 0.1, 1e-4]
    for g in (weighted_star(xs), complete(9), cycle(5, 0.5)):
        for trials in (1, 7, 5000):
            F = sample_choices_batch(g, stream(16, "test-choices"), trials)
            assert np.array_equal(F, choices_reference(g, stream(16, "test-choices"), trials))


def test_sampler_same_picks_and_stream_for_every_split(monkeypatch):
    # vertex 1 of the four-vertex graph is isolated and draws nothing; four
    # workers with a short switch interval stress the rows' shared output
    default, interval = crslab.matching.ROW_BLOCK_ELEMS, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for g in (complete(61), Graph(4, [(0, 2, 0.5), (2, 3, 0.5)])):
            for trials in (0, 1, 50_000):
                ref_rng = stream(18, "test-choices")
                ref = choices_reference(g, ref_rng, trials)
                after = ref_rng.random()
                for workers in (1, 2, 4):
                    for budget in (1 << 10, default):
                        monkeypatch.setattr(crslab.matching, "WORKERS", workers)
                        monkeypatch.setattr(crslab.matching, "ROW_BLOCK_ELEMS", budget)
                        rng = stream(18, "test-choices")
                        F = sample_choices_batch(g, rng, trials)
                        assert F.shape == (trials, g.vertex_count)
                        assert np.array_equal(F.astype(np.int64), ref), (g.vertex_count, trials, workers, budget)
                        assert rng.random() == after
    finally:
        sys.setswitchinterval(interval)


# a zero, a full, a tiny and two plain loads
EDGE_LOADS = Graph(6, [(0, 1, 0.0), (1, 2, 1.0), (2, 3, 1e-300), (3, 4, 0.5), (4, 5, 0.3)])


def test_edge_layout_same_bytes_for_every_piece_and_worker_count(monkeypatch):
    """`edge_arrivals` equals the one-call reference, whatever the piece
    size (one row, a few rows, the default) and the engine thread count,
    and leaves the stream where the reference does. 30,000 rows make two
    default pieces, the second partial."""
    g, m = EDGE_LOADS, EDGE_LOADS.edge_count
    default = crslab.matching.ROW_BLOCK_ELEMS
    for count, budgets in ((1, (1, default)), (7, (1, 3 * m + 1, default)), (2000, (1, 3 * m + 1, default)), (30_000, (default,))):
        for t_stop in (0.3, 1.0):
            ref_rng = stream(20, "test-edge-layout")
            ref = edge_arrivals_reference(g, ref_rng, count, t_stop)
            after = ref_rng.random()
            for workers in (1, 2, 3):
                for budget in budgets:
                    monkeypatch.setattr(crslab.matching, "WORKERS", workers)
                    monkeypatch.setattr(crslab.matching, "ROW_BLOCK_ELEMS", budget)
                    rng = stream(20, "test-edge-layout")
                    ids, Ye, U = edge_arrivals(g, rng, count, t_stop)
                    assert ids.dtype == np.int32 and Ye.shape == (count, m)
                    for got, want in zip((ids, Ye.y, U), ref):
                        assert np.array_equal(got, want), (count, t_stop, workers, budget)
                    assert rng.random() == after


def test_edge_layout_ends_count_m_plus_arrivals_draws_past_its_start():
    g = EDGE_LOADS
    for count, t_stop in ((1, 1.0), (500, 0.4), (40_000, 1.0)):
        rng = stream(21, "test-edge-layout")
        ids, _, _ = edge_arrivals(g, rng, count, t_stop)
        fresh = stream(21, "test-edge-layout")
        fresh.bit_generator.advance(count * g.edge_count + ids.size)
        assert rng.bit_generator.state == fresh.bit_generator.state


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_min=True))
def test_edge_activity_is_a_time_below_one(a, x):
    """a < x_e exactly when a / x_e < 1 in IEEE division, so one uniform
    carries both the activity and the time."""
    assert (a < x) == (a / x < 1.0)


def test_edge_layout_forced_cells_draw_no_decision_uniform():
    """A cell that `then` moves to inf never arrives and draws nothing."""
    g = complete(4)
    m = g.edge_count

    def away(lo, times):
        times[:, 0] = np.inf
        return times

    ids, Ye, U = edge_arrivals(g, stream(22, "test-edge-layout"), 1000, 0.7, away)
    assert not np.any(ids % m == 0) and np.all(Ye.y <= 0.7) and np.all(np.diff(ids) > 0)
    ids_all, _, _ = edge_arrivals(g, stream(22, "test-edge-layout"), 1000, 0.7)
    assert np.array_equal(ids, ids_all[ids_all % m != 0])


def test_active_edges_rule_hand_built():
    g = cycle(4, 0.5)  # edges (0,1),(1,2),(2,3),(0,3)
    out = _active(g, [0.1, 0.5, 0.2, 0.8], [NO_CHOICE, 0, 3, 2])
    # (0,1): later endpoint 1 chose 0 -> active, proposer 1
    assert out[g.edge_id(0, 1)][0] == 1
    # (2,3): vertex 2 chose 3 but 3 arrives later -> not active from 2;
    # 3 chose 2 and 2 is earlier -> active with proposer 3
    assert out[g.edge_id(2, 3)] == (3, 0.8)
    assert g.edge_id(1, 2) not in out
    assert len(out) == 2


def test_active_edges_tie_broken_by_id():
    g = cycle(3, 0.5)
    # equal times: vertex 1 counts as later than vertex 0, so only
    # 1's pick of 0 creates an active edge
    out = _active(g, [0.4, 0.4, 0.9], [1, 0, NO_CHOICE])
    assert list(out.values()) == [(1, 0.4)]


def test_edge_batch_activity_rate():
    # edge-mode trials: every edge is active with probability x_e
    g = weighted_star([0.5, 0.25, 0.1])
    res = simulate_edge(g, edge_selection("edge_general"), T=1, delta=0.1, trials=100_000, seed=18, Q=1)
    assert np.allclose(res.active / res.trials, [0.5, 0.25, 0.1], atol=0.005)


def test_active_edge_frequency_is_x():
    # P[edge active] = x under vertex arrivals, for every edge
    g = cycle(5, 0.5)
    rng = stream(19, "w")
    trials = 40_000
    Y, F = vertex_draws(g, rng, trials)
    counts = np.bincount(_active_choices(g, Y, F).edge, minlength=g.edge_count)
    assert np.allclose(counts / trials, 0.5, atol=0.01)
