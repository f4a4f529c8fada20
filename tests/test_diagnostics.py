"""Tests for the coupled-deletion diagnostics.

The small hand-traced scenarios pin down the witness definition exactly:
which choice digraphs contain a potential path, which time orders count as
badly ordered, and when the flip indicator must cover an actual flip.
"""

import math

import numpy as np
import pytest

from crslab.arrivals import NO_CHOICE
from crslab.diagnostics import (
    correlation_gap,
    coupled_batch,
    detect_potential_paths_batch,
    flip_indicators,
    gap_bound,
)
from crslab.graph import complete, cycle
from crslab.recursive import EstimateTable
from crslab.rng import stream
from crslab.selection import INFINITE

from .oracles import analyze_flipping, check_badly_ordered, coupled_run, detect_potential_path, vertex_draws, watch_all

NO = NO_CHOICE


def ones_table(g, T=6, delta=0.1):
    # all survival estimates pinned at 1 so proposal bits depend only on c and damping
    return EstimateTable(T, delta, np.ones((T, 2 * g.edge_count)))


# -- potential-path detection ----------------------------------------------------


def test_direct_path_on_triangle():
    # u's choice is 2 and v also chose 2: shortest even path is (v, 2)
    assert detect_potential_path([2, 2, 0], 0, 1) == [1, 2]
    # closure through the other endpoint: 2 chose v
    assert detect_potential_path([2, 0, 1], 0, 1) == [1, 2]


def test_length_four_path_on_five_cycle(c5):
    # walk from F_0 = 4 back through 3 to 2, closed by v = 1 choosing 2
    assert detect_potential_path([4, 2, NO, 2, 3], 0, 1) == [1, 2, 3, 4]
    # same walk closed from the other side: 2 chose v
    assert detect_potential_path([4, 0, 1, 2, 3], 0, 1) == [1, 2, 3, 4]


def test_no_path_cases(c5):
    assert detect_potential_path([NO, 0, 1, 2, 3], 0, 1) is None
    # u chose v itself: the deletion already explains any change at u
    assert detect_potential_path([1, 0, 1, 2, 3], 0, 1) is None
    # walk dies at a no-choice vertex before any closure
    assert detect_potential_path([4, 0, NO, NO, 3], 0, 1) is None
    # walk revisits a vertex and stops
    assert detect_potential_path([4, 0, NO, 4, 3], 0, 1) is None


def test_closure_only_counts_at_even_offsets(c5):
    # v chose the vertex at walk offset 1; an odd-length path is not a witness
    assert detect_potential_path([4, 3, NO, 2, 3], 0, 1) is None


def test_detect_path_validation(c5):
    with pytest.raises(ValueError, match="must differ"):
        detect_potential_paths_batch(c5, np.full((1, 5), NO), 2, 2)


def test_batch_scan_counts_every_candidate(c5):
    F = np.array(
        [
            [4, 4, 1, 2, 3],  # closures at both even offsets, first one wins
            [4, 2, NO, 2, 3],  # single length-4 path
            [1, 0, 0, 0, 0],  # F_u = v: no walk at all
            [NO, 2, 1, 2, 3],
        ],
        dtype=np.int64,
    )
    scan = detect_potential_paths_batch(c5, F, 0, 1)
    assert scan.length.tolist() == [2, 4, 0, 0]
    assert scan.count.tolist() == [2, 1, 0, 0]
    assert scan.path[0, :3].tolist() == [1, 4, -1]
    assert scan.path[1, :5].tolist() == [1, 2, 3, 4, -1][:5]
    assert (scan.path[2] == -1).all()


def test_batch_scan_matches_single(c5, k33):
    # C7 at x = 0.4 leaves mass for NO_CHOICE; K_6 closes paths of length 2 and 4
    for g, seed in ((c5, 41), (k33, 42), (cycle(7, 0.4), 44), (complete(6), 45)):
        _, F = vertex_draws(g, stream(seed, "trials-vertex", 0), 1000)
        scan = detect_potential_paths_batch(g, F, 0, 1)
        for i in range(1000):
            path = detect_potential_path(F[i], 0, 1)
            d = 0 if path is None else len(path)
            assert scan.length[i] == d
            assert scan.path[i, :d].tolist() == (path or [])
            assert (scan.path[i, d:] == -1).all()
            assert (scan.count[i] >= 1) == (path is not None)


def test_bipartite_has_no_potential_paths(k33):
    # a witness closes an odd cycle through (u, v), impossible in a bipartite graph
    _, F = vertex_draws(k33, stream(43, "trials-vertex", 0), 2000)
    scan = detect_potential_paths_batch(k33, F, 0, 3)
    assert (scan.length == 0).all()
    assert (scan.count == 0).all()


# -- permissible time orders ------------------------------------------------------


def test_badly_ordered_cases():
    path = [1, 2, 3, 4]
    assert check_badly_ordered([0.9, 0.1, 0.2, 0.3, 0.4], path, 0)
    assert check_badly_ordered([0.9, 0.2, 0.1, 0.3, 0.4], path, 0)  # first two swapped
    assert not check_badly_ordered([0.9, 0.1, 0.3, 0.2, 0.4], path, 0)  # middle swapped
    assert not check_badly_ordered([0.35, 0.1, 0.2, 0.3, 0.4], path, 0)  # one after Y_u
    # ties with Y_u do not count as earlier
    assert not check_badly_ordered([0.4, 0.1, 0.2, 0.3, 0.4], path, 0)


def test_permissible_order_probability():
    # for d iid uniform times below Y_u exactly 2 of the d! orders qualify
    rng = np.random.default_rng(4411)
    path = [1, 2, 3, 4]
    trials = 20000
    hits = 0
    for _ in range(trials):
        y = np.empty(5)
        y[0] = 1.0
        y[1:] = rng.random(4)
        if check_badly_ordered(y, path, 0):
            hits += 1
    p = 2.0 / math.factorial(4)
    sigma = math.sqrt(p * (1.0 - p) / trials)
    assert abs(hits / trials - p) < 4.0 * sigma


# -- coupled executions ------------------------------------------------------------


def test_coupled_run_basics(c5, sel5, table_c5_small):
    rng = stream(45, "corr-gap", 0)
    Y, F = vertex_draws(c5, rng, 20)
    U = rng.random((20, 5))
    for i in range(20):
        run = coupled_run(c5, sel5, table_c5_small, 0, 1, 0.7, Y[i], F[i], U[i])
        assert run.matched_full.shape == (5,)
        assert run.matched_dropped.shape == (5,)
        # the deleted vertex can never be matched in the second execution
        assert not run.matched_dropped[1]
        assert run.m_u == bool(run.matched_full[0])
        assert run.m_u_dropped == bool(run.matched_dropped[0])


def test_coupled_run_matches_batch(c5, sel5, table_c5_small):
    rng = stream(46, "corr-gap", 0)
    Y, F = vertex_draws(c5, rng, 200)
    U = rng.random((200, 5))
    full, dropped = coupled_batch(c5, sel5, table_c5_small, 1, Y, F, U, t_k=0.8, watch=watch_all(c5, 200))
    for i in range(200):
        run = coupled_run(c5, sel5, table_c5_small, 0, 1, 0.8, Y[i], F[i], U[i])
        assert (full.matched[i] == run.matched_full).all()
        assert (dropped.matched[i] == run.matched_dropped).all()


def test_rows_with_absent_v_are_identical(c5, sel5, table_c5_small):
    # if Y_v > t_k the deletion is invisible: both executions agree bit for bit
    rng = stream(47, "trials-vertex", 0)
    Y, F = vertex_draws(c5, rng, 800)
    U = rng.random((800, 5))
    full, dropped = coupled_batch(c5, sel5, table_c5_small, 1, Y, F, U, t_k=0.6, watch=watch_all(c5, 800))
    mask = Y[:, 1] > 0.6
    assert mask.any()
    assert (full.matched[mask] == dropped.matched[mask]).all()


# -- the flip indicator on forced samples ------------------------------------------


def forced_run(g, sel, table, times, choices, decisions, u=0, v=1, t_k=1.0):
    y, U = np.asarray(times, dtype=np.float64), np.asarray(decisions, dtype=np.float64)
    return coupled_run(g, sel, table, u, v, t_k, y, np.asarray(choices), U)


def test_forced_flip_has_witness(c5, sel5):
    # deleting v = 1 unwinds the chain (1,2), (3,4) into (2,3), (0,4):
    # vertex 0 flips from unmatched to matched and the indicator must fire
    table = ones_table(c5)
    run = forced_run(c5, sel5, table, [0.9, 0.1, 0.2, 0.3, 0.4], [4, 0, 1, 2, 3], [0.0] * 5)
    assert not run.m_u
    assert run.m_u_dropped
    rep = analyze_flipping(c5, sel5, table, run)
    assert rep.potential_path == [1, 2, 3, 4]
    assert rep.badly_ordered
    assert rep.flipping
    assert not rep.indicator_violation


def test_broken_order_kills_flip_and_witness(c5, sel5):
    # swapping the middle arrival times breaks both the cascade and the witness
    table = ones_table(c5)
    run = forced_run(c5, sel5, table, [0.9, 0.1, 0.3, 0.2, 0.4], [4, 0, 1, 2, 3], [0.0] * 5)
    assert run.m_u == run.m_u_dropped
    rep = analyze_flipping(c5, sel5, table, run)
    assert rep.potential_path == [1, 2, 3, 4]
    assert not rep.badly_ordered
    assert not rep.flipping
    assert not rep.indicator_violation


def test_failed_bit_blocks_witness(c5, sel5):
    # vertex 2's proposal bit fails, so the first pair never survives; u is
    # matched in both executions and nothing flips
    table = ones_table(c5)
    decisions = [0.0, 0.0, 1.0, 0.0, 0.0]
    run = forced_run(c5, sel5, table, [0.9, 0.1, 0.2, 0.3, 0.4], [4, 0, 1, 2, 3], decisions)
    assert run.m_u and run.m_u_dropped
    rep = analyze_flipping(c5, sel5, table, run)
    assert not rep.flipping
    assert not rep.indicator_violation


def test_flip_indicator_covers_all_flips(c5, sel5, table_c5_small):
    # flips themselves are rare; the forced trace above pins the positive case,
    # here no flip may ever escape the indicator over a large shared sample
    rng = stream(48, "trials-vertex", 0)
    Y, F = vertex_draws(c5, rng, 20000)
    U = rng.random((20000, 5))
    full, dropped = coupled_batch(c5, sel5, table_c5_small, 1, Y, F, U, t_k=1.0, watch=watch_all(c5, 20000))
    B, scan = flip_indicators(c5, sel5, table_c5_small, Y, F, U, 0, 1)
    need = dropped.matched[:, 0] & ~full.matched[:, 0]
    assert not (need & ~B).any()
    assert scan.count.max() <= 1


def test_bipartite_never_flips(k33, sel_inf, table_k33_small):
    rng = stream(49, "trials-vertex", 0)
    Y, F = vertex_draws(k33, rng, 2000)
    U = rng.random((2000, 6))
    full, dropped = coupled_batch(k33, sel_inf, table_k33_small, 3, Y, F, U, t_k=1.0, watch=watch_all(k33, 2000))
    need = dropped.matched[:, 0] & ~full.matched[:, 0]
    assert not need.any()


# -- correlation gap ----------------------------------------------------------------


def test_gap_bound_values():
    assert gap_bound(INFINITE, 0.7) == 0.0
    assert math.isclose(gap_bound(5, 0.5), 2.0 * 0.5**4 / 120.0)
    assert math.isclose(gap_bound(3, 0.3), 0.3**2 / 3.0)
    assert gap_bound(5, 0.0) == 0.0


def test_correlation_gap_validation(c5, sel5, table_c5_small):
    with pytest.raises(ValueError, match="must differ"):
        correlation_gap(c5, sel5, table_c5_small, 1, 1, 0.5, 10, 50)
    with pytest.raises(KeyError):
        correlation_gap(c5, sel5, table_c5_small, 0, 2, 0.5, 10, 50)


def test_correlation_gap_smoke(c5, sel5, table_c5_small):
    rep = correlation_gap(c5, sel5, table_c5_small, 0, 1, 0.5, 4000, 9101)
    assert rep.trials == 4000
    assert 0 < rep.count_inner < rep.count_outer < 4000
    assert math.isclose(rep.gap, rep.mean_inner - rep.mean_outer)
    assert rep.sigma > 0.0
    assert rep.bound == gap_bound(5, 0.5)
    assert rep.violation_count == 0
    assert rep.max_paths <= 1
    assert rep.within_bound


def test_correlation_gap_bipartite(k33, sel_inf, table_k33_small):
    rep = correlation_gap(k33, sel_inf, table_k33_small, 0, 3, 0.5, 4000, 9102)
    assert rep.bound == 0.0
    assert rep.max_paths == 0
    assert rep.flip_count == 0
    assert rep.violation_count == 0
    assert rep.within_bound


def test_correlation_gap_at_full_horizon_is_empty(c5, sel5, table_c5_small):
    # Y_v > 1 never happens, so the inner conditional is empty by definition
    rep = correlation_gap(c5, sel5, table_c5_small, 0, 1, 1.0, 500, 9103)
    assert rep.count_inner == 0
    assert math.isnan(rep.mean_inner)
    assert math.isnan(rep.gap)
    assert rep.violation_count == 0


def test_correlation_gap_deterministic(c5, sel5, table_c5_small):
    a = correlation_gap(c5, sel5, table_c5_small, 0, 1, 0.5, 600, 9104)
    b = correlation_gap(c5, sel5, table_c5_small, 0, 1, 0.5, 600, 9104)
    assert a == b
