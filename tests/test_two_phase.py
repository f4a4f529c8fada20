import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crslab.arrivals import sample_choices_batch
from crslab.graph import Graph, complete, single_edge, star
from crslab.numerics import bisect
from crslab.rng import rows, stream
from crslab.two_phase import (
    _phase1_mode,
    find_t0,
    prune_factor,
    run_two_phase_batch,
    simulate_two_phase,
    survival_prob,
    t_root_poly,
)

from .analysis import (
    check_two_values_inequality,
    guarantee_poly,
    overall_recursion_bound,
    pinned_phase1_frequency,
    recursion_bound,
    survival_prob_closed,
)
from .oracles import GUARANTEE_AT_T0, GUARANTEE_MAX, T0_FROZEN, endpoint_flags, phase1_mode, recorded


def test_prune_factor_basics():
    assert prune_factor(0.0, 0.3) == 1.0
    assert prune_factor(1.0, 0.0) == 3.0 / 5.0
    a = prune_factor(np.array([0.0, 0.5, 1.0]), 0.4)
    assert a[0] == 1.0 and np.all(np.diff(a) < 0)  # decreasing in x
    assert np.all((a > 0) & (a <= 1))


@settings(max_examples=80)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.9),
)
def test_survival_closed_form_identity(x, t):
    assert abs(survival_prob(x, t) - survival_prob_closed(x, t)) < 1e-13


def test_survival_closed_form_degenerates_at_one():
    # the alternative form is 0/0 at t=1; the primary form is fine there
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert math.isnan(survival_prob_closed(0.5, 1.0))
    assert abs(survival_prob(0.5, 1.0) - 0.5) < 1e-15  # a_1 = 1


def test_switch_root():
    t0 = find_t0()
    assert 0.118 < t0 < 0.120
    assert abs(t0 - T0_FROZEN) < 1e-14
    assert abs(t_root_poly(t0)) < 1e-12
    # cross-check against the generic bisection on the same polynomial
    assert abs(t0 - bisect(t_root_poly, 0.0, 1.0)) < 1e-14


def test_guarantee_poly_values():
    assert guarantee_poly(0.0) == 16.0 / 30.0
    assert guarantee_poly(1.0) == 0.5
    assert abs(guarantee_poly(find_t0()) - GUARANTEE_AT_T0) < 1e-12
    t_star = (math.sqrt(3.0) - 1.0) / 2.0
    assert abs(guarantee_poly(t_star) - GUARANTEE_MAX) < 1e-15
    ts = np.linspace(0.0, 1.0, 2001)
    vals = np.array([guarantee_poly(float(t)) for t in ts])
    assert vals.max() <= GUARANTEE_MAX + 1e-12


def test_two_values_inequality_holds_at_root():
    rep = check_two_values_inequality(find_t0(), grid=201)
    assert rep.holds and rep.max_violation <= 1e-10
    assert check_two_values_inequality(0.05, grid=101).holds


def test_two_values_inequality_fails_past_root():
    rep = check_two_values_inequality(0.2, grid=101)
    assert not rep.holds
    assert rep.max_violation > 1e-3
    assert rep.argmax == (1.0, 1.0)
    assert rep.violations
    with pytest.raises(ValueError):
        check_two_values_inequality(0.1, grid=1)


def _draws(g, seed, trials):
    rng = stream(seed, "test-two-phase")
    n = g.vertex_count
    Y = rng.random((trials, n))
    F = sample_choices_batch(g, rng, trials)
    UA = rng.random((trials, n))
    UB = rng.random((trials, n))
    return Y, F, UA, UB


def test_t_zero_is_prune_greedy_bitwise(k33):
    # t = 0 has no balancing phase: the balance bits are never read
    Y, F, UA, UB = _draws(k33, 702, 400)
    a = recorded(run_two_phase_batch, k33, 0.0, Y, F, UA, UB)
    b = recorded(run_two_phase_batch, k33, 0.0, Y, F, UA, np.ones_like(UB))
    assert np.array_equal(a.acc_edge, b.acc_edge)
    assert np.array_equal(a.accepted, b.accepted)


def test_t_one_is_balanced_scheme_bitwise(k33):
    # t = 1 prunes nothing (a_1 = 1): the pruning bits are never decisive
    Y, F, UA, UB = _draws(k33, 703, 400)
    a = recorded(run_two_phase_batch, k33, 1.0, Y, F, UA, UB)
    b = recorded(run_two_phase_batch, k33, 1.0, Y, F, np.zeros_like(UA), UB)
    assert np.array_equal(a.acc_edge, b.acc_edge)
    assert np.array_equal(a.accepted, b.accepted)


def test_t_validation(k33):
    Y, F, UA, UB = _draws(k33, 704, 4)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            run_two_phase_batch(k33, bad, Y, F, UA, UB)


def test_non_regular_instance_warns():
    g = star(3, 0.25)
    with pytest.warns(UserWarning, match="not 1-regular"):
        simulate_two_phase(g, 0.3, trials=50, seed=705)
    # the engine itself never warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_two_phase_batch(g, 0.3, *_draws(g, 706, 50))


@st.composite
def _phase1_graphs(draw):
    """Complete bipartite blocks (one or two, any sides), maybe with isolated
    vertices, one edge dropped or one x changed, relabelled; or any graph on
    up to 6 vertices, n <= 1 included."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    else:
        a, b, copies = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
        n = copies * (a + b) + draw(st.integers(0, 2))
        pairs = [(c * (a + b) + i, c * (a + b) + a + j) for c in range(copies) for i in range(a) for j in range(b)]
        if len(pairs) > 1 and draw(st.booleans()):
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    label = draw(st.permutations(range(n)))
    xs = [0.25] * len(pairs)
    if xs and draw(st.booleans()):
        xs[draw(st.integers(0, len(xs) - 1))] = 0.125
    return Graph(n, [(label[u], label[v], x) for (u, v), x in zip(pairs, xs)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(g=_phase1_graphs())
def test_phase1_mode_equals_search(g):
    """The vectorized complete-bipartite check against a breadth-first search."""
    mode, side = _phase1_mode(g)
    want_mode, want_side = phase1_mode(g)
    assert mode == want_mode
    assert (side is None and want_side is None) or (side.dtype == want_side.dtype and np.array_equal(side, want_side))


def test_phase1_mode_cases():
    k23 = [(u, v, 0.25) for u in range(2) for v in range(2, 5)]
    assert _phase1_mode(Graph(5, k23))[0] == "bipartite"  # a != b
    assert _phase1_mode(Graph(6, k23))[0] == "dense"  # an isolated vertex
    assert _phase1_mode(Graph(4, [(0, 1, 0.5), (2, 3, 0.5)]))[0] == "dense"  # disconnected
    assert _phase1_mode(Graph(5, k23[:-1] + [(1, 4, 0.5)]))[0] == "dense"  # non-uniform x
    assert _phase1_mode(Graph(0, []))[0] == _phase1_mode(Graph(1, []))[0] == "dense"


def test_phase_boundary_is_strict():
    # a proposal at exactly y = t skips the balancing bit
    g = single_edge(1.0)
    t = 0.5
    F = np.array([[1, 0], [1, 0]])
    UA = np.zeros((2, 2))  # always survive pruning
    UB = np.array([[0.0, 0.99]] * 2)  # would fail the balance bit if applied
    Y = np.array([[0.2, t], [0.2, t - 1e-9]])  # at t, then just below it
    res = recorded(run_two_phase_batch, g, t, Y, F, UA, UB)
    assert endpoint_flags(g, res.acc_edge).tolist() == [[True, True], [False, False]]


def test_simulate_two_phase_consistency(k33):
    res = simulate_two_phase(k33, 0.4, trials=4_000, seed=707, bins=10)
    assert res.trials == 4_000 and res.bins == 10
    assert np.array_equal(res.acc_bin.sum(axis=1), res.accepted)
    assert np.array_equal(res.act_bin.sum(axis=1), res.active)
    assert np.all(res.accepted <= res.active)
    assert np.all(res.ratio_active() <= 1.0)
    assert res.ratio_x(k33).shape == (9,)


def test_pinned_phase1_validation(c5):
    with pytest.raises(ValueError, match="0 < y0 <= t"):
        pinned_phase1_frequency(c5, 0.3, 0, 1, 0.5, {2: 0.1, 3: 0.2, 4: 0.3}, 10, 1)
    with pytest.raises(ValueError, match="missing"):
        pinned_phase1_frequency(c5, 0.5, 0, 1, 0.2, {2: 0.1}, 10, 1)
    with pytest.raises(KeyError):
        pinned_phase1_frequency(c5, 0.5, 0, 2, 0.2, {1: 0.1, 3: 0.2, 4: 0.3}, 10, 1)


def test_pinned_phase1_frequency_matches_half_f(c5):
    # phase-1 pinned-configuration rate equals f_t(x)/2 (checked at 4 sigma
    # here; the acceptance suite repeats this at scale)
    t = 0.5
    target = survival_prob(0.5, t) / 2.0
    freq, sigma = pinned_phase1_frequency(c5, t, 0, 1, 0.2, {2: 0.1, 3: 0.7, 4: 0.3}, 60_000, seed=708)
    assert abs(freq - target) < 4.0 * sigma


def test_recursion_bound_single_edge_exact():
    g = single_edge(1.0)
    val = overall_recursion_bound(g, 0.0, (0, 1), ell=4)
    assert val == 3.0 / 5.0
    rb = recursion_bound(g, 0.0, (0, 1), ell=2, direction="lower")
    # no competing neighbors: the bound polynomial is the identity
    assert np.allclose(rb.values, rb.ys)
    assert rb.poly(0.37) == 0.37


def test_recursion_bound_validation(c5):
    with pytest.raises(ValueError, match="even ell"):
        recursion_bound(c5, 0.1, (0, 1), ell=3, direction="lower")
    with pytest.raises(ValueError, match="odd ell"):
        recursion_bound(c5, 0.1, (0, 1), ell=2, direction="upper")
    with pytest.raises(ValueError):
        recursion_bound(c5, 0.1, (0, 1), ell=5, direction="upper")
    with pytest.raises(KeyError):
        recursion_bound(c5, 0.1, (0, 2), ell=2, direction="lower")


def test_recursion_bound_ordering():
    # deeper levels tighten: L2 <= U3 <= U1 = y on the evaluation grid
    g = complete(7)
    t = find_t0()
    l2 = recursion_bound(g, t, (0, 1), ell=2, direction="lower")
    u3 = recursion_bound(g, t, (0, 1), ell=3, direction="upper")
    assert np.all(l2.values <= u3.values + 1e-12)
    assert np.all(u3.values <= l2.ys + 1e-12)
    l4 = recursion_bound(g, t, (0, 1), ell=4, direction="lower")
    assert np.all(l2.values <= l4.values + 1e-12)


def test_recursion_bound_beats_guarantee_on_k7():
    g = complete(7)
    for t in (find_t0(), 0.08):
        val = overall_recursion_bound(g, t, (0, 1), ell=4)
        assert val >= guarantee_poly(t) - 1e-6


def test_warning_free_on_regular_instances(c5):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_two_phase(c5, 0.3, trials=50, seed=709)


def test_simulate_two_phase_holds_no_whole_float_arrays():
    """Row blocks draw their own times and bits: a chunk's peak stays near
    three (trials, n) float arrays' worth (the int8 choices and the blocks
    in flight), not the four eager arrays and more."""
    g, trials = complete(61), 20_000
    simulate_two_phase(g, 0.3, 200, 1)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        simulate_two_phase(g, 0.3, trials, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * trials * g.vertex_count * 8


def test_unwatched_batch_holds_no_flag_matrix():
    """A batch that watches nothing keeps its matched flags per row block:
    on K61 at 200k rows the engine's peak stays below trials x n bytes, the
    size a (trials, n) bool matrix alone would take."""
    g, trials = complete(61), 200_000
    n = g.vertex_count
    run_two_phase_batch(g, 0.3, *_draws(g, 710, 200))  # warm caches outside the measurement
    rng = stream(711, "test-two-phase")
    Y = rows(rng, trials, n)
    F = sample_choices_batch(g, rng, trials)
    UA, UB = rows(rng, trials, n), rows(rng, trials, n)
    tracemalloc.start()
    try:
        res = run_two_phase_batch(g, 0.3, Y, F, UA, UB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.matched is None and res.accepted.sum() > 0
    assert peak < trials * n
