import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crslab.selection import (
    INFINITE,
    CertificateReport,
    alpha_closed_form,
    c_edge,
    c_vertex,
    edge_selection,
    gamma_upper_int,
    parse_girth,
    phi,
    vertex_selection,
    verify_selection_conditions,
)

from .analysis import alpha_numeric, custom_selection
from .oracles import ALPHA_INF, ode_selection, trapezoid_alpha

ODD_GIRTHS = st.integers(min_value=1, max_value=7).map(lambda k: 2 * k + 1)


def test_phi_values():
    assert phi(0.5, 3) == 0.125
    assert phi(0.5, 5) == 0.5**4 / 24.0
    assert phi(0.7, INFINITE) == 0.0
    out = phi(np.array([0.0, 1.0]), 3)
    assert out.tolist() == [0.0, 0.5]


def test_girth_validation():
    for bad in (2, 4, 1, -3, 2.5):
        with pytest.raises(ValueError):
            phi(0.5, bad)
    assert phi(0.5, 5.0) == phi(0.5, 5)  # integral float accepted


def test_parse_girth():
    assert parse_girth("inf") == INFINITE
    assert parse_girth("INFINITE") == INFINITE
    assert parse_girth("7") == 7
    assert parse_girth(str(INFINITE)) == INFINITE  # "inf"
    with pytest.raises(ValueError):
        parse_girth("4")
    with pytest.raises(ValueError):
        parse_girth("three")
    with pytest.raises(ValueError):
        parse_girth("5.0")
    # numbers as a JSON config holds them
    assert parse_girth(INFINITE) == INFINITE
    assert parse_girth(5) == 5 and type(parse_girth(5.0)) is int
    for bad in (4, 1, 5.5, -INFINITE, True):
        with pytest.raises(ValueError):
            parse_girth(bad)
    for bad in (None, [5]):
        with pytest.raises(TypeError):
            parse_girth(bad)


def test_gamma_upper_int_identities():
    # order 1: e^{-z}; at z=0: (s-1)!
    assert abs(gamma_upper_int(1, 0.7) - math.exp(-0.7)) < 1e-15
    assert gamma_upper_int(4, 0.0) == 6.0
    # recurrence G(s,z) = (s-1) G(s-1,z) + z^{s-1} e^{-z}, also at negative z
    for z in (0.3, 2.0, -2.0):
        for s in range(2, 8):
            lhs = gamma_upper_int(s, z)
            rhs = (s - 1) * gamma_upper_int(s - 1, z) + z ** (s - 1) * math.exp(-z)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
    with pytest.raises(ValueError):
        gamma_upper_int(0, 1.0)


def test_c_vertex_endpoints_and_domain():
    for g in (3, 5, 9, INFINITE):
        assert c_vertex(0.0, g) == 1.0
        assert abs(c_vertex(1e-15, g) - (1.0 - 1e-15)) < 1e-18
    assert abs(c_vertex(1.0, INFINITE) - (1.0 - math.exp(-2.0)) / 2.0) < 1e-15
    with pytest.raises(ValueError):
        c_vertex(-0.1, 3)
    with pytest.raises(ValueError):
        c_vertex(1.1, 3)


def test_c_vertex_vectorized_matches_scalar():
    ys = np.linspace(0.0, 1.0, 41)
    for g in (3, 7, INFINITE):
        vec = c_vertex(ys, g)
        sca = np.array([c_vertex(float(y), g) for y in ys])
        assert np.array_equal(vec, sca)


def test_c_vertex_matches_defining_ode():
    # independent oracle: RK4 on c' = (1 - c - 2ct - 2 phi_g)/t
    for g in (3, 5, 7, INFINITE):
        ts, cs = ode_selection(g, n_steps=20_000)
        sub = slice(200, None, 100)
        lib = c_vertex(ts[sub], g)
        assert np.max(np.abs(lib - cs[sub])) < 1e-7


def test_alpha_closed_form_matches_ode_oracle():
    for g in (3, 5, 7, INFINITE):
        ts, cs = ode_selection(g, n_steps=20_000)
        assert abs(trapezoid_alpha(ts, cs) - alpha_closed_form(g)) < 1e-8
    assert abs(alpha_closed_form(INFINITE) - ALPHA_INF) < 1e-15


def test_alpha_numeric_agrees_with_closed_form():
    for g in (3, 5, 7, 9, INFINITE):
        assert abs(alpha_numeric(g) - alpha_closed_form(g)) < 1e-9
    with pytest.raises(ValueError):
        alpha_numeric(3, tol=0.0)


def test_alpha_strictly_increasing_to_limit():
    vals = [alpha_closed_form(g) for g in (3, 5, 7, 9, 11, 13)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < ALPHA_INF for v in vals)
    assert ALPHA_INF - vals[-1] < 1e-3  # converging


def test_c_edge_kinds():
    ys = np.linspace(0.0, 1.0, 11)
    assert np.allclose(c_edge(ys, "rank1"), np.exp(-ys))
    assert np.allclose(c_edge(ys, "edge_general"), np.exp(-2 * ys))
    assert np.allclose(c_edge(ys, "edge_tree"), 1.0 / (1.0 + ys) ** 2)
    assert isinstance(c_edge(0.5, "rank1"), float)
    with pytest.raises(ValueError, match="unknown edge selection kind"):
        c_edge(0.5, "nope")


def test_selection_function_objects():
    sv = vertex_selection(5)
    assert sv.g == 5
    assert sv.floor == c_vertex(1.0, 5)
    assert abs(sv.alpha - alpha_closed_form(5)) < 1e-15
    assert sv(0.3) == c_vertex(0.3, 5)

    se = edge_selection("edge_tree")
    assert se.alpha == 0.5 and se.floor == 0.25
    assert abs(edge_selection("rank1").alpha - (1.0 - 1.0 / math.e)) < 1e-15
    assert abs(edge_selection("edge_general").alpha - (1.0 - math.exp(-2.0)) / 2.0) < 1e-15
    with pytest.raises(ValueError):
        edge_selection("vertex")


def test_custom_selection_interp_and_alpha():
    # table for c(y) = 1 - y/2: alpha = 2 int (1-y/2) y dy = 2/3
    sel = custom_selection([0.0, 0.5, 1.0], [1.0, 0.75, 0.5], floor=0.5)
    assert sel(0.25) == 0.875
    assert abs(sel.alpha - 2.0 / 3.0) < 1e-9
    assert sel.g is None


def test_custom_selection_validation():
    with pytest.raises(ValueError):
        custom_selection([0.0], [1.0], floor=0.5)
    with pytest.raises(ValueError):
        custom_selection([0.1, 1.0], [1.0, 0.5], floor=0.5)
    with pytest.raises(ValueError):
        custom_selection([0.0, 0.5], [1.0, 0.5], floor=0.5)
    with pytest.raises(ValueError):
        custom_selection([0.0, 0.5, 0.5, 1.0], [1, 1, 1, 1], floor=0.5)
    with pytest.raises(ValueError):
        custom_selection([0.0, 1.0], [1.0, 0.5], floor=0.0)


def test_certificate_closed_forms_hold_with_equality():
    for g in (3, 5, INFINITE):
        rep = verify_selection_conditions(vertex_selection(g), g, grid_size=200)
        assert rep.passed and rep.monotone_ok and rep.floor_ok
        assert rep.max_violation <= 1e-10
        assert rep.equality_max_slack <= 1e-8
        assert rep.violations == []


def test_certificate_rejects_constant_one():
    sel = custom_selection([0.0, 1.0], [1.0, 1.0], floor=1.0)
    rep = verify_selection_conditions(sel, 3, grid_size=50)
    assert not rep.inequality_ok and not rep.passed
    assert rep.violations and rep.max_violation > 0.1
    # violations report (t, slack) with positive slack
    t, slack = rep.violations[0]
    assert 0.0 < t <= 1.0 and slack > 0.0


def test_certificate_flags_monotone_and_floor_breaks():
    rising = custom_selection([0.0, 1.0], [0.5, 0.9], floor=0.4)
    rep = verify_selection_conditions(rising, 5, grid_size=20)
    assert not rep.monotone_ok
    dipping = custom_selection([0.0, 0.5, 1.0], [1.0, 0.2, 0.9], floor=0.6)
    rep = verify_selection_conditions(dipping, 5, grid_size=20)
    assert not rep.floor_ok
    with pytest.raises(ValueError):
        verify_selection_conditions(vertex_selection(3), 3, grid_size=1)


def test_certificate_report_is_dataclass():
    rep = CertificateReport(True, True, -1e-12, 5e-12, [])
    assert rep.passed and rep.inequality_ok


@settings(max_examples=60)
@given(st.floats(min_value=0.0, max_value=1.0), ODD_GIRTHS)
def test_c_vertex_in_range(y, g):
    val = c_vertex(y, g)
    assert c_vertex(1.0, g) - 1e-12 <= val <= 1.0


@settings(max_examples=60)
@given(st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.5), ODD_GIRTHS)
def test_c_vertex_monotone_decreasing(a, delta, g):
    lo, hi = a, a + delta
    assert c_vertex(lo, g) >= c_vertex(hi, g) - 1e-12


@settings(max_examples=40)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_girth_ordering_pointwise(y):
    # larger girth admits a (weakly) larger selection value at every y
    vals = [c_vertex(y, g) for g in (3, 5, 7)] + [c_vertex(y, INFINITE)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
