import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crslab import numerics
from crslab.numerics import (
    QuadratureError,
    adaptive_simpson,
    bisect,
    integrate_grid,
    wilson_interval,
)


def test_simpson_known_integrals():
    assert abs(adaptive_simpson(math.exp, 0.0, 1.0, 1e-12) - (math.e - 1.0)) < 1e-11
    assert abs(adaptive_simpson(lambda y: 1.0 / (1.0 + y) ** 2, 0.0, 1.0, 1e-12) - 0.5) < 1e-11
    assert abs(adaptive_simpson(math.sin, 0.0, math.pi, 1e-12) - 2.0) < 1e-11


def test_simpson_degenerate_and_bad_tol():
    assert adaptive_simpson(math.exp, 0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        adaptive_simpson(math.exp, 0.0, 1.0, tol=0.0)


def test_simpson_depth_exhaustion(monkeypatch):
    # |x|^0.1 has an unbounded derivative at 0; depth 1 cannot reach 1e-14
    monkeypatch.setattr(numerics, "SIMPSON_MAX_DEPTH", 1)
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda y: abs(y) ** 0.1, -1.0, 1.0, tol=1e-14)


@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4),
)
def test_simpson_exact_on_cubics(coef):
    a, b, c, d = coef
    f = lambda y: ((a * y + b) * y + c) * y + d
    exact = a / 4.0 + b / 3.0 + c / 2.0 + d
    assert abs(adaptive_simpson(f, 0.0, 1.0, 1e-9) - exact) < 1e-8


def test_integrate_grid_is_cumulative():
    knots = [0.0, 0.25, 0.5, 1.0]
    vals = integrate_grid(math.exp, knots, 1e-12)
    assert vals[0] == 0.0
    for t, v in zip(knots, vals):
        assert abs(v - (math.exp(t) - 1.0)) < 1e-11


def test_integrate_grid_rejects_bad_knots():
    with pytest.raises(ValueError):
        integrate_grid(math.exp, [0.0])
    with pytest.raises(ValueError):
        integrate_grid(math.exp, [0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        integrate_grid(math.exp, [1.0, 0.0])


def test_bisect_root():
    r = bisect(lambda y: y * y - 2.0, 0.0, 2.0)
    assert abs(r - math.sqrt(2.0)) < 1e-13


def test_bisect_endpoints_and_no_sign_change():
    assert bisect(lambda y: y, 0.0, 1.0) == 0.0
    assert bisect(lambda y: y - 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        bisect(lambda y: y + 1.0, 0.0, 1.0)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_wilson_contains_point_estimate(k, extra):
    n = k + extra
    if n == 0:
        assert wilson_interval(0, 0) == (0.0, 1.0)
        return
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0
    assert lo < hi


def test_wilson_validates_counts():
    with pytest.raises(ValueError):
        wilson_interval(3, 2)
    with pytest.raises(ValueError):
        wilson_interval(-1, 2)


def test_wilson_never_degenerates_at_extremes():
    # unlike the Wald interval, the score interval stays informative at 0/n
    lo, hi = wilson_interval(0, 50)
    assert hi > 0.01
    lo, hi = wilson_interval(50, 50)
    assert lo < 0.99


def test_wilson_coverage_near_nominal():
    # 95% interval should cover the true p about 95% of the time
    rng = np.random.default_rng(4242)
    p, n, reps = 0.3, 400, 2000
    hits = 0
    ks = rng.binomial(n, p, size=reps)
    for k in ks:
        lo, hi = wilson_interval(int(k), n)
        hits += lo <= p <= hi
    cover = hits / reps
    assert 0.93 < cover < 0.97
