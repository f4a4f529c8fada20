"""Selection functions: target conditional acceptance rates and their certificates.

A selection function c maps an arrival time y in [0,1] to the probability
with which the scheme wants to accept an active element arriving at y. The
vertex-arrival family is parameterized by the odd girth g of the instance;
edge-arrival schemes use three fixed closed forms. The certificate checker
verifies the defining integral inequality

    c(t) <= 1 - (1/t) * int_0^t 2*(c(y)*y + phi_g(y)) dy,

which the closed-form family satisfies with equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import integrate_grid

__all__ = [
    "INFINITE",
    "phi",
    "gamma_upper_int",
    "c_vertex",
    "c_edge",
    "alpha_closed_form",
    "SelectionFunction",
    "vertex_selection",
    "edge_selection",
    "CertificateReport",
    "verify_selection_conditions",
    "parse_girth",
]

INFINITE = math.inf

# Edge-arrival selection kinds -> (c(y) on an array, alpha = int_0^1 c(y) dy).
EDGE_KINDS = {
    "rank1": (lambda y: np.exp(-y), 1.0 - math.exp(-1.0)),
    "edge_general": (lambda y: np.exp(-2.0 * y), (1.0 - math.exp(-2.0)) / 2.0),
    "edge_tree": (lambda y: 1.0 / (1.0 + y) ** 2, 0.5),
}

# Below this the linear series expansion is exact to double precision.
_TINY_Y = 1e-12

# Absolute tolerance of the certificate's cumulative integral.
CERTIFICATE_QUAD_TOL = 1e-10


def _check_girth(g) -> bool:
    """Validate g (odd int >= 3 or INFINITE); return True when infinite."""
    if g == INFINITE:
        return True
    if isinstance(g, float) and not g.is_integer():
        raise ValueError(f"odd girth must be an odd integer >= 3 or infinite, got {g}")
    gi = int(g)
    if gi < 3 or gi % 2 == 0:
        raise ValueError(f"odd girth must be an odd integer >= 3 or infinite, got {g}")
    return False


def parse_girth(value):
    """INFINITE or an odd int >= 3, from text ('inf'/'infinite'/'infinity' in
    any case, or an integer) or a number; raises ValueError or TypeError."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinite", "infinity"):
            return INFINITE
        value = int(value)
    if _check_girth(value):
        return INFINITE
    return int(value)


def phi(y, g):
    """Correlation-decay term y^(g-1)/(g-1)!; zero for infinite girth."""
    infinite = _check_girth(g)
    arr = np.asarray(y, dtype=np.float64)
    if infinite:
        out = np.zeros_like(arr)
    else:
        gi = int(g)
        out = arr ** (gi - 1) / math.factorial(gi - 1)
    return float(out) if arr.ndim == 0 else out


def gamma_upper_int(s: int, z: float) -> float:
    """Upper incomplete gamma at integer order: (s-1)! e^{-z} sum_{k<s} z^k/k!."""
    if s < 1 or int(s) != s:
        raise ValueError("s must be a positive integer")
    s = int(s)
    total = 0.0
    term = 1.0
    for k in range(s):
        if k > 0:
            term *= z / k
        total += term
    return math.factorial(s - 1) * math.exp(-z) * total


def _tail_series(minus2y: np.ndarray, g: int) -> np.ndarray:
    """sum_{k>=g} (-2y)^k / k!, alternating with decreasing terms for y<=1.

    The series stops after the first term below 1e-20 at the largest |y|.
    Rounding is monotone, so every |term_k| is monotone in |y| and that one
    element decides the term count; it is found first, on that element alone,
    in Python floats (the same IEEE doubles as numpy's). The passes over the
    array then run in place.
    """
    widest = float(minus2y[np.argmax(np.abs(minus2y))])
    term = 1.0
    for last in range(1, g + 80):
        term = term * widest / last
        if last > g and abs(term) < 1e-20:
            break
    term = np.ones_like(minus2y)
    for k in range(1, g + 1):
        np.multiply(term, minus2y, out=term)
        np.divide(term, k, out=term)
    tail = term.copy()
    for k in range(g + 1, last + 1):
        np.multiply(term, minus2y, out=term)
        np.divide(term, k, out=term)
        tail += term
    return tail


def c_vertex(y, g):
    """Vertex-arrival selection function for odd girth g (c(0) := 1).

    Evaluated as -expm1(-2y)/(2y) + tail/(2^{g-1} y) where tail collects the
    k >= g terms of the exponential series; this form has no cancellation on
    (0, 1] and a removable singularity at 0 handled by a series branch.
    """
    infinite = _check_girth(g)
    arr = np.asarray(y, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("y must lie in [0, 1]")
    tiny = arr < _TINY_Y
    some_tiny = bool(np.any(tiny))
    z = arr[~tiny] if some_tiny else arr  # no mask copies in the common case
    out = -np.expm1(-2.0 * z) / (2.0 * z)
    if not infinite and z.size:
        gi = int(g)
        out += _tail_series(-2.0 * z, gi) / (2.0 ** (gi - 1) * z)
    if some_tiny:
        full = np.empty_like(arr)
        full[tiny] = 1.0 - arr[tiny]
        full[~tiny] = out
        out = full
    return float(out[0]) if scalar else out


def c_edge(y, kind: str):
    """Edge-arrival selection functions: e^{-y}, e^{-2y}, or 1/(1+y)^2."""
    if not isinstance(kind, str) or kind not in EDGE_KINDS:
        raise ValueError(f"unknown edge selection kind '{kind}'")
    arr = np.asarray(y, dtype=np.float64)
    out = EDGE_KINDS[kind][0](arr)
    return float(out) if arr.ndim == 0 else out


def alpha_closed_form(g) -> float:
    """Closed-form guarantee alpha_g = 2 int_0^1 c_vertex(y, g) y dy."""
    if _check_girth(g):
        return (1.0 + math.exp(-2.0)) / 2.0
    gi = int(g)
    gamma_diff = gamma_upper_int(gi, -2.0) - gamma_upper_int(gi, 0.0)
    e2 = math.exp(2.0)
    return 0.5 + 1.0 / (2.0 * e2) - (2.0 / gi - gamma_diff / (2.0 ** (gi - 1) * e2)) / math.factorial(gi - 1)


@dataclass
class SelectionFunction:
    """An evaluable selection function with its floor and target integral.

    g: the girth of a vertex-mode function (None otherwise). floor: positive
    constant C with c(y) >= C on [0,1] (C = c(1) for the closed forms).
    alpha: the guarantee integral (density 2y for the vertex model, uniform
    for the edge model).
    """

    g: float | None = None
    floor: float = 0.0
    alpha: float | None = None
    _fn: Callable | None = field(default=None, repr=False)

    def __call__(self, y):
        return self._fn(y)


def vertex_selection(g) -> SelectionFunction:
    _check_girth(g)
    fn = lambda y: c_vertex(y, g)
    return SelectionFunction(g=g, floor=float(c_vertex(1.0, g)), alpha=alpha_closed_form(g), _fn=fn)


def edge_selection(kind: str) -> SelectionFunction:
    if not isinstance(kind, str) or kind not in EDGE_KINDS:
        raise ValueError(f"edge selection kind must be one of {tuple(EDGE_KINDS)}")
    fn = lambda y: c_edge(y, kind)
    return SelectionFunction(floor=float(c_edge(1.0, kind)), alpha=EDGE_KINDS[kind][1], _fn=fn)


@dataclass
class CertificateReport:
    monotone_ok: bool
    floor_ok: bool
    max_violation: float  # max over grid of c(t) - rhs(t); <= 0 means valid
    equality_max_slack: float  # max |c(t) - rhs(t)|; small iff c solves the ODE
    violations: list[tuple[float, float]]  # (t, positive slack) entries

    @property
    def inequality_ok(self) -> bool:
        return self.max_violation <= 1e-10

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.floor_ok and self.inequality_ok


def verify_selection_conditions(sel: SelectionFunction, g, grid_size: int) -> CertificateReport:
    """Certify sel against the vertex-model conditions on a uniform grid.

    Checks monotone non-increase, the floor, and the defining inequality with
    the inner integral accumulated panel-by-panel by adaptive quadrature.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    _check_girth(g)
    ts = np.linspace(0.0, 1.0, grid_size + 1)
    cumulative = integrate_grid(lambda y: 2.0 * (float(sel(y)) * y + phi(y, g)), ts, CERTIFICATE_QUAD_TOL)
    cs = np.array([float(sel(t)) for t in ts])
    monotone_ok = bool(np.all(np.diff(cs) <= 1e-12))
    floor_ok = bool(np.all(cs >= sel.floor - 1e-12))
    max_violation = -math.inf
    equality_max_slack = 0.0
    violations = []
    for i in range(1, grid_size + 1):
        t = ts[i]
        rhs = 1.0 - cumulative[i] / t
        slack = cs[i] - rhs
        max_violation = max(max_violation, slack)
        equality_max_slack = max(equality_max_slack, abs(slack))
        if slack > 1e-10:
            violations.append((float(t), float(slack)))
    return CertificateReport(
        monotone_ok=monotone_ok,
        floor_ok=floor_ok,
        max_violation=float(max_violation),
        equality_max_slack=float(equality_max_slack),
        violations=violations,
    )
