"""Small numerical toolkit: adaptive Simpson quadrature, bisection, intervals."""

from __future__ import annotations

import math

__all__ = [
    "adaptive_simpson",
    "integrate_grid",
    "bisect",
    "wilson_interval",
    "QuadratureError",
]

# Halvings per panel before adaptive_simpson gives up.
SIMPSON_MAX_DEPTH = 48
# Halvings before bisect returns its bracket's midpoint.
BISECT_MAX_ITER = 200


def _simpson(f, a, fa, b, fb, m, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement hits SIMPSON_MAX_DEPTH before the tolerance."""


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        # Richardson extrapolation knocks out the leading error term.
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(f"no convergence on [{a}, {b}] at tol {tol}")
    half = 0.5 * tol
    return _adaptive(f, a, fa, m, fm, lm, flm, left, half, depth - 1) + _adaptive(
        f, m, fm, b, fb, rm, frm, right, half, depth - 1
    )


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f over [a, b] to absolute tolerance tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(f, a, fa, b, fb, m, fm)
    return _adaptive(f, a, fa, b, fb, m, fm, whole, tol, SIMPSON_MAX_DEPTH)


def integrate_grid(f, knots, tol: float = 1e-10) -> list[float]:
    """Cumulative integral of f from knots[0] to each knot.

    Each panel gets a tolerance share proportional to its length, so the
    accumulated error stays below tol overall.
    """
    knots = list(knots)
    if len(knots) < 2:
        raise ValueError("need at least two knots")
    total = knots[-1] - knots[0]
    if total <= 0:
        raise ValueError("knots must be increasing")
    out = [0.0]
    acc = 0.0
    for lo, hi in zip(knots, knots[1:]):
        if hi <= lo:
            raise ValueError("knots must be strictly increasing")
        acc += adaptive_simpson(f, lo, hi, tol * (hi - lo) / total)
        out.append(acc)
    return out


def bisect(f, lo: float, hi: float, xtol: float = 1e-14) -> float:
    """Root of f on [lo, hi]; requires a sign change."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if hi - lo <= xtol:
            break
    return 0.5 * (lo + hi)


def wilson_interval(successes: int, count: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if count < 0 or successes < 0 or successes > count:
        raise ValueError("need 0 <= successes <= count")
    if count == 0:
        return (0.0, 1.0)
    phat = successes / count
    z2 = z * z
    denom = 1.0 + z2 / count
    center = (phat + z2 / (2.0 * count)) / denom
    spread = z * math.sqrt(phat * (1.0 - phat) / count + z2 / (4.0 * count * count)) / denom
    # roundoff can push an endpoint past phat at the extremes; keep it contained
    return (max(0.0, min(center - spread, phat)), min(1.0, max(center + spread, phat)))
