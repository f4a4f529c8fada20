"""Independent numerical oracles used by the test suite.

Everything here is derived from first principles with a different method than
the library code: the vertex selection family is reproduced by integrating its
defining ODE with a fixed-step RK4 scheme, and the matching-trajectory
reference solves its linear ODE the same way. Frozen constants were computed
once from these oracles and are asserted against the library's closed forms.
`hardness_rounds` replays the K_{n,n} round process one round at a time, the
reference for the library's pass over feasible picks.
"""

import math

import numpy as np

from crslab.rng import stream

# Root of the switch-time polynomial, frozen from an independent bisection.
T0_FROZEN = 0.11982305274185451

# Guarantee polynomial value at the root and its maximum over [0,1].
GUARANTEE_AT_T0 = 0.5351560983173641
GUARANTEE_MAX = 4.0 / 5.0 - 3.0 * math.sqrt(3.0) / 20.0

ALPHA_INF = (1.0 + math.exp(-2.0)) / 2.0


def _phi(t: float, g) -> float:
    if g == math.inf:
        return 0.0
    return t ** (g - 1) / math.factorial(g - 1)


def ode_selection(g, n_steps: int = 20_000):
    """Integrate c'(t) = (1 - c - 2ct - 2*phi_g(t)) / t by RK4 on [1e-6, 1].

    Near zero the equation is started from the series c = 1 - t + a2 t^2 with
    a2 = 1/3 for g = 3 (phi contributes at second order) and 2/3 otherwise.
    Returns (ts, cs) arrays suitable for np.interp.
    """
    a2 = 1.0 / 3.0 if g == 3 else 2.0 / 3.0
    t = 1e-6
    c = 1.0 - t + a2 * t * t
    h = (1.0 - t) / n_steps

    def rhs(ti, ci):
        return (1.0 - ci - 2.0 * ci * ti - 2.0 * _phi(ti, g)) / ti

    ts = np.empty(n_steps + 1)
    cs = np.empty(n_steps + 1)
    ts[0], cs[0] = t, c
    for i in range(n_steps):
        k1 = rhs(t, c)
        k2 = rhs(t + h / 2, c + h * k1 / 2)
        k3 = rhs(t + h / 2, c + h * k2 / 2)
        k4 = rhs(t + h, c + h * k3)
        c += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        t += h
        ts[i + 1], cs[i + 1] = t, c
    return ts, cs


def ode_trajectory_reference(s_max: float = 2.0, n_steps: int = 20_000):
    """Integrate m'(s) = s/2 - m, m(0) = 0 by RK4; oracle for the closed form."""
    t, m = 0.0, 0.0
    h = s_max / n_steps

    def rhs(ti, mi):
        return ti / 2.0 - mi

    ts = np.empty(n_steps + 1)
    ms = np.empty(n_steps + 1)
    ts[0], ms[0] = t, m
    for i in range(n_steps):
        k1 = rhs(t, m)
        k2 = rhs(t + h / 2, m + h * k1 / 2)
        k3 = rhs(t + h / 2, m + h * k2 / 2)
        k4 = rhs(t + h, m + h * k3)
        m += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        t += h
        ts[i + 1], ms[i + 1] = t, m
    return ts, ms


def trapezoid_alpha(ts: np.ndarray, cs: np.ndarray) -> float:
    """2 int c(y) y dy from ODE samples (trapezoid; fine at 2e4 nodes)."""
    return float(np.trapezoid(2.0 * cs * ts, ts))


def hardness_rounds(n: int, trials: int, seed: int, algorithm="greedy"):
    """Round-by-round reference for `hardness_trajectory`: (matched, balance).

    Draws exactly what the library draws from the same stream, then plays
    every round 0..2n-1 on all trials: the arriving vertex's pick is taken
    when its partner has arrived and is unmatched (and, under a callable
    rule, the round's uniform passes `rule(t, n)`).
    """
    N = 2 * n
    rng = stream(seed, "hardness", n)
    order = rng.permuted(np.tile(np.arange(N), (trials, 1)), axis=1)
    choice = rng.integers(0, n, size=(trials, N))
    rule = None
    if algorithm != "greedy":
        rule = algorithm
        accept_u = rng.random((trials, N))
    rows = np.arange(trials)
    arrived = np.zeros((trials, N), dtype=bool)
    matched_v = np.zeros((trials, N), dtype=bool)
    matched = np.zeros((trials, N + 1), dtype=np.int64)
    balance = np.zeros((trials, N + 1), dtype=bool)
    thresholds = (1.0 + n ** (-1.0 / 3.0)) * (N - np.arange(N + 1)) / 2.0
    left_arrived = np.zeros(trials, dtype=np.int64)
    right_arrived = np.zeros(trials, dtype=np.int64)
    count = np.zeros(trials, dtype=np.int64)
    balance[:, 0] = n <= thresholds[0]
    for t in range(N):
        w = order[:, t]
        is_left = w < n
        partner = np.where(is_left, n + choice[:, t], choice[:, t])
        arrived[rows, w] = True
        left_arrived += is_left
        right_arrived += ~is_left
        ok = arrived[rows, partner] & ~matched_v[rows, partner]
        if rule is not None:
            ok &= accept_u[:, t] <= rule(t, n)
        matched_v[rows, w] |= ok
        matched_v[rows, partner] |= ok
        count += ok
        matched[:, t + 1] = count
        unarrived = np.maximum(n - left_arrived, n - right_arrived)
        balance[:, t + 1] = unarrived <= thresholds[t + 1]
    return matched, balance
