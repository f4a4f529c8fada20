"""Independent numerical oracles used by the test suite.

Everything here is derived from first principles with a different method than
the library code: the vertex selection family is reproduced by integrating its
defining ODE with a fixed-step RK4 scheme, and the matching-trajectory
reference solves its linear ODE the same way. Frozen constants were computed
once from these oracles and are asserted against the library's closed forms.
`hardness_rounds` replays the K_{n,n} round process one round at a time, the
reference for the library's pass over feasible picks. `csr_reference` fills
a graph's adjacency edge by edge, the reference for its sorted construction,
and `neighbors` reads one vertex's slice of it.
`greedy_resolve` takes a row block's proposals one at a time, the reference
for the engines' kernel; `RecordingTally` (swapped in by `recorded`) keeps
the per-trial record of what that kernel accepted, which the library itself
never needs. The scalar event loops (`run_vertex`, `run_edge`,
`run_two_phase`, `run_rank1_closed_form`) replay one sample at a time, the
references for the batch engines; `phase1_mode` finds complete bipartite
instances by a breadth-first search, the reference for two-phase's
vectorized check; and `detect_potential_path` walks one choice vector, the
reference for the batch potential-path scan; `witness` builds the flip
witness of one sample from that path, `check_badly_ordered` and
`pair_survives`, a scalar survival check per consecutive pair, the
reference for the library's flip indicator. `choices_reference` draws the
neighbor picks one vertex at a time by binary search, the reference for the
threaded choice sampler, and `choice_edges_reference` looks up their edge ids
one vertex at a time, the reference for the grouped table lookup.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from crslab import matching
from crslab.arrivals import NO_CHOICE, EdgeTimes, sample_choices_batch
from crslab.diagnostics import flip_indicators
from crslab.matching import BatchResult, _BatchTally
from crslab.numerics import adaptive_simpson
from crslab.rng import stream
from crslab.two_phase import prune_factor, survival_prob

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


def hardness_rounds(n: int, trials: int, seed: int):
    """Round-by-round reference for `hardness_trajectory`: (matched, balance).

    Draws exactly what the library draws from the same stream, then plays
    every round 0..2n-1 on all trials: the arriving vertex's pick is taken
    when its partner has arrived and is unmatched.
    """
    N = 2 * n
    rng = stream(seed, "hardness", n)
    order = rng.permuted(np.tile(np.arange(N), (trials, 1)), axis=1)
    choice = rng.integers(0, n, size=(trials, N))
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
        matched_v[rows, w] |= ok
        matched_v[rows, partner] |= ok
        count += ok
        matched[:, t + 1] = count
        unarrived = np.maximum(n - left_arrived, n - right_arrived)
        balance[:, t + 1] = unarrived <= thresholds[t + 1]
    return matched, balance


def neighbors(g, v: int) -> np.ndarray:
    """The neighbors of v: its slice of `g`'s CSR adjacency."""
    return g.adj_v[g.indptr[v] : g.indptr[v + 1]]


def csr_reference(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, adj_v, adj_eid) of `g` filled edge by edge, each endpoint's
    cursor advancing, the reference for `Graph`'s sorted construction."""
    n = g.vertex_count
    deg = np.zeros(n, dtype=np.int64)
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    adj_v = np.zeros(2 * g.edge_count, dtype=np.int64)
    adj_eid = np.zeros(2 * g.edge_count, dtype=np.int64)
    cursor = indptr[:-1].copy()
    for eid, (u, v, _) in enumerate(g.edges):
        for a, b in ((u, v), (v, u)):
            adj_v[cursor[a]], adj_eid[cursor[a]] = b, eid
            cursor[a] += 1
    return indptr, adj_v, adj_eid


def greedy_resolve(g, trials: int, lo: int, row, y, target, proposer, edge, bins: int | None = None) -> dict:
    """Sequential reference for `_BatchTally.resolve` on one block of a fresh tally.

    Each row's proposals are taken in (y, index) order; one is accepted iff
    both its endpoints are still free. Returns the fields resolve writes:
    matched, accepted, acc_bin (None without bins), acc_edge, prop_is_ev and
    sel_into, as arrays shaped like BatchResult's.
    """
    n, m = g.vertex_count, g.edge_count
    out = {
        "matched": np.zeros((trials, n), dtype=bool),
        "accepted": np.zeros(m, dtype=np.int64),
        "acc_bin": np.zeros((m, bins), dtype=np.int64) if bins else None,
        "acc_edge": np.zeros((trials, m), dtype=bool),
        "prop_is_ev": np.zeros((trials, m), dtype=bool),
        "sel_into": np.zeros((trials, n), dtype=bool),
    }
    matched = out["matched"]
    for r in sorted(set(int(k) for k in row)):
        mine = [i for i in range(len(row)) if row[i] == r]
        for i in sorted(mine, key=lambda i: (y[i], i)):
            a, b, e = int(target[i]), int(proposer[i]), int(edge[i])
            if matched[lo + r, a] or matched[lo + r, b]:
                continue
            matched[lo + r, a] = matched[lo + r, b] = True
            out["accepted"][e] += 1
            if bins:
                out["acc_bin"][e, min(int(y[i] * bins), bins - 1)] += 1
            out["acc_edge"][lo + r, e] = True
            out["prop_is_ev"][lo + r, e] = b == g.ev[e]
            out["sel_into"][lo + r, a] = True
    return out


@dataclass
class RecordedResult(BatchResult):
    """A BatchResult plus the per-trial record of the accepted proposals."""

    acc_edge: np.ndarray | None = None  # (trials, m) edge accepted
    prop_is_ev: np.ndarray | None = None  # (trials, m) its proposer was the edge's ev end
    sel_into: np.ndarray | None = None  # (trials, n) vertex accepted as a target


def edge_inputs(active, Ye, U):
    """The `run_edge_batch` inputs (ids, Ye, U) of dense (rows, m) arrays:
    the active cells in row-major order, each with its time and uniform."""
    ids = np.flatnonzero(active)
    return ids, EdgeTimes(active.shape, Ye.reshape(-1).take(ids)), U.reshape(-1).take(ids)


def edge_arrivals_reference(g, rng, count: int, t_stop: float = 1.0):
    """The edge layout from one eager `rng.random((count, m))`: edge e of a
    row is active iff its uniform a < x_e and arrives at a / x_e; the
    arrivals by t_stop, row-major, then one decision uniform each. Returns
    `edge_arrivals`' (ids, times, decision uniforms) as plain arrays."""
    a = rng.random((count, g.edge_count))
    active = a < g.x
    times = np.where(active, a / np.where(active, g.x, 1.0), np.inf)
    ids = np.flatnonzero(times <= t_stop)
    return ids, times.reshape(-1)[ids], rng.random(ids.size)


def watch_all(g, trials: int) -> np.ndarray:
    """The engines' `watch` that names every vertex of every row: with it,
    `BatchResult.matched` is the full (trials, n) flag matrix."""
    n = g.vertex_count
    return np.broadcast_to(np.arange(n), (trials, n))


def stopped(Y, t_stop: float) -> np.ndarray:
    """Vertex arrival times with every arrival after `t_stop` moved to inf.

    The two-phase engine always runs to time 1, and no decision reads a
    later arrival, so its run on these times is its run stopped at `t_stop`.
    """
    return np.where(Y <= t_stop, Y, np.inf)


def endpoint_flags(g, acc_edge) -> np.ndarray:
    """The (trials, n) matched flags of a recorded run: the two ends of each
    row's accepted edges, for an engine (two-phase) that watches no vertex."""
    flags = np.zeros((acc_edge.shape[0], g.vertex_count), dtype=bool)
    row, e = np.nonzero(acc_edge)
    flags[row, g.eu[e]] = flags[row, g.ev[e]] = True
    return flags


class RecordingTally(_BatchTally):
    """`_BatchTally` that also records each row's accepted proposals.

    It reads only the accepted mask `resolve` returns; each block writes its
    own rows, so blocks may run on several threads.
    """

    def __init__(self, g, trials: int, bins: int | None = None, watch: np.ndarray | None = None):
        super().__init__(g, trials, bins, watch)
        self.ev = g.ev
        self.acc_edge = np.zeros((trials, g.edge_count), dtype=bool)
        self.prop_is_ev = np.zeros((trials, g.edge_count), dtype=bool)
        self.sel_into = np.zeros((trials, g.vertex_count), dtype=bool)

    def resolve(self, lo, hi, row, y, target, proposer, edge):
        acc = super().resolve(lo, hi, row, y, target, proposer, edge)
        rows, ea = row[acc] + lo, edge[acc]
        self.acc_edge[rows, ea] = True
        self.prop_is_ev[rows, ea] = proposer[acc] == self.ev[ea]
        self.sel_into[rows, target[acc]] = True
        return acc

    def result(self) -> RecordedResult:
        res = super().result()
        fields = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
        return RecordedResult(**fields, acc_edge=self.acc_edge, prop_is_ev=self.prop_is_ev, sel_into=self.sel_into)


def recorded(fn, *args, **kwargs):
    """fn(*args, **kwargs) with every engine batch tallied by `RecordingTally`.

    Every engine builds its tally in `matching._run_batch`, so the vertex,
    edge and two-phase engines (and `coupled_batch` through the vertex
    engine) then return RecordedResults; their other fields are unchanged.
    """
    saved = matching._BatchTally
    matching._BatchTally = RecordingTally
    try:
        return fn(*args, **kwargs)
    finally:
        matching._BatchTally = saved


# -- scalar event loops ------------------------------------------------------------
#
# One sample at a time, over plain row arrays: vertex mode takes arrival times
# y, choices f and decision uniforms u of length n; edge mode takes activity,
# times and uniforms of length m. Each loop visits the arrivals in (time, id)
# order and returns the accepted (edge id, time, proposer) triples.


def dir_index(g, proposer: int, target: int) -> int:
    """Column of the directed pair proposer -> target in a vertex-mode table."""
    eid = g.edge_id(proposer, target)
    return 2 * eid + (1 if target == g.ev[eid] else 0)


def _phase(y: float, T: int) -> int:
    """j with y in (j/T, (j+1)/T], clipped to 0..T-1."""
    return min(max(math.ceil(y * T) - 1, 0), T - 1)


def _damping(C: float, T: int, y: float) -> float:
    """1 + 1/(C T y) for one arrival; at y = 0 its limit inf."""
    return 1.0 + 1.0 / (C * T * y) if y > 0.0 else math.inf


def _param(sel, table, y: float, shat: float) -> float:
    """min(c(y) / S_hat * (1 - delta) / (1 + 1/(C T y)), 1)."""
    return min(float(sel(y)) / shat * (1.0 - table.delta) / _damping(sel.floor, table.T, y), 1.0)


def _in_order(times):
    return sorted(range(len(times)), key=lambda w: (times[w], w))


def matched_flags(g, accepted) -> np.ndarray:
    """Per-vertex matched flags of an accepted list; no vertex may be covered twice."""
    flags = np.zeros(g.vertex_count, dtype=bool)
    for eid, _, _ in accepted:
        for w in (g.eu[eid], g.ev[eid]):
            assert not flags[w], f"vertex {w} covered twice"
            flags[w] = True
    return flags


def run_vertex(g, sel, table, y, f, u, t_stop: float = 1.0, exclude: int | None = None) -> list:
    """Recursive vertex scheme, one sample: the later endpoint proposes to its pick."""
    matched = np.zeros(g.vertex_count, dtype=bool)
    out = []
    for v in _in_order(y):
        if y[v] > t_stop:
            break
        w = int(f[v])
        if w == NO_CHOICE or exclude in (v, w) or not (y[w], w) < (y[v], v):
            continue
        assert not matched[v], "a proposer is always unmatched at its own arrival"
        yv = float(y[v])
        shat = table.values[_phase(yv, table.T), dir_index(g, v, w)]
        if u[v] <= _param(sel, table, yv, shat) and not matched[w]:
            matched[v] = matched[w] = True
            out.append((g.edge_id(w, v), yv, v))
    return out


def run_edge(g, sel, table, active, ye, u, t_stop: float = 1.0) -> list:
    """Recursive edge scheme, one sample: an active edge needs both endpoints free."""
    matched = np.zeros(g.vertex_count, dtype=bool)
    out = []
    for e in _in_order(ye):
        if ye[e] > t_stop:
            break
        a, b = int(g.eu[e]), int(g.ev[e])
        if not active[e] or matched[a] or matched[b]:
            continue
        y = float(ye[e])
        if u[e] <= _param(sel, table, y, table.values[_phase(y, table.T), e]):
            matched[a] = matched[b] = True
            out.append((e, y, a))
    return out


def run_two_phase(g, t: float, y, f, ua, ub) -> list:
    """Two-phase scheme, one sample: prune bit, then the balance bit before t."""
    fvals = survival_prob(g.x, t)
    matched = np.zeros(g.vertex_count, dtype=bool)
    out = []
    for v in _in_order(y):
        w = int(f[v])
        if w == NO_CHOICE or not (y[w], w) < (y[v], v):
            continue
        eid = g.edge_id(w, v)
        if ua[v] > prune_factor(float(g.x[eid]), t):
            continue
        if y[v] < t:
            s = sum(float(fvals[g.edge_id(w, int(k))]) for k in neighbors(g, w) if (y[k], int(k)) < (y[v], v))
            assert s <= 1.0 + 1e-9
            if ub[v] > 1.0 / (2.0 - s):
                continue
        if not matched[w]:
            matched[v] = matched[w] = True
            out.append((eid, float(y[v]), v))
    return out


def star_edge_safety(g, sel, table) -> np.ndarray:
    """The exact law of an edge fill's table on a star, given its rows.

    Row j of the fill runs each edge e forced after t_j, so e is still
    feasible at t_j iff no other edge f was accepted by then: f is active
    with probability x_f, arrives uniformly and proposes with `_param`, read
    from the table row of its phase, and every proposal of a star takes the
    centre while it is free. So
    S_e(j) = prod_{f != e} (1 - x_f * integral_0^{t_j} p_f), each phase's
    part of the integral taken with `adaptive_simpson` on that phase's row.
    Returns the (T, m) exact values, row j given rows 0..j-1 of `table`;
    row 0 is all ones, as in the table.
    """
    T, m = table.T, g.edge_count
    part = np.array([
        [adaptive_simpson(lambda y: _param(sel, table, y, table.values[i, f]), i / T, (i + 1) / T) for f in range(m)]
        for i in range(T - 1)
    ])
    taken = np.vstack((np.zeros(m), np.cumsum(part, axis=0))) * g.x  # x_f * integral_0^{t_j} p_f
    free = 1.0 - taken
    out = np.ones((T, m))
    for e in range(m):
        out[:, e] = np.prod(np.delete(free, e, axis=1), axis=1)
    return out


def phase1_mode(g) -> tuple[str, np.ndarray | None]:
    """`two_phase._phase1_mode` by a breadth-first 2-colouring of every
    component: "bipartite" when the colouring is proper, its two classes
    hold m = a b crossing pairs and every degree is the other class's size."""
    n, m = g.vertex_count, g.edge_count
    uniform = m > 0 and float(np.ptp(g.x)) <= 1e-15
    if uniform and m == n * (n - 1) // 2:
        return "complete", None
    if uniform:
        side = np.full(n, -1, dtype=np.int64)
        ok = True
        for s in range(n):
            if side[s] >= 0:
                continue
            side[s] = 0
            queue = [s]
            while queue:
                v = queue.pop()
                for w in neighbors(g, v):
                    if side[w] < 0:
                        side[w] = side[v] ^ 1
                        queue.append(int(w))
                    elif side[w] == side[v]:
                        ok = False
        a, b = int(np.sum(side == 0)), int(np.sum(side == 1))
        if ok and m == a * b and np.all(np.diff(g.indptr) == np.where(side == 0, b, a)):
            return "bipartite", side
    return "dense", None


def run_rank1_closed_form(g, active, ye, u) -> list:
    """Rank-1 closed form, one sample: the first active element passing Bernoulli(e^{-y x_e})."""
    for e in _in_order(ye):
        if active[e] and u[e] <= math.exp(-float(ye[e]) * float(g.x[e])):
            return [(e, float(ye[e]), int(g.eu[e]))]
    return []


# -- coupled executions and their witness ---------------------------------------------


def choices_reference(g, rng, trials: int) -> np.ndarray:
    """(trials, n) int64 picks: one `rng.random(trials)` per vertex with
    neighbors, in vertex order, each mapped by a binary search of the
    vertex's cumulative loads (the leftover mass picks NO_CHOICE)."""
    out = np.full((g.vertex_count, trials), NO_CHOICE, dtype=np.int64)
    for v in range(g.vertex_count):
        lo, hi = g.indptr[v], g.indptr[v + 1]
        if hi > lo:
            idx = np.searchsorted(g.adj_cumx[lo:hi], rng.random(trials), side="right")
            out[v] = np.append(g.adj_v[lo:hi], NO_CHOICE)[idx]
    return out.T


def choice_edges_reference(g, F) -> np.ndarray:
    """(rows, n) int32 edge ids of the picks F, -1 for NO_CHOICE: one lookup
    table of n + 1 entries serves each vertex in turn (the last entry answers
    NO_CHOICE)."""
    n = g.vertex_count
    out = np.empty((n, F.shape[0]), dtype=np.int32)
    lut = np.full(n + 1, -1, dtype=np.int32)
    for v in range(n):
        lo, hi = g.indptr[v], g.indptr[v + 1]
        nb = g.adj_v[lo:hi]
        lut[nb] = g.adj_eid[lo:hi]
        out[v] = lut[F[:, v]]
        lut[nb] = -1
    return out.T


def vertex_draws(g, rng, trials: int):
    """Times (trials, n) and choices (trials, n), drawn as the library's trial loops draw them."""
    return rng.random((trials, g.vertex_count)), sample_choices_batch(g, rng, trials)


def detect_potential_path(f, u: int, v: int) -> list[int] | None:
    """Shortest path (v, p_2, ..., p_d) with potential, or None.

    Walks the choice digraph backwards from F_u; a candidate closes at even
    walk index k (so d = k + 2 is even) when either v chose the walk head
    or the walk head chose v.
    """
    w = int(f[u])
    if w in (NO_CHOICE, u, v):
        return None
    chain: list[int] = []  # visited walk, p_d down to the current vertex
    seen = {u, v}
    k = 0
    while True:
        chain.append(w)
        seen.add(w)
        if k % 2 == 0 and (int(f[v]) == w or int(f[w]) == v):
            return [v] + chain[::-1]
        w = int(f[w])
        if w == NO_CHOICE or w in seen:
            return None
        k += 1


def check_badly_ordered(y, path: list[int], u: int) -> bool:
    """All path times precede Y_u, sorted or with the first two swapped."""
    times = [float(y[w]) for w in path]
    if max(times) >= float(y[u]):
        return False
    swapped = [times[1], times[0]] + times[2:]
    return any(all(a < b for a, b in zip(ts, ts[1:])) for ts in (times, swapped))


def pair_survives(g, sel, table, y, f, decision_u, a: int, b: int) -> bool:
    """Whether the consecutive path pair (a, b) survives its proposal bit.

    The later of the two in (time, id) order must have picked the earlier
    one, and its decision uniform must pass `_param` at the time of its
    arrival, read at the pair's column dir_index(later, earlier).
    """
    earlier, later = sorted((a, b), key=lambda w: (y[w], w))
    if int(f[later]) != earlier:
        return False
    yl = float(y[later])
    shat = table.values[_phase(yl, table.T), dir_index(g, later, earlier)]
    return bool(decision_u[later] <= _param(sel, table, yl, shat))


def witness(g, sel, table, y, f, decision_u, u: int, v: int) -> bool:
    """The flip witness B of one sample: a potential path that is badly
    ordered and whose consecutive pairs all survive (`pair_survives`)."""
    path = detect_potential_path(f, u, v)
    if path is None or not check_badly_ordered(y, path, u):
        return False
    return all(pair_survives(g, sel, table, y, f, decision_u, a, b) for a, b in zip(path, path[1:]))


@dataclass
class CoupledRun:
    """One shared-randomness pair of executions: on G and on G minus v."""

    u: int
    v: int
    t_k: float
    y: np.ndarray
    f: np.ndarray
    decision_u: np.ndarray
    matched_full: np.ndarray  # (n,) matched status by t_k with v present
    matched_dropped: np.ndarray  # (n,) matched status by t_k with v deleted

    @property
    def m_u(self) -> bool:
        return bool(self.matched_full[self.u])

    @property
    def m_u_dropped(self) -> bool:
        return bool(self.matched_dropped[self.u])


def coupled_run(g, sel, table, u: int, v: int, t_k: float, y, f, decision_u) -> CoupledRun:
    """Run the vertex scheme on one sample with and without vertex v."""
    full = run_vertex(g, sel, table, y, f, decision_u, t_stop=t_k)
    dropped = run_vertex(g, sel, table, y, f, decision_u, t_stop=t_k, exclude=v)
    return CoupledRun(u, v, t_k, y, f, decision_u, matched_flags(g, full), matched_flags(g, dropped))


@dataclass
class FlippingReport:
    potential_path: list[int] | None
    badly_ordered: bool
    flipping: bool  # the library's indicator B for this sample
    indicator_violation: bool  # matched-without-v minus matched exceeded B


def analyze_flipping(g, sel, table, run: CoupledRun) -> FlippingReport:
    """Witness analysis of one coupled run, next to the library's flip indicator."""
    B, _ = flip_indicators(g, sel, table, run.y[None, :], run.f[None, :], run.decision_u[None, :], run.u, run.v)
    path = detect_potential_path(run.f, run.u, run.v)
    badly = path is not None and check_badly_ordered(run.y, path, run.u)
    flipped = run.m_u_dropped and not run.m_u
    return FlippingReport(path, badly, bool(B[0]), flipped and not bool(B[0]))
