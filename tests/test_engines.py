"""Batch engines against their scalar references in `tests/oracles.py`.

Arrival times are mostly drawn from a coarse grid, so most rows hold several
arrivals at the same time and the (time, id) order decides; a few cases draw
continuous (tie-free) times. Every BatchResult field, and every row of the
accepted proposals `recorded` keeps, must equal what the plain event loops
give, and the result must not depend on the row-block budget of the shared
kernel or on how many threads run its blocks.
"""

import dataclasses
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import crslab.matching
import crslab.recursive
from crslab.arrivals import NO_CHOICE, sample_choices_batch
from crslab.graph import complete, complete_bipartite, cycle, cycle_blowup, weighted_star
from crslab.recursive import EstimateTable, fill_tables_edge, run_edge_batch, run_vertex_batch, simulate_rank1
from crslab.rng import stream
from crslab.selection import edge_selection
from crslab.two_phase import run_two_phase_batch

from .oracles import T0_FROZEN, edge_inputs, matched_flags, recorded, run_edge, run_rank1_closed_form, run_two_phase, run_vertex, stopped, watch_all

GRID = 6  # arrival times k / GRID, k = 1..GRID
BINS = 4
# the BatchResult fields, then the three a recorded run adds
FIELDS = ("matched", "accepted", "active", "acc_bin", "act_bin", "acc_edge", "prop_is_ev", "sel_into")
# t_stop on a grid point, between two grid points, and the full horizon
T_STOPS = (0.5, 0.6, 1.0)


def _grid(rng, shape, grid=GRID):
    """Times on a `grid`-point lattice on (0, 1]; continuous uniforms when grid is None."""
    return rng.random(shape) if grid is None else (rng.integers(0, grid, size=shape) + 1) / grid


def _vertex_draws(g, seed, trials, extra=1, grid=GRID):
    rng = stream(seed, "test-engines")
    n = g.vertex_count
    Y = _grid(rng, (trials, n), grid)
    F = sample_choices_batch(g, rng, trials)
    return (Y, F) + tuple(rng.random((trials, n)) for _ in range(extra))


def _bin(y):
    return min(int(y * BINS), BINS - 1)


class _Reference:
    """BatchResult fields rebuilt row by row from scalar runs."""

    def __init__(self, g, trials):
        n, m = g.vertex_count, g.edge_count
        self.g = g
        self.matched = np.zeros((trials, n), dtype=bool)
        self.accepted = np.zeros(m, dtype=np.int64)
        self.active = np.zeros(m, dtype=np.int64)
        self.acc_bin = np.zeros((m, BINS), dtype=np.int64)
        self.act_bin = np.zeros((m, BINS), dtype=np.int64)
        self.acc_edge = np.zeros((trials, m), dtype=bool)
        self.prop_is_ev = np.zeros((trials, m), dtype=bool)
        self.sel_into = np.zeros((trials, n), dtype=bool)

    def add_active(self, eid, y):
        self.active[eid] += 1
        self.act_bin[eid, _bin(y)] += 1

    def add_vertex_active(self, y, f, t_stop, exclude=None):
        """One vertex-mode row: active when the later endpoint picked the earlier one."""
        for v, w in enumerate(f):
            w = int(w)
            if w != NO_CHOICE and (y[w], w) < (y[v], v) and y[v] <= t_stop and exclude not in (v, w):
                self.add_active(self.g.edge_id(w, v), y[v])

    def add_accepted(self, i, accepted):
        self.matched[i] = matched_flags(self.g, accepted)
        for eid, y, proposer in accepted:
            u, v = int(self.g.eu[eid]), int(self.g.ev[eid])
            self.accepted[eid] += 1
            self.acc_bin[eid, _bin(y)] += 1
            self.acc_edge[i, eid] = True
            self.prop_is_ev[i, eid] = proposer == v
            self.sel_into[i, u + v - proposer] = True

    def check(self, res, fields=FIELDS):
        for name in fields:
            got, want = getattr(res, name), getattr(self, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def _vertex_reference(g, sel, table, Y, F, U, t_stop, exclude=None):
    ref = _Reference(g, Y.shape[0])
    for i in range(Y.shape[0]):
        ref.add_vertex_active(Y[i], F[i], t_stop, exclude)
        ref.add_accepted(i, run_vertex(g, sel, table, Y[i], F[i], U[i], t_stop=t_stop, exclude=exclude))
    return ref


def _edge_reference(g, sel, table, active, Ye, U, t_stop):
    ref = _Reference(g, Ye.shape[0])
    for i in range(Ye.shape[0]):
        for e in np.nonzero(active[i] & (Ye[i] <= t_stop))[0]:
            ref.add_active(e, Ye[i, e])
        ref.add_accepted(i, run_edge(g, sel, table, active[i], Ye[i], U[i], t_stop=t_stop))
    return ref


def _two_phase_reference(g, t, Y, F, UA, UB, t_stop):
    ref = _Reference(g, Y.shape[0])
    for i in range(Y.shape[0]):
        ref.add_vertex_active(Y[i], F[i], t_stop)
        # earlier decisions never look at later arrivals, so stopping at
        # t_stop keeps exactly the accepts of the full run made by then
        ref.add_accepted(i, [a for a in run_two_phase(g, t, Y[i], F[i], UA[i], UB[i]) if a[1] <= t_stop])
    return ref


VERTEX_CASES = [  # which, exclude, t_stop, grid
    *(
        pytest.param(which, exclude, t_stop, GRID, id=f"{which}-{exclude}-{t_stop}")
        for which, exclude in (("c5", None), ("c5", 2), ("k33", None), ("k33", 4))
        for t_stop in T_STOPS
    ),
    *(
        pytest.param("c5", exclude, t_stop, None, id=f"continuous-c5-{exclude}-{t_stop}")
        for exclude, t_stop in ((None, 1.0), (None, 0.6), (2, 1.0), (0, 0.45))
    ),
]


@pytest.mark.parametrize("which,exclude,t_stop,grid", VERTEX_CASES)
def test_vertex_batch_rows_match_scalar(which, exclude, t_stop, grid, c5, sel5, table_c5_small, k33, sel_inf, table_k33_small):
    g, sel, table = (c5, sel5, table_c5_small) if which == "c5" else (k33, sel_inf, table_k33_small)
    trials = 300
    Y, F, U = _vertex_draws(g, 811, trials, grid=grid)
    res = recorded(run_vertex_batch, g, sel, table, Y, F, U, t_stop, exclude, BINS, watch_all(g, trials))
    _vertex_reference(g, sel, table, Y, F, U, t_stop, exclude).check(res)


@pytest.mark.parametrize(
    "t_stop,grid", [*(pytest.param(t_stop, GRID, id=str(t_stop)) for t_stop in T_STOPS), pytest.param(0.8, None, id="continuous-0.8")]
)
def test_edge_batch_rows_match_scalar(t_stop, grid, k33):
    g = k33
    sel = edge_selection("edge_general")
    table = fill_tables_edge(g, sel, T=6, delta=0.1, Q=200, seed=812)
    trials, m = 300, g.edge_count
    rng = stream(813, "test-engines")
    active = rng.random((trials, m)) < 2.0 * g.x[None, :]
    Ye = _grid(rng, (trials, m), grid)
    U = rng.random((trials, m))
    res = recorded(run_edge_batch, g, sel, table, *edge_inputs(active, Ye, U), t_stop, BINS, watch_all(g, trials))
    # an edge arrival has no proposer side: skip the two fields that name one
    _edge_reference(g, sel, table, active, Ye, U, t_stop).check(res, FIELDS[:-2])


@pytest.mark.parametrize("t_stop", T_STOPS)
@pytest.mark.parametrize(
    "maker,t",
    [  # maker gives (graph, time grid); grid None draws continuous times
        (lambda: (complete(5), GRID), 0.6),  # complete-graph phase-1 sums
        (lambda: (complete_bipartite(3), GRID), 0.6),  # bipartite phase-1 sums
        (lambda: (cycle(5, 0.5), GRID), 0.6),  # dense phase-1 sums, degree 2
        (lambda: (cycle_blowup(3, 2), GRID), 0.6),  # dense phase-1 sums, degree 4
        pytest.param(lambda: (cycle(5, 0.5), None), T0_FROZEN, id="continuous-cycle5-t0"),
        pytest.param(lambda: (cycle(5, 0.5), None), 0.6, id="continuous-cycle5-0.6"),
        pytest.param(lambda: (complete(5), None), 0.3, id="continuous-complete5-0.3"),
        pytest.param(lambda: (complete_bipartite(3), None), 0.45, id="continuous-bipartite3-0.45"),
    ],
)
def test_two_phase_batch_rows_match_scalar(maker, t, t_stop):
    g, grid = maker()
    trials = 300
    Y, F, UA, UB = _vertex_draws(g, 814, trials, extra=2, grid=grid)
    res = recorded(run_two_phase_batch, g, t, stopped(Y, t_stop), F, UA, UB, BINS)
    # two-phase watches no vertex: its flags are the ends of `acc_edge`
    _two_phase_reference(g, t, Y, F, UA, UB, t_stop).check(res, FIELDS[1:])


# -- the keep rules at their extremes -------------------------------------------------
#
# Each keep rule gathers its kept proposals through one integer index. These
# cases hand it no candidate (t_stop below every arrival, or nothing active),
# every candidate (U = 0) and none (U = 1, with every probability below 1).

EXTREMES = ("no-candidate", "keep-all", "keep-none")


def _extreme(case):
    """The constant uniform and the t_stop of one case."""
    return (1.0 if case == "keep-none" else 0.0), (0.5 / GRID if case == "no-candidate" else 1.0)


def _check_extreme(case, res):
    if case == "no-candidate":
        assert not res.active.any()
    elif case == "keep-none":
        assert res.active.any() and not res.accepted.any()
    else:
        assert res.accepted.any()


@pytest.mark.parametrize("case", EXTREMES)
@pytest.mark.parametrize("engine", ["vertex", "edge", "two-phase"])
def test_batch_keep_rules_at_the_extremes(engine, case, c5, sel5, k33):
    u, t_stop = _extreme(case)
    trials = 200
    if engine == "vertex":
        # S_hat = 1 and c <= 1 keep every proposal probability below 1
        table = EstimateTable(6, 0.1, np.ones((6, 2 * c5.edge_count)))
        Y, F = _vertex_draws(c5, 841, trials, extra=0)
        U = np.full(Y.shape, u)
        res = recorded(run_vertex_batch, c5, sel5, table, Y, F, U, t_stop, None, BINS, watch_all(c5, trials))
        _vertex_reference(c5, sel5, table, Y, F, U, t_stop).check(res)
    elif engine == "edge":
        sel = edge_selection("edge_general")
        table = EstimateTable(6, 0.1, np.ones((6, k33.edge_count)))
        rng = stream(842, "test-engines")
        active = rng.random((trials, k33.edge_count)) < 2.0 * k33.x[None, :]
        Ye = _grid(rng, active.shape)
        U = np.full(active.shape, u)
        res = recorded(run_edge_batch, k33, sel, table, *edge_inputs(active, Ye, U), t_stop, BINS, watch_all(k33, trials))
        _edge_reference(k33, sel, table, active, Ye, U, t_stop).check(res, FIELDS[:-2])
    else:
        # the prune factor is below 1 at t < 1
        g = complete(5)
        Y, F = _vertex_draws(g, 843, trials, extra=0)
        UA = UB = np.full(Y.shape, u)
        res = recorded(run_two_phase_batch, g, 0.6, stopped(Y, t_stop), F, UA, UB, BINS)
        _two_phase_reference(g, 0.6, Y, F, UA, UB, t_stop).check(res, FIELDS[1:])
    _check_extreme(case, res)


@pytest.mark.parametrize("case", EXTREMES)
def test_rank1_keep_rule_at_the_extremes(monkeypatch, case):
    """simulate_rank1 on given (active, Ye, U) rows: e^{-y x} < 1 at y > 0."""
    g = weighted_star([0.3, 0.3, 0.4])
    trials, m = 200, g.edge_count
    u, _ = _extreme(case)
    rng = stream(844, "test-engines")
    active = rng.random((trials, m)) < (0.0 if case == "no-candidate" else 2.0 * g.x[None, :])
    Ye, U = _grid(rng, (trials, m)), np.full((trials, m), u)
    monkeypatch.setattr(crslab.recursive, "rank1_arrivals", lambda *args: (active, Ye, U))
    res = simulate_rank1(g, trials, seed=0, bins=BINS)
    ref = _Reference(g, trials)
    for i in range(trials):
        for e in np.flatnonzero(active[i]):
            ref.add_active(e, Ye[i, e])
        ref.add_accepted(i, run_rank1_closed_form(g, active[i], Ye[i], U[i]))
    ref.check(res, ("accepted", "active", "acc_bin", "act_bin"))
    _check_extreme(case, res)


def _budgets(width):
    """One row, a few rows, and the default block budget."""
    return (1, 3 * width + 1, crslab.matching.ROW_BLOCK_ELEMS)


def _same_fields(a, b):
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _same_for_every_budget(monkeypatch, width, run):
    """Every block budget on 1, 2 and 3 engine threads gives the same result."""
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(crslab.matching, "WORKERS", workers)
        for budget in _budgets(width):
            monkeypatch.setattr(crslab.matching, "ROW_BLOCK_ELEMS", budget)
            results.append(run())
    for res in results[1:]:
        _same_fields(results[0], res)


def test_vertex_batch_ignores_block_budget(monkeypatch, c5, sel5, table_c5_small):
    Y, F, U = _vertex_draws(c5, 821, 200)
    for t_stop in T_STOPS:
        _same_for_every_budget(
            monkeypatch, c5.vertex_count,
            lambda: recorded(run_vertex_batch, c5, sel5, table_c5_small, Y, F, U, t_stop, 1, BINS, watch_all(c5, 200)),
        )


def test_edge_batch_ignores_block_budget(monkeypatch, k33):
    sel = edge_selection("edge_general")
    table = fill_tables_edge(k33, sel, T=6, delta=0.1, Q=200, seed=822)
    rng = stream(823, "test-engines")
    active = rng.random((200, 9)) < 2.0 * k33.x[None, :]
    Ye = _grid(rng, (200, 9))
    U = rng.random((200, 9))
    for t_stop in T_STOPS:
        _same_for_every_budget(monkeypatch, 9, lambda: recorded(run_edge_batch, k33, sel, table, *edge_inputs(active, Ye, U), t_stop, BINS, watch_all(k33, 200)))


@pytest.mark.parametrize("maker", [lambda: complete(5), lambda: complete_bipartite(3), lambda: cycle_blowup(3, 2)])
def test_two_phase_batch_ignores_block_budget(monkeypatch, maker):
    g = maker()
    Y, F, UA, UB = _vertex_draws(g, 824, 200, extra=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every instance here is 1-regular
        for t_stop in T_STOPS:
            _same_for_every_budget(
                monkeypatch, g.vertex_count,
                lambda: recorded(run_two_phase_batch, g, 0.6, stopped(Y, t_stop), F, UA, UB, BINS),
            )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_watched_flags_are_cells_of_the_full_watch(monkeypatch, k, c5, sel5, table_c5_small, k33):
    """`matched` holds each row's flags at its watched ids (repeats allowed),
    as cut from the full flag matrix, for every block budget and 1-3 engine
    threads; without `watch` it is None and the counters are unchanged."""
    trials = 200
    Y, F, U = _vertex_draws(c5, 851, trials)
    sel_e = edge_selection("edge_general")
    table_e = fill_tables_edge(k33, sel_e, T=6, delta=0.1, Q=100, seed=852)
    rng = stream(853, "test-engines")
    active = rng.random((trials, 9)) < 2.0 * k33.x[None, :]
    Ye, Ue = _grid(rng, (trials, 9)), rng.random((trials, 9))
    runs = (  # (graph, row width, run(watch))
        (c5, 5, lambda watch: run_vertex_batch(c5, sel5, table_c5_small, Y, F, U, 0.6, 1, BINS, watch)),
        (k33, 9, lambda watch: run_edge_batch(k33, sel_e, table_e, *edge_inputs(active, Ye, Ue), 0.6, BINS, watch)),
    )
    for g, width, run in runs:
        full = run(watch_all(g, trials))
        watch = rng.integers(0, g.vertex_count, size=(trials, k)).astype(np.intp)
        want = np.take_along_axis(full.matched, watch, axis=1)
        for workers in (1, 2, 3):
            monkeypatch.setattr(crslab.matching, "WORKERS", workers)
            for budget in _budgets(width):
                monkeypatch.setattr(crslab.matching, "ROW_BLOCK_ELEMS", budget)
                got, plain = run(watch), run(None)
                assert got.matched.dtype == bool and np.array_equal(got.matched, want)
                assert plain.matched is None
                for name in FIELDS[1:5]:
                    assert np.array_equal(getattr(got, name), getattr(full, name)), name
                    assert np.array_equal(getattr(plain, name), getattr(full, name)), name
        monkeypatch.undo()


# -- engine threads ------------------------------------------------------------------


class _Boom(Exception):
    pass


class _WatchedSelection:
    """A selection callable that records how many calls overlap, and can
    raise on the k-th call made from a helper thread."""

    def __init__(self, fn, fail_on_helper_call=None):
        self.fn = fn
        self.fail_on = fail_on_helper_call
        self.guard = threading.Lock()
        self.inside = self.peak = self.helper_calls = 0

    def __call__(self, y):
        with self.guard:
            self.inside += 1
            self.peak = max(self.peak, self.inside)
            if threading.current_thread() is not threading.main_thread():
                self.helper_calls += 1
                fail = self.helper_calls == self.fail_on
            else:
                fail = False
        try:
            time.sleep(2e-4)  # leaves room for a second call to enter
            if fail:
                raise _Boom("selection failed in a helper block")
            return self.fn(y)
        finally:
            with self.guard:
                self.inside -= 1


def _engine_runs(c5, sel5, table_c5_small, k33):
    """(width, run(sel)) for the vertex and the edge engine."""
    Y, F, U = _vertex_draws(c5, 831, 120)
    sel_e = edge_selection("edge_general")
    table_e = fill_tables_edge(k33, sel_e, T=6, delta=0.1, Q=100, seed=832)
    rng = stream(833, "test-engines")
    active = rng.random((120, 9)) < 2.0 * k33.x[None, :]
    Ye, Ue = _grid(rng, (120, 9)), rng.random((120, 9))
    return (
        (sel5, c5.vertex_count, lambda sel: recorded(run_vertex_batch, c5, sel, table_c5_small, Y, F, U, 0.6, None, BINS, watch_all(c5, 120))),
        (sel_e, 9, lambda sel: recorded(run_edge_batch, k33, sel, table_e, *edge_inputs(active, Ye, Ue), 0.6, BINS, watch_all(k33, 120))),
    )


def test_selection_called_one_at_a_time(monkeypatch, c5, sel5, table_c5_small, k33):
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for sel, width, run in _engine_runs(c5, sel5, table_c5_small, k33):
            monkeypatch.setattr(crslab.matching, "WORKERS", 1)
            serial = run(sel)
            # more threads than this machine's cores, blocks of two rows
            monkeypatch.setattr(crslab.matching, "WORKERS", 4)
            monkeypatch.setattr(crslab.matching, "ROW_BLOCK_ELEMS", 8 * width)
            watched = _WatchedSelection(sel._fn)
            res = run(dataclasses.replace(sel, _fn=watched))
            monkeypatch.undo()
            assert watched.helper_calls > 0
            assert watched.peak == 1
            _same_fields(serial, res)
    finally:
        sys.setswitchinterval(switch)


def test_helper_block_error_reaches_caller(monkeypatch, c5, sel5, table_c5_small, k33):
    monkeypatch.setattr(crslab.matching, "WORKERS", 2)
    for sel, width, run in _engine_runs(c5, sel5, table_c5_small, k33):
        monkeypatch.setattr(crslab.matching, "ROW_BLOCK_ELEMS", 2 * width)
        threads = threading.active_count()
        watched = _WatchedSelection(sel._fn, fail_on_helper_call=3)
        with pytest.raises(_Boom):
            run(dataclasses.replace(sel, _fn=watched))
        assert watched.helper_calls == 3
        assert threading.active_count() == threads  # every helper has joined


def test_arrival_at_time_zero(c5, sel5, table_c5_small):
    """At y = 0 the damping 1 + 1/(C T y) is infinite: the proposal probability is
    its limit 0, with no warning in the batch engines and no error in the scalar
    references. Forced target times u * t_j and Generator.random can both give 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # vertex 1 proposes to vertex 0 at time 0; the later proposals pass
        Y = np.array([[0.0, 0.0, 0.3, 0.6, 0.9]])
        F = np.array([[NO_CHOICE, 0, 1, 2, 3]])
        U = np.full((1, 5), 1e-9)
        res = run_vertex_batch(c5, sel5, table_c5_small, Y, F, U, watch=watch_all(c5, 1))
        ref = run_vertex(c5, sel5, table_c5_small, Y[0], F[0], U[0])
        assert np.array_equal(res.matched[0], matched_flags(c5, ref))
        assert sorted(e for e, _, _ in ref) == sorted(np.flatnonzero(res.accepted))
        assert not res.matched[0, 0] and res.matched[0, 1:].all()

        sel = edge_selection("edge_general")
        table = fill_tables_edge(c5, sel, T=4, delta=0.1, Q=50, seed=814)
        active = np.ones((1, c5.edge_count), dtype=bool)
        Ye = np.array([[0.0, 0.2, 0.4, 0.6, 0.8]])
        Ue = np.full((1, c5.edge_count), 1e-9)
        res = run_edge_batch(c5, sel, table, *edge_inputs(active, Ye, Ue), watch=watch_all(c5, 1))
        ref = run_edge(c5, sel, table, active[0], Ye[0], Ue[0])
        assert np.array_equal(res.matched[0], matched_flags(c5, ref))
        assert res.accepted[0] == 0 and sorted(e for e, _, _ in ref) == sorted(np.flatnonzero(res.accepted))
