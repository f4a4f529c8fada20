"""End-to-end verification gate, one numbered test family per shipped guarantee.

Every statistical check runs with a pinned seed, so outcomes are reproducible
bit for bit. The terminal summary (see conftest) prints one PASS/FAIL line per
criterion. Two checks fail on this build and are left failing on purpose: the
finite-phase vertex scheme cannot reach its asymptotic ratio at T=20 (see
test_criterion5_min_ratio_*, with the T=300 companion showing convergence),
and the per-round balance-event frequency on the hardness instance sits far
below 0.99 (see test_criterion9_balance_frequency). Their failure messages
carry the measured numbers.
"""

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pytest

from crslab.diagnostics import correlation_gap
from crslab.graph import complete, complete_bipartite, cycle, double_star, random_tree, star
from crslab.hardness import hardness_trajectory, m_de
from crslab.harness import ExperimentConfig, run_experiment, run_suite
from crslab.recursive import (
    fill_tables,
    required_samples,
    simulate_edge,
    simulate_rank1,
    simulate_vertex,
)
from crslab.selection import (
    INFINITE,
    alpha_closed_form,
    edge_selection,
    verify_selection_conditions,
    vertex_selection,
)
from crslab.two_phase import find_t0, prune_factor, simulate_two_phase, t_root_poly

from .analysis import alpha_numeric, drift_report, guarantee_poly, pinned_phase1_frequency, rank1_safety
from .oracles import neighbors

# per-criterion wall-clock budgets in seconds, accumulated across a
# criterion's tests and asserted inside every timed section
BUDGETS = {1: 1.0, 2: 10.0, 3: 60.0, 4: 300.0, 5: 1800.0, 6: 900.0, 7: 300.0, 8: 600.0, 9: 300.0}
_spent: dict[int, float] = defaultdict(float)


@contextmanager
def budget(criterion: int):
    start = time.perf_counter()
    yield
    _spent[criterion] += time.perf_counter() - start
    limit = BUDGETS[criterion]
    assert _spent[criterion] < limit, (
        f"criterion {criterion} used {_spent[criterion]:.1f}s of its {limit:.0f}s budget"
    )


def rx_sigma(rx: np.ndarray, x: np.ndarray, trials: int) -> float:
    """Worst-case binomial sigma of an acceptance/x ratio estimate."""
    p = rx * x
    return float(np.max(np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / trials) / x))


# -- criterion 1: guarantee constants ------------------------------------------------


def test_criterion1_alpha_identities():
    with budget(1):
        e2 = math.exp(-2.0)
        expected = {
            3: 5.0 / 12.0 + 1.0 / (4.0 * math.e**2),
            5: 121.0 / 240.0 + 7.0 / (16.0 * math.e**2),
            7: 10121.0 / 20160.0 + 31.0 / (64.0 * math.e**2),
            INFINITE: (1.0 + e2) / 2.0,
        }
        for g, value in expected.items():
            assert abs(alpha_closed_form(g) - value) <= 1e-12
            assert abs(alpha_numeric(g) - value) <= 1e-9
        seq = [alpha_closed_form(g) for g in (3, 5, 7, 9, 11)]
        assert all(a < b for a, b in zip(seq, seq[1:]))
        assert all(a < alpha_closed_form(INFINITE) for a in seq)


# -- criterion 2: selection-function certificate --------------------------------------


def test_criterion2_selection_certificate():
    with budget(2):
        for g in (3, 5, 7, INFINITE):
            sel = vertex_selection(g)
            rep = verify_selection_conditions(sel, g, grid_size=1000)
            assert rep.passed, f"certificate failed for g={g}: {rep}"
            assert rep.equality_max_slack <= 1e-8
            assert rep.monotone_ok and rep.floor_ok


# -- criterion 3: closed-form scheme on a unit-mass star -------------------------------


def test_criterion3_rank1_star():
    with budget(3):
        g = star(10, 0.1)
        r = simulate_rank1(g, 1_000_000, seed=103, bins=20)
        ra = r.ratio_active()
        assert np.max(np.abs(ra - (1.0 - 1.0 / math.e))) <= 0.005
        mids = (np.arange(20) + 0.5) / 20.0
        target = np.exp(-mids)
        rate = r.acc_bin / np.maximum(r.act_bin, 1)
        sig = np.sqrt(target * (1.0 - target) / np.maximum(r.act_bin, 1))
        assert float(np.max(np.abs(rate - target[None, :]) / sig)) <= 3.0
        safe_bin, all_bin = rank1_safety(g, 1_000_000, 103, bins=20)
        srate = safe_bin / np.maximum(all_bin, 1)
        starget = np.exp(-mids[None, :] * (1.0 - g.x[:, None]))
        ssig = np.sqrt(starget * (1.0 - starget) / np.maximum(all_bin, 1))
        assert float(np.max(np.abs(srate - starget) / ssig)) <= 3.0


# -- criterion 4: edge-arrival schemes on trees -----------------------------------------


def test_criterion4_edge_arrival_trees():
    with budget(4):
        gt = random_tree(16, 2)
        deg = np.zeros(16, dtype=int)
        for u, v in zip(gt.eu, gt.ev):
            deg[u] += 1
            deg[v] += 1
        assert gt.edge_count == 15 and deg.max() <= 4
        res = simulate_edge(
            gt, edge_selection("edge_tree"), T=8000, delta=0.0, trials=800_000, seed=104, Q=1000
        )
        ra = res.ratio_active()
        assert int(res.active.min()) > 10_000
        assert float(np.max(np.abs(ra - 0.5))) <= 0.01
    with budget(4):
        gd = double_star(8)
        sel = edge_selection("edge_general")
        assert math.isclose(sel.alpha, (1.0 - math.exp(-2.0)) / 2.0)
        res = simulate_edge(gd, sel, T=4000, delta=0.0, trials=500_000, seed=1104, Q=1000)
        middle = float(res.ratio_active()[0])
        assert abs(middle - sel.alpha) <= 0.02


# -- criterion 5: recursive vertex scheme ------------------------------------------------


def test_criterion5_exact_selection_band():
    with budget(5):
        cfg = ExperimentConfig(
            name="band-c5",
            kind="profile",
            instance={"family": "cycle", "n": 5, "x": 0.5},
            scheme="recursive-vertex",
            trials=100_000,
            seed=205,
            bins=20,
            params={"g": 5, "T": 20, "delta": 0.05, "Q": 28299},
        )
        rep = run_experiment(cfg)
        assert rep.summary["powered"] >= 10
        assert rep.summary["all_pass"], rep.summary


def test_criterion5_min_ratio_k66():
    with budget(5):
        g66 = complete_bipartite(6)
        sel = vertex_selection(INFINITE)
        Q = required_samples(sel.floor, 0.05, 20, 12)
        assert Q == 32349
        res = simulate_vertex(g66, sel, T=20, delta=0.05, trials=100_000, seed=105, Q=Q)
        rx = res.ratio_x(g66)
        thresh = 0.95**2 * alpha_closed_form(INFINITE) - 3.0 * rx_sigma(rx, g66.x, res.trials)
        assert float(rx.min()) >= thresh, (
            f"min per-edge ratio {float(rx.min()):.5f} < required {thresh:.5f}: at T=20 the "
            f"scheme's own 1/(1 + 1/(C T y)) damping keeps early arrivals under-accepted, so "
            f"the finite-phase ratio tops out near 0.425 on this instance; the identical "
            f"threshold is cleared at T=300 in test_criterion5_threshold_recovers_at_finer_phases"
        )


def test_criterion5_min_ratio_c5():
    with budget(5):
        g5 = cycle(5, 0.5)
        sel5 = vertex_selection(5)
        Q = required_samples(sel5.floor, 0.05, 20, 5)
        assert Q == 28299
        res = simulate_vertex(g5, sel5, T=20, delta=0.05, trials=100_000, seed=205, Q=Q)
        rx = res.ratio_x(g5)
        thresh = 0.95**2 * alpha_closed_form(5) - 3.0 * rx_sigma(rx, g5.x, res.trials)
        assert float(rx.min()) >= thresh, (
            f"min per-edge ratio {float(rx.min()):.5f} < required {thresh:.5f}: same finite-phase "
            f"damping shortfall as on the bipartite instance (see test_criterion5_min_ratio_k66); "
            f"the finite-T damped integral 2*int c(y) y (1-delta)/(1+1/(C T y)) dy predicts about "
            f"0.433 here at T=20 (ROADMAP item 9); no test runs C5 above T=20, and its T sweep "
            f"is ROADMAP item 10"
        )


def test_criterion5_threshold_recovers_at_finer_phases():
    # the same 0.95^2 * alpha - 3 sigma threshold that T=20 misses is met at T=300
    with budget(5):
        g33 = complete_bipartite(3)
        sel = vertex_selection(INFINITE)
        Q = required_samples(sel.floor, 0.05, 300, 6)
        res = simulate_vertex(g33, sel, T=300, delta=0.05, trials=300_000, seed=305, Q=Q)
        rx = res.ratio_x(g33)
        thresh = 0.95**2 * alpha_closed_form(INFINITE) - 3.0 * rx_sigma(rx, g33.x, res.trials)
        assert float(rx.min()) >= thresh


# -- criterion 6: two-phase scheme ---------------------------------------------------------


def test_criterion6_two_phase():
    with budget(6):
        t0 = find_t0()
        assert 0.118 < t0 < 0.120
        assert abs(t_root_poly(t0)) <= 1e-12
        assert abs(guarantee_poly(0.0) - 8.0 / 15.0) <= 1e-12
        assert abs(guarantee_poly(t0) - 0.5351560983173641) <= 1e-12
        t_star = (math.sqrt(3.0) - 1.0) / 2.0
        assert abs(guarantee_poly(t_star) - (4.0 / 5.0 - 3.0 * math.sqrt(3.0) / 20.0)) <= 1e-12

        g31 = complete(31)
        res = simulate_two_phase(g31, t0, 100_000, seed=106)
        rx = res.ratio_x(g31)
        assert float(rx.min()) >= guarantee_poly(t0) - 3.0 * rx_sigma(rx, g31.x, res.trials)

        res = simulate_two_phase(g31, 1.0, 2_500_000, seed=206)
        rx = res.ratio_x(g31)
        assert float(np.max(np.abs(rx - 0.5))) <= 0.01

        res = simulate_two_phase(g31, 0.0, 100_000, seed=306)
        rx = res.ratio_x(g31)
        assert float(rx.min()) >= 8.0 / 15.0 - 3.0 * rx_sigma(rx, g31.x, res.trials)
    with budget(6):
        # directional check only: larger n should keep the max-threshold ratio high
        g61 = complete(61)
        res = simulate_two_phase(g61, (math.sqrt(3.0) - 1.0) / 2.0, 3_000_000, seed=406)
        assert float(res.ratio_x(g61).min()) >= 0.530


# -- criterion 7: pinned phase-1 frequencies -------------------------------------------------


def test_criterion7_pinned_phase1():
    with budget(7):
        g5 = cycle(5, 0.5)
        t = 0.5
        target = 0.5 * 0.5 * prune_factor(0.5, t)  # f_t(x) / 2 at x = 1/2
        configs = [
            (0, 1, 0.2, {2: 0.1, 3: 0.7, 4: 0.3}, 107),
            (2, 3, 0.35, {0: 0.05, 1: 0.9, 4: 0.55}, 207),
            (4, 0, 0.45, {1: 0.25, 2: 0.8, 3: 0.15}, 307),
        ]
        for u0, u1, y0, pinned, seed in configs:
            freq, sigma = pinned_phase1_frequency(g5, t, u0, u1, y0, pinned, 300_000, seed)
            assert abs(freq - target) <= 3.0 * sigma, (u0, u1, freq, target, sigma)


# -- criterion 8: coupling diagnostics --------------------------------------------------------


@pytest.fixture(scope="module")
def gap_tables():
    g5 = cycle(5, 0.5)
    sel5 = vertex_selection(5)
    g33 = complete_bipartite(3)
    selb = vertex_selection(INFINITE)
    tab5 = fill_tables(g5, sel5, T=10, delta=0.1, Q=3000, seed=108)
    tab33 = fill_tables(g33, selb, T=10, delta=0.1, Q=3000, seed=208)
    return g5, sel5, tab5, g33, selb, tab33


def test_criterion8_indicator_audit(gap_tables):
    g5, sel5, tab5, g33, selb, tab33 = gap_tables
    with budget(8):
        for g, sel, tab, base, path_cap in ((g5, sel5, tab5, 1108, 1), (g33, selb, tab33, 2108, 0)):
            for v in range(g.vertex_count):
                for u in (int(w) for w in neighbors(g, v)):
                    rep = correlation_gap(g, sel, tab, u, v, 1.0, 100_000, seed=base + 10 * v + u)
                    assert rep.violation_count == 0, (u, v, rep)
                    assert rep.max_paths <= path_cap, (u, v, rep.max_paths)


def test_criterion8_gap_bounds(gap_tables):
    g5, sel5, tab5, g33, selb, tab33 = gap_tables
    with budget(8):
        for t_k in (0.25, 0.5, 0.9):
            rep = correlation_gap(g5, sel5, tab5, 0, 1, t_k, 100_000, seed=3108)
            assert rep.bound == 2.0 * t_k**4 / 120.0
            assert rep.within_bound, (t_k, rep.gap, rep.bound, rep.sigma)
        repb = correlation_gap(g33, selb, tab33, 0, 3, 0.5, 100_000, seed=4108)
        assert repb.bound == 0.0
        assert repb.within_bound, (repb.gap, repb.sigma)


# -- criterion 9: hardness trajectory -----------------------------------------------------------


@pytest.fixture(scope="module")
def trajectory500():
    return hardness_trajectory(500, 50, seed=109)


def test_criterion9_trajectory(trajectory500):
    with budget(9):
        rep = trajectory500
        assert abs(rep.mean_final - m_de(2.0)) <= 0.01
        assert rep.sup_distance <= 0.02
        assert all(b.ok for b in drift_report(rep))


def test_criterion9_balance_frequency(trajectory500):
    with budget(9):
        q_min = trajectory500.q_min_frequency(950)
        q_all = trajectory500.q_all_frequency(950)
        assert q_min >= 0.99, (
            f"per-round balance frequency bottoms out at {q_min:.2f} (all-rounds frequency "
            f"{q_all:.2f}) on K_500,500: near round 1.9n the allowed side imbalance "
            f"(1 + n^(-1/3))(2n - t)/2 is smaller than the typical sampling fluctuation of the "
            f"arrival order, so single rounds break the event routinely at any desk-scale n; "
            f"the trajectory checks in test_criterion9_trajectory hold regardless"
        )


# -- criterion 10: byte-identical reports ---------------------------------------------------------


def acceptance_suite_payload():
    return {
        "experiments": [
            {
                "name": "det-sel",
                "kind": "selectability",
                "instance": {"family": "single_edge"},
                "scheme": "rank1-closed",
                "trials": 2000,
                "seed": 31,
                "checks": [{"metric": "min_ratio_active", "op": ">=", "value": 0.55}],
            },
            {
                "name": "det-prof",
                "kind": "profile",
                "instance": {"family": "single_edge"},
                "scheme": "rank1-closed",
                "trials": 2000,
                "seed": 32,
                "bins": 4,
                "checks": [{"metric": "all_pass", "op": "==", "value": True}],
            },
            {
                "name": "det-gap",
                "kind": "gap",
                "instance": {"family": "cycle", "n": 5, "x": 0.5},
                "scheme": "recursive-vertex",
                "trials": 2000,
                "seed": 33,
                "params": {"g": 5, "T": 4, "delta": 0.1, "Q": 100, "u": 0, "v": 1, "t_k": 0.5},
                "checks": [{"metric": "violation_count", "op": "==", "value": 0}],
            },
            {
                "name": "det-hard",
                "kind": "hardness",
                "instance": {"family": "complete_bipartite", "n": 40},
                "scheme": "greedy",
                "trials": 50,
                "seed": 34,
                "params": {"t_max": 76},
                "checks": [{"metric": "final_error", "op": "<=", "value": 0.1}],
            },
        ]
    }


def test_criterion10_determinism(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(acceptance_suite_payload()))
    a = run_suite(suite, out_dir=tmp_path / "a")
    b = run_suite(suite, out_dir=tmp_path / "b")
    assert a.exit_code == 0 and b.exit_code == 0
    names = sorted(f.name for f in a.out_dir.iterdir())
    assert names == sorted(f.name for f in b.out_dir.iterdir())
    compared = 0
    for name in names:
        if name.endswith(".timing.json"):
            continue  # wall-clock sidecars are the one legitimate difference
        assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes(), name
        compared += 1
    assert compared == 2 * 4 + 1  # csv + json per experiment, plus suite.json
    for kind, name in (("selectability", "det-sel"), ("profile", "det-prof"),
                       ("gap", "det-gap"), ("hardness", "det-hard")):
        first = (a.out_dir / f"{name}.csv").read_text().splitlines()[0]
        assert first == f"# crslab-report v1 {kind}"
