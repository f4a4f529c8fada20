"""Tests for the round-based K_{n,n} matching process and its fluid limit."""

import math
import tracemalloc

import numpy as np
import pytest

import crslab.matching
from crslab.hardness import hardness_trajectory, m_de

from .analysis import DriftBucket, drift_report
from .oracles import hardness_rounds, ode_trajectory_reference


def test_fluid_limit_values():
    assert m_de(0.0) == 0.0
    assert math.isclose(m_de(1.0), math.exp(-1.0) / 2.0)
    assert math.isclose(m_de(2.0), (math.exp(-2.0) + 1.0) / 2.0)


def test_fluid_limit_solves_its_ode():
    ts, ms = ode_trajectory_reference(2.0)
    closed = np.array([m_de(float(s)) for s in ts[::400]])
    assert np.abs(closed - ms[::400]).max() < 1e-10


def test_fluid_limit_monotone():
    s = np.linspace(0.0, 2.0, 200)
    vals = np.array([m_de(float(x)) for x in s])
    assert (np.diff(vals) > 0.0).all()


def test_trajectory_shapes_and_counters():
    rep = hardness_trajectory(20, 50, 77)
    assert rep.n == 20 and rep.trials == 50
    assert rep.matched.shape == (50, 41)
    assert rep.balance.shape == (50, 41)
    assert (rep.rounds == np.arange(41)).all()
    assert (rep.matched[:, 0] == 0).all()
    steps = np.diff(rep.matched, axis=1)
    assert ((steps == 0) | (steps == 1)).all()
    assert (rep.matched[:, -1] <= 20).all()
    assert rep.reference[0] == 0.0
    assert math.isclose(rep.reference[-1], m_de(2.0))
    # the balance threshold at round 0 always admits the full unarrived count
    assert rep.q_frequency[0] == 1.0


def test_trajectory_validation():
    with pytest.raises(ValueError, match="n must be"):
        hardness_trajectory(0, 10, 1)
    with pytest.raises(ValueError, match="trials must be"):
        hardness_trajectory(5, 0, 1)


def test_trajectory_deterministic():
    a = hardness_trajectory(30, 20, 90)
    b = hardness_trajectory(30, 20, 90)
    c = hardness_trajectory(30, 20, 91)
    assert (a.matched == b.matched).all()
    assert (a.balance == b.balance).all()
    assert (a.matched != c.matched).any()


def test_mean_tracks_fluid_limit():
    rep = hardness_trajectory(400, 200, 78)
    assert rep.sup_distance < 0.02
    assert abs(rep.mean_final - m_de(2.0)) < 0.01


def test_q_all_below_q_min():
    rep = hardness_trajectory(50, 150, 79)
    for t_max in (10, 50, 100):
        q_all = rep.q_all_frequency(t_max)
        q_min = rep.q_min_frequency(t_max)
        assert 0.0 <= q_all <= q_min <= 1.0


def test_drift_buckets_stay_below_three_sigma():
    rep = hardness_trajectory(200, 100, 80)
    buckets = drift_report(rep, buckets=20)
    assert len(buckets) >= 18
    for b in buckets:
        assert isinstance(b, DriftBucket)
        assert 0 <= b.t_lo < b.t_hi <= 400
        assert b.count >= 2
        assert b.ok, f"bucket [{b.t_lo}, {b.t_hi}) drifted: {b.mean_residual} vs {3 * b.sigma}"


def test_drift_bucket_edges_partition_rounds():
    rep = hardness_trajectory(30, 40, 81)
    buckets = drift_report(rep, buckets=10)
    assert len(buckets) >= 8
    for prev, nxt in zip(buckets, buckets[1:]):
        assert prev.t_hi <= nxt.t_lo


def test_trajectory_matches_round_reference():
    """n = 1..60 with trials spread over 1..50, plus a few (n, trials) corners."""
    cases = [(n, 1 + (17 * n) % 50) for n in range(1, 61)]
    cases += [(n, trials) for n in (1, 2, 7, 33) for trials in (1, 50)]
    for n, trials in cases:
        seed = 3000 + 7 * n + trials
        got = hardness_trajectory(n, trials, seed)
        want = hardness_rounds(n, trials, seed)
        case = (n, trials)
        # M(t) <= n is kept in the round type, int16 while 2n < 2^14
        assert got.matched.dtype == np.int16 and got.balance.dtype == want[1].dtype, case
        assert np.array_equal(got.matched, want[0]), case
        assert np.array_equal(got.balance, want[1]), case


def test_trajectory_ignores_block_budget_and_workers(monkeypatch):
    """The partners are drawn row block by row block: the same bytes for a
    block of one row, of a few rows (a partial last block) or the default,
    whatever the worker count."""
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(crslab.matching, "WORKERS", workers)
        for budget in (1, 3 * 2 * 40 + 7, crslab.matching.ROW_BLOCK_ELEMS):
            monkeypatch.setattr(crslab.matching, "ROW_BLOCK_ELEMS", budget)
            rep = hardness_trajectory(40, 20, 82)
            results.append((rep.matched, rep.balance))
    for matched, balance in results[1:]:
        assert np.array_equal(matched, results[0][0]) and np.array_equal(balance, results[0][1])
    want = hardness_rounds(40, 20, 82)
    assert np.array_equal(results[0][0], want[0]) and np.array_equal(results[0][1], want[1])


def test_trajectory_working_set():
    """n = 2000 over 400 trials keeps its (trials, 2n) rounds in int16 and
    its slot grids in int32 (one int64 array of that shape is 12.8 MB);
    the pass peaks near 15.7 MB under tracemalloc."""
    tracemalloc.start()
    try:
        hardness_trajectory(2000, 400, 83)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19 * 2**20, peak / 2**20
