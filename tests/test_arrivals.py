import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crslab.arrivals import NO_CHOICE, _active_choices, _choice_edges, _pick, sample_choices_batch
from crslab.graph import LOAD_TOL, complete, cycle, weighted_star
from crslab.recursive import simulate_edge
from crslab.rng import stream
from crslab.selection import edge_selection

from .oracles import vertex_draws


def _active(g, y, f):
    """{edge id: (proposer, arrival)} of one row's active proposals."""
    c = _active_choices(g, np.asarray([y], dtype=np.float64), np.asarray([f]))
    return {int(e): (int(p), float(t)) for e, p, t in zip(c.edge, c.proposer, c.y)}


def test_choice_marginals_match_x():
    g = weighted_star([0.5, 0.25, 0.1])
    rng = stream(11, "test-choices")
    F = sample_choices_batch(g, rng, 200_000)
    # center picks leaf i with prob x_i, nothing with prob 0.15
    center = F[:, 0]
    probs = [np.mean(center == leaf) for leaf in (1, 2, 3)]
    assert np.allclose(probs, [0.5, 0.25, 0.1], atol=0.004)
    assert abs(np.mean(center == NO_CHOICE) - 0.15) < 0.004
    # each leaf picks the center w.p. x_i
    for leaf, x in ((1, 0.5), (2, 0.25), (3, 0.1)):
        assert abs(np.mean(F[:, leaf] == 0) - x) < 0.004


def test_choices_and_their_edges_are_int32():
    # the (trials, n) picks are the largest integer arrays of a batch
    g = complete(7)
    F = sample_choices_batch(g, stream(13, "test-choices"), 50)
    assert F.dtype == np.int32 and F.shape == (50, 7)
    assert _choice_edges(g, F).dtype == np.int32


def test_choices_only_hit_neighbors():
    g = cycle(5, 0.5)
    F = sample_choices_batch(g, stream(12, "test-choices"), 2000)
    for v in range(5):
        picked = set(np.unique(F[:, v])) - {NO_CHOICE}
        assert picked <= set(g.neighbors(v).tolist())


@st.composite
def cumulative_loads(draw):
    """Sorted cumulative loads: repeats, gaps near 1e-12, totals below 1 or just above."""
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    if draw(st.booleans()):  # a cluster of breakpoints about 1e-12 apart
        base = draw(st.floats(0.0, 1.0 - 1e-9))
        gaps = draw(st.lists(st.sampled_from([1e-13, 5e-13, 1e-12, 2e-12, 3e-12]), min_size=1, max_size=12))
        values += list(base + np.cumsum(gaps))
    values += draw(st.lists(st.sampled_from(values), max_size=10))  # equal breakpoints
    cum = np.sort(np.array(values))
    total = draw(st.sampled_from(["below", "one", "above"]))
    if total == "one":
        cum[-1] = 1.0
    elif total == "above":
        cum[-1] = 1.0 + draw(st.floats(0.0, LOAD_TOL))
    return cum


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cum=cumulative_loads(), n_random=st.sampled_from([0, 5, 3000]))
def test_pick_equals_binary_search(cum, n_random):
    below = np.nextafter(cum, -np.inf)
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum, below, np.random.default_rng(n_random).random(n_random)])
    u = u[(u >= 0.0) & (u < 1.0)]
    # the number of draws bounds the table size, so both small and large counts matter
    assert np.array_equal(_pick(cum, u), np.searchsorted(cum, u, side="right"))


def test_sampler_equals_binary_search_reference():
    xs = [0.0, 1e-12, 0.3, 0.0, 1e-13, 0.25, 2e-12, 0.0, 0.1, 1e-4]
    for g in (weighted_star(xs), complete(9), cycle(5, 0.5)):
        for trials in (1, 7, 5000):
            F = sample_choices_batch(g, stream(16, "test-choices"), trials)
            rng = stream(16, "test-choices")
            for v in range(g.vertex_count):
                lo, hi = g.indptr[v], g.indptr[v + 1]
                idx = np.searchsorted(g.adj_cumx[lo:hi], rng.random(trials), side="right")
                assert np.array_equal(F[:, v], np.append(g.adj_v[lo:hi], NO_CHOICE)[idx])


def test_active_edges_rule_hand_built():
    g = cycle(4, 0.5)  # edges (0,1),(1,2),(2,3),(0,3)
    out = _active(g, [0.1, 0.5, 0.2, 0.8], [NO_CHOICE, 0, 3, 2])
    # (0,1): later endpoint 1 chose 0 -> active, proposer 1
    assert out[g.edge_id(0, 1)][0] == 1
    # (2,3): vertex 2 chose 3 but 3 arrives later -> not active from 2;
    # 3 chose 2 and 2 is earlier -> active with proposer 3
    assert out[g.edge_id(2, 3)] == (3, 0.8)
    assert g.edge_id(1, 2) not in out
    assert len(out) == 2


def test_active_edges_tie_broken_by_id():
    g = cycle(3, 0.5)
    # equal times: vertex 1 counts as later than vertex 0, so only
    # 1's pick of 0 creates an active edge
    out = _active(g, [0.4, 0.4, 0.9], [1, 0, NO_CHOICE])
    assert list(out.values()) == [(1, 0.4)]


def test_edge_batch_activity_rate():
    # edge-mode trials: every edge is active with probability x_e
    g = weighted_star([0.5, 0.25, 0.1])
    res = simulate_edge(g, edge_selection("edge_general"), T=1, delta=0.1, trials=100_000, seed=18, Q=1)
    assert np.allclose(res.active / res.trials, [0.5, 0.25, 0.1], atol=0.005)


def test_active_edge_frequency_is_x():
    # P[edge active] = x under vertex arrivals, for every edge
    g = cycle(5, 0.5)
    rng = stream(19, "w")
    trials = 40_000
    Y, F = vertex_draws(g, rng, trials)
    counts = np.bincount(_active_choices(g, Y, F).edge, minlength=g.edge_count)
    assert np.allclose(counts / trials, 0.5, atol=0.01)
