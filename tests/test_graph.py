import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crslab.graph import (
    FAMILIES,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    cycle_blowup,
    double_star,
    generate,
    path,
    random_tree,
    single_edge,
    star,
    weighted_star,
)
from crslab.selection import INFINITE

from .oracles import csr_reference, neighbors


def test_construction_canonicalizes_edges():
    g = Graph(3, [(2, 0, 0.5), (1, 2, 0.25)])
    assert g.edges == [(0, 2, 0.5), (1, 2, 0.25)]
    assert g.edge_count == 2
    assert g.edge_id(2, 0) == 0
    assert g.edge_id(0, 2) == 0


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(1, 1, 0.5)])
    with pytest.raises(ValueError, match="outside vertex range"):
        Graph(2, [(0, 2, 0.5)])
    with pytest.raises(ValueError, match="outside \\[0,1\\]"):
        Graph(2, [(0, 1, 1.5)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1, 0.2), (1, 0, 0.3)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_adjacency_and_loads():
    g = star(3, 0.25)
    assert sorted(neighbors(g, 0).tolist()) == [1, 2, 3]
    assert neighbors(g, 2).tolist() == [0]
    loads = g.loads()
    assert abs(loads[0] - 0.75) < 1e-15
    assert np.allclose(loads[1:], 0.25)
    assert g.validate_fractional_matching().ok
    with pytest.raises(KeyError):
        g.edge_id(1, 2)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(n=st.integers(0, 8), data=st.data())
def test_adjacency_equals_edge_by_edge_fill(n, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    picked = data.draw(st.lists(st.sampled_from(pairs), unique_by=lambda p: frozenset(p))) if pairs else []
    g = Graph(n, [(u, v, 0.1) for u, v in picked])
    for got, want in zip((g.indptr, g.adj_v, g.adj_eid), csr_reference(g)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_overloaded_instance_reports_vertices():
    g = Graph(3, [(0, 1, 0.8), (0, 2, 0.8)])
    rep = g.validate_fractional_matching()
    assert not rep.ok
    assert rep.violations[0][0] == 0
    assert "violated" in str(rep)
    assert "ok" in str(star(2, 0.5).validate_fractional_matching())


def test_one_regular_detection():
    assert cycle(5, 0.5).is_one_regular()
    assert complete(4).is_one_regular()
    assert complete_bipartite(3).is_one_regular()
    assert not star(3, 0.25).is_one_regular()


def test_odd_girth_basic_cases():
    assert cycle(5, 0.5).odd_girth() == 5.0
    assert cycle(3, 0.5).odd_girth() == 3.0
    assert cycle(6, 0.5).odd_girth() == INFINITE
    assert complete_bipartite(4).odd_girth() == INFINITE
    assert complete(4).odd_girth() == 3.0
    assert single_edge().odd_girth() == INFINITE


def test_odd_girth_ignores_zero_weight_edges():
    # odd cycle broken by an x=0 edge is bipartite in support
    g = Graph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.0)])
    assert g.odd_girth() == INFINITE


@given(st.integers(min_value=1, max_value=6))
def test_cycle_blowup_girth_and_regularity(b):
    g = cycle_blowup(5, b)
    assert g.vertex_count == 5 * b
    assert g.edge_count == 5 * b * b
    assert g.is_one_regular()
    assert g.odd_girth() == 5.0


def test_generator_shapes():
    assert single_edge(0.7).x[0] == 0.7
    assert star(4, 0.25).edge_count == 4
    assert weighted_star([0.2, 0.3]).edge_count == 2
    assert path(5, 0.5).edge_count == 4
    assert complete(5).edge_count == 10
    assert complete_bipartite(3).edge_count == 9
    d = double_star(8)
    assert d.edge_count == 17
    assert d.edges[0][:2] == (0, 1)  # middle edge is edge 0
    assert np.allclose(d.x, 1.0 / 9.0)
    t = random_tree(16, 3)
    assert t.vertex_count == 16 and t.edge_count == 15
    assert t.validate_fractional_matching().ok
    assert t.odd_girth() == INFINITE


def test_generator_validation_errors():
    with pytest.raises(ValueError):
        star(0, 0.5)
    with pytest.raises(ValueError):
        star(5, 0.3)  # load 1.5
    with pytest.raises(ValueError):
        weighted_star([])
    with pytest.raises(ValueError):
        weighted_star([0.6, 0.6])
    with pytest.raises(ValueError):
        path(1)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        cycle(4, 0.6)
    with pytest.raises(ValueError):
        complete(1)
    with pytest.raises(ValueError):
        complete_bipartite(0)
    with pytest.raises(ValueError):
        double_star(0)
    with pytest.raises(ValueError):
        random_tree(1, 0)
    with pytest.raises(ValueError):
        cycle_blowup(4, 2)
    with pytest.raises(ValueError):
        cycle_blowup(5, 0)


def test_random_tree_is_deterministic_in_seed():
    a = random_tree(12, 5)
    b = random_tree(12, 5)
    c = random_tree(12, 6)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_generate_dispatch():
    g = generate("cycle", n=7, x=0.5)
    assert g.edge_count == 7
    with pytest.raises(ValueError, match="unknown family"):
        generate("petersen")
    assert set(FAMILIES) >= {"star", "cycle", "complete", "complete_bipartite"}


def test_json_round_trip(tmp_path):
    g = weighted_star([0.25, 0.125, 0.5])
    text = g.to_json()
    h = Graph.from_json(text)
    assert h.edges == g.edges and h.vertex_count == g.vertex_count
    p = tmp_path / "g.json"
    g.save(p)
    assert Graph.load(p).edges == g.edges
    # exact float round trip through the text form
    assert Graph.from_json(h.to_json()).x.tolist() == g.x.tolist()


@pytest.mark.parametrize(
    "text,message",
    [
        ("{}", "missing field 'vertex_count'"),
        ('{"vertex_count": 3}', "missing field 'edges'"),
        ("[3]", "JSON object"),
        ('{"vertex_count": 3, "edges": {"0": [0, 1, 0.5]}}', "'edges' must be a list"),
        ('{"vertex_count": 3, "edges": [[0, 1, 0.5], [1, 2]]}', r"edges\[1\] must be \[u, v, x\], got \[1, 2\]"),
        ('{"vertex_count": 3, "edges": [7]}', r"edges\[0\] must be \[u, v, x\], got 7"),
        ('{"vertex_count": 3, "edges": [[0.5, 1, 0.5]]}', r"edges\[0\]: integer vertex ids required, got 0\.5, 1"),
        ('{"vertex_count": 3, "edges": [[true, 1, 0.5]]}', r"edges\[0\]: integer vertex ids required, got True, 1"),
        ('{"vertex_count": 3, "edges": [[0, "1", 0.5]]}', r"edges\[0\]: integer vertex ids required, got 0, '1'"),
        ('{"vertex_count": 2.7, "edges": [[0, 1, 0.5]]}', r"vertex_count: integer required, got 2\.7"),
        ('{"vertex_count": false, "edges": []}', r"vertex_count: integer required, got False"),
        ('{"vertex_count": 2, "edges": [[0, 1, null]]}', r"edges\[0\]: number x required, got None"),
        ('{"vertex_count": 2, "edges": [[0, 1, "abc"]]}', r"edges\[0\]: number x required, got 'abc'"),
        ('{"vertex_count": 2, "edges": [[0, 1, "0.5"]]}', r"edges\[0\]: number x required, got '0\.5'"),
        ('{"vertex_count": 2, "edges": [[0, 1, true]]}', r"edges\[0\]: number x required, got True"),
        ('{"vertex_count": 2, "edges": [[0, 1, [0.5]]]}', r"edges\[0\]: number x required, got \[0\.5\]"),
    ],
)
def test_from_json_names_what_is_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        Graph.from_json(text)


def test_integral_vertex_ids_accepted():
    g = Graph.from_json('{"vertex_count": 3.0, "edges": [[2.0, 0, 0.5], [1, 2, 0.25]]}')
    assert g.vertex_count == 3 and type(g.vertex_count) is int
    assert g.edges == [(0, 2, 0.5), (1, 2, 0.25)]
    h = Graph(np.int64(3), [(np.int32(2), np.int64(0), 0.5), (np.uint8(1), 2, 0.25)])
    assert h.edges == g.edges and all(type(w) is int for e in h.edges for w in e[:2])


def test_numeric_x_accepted():
    g = Graph(4, [(0, 1, 1), (1, 2, np.float32(0.5)), (2, 3, np.int64(0))])
    assert g.x.tolist() == [1.0, 0.5, 0.0] and all(type(e[2]) is float for e in g.edges)
    with pytest.raises(ValueError, match="number x required"):
        Graph(2, [(0, 1, np.bool_(True))])


@given(st.integers(min_value=3, max_value=30))
def test_odd_girth_of_odd_cycles(n):
    expected = float(n) if n % 2 == 1 else INFINITE
    assert cycle(n, 0.5).odd_girth() == expected


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10))
def test_random_trees_always_valid(n, seed):
    g = random_tree(n, seed)
    assert g.edge_count == n - 1
    assert g.validate_fractional_matching().ok
    # tree: max load exactly 1 at some max-degree vertex
    assert math.isclose(float(g.loads().max()), 1.0, abs_tol=1e-12)
