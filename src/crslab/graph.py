"""Graph instances: fractional matchings, odd girth, family generators, JSON IO.

A Graph is an undirected graph with a per-edge weight x_e in [0,1] (the
fractional matching being resolved). Vertex ids are dense 0-based ints and
each edge is stored once in canonical (min, max) orientation so directed
estimate tables can be indexed in O(1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .rng import stream
from .selection import INFINITE

__all__ = [
    "Graph",
    "ValidationReport",
    "LOAD_TOL",
    "generate",
    "FAMILIES",
]

# Absolute tolerance for vertex-load checks; generator arithmetic is simple
# enough that a tight bound suffices.
LOAD_TOL = 1e-12


@dataclass
class ValidationReport:
    ok: bool
    violations: list[tuple[int, float]]  # (vertex, load) with load > 1 + tol

    def __str__(self) -> str:
        if self.ok:
            return "fractional matching: ok"
        rows = ", ".join(f"v{v}: {load:.6f}" for v, load in self.violations)
        return f"fractional matching violated at {len(self.violations)} vertices ({rows})"


def _integral(value) -> int | None:
    """`value` as an int, or None for a bool or a non-integral value."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


@dataclass
class Graph:
    vertex_count: int
    edges: list[tuple[int, int, float]]
    # Derived arrays, built in __post_init__.
    eu: np.ndarray = field(init=False, repr=False)
    ev: np.ndarray = field(init=False, repr=False)
    x: np.ndarray = field(init=False, repr=False)
    indptr: np.ndarray = field(init=False, repr=False)
    adj_v: np.ndarray = field(init=False, repr=False)
    adj_eid: np.ndarray = field(init=False, repr=False)
    adj_cumx: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = _integral(self.vertex_count)
        if n is None:
            raise ValueError(f"vertex_count: integer required, got {self.vertex_count!r}")
        self.vertex_count = n
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        canon = []
        seen = set()
        for i, (u, v, x) in enumerate(self.edges):
            iu, iv = _integral(u), _integral(v)
            if iu is None or iv is None:
                raise ValueError(f"edges[{i}]: integer vertex ids required, got {u!r}, {v!r}")
            if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
                raise ValueError(f"edges[{i}]: number x required, got {x!r}")
            u, v, x = iu, iv, float(x)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if not (0.0 <= x <= 1.0):
                raise ValueError(f"edge ({u},{v}) has x={x} outside [0,1]")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            canon.append((key[0], key[1], x))
        self.edges = canon
        m = len(canon)
        self.eu = np.array([e[0] for e in canon], dtype=np.int64)
        self.ev = np.array([e[1] for e in canon], dtype=np.int64)
        self.x = np.array([e[2] for e in canon], dtype=np.float64)

        # CSR adjacency: each vertex's slots hold its (neighbor, edge id) pairs
        # in edge-id order; entry i of the doubled edge list is edge i mod m
        ends, eids = np.concatenate((self.eu, self.ev)), np.tile(np.arange(m, dtype=np.int64), 2)
        order = np.lexsort((eids, ends))
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n))))
        self.adj_v = np.concatenate((self.ev, self.eu))[order]
        self.adj_eid = eids[order]
        # Per-vertex cumulative x over the adjacency slice, used by the
        # categorical choice sampler (the tail mass up to 1 is the no-choice
        # outcome).
        self.adj_cumx = np.zeros(m * 2, dtype=np.float64)
        for v in range(n):
            lo, hi = self.indptr[v], self.indptr[v + 1]
            np.cumsum(self.x[self.adj_eid[lo:hi]], out=self.adj_cumx[lo:hi])

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incident_edges(self, v: int) -> np.ndarray:
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.adj_eid[lo:hi]

    def loads(self) -> np.ndarray:
        out = np.zeros(self.vertex_count, dtype=np.float64)
        np.add.at(out, self.eu, self.x)
        np.add.at(out, self.ev, self.x)
        return out

    def edge_id(self, u: int, v: int) -> int:
        for eid in self.incident_edges(u):
            if self.eu[eid] + self.ev[eid] - u == v:
                return int(eid)
        raise KeyError(f"no edge ({u},{v})")

    # -- fractional matching ----------------------------------------------

    def validate_fractional_matching(self) -> ValidationReport:
        loads = self.loads()
        bad = np.nonzero(loads > 1.0 + LOAD_TOL)[0]
        return ValidationReport(ok=bad.size == 0, violations=[(int(v), float(loads[v])) for v in bad])

    def is_one_regular(self) -> bool:
        loads = self.loads()
        return bool(np.all(np.abs(loads - 1.0) <= LOAD_TOL))

    # -- odd girth ---------------------------------------------------------

    def odd_girth(self) -> float:
        """Shortest odd cycle length of the x>0 support; INFINITE if bipartite.

        BFS on the bipartite double cover from every vertex: the distance
        from (s, even) to (s, odd) is the shortest odd closed walk through s,
        and the shortest odd closed walk overall is the shortest odd cycle.
        """
        n = self.vertex_count
        support = [[] for _ in range(n)]
        for eid in range(self.edge_count):
            if self.x[eid] > 0.0:
                u, v = int(self.eu[eid]), int(self.ev[eid])
                support[u].append(v)
                support[v].append(u)
        best = INFINITE
        dist = np.empty(2 * n, dtype=np.int64)
        for s in range(n):
            dist.fill(-1)
            dist[2 * s] = 0
            queue = [2 * s]
            head = 0
            while head < len(queue):
                node = queue[head]
                head += 1
                v, parity = node >> 1, node & 1
                d = dist[node]
                if d >= best:
                    continue
                for w in support[v]:
                    nxt = (w << 1) | (parity ^ 1)
                    if dist[nxt] < 0:
                        dist[nxt] = d + 1
                        queue.append(nxt)
            odd_here = dist[2 * s + 1]
            if odd_here >= 0 and odd_here < best:
                best = float(odd_here)
        return best

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "vertex_count": self.vertex_count,
            "edges": [[u, v, x] for u, v, x in self.edges],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        """The graph `to_json` wrote; a missing field or malformed edge raises ValueError naming it."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("instance: JSON object with 'vertex_count' and 'edges' required")
        for key in ("vertex_count", "edges"):
            if key not in payload:
                raise ValueError(f"instance: missing field {key!r}")
        edges = payload["edges"]
        if not isinstance(edges, list):
            raise ValueError("instance: 'edges' must be a list of [u, v, x]")
        for i, e in enumerate(edges):
            if not isinstance(e, list) or len(e) != 3:
                raise ValueError(f"instance: edges[{i}] must be [u, v, x], got {json.dumps(e)}")
        return cls(vertex_count=payload["vertex_count"], edges=[tuple(e) for e in edges])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "Graph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


# -- generators --------------------------------------------------------------


def single_edge(x: float = 1.0) -> Graph:
    return Graph(2, [(0, 1, x)])


def star(k: int, x: float) -> Graph:
    if k < 1:
        raise ValueError("star needs k >= 1 leaves")
    if k * x > 1.0 + LOAD_TOL:
        raise ValueError(f"star load k*x = {k * x} exceeds 1")
    return Graph(k + 1, [(0, i, x) for i in range(1, k + 1)])


def weighted_star(xs) -> Graph:
    xs = [float(v) for v in xs]
    if not xs:
        raise ValueError("weighted_star needs at least one leaf")
    if sum(xs) > 1.0 + LOAD_TOL:
        raise ValueError(f"weighted_star load {sum(xs)} exceeds 1")
    return Graph(len(xs) + 1, [(0, i + 1, xs[i]) for i in range(len(xs))])


def path(n: int, x: float = 0.5) -> Graph:
    if n < 2:
        raise ValueError("path needs n >= 2 vertices")
    if n > 2 and 2 * x > 1.0 + LOAD_TOL:
        raise ValueError("interior path load 2x exceeds 1")
    return Graph(n, [(i, i + 1, x) for i in range(n - 1)])


def cycle(n: int, x: float = 0.5) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if 2 * x > 1.0 + LOAD_TOL:
        raise ValueError("cycle load 2x exceeds 1")
    return Graph(n, [(i, (i + 1) % n, x) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 2:
        raise ValueError("complete needs n >= 2")
    x = 1.0 / (n - 1)
    return Graph(n, [(u, v, x) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete_bipartite needs n >= 1")
    x = 1.0 / n
    return Graph(2 * n, [(u, n + v, x) for u in range(n) for v in range(n)])


def double_star(k: int) -> Graph:
    """Two adjacent centers, k leaves each, all x = 1/(k+1)."""
    if k < 1:
        raise ValueError("double_star needs k >= 1")
    x = 1.0 / (k + 1)
    edges = [(0, 1, x)]
    edges += [(0, 2 + i, x) for i in range(k)]
    edges += [(1, 2 + k + i, x) for i in range(k)]
    return Graph(2 * k + 2, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree on n vertices; x_e = 1/max(deg u, deg v)."""
    if n < 2:
        raise ValueError("random_tree needs n >= 2 vertices")
    rng = stream(seed, "random-tree")
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    deg = [0] * n
    for i, p in enumerate(parents, start=1):
        deg[i] += 1
        deg[p] += 1
    edges = [(p, i, 1.0 / max(deg[p], deg[i])) for i, p in enumerate(parents, start=1)]
    return Graph(n, edges)


def cycle_blowup(g: int, b: int) -> Graph:
    """Odd cycle C_g with each vertex split into b twins; x = 1/(2b), 1-regular, odd girth g."""
    if g < 3 or g % 2 == 0:
        raise ValueError("cycle_blowup needs odd g >= 3")
    if b < 1:
        raise ValueError("cycle_blowup needs b >= 1")
    x = 1.0 / (2 * b)
    edges = []
    for i in range(g):
        j = (i + 1) % g
        for a in range(b):
            for c in range(b):
                edges.append((i * b + a, j * b + c, x))
    return Graph(g * b, edges)


FAMILIES = {
    "single_edge": single_edge,
    "star": star,
    "weighted_star": weighted_star,
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "double_star": double_star,
    "random_tree": random_tree,
    "cycle_blowup": cycle_blowup,
}


def generate(family: str, **params) -> Graph:
    """Build a named instance family; the result always validates."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family '{family}' (known: {', '.join(sorted(FAMILIES))})") from None
    g = builder(**params)
    report = g.validate_fractional_matching()
    if not report.ok:
        raise AssertionError(f"generator produced invalid instance: {report}")
    return g
