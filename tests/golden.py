"""Golden digests: sha256 of every report byte of a small fixed suite.

The suite runs each Monte-Carlo engine through the public harness and a few
direct entry points, and hashes what they produce:

- every report file `run_suite` writes (not the `.timing.json` wall-clock
  sidecars);
- the estimate tables of both recursive fillers;
- `pinned_phase1_frequency` with tied pinned times;
- every `BatchResult` field of the three batch engines on tie-heavy inputs
  (arrival times on a coarse grid), with `exclude`, `track_edges`,
  `track_targets` and `bins`;
- the choice sampler's picks on degrees 1 to 60, on zero and tiny loads and
  on leftover mass, for batches of one row, a few rows and many rows;
- `hardness_trajectory`'s `matched` and `balance` at several n, greedy and
  with a constant and a round-dependent acceptance rule;
- every `detect_potential_paths_batch` field on C5, C7 (with leftover mass),
  K_{3,3} and K_6;
- `c_vertex` on a dense grid of y for several finite girths.

`tests/test_golden.py` compares the digests with the pinned values in
`tests/golden_digests.json`, so any change in output bytes across commits
fails it. The pinned values change only with a deliberate change of the
random-stream layout; such a change regenerates them with

    PYTHONPATH=src python -m tests.golden --print > tests/golden_digests.json

and lists every changed digest in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from crslab.arrivals import sample_choices_batch
from crslab.diagnostics import coupled_batch, detect_potential_paths_batch
from crslab.graph import complete, complete_bipartite, cycle, cycle_blowup, double_star, random_tree, weighted_star
from crslab.hardness import hardness_trajectory
from crslab.harness import run_suite
from crslab import recursive
from crslab.matching import BatchResult
from crslab.recursive import fill_tables, fill_tables_edge, run_edge_batch, run_vertex_batch
from crslab.rng import stream
from crslab.selection import INFINITE, c_vertex, edge_selection, vertex_selection
from crslab.two_phase import pinned_phase1_frequency, run_two_phase_batch

PINNED = Path(__file__).with_name("golden_digests.json")

# Coarse time grid for the tie-heavy engine inputs: with 8 levels, most
# rows hold several vertices (or edges) arriving at the same time.
GRID = 8


def suite_payload() -> dict:
    """A suite touching every engine, each in the regime it runs in."""
    return {
        "experiments": [
            {
                "name": "sel-vertex-k33",
                "kind": "selectability",
                "instance": {"family": "complete_bipartite", "n": 3},
                "scheme": "recursive-vertex",
                "trials": 20000,
                "seed": 501,
                "params": {"g": "infinite", "T": 6, "delta": 0.1, "Q": 300},
            },
            {
                "name": "prof-vertex-c5",
                "kind": "profile",
                "instance": {"family": "cycle", "n": 5, "x": 0.5},
                "scheme": "recursive-vertex",
                "trials": 20000,
                "seed": 502,
                "bins": 5,
                "params": {"g": 5, "T": 5, "delta": 0.1, "Q": 200},
            },
            {
                "name": "sel-edge-tree",
                "kind": "selectability",
                "instance": {"family": "random_tree", "n": 10, "seed": 3},
                "scheme": "recursive-edge",
                "trials": 20000,
                "seed": 503,
                "params": {"selection": "edge_tree", "T": 12, "delta": 0.0, "Q": 200},
            },
            {
                "name": "prof-edge-tree",
                "kind": "profile",
                "instance": {"family": "random_tree", "n": 8, "seed": 4},
                "scheme": "recursive-edge",
                "trials": 20000,
                "seed": 504,
                "bins": 4,
                "params": {"selection": "edge_general", "T": 8, "delta": 0.1, "Q": 200},
            },
            {
                "name": "two-phase-complete7",
                "kind": "selectability",
                "instance": {"family": "complete", "n": 7},
                "scheme": "two-phase",
                "trials": 20000,
                "seed": 505,
                "params": {"t": 0.5},
            },
            {
                "name": "two-phase-bipartite3",
                "kind": "selectability",
                "instance": {"family": "complete_bipartite", "n": 3},
                "scheme": "two-phase",
                "trials": 20000,
                "seed": 506,
                "params": {"t": 0.5},
            },
            {
                "name": "two-phase-cycle5",
                "kind": "selectability",
                "instance": {"family": "cycle", "n": 5, "x": 0.5},
                "scheme": "two-phase",
                "trials": 20000,
                "seed": 507,
                "params": {"t": "t0"},
            },
            {
                "name": "gap-c5",
                "kind": "gap",
                "instance": {"family": "cycle", "n": 5, "x": 0.5},
                "scheme": "recursive-vertex",
                "trials": 5000,
                "seed": 508,
                "params": {"g": 5, "T": 4, "delta": 0.1, "Q": 100, "u": 0, "v": 1, "t_k": 0.5},
            },
            {
                "name": "rank1-star",
                "kind": "profile",
                "instance": {"family": "star", "k": 6, "x": 1.0 / 6.0},
                "scheme": "rank1-closed",
                "trials": 20000,
                "seed": 509,
                "bins": 5,
            },
        ]
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_bytes(a: np.ndarray) -> bytes:
    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def batch_digest(res: BatchResult) -> str:
    """sha256 over every BatchResult field (None fields hash as a marker)."""
    h = hashlib.sha256()
    for name in ("matched", "accepted", "active", "acc_bin", "act_bin", "acc_edge", "prop_is_ev", "sel_into"):
        value = getattr(res, name)
        h.update(name.encode() + b"=")
        h.update(b"none" if value is None else _array_bytes(value))
    return h.hexdigest()


def _grid_times(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform times snapped up to a GRID-point lattice on (0, 1]."""
    return (rng.integers(0, GRID, size=shape) + 1) / GRID


def _with_row_chunk(chunk: int, fill, *args, **kwargs):
    """fill(*args, **kwargs) run with recursive.FILL_ROW_CHUNK set to `chunk`."""
    saved = recursive.FILL_ROW_CHUNK
    recursive.FILL_ROW_CHUNK = chunk
    try:
        return fill(*args, **kwargs)
    finally:
        recursive.FILL_ROW_CHUNK = saved


def engine_digests() -> dict[str, str]:
    """BatchResult digests of the three batch engines on tie-heavy inputs."""
    out = {}
    rows = 3000

    g5, sel5 = cycle(5, 0.5), vertex_selection(5)
    tab5 = fill_tables(g5, sel5, T=4, delta=0.1, Q=100, seed=601)
    g33, sel_inf = complete_bipartite(3), vertex_selection(INFINITE)
    tab33 = fill_tables(g33, sel_inf, T=4, delta=0.1, Q=100, seed=602)
    out["table-vertex-c5"] = _sha(_array_bytes(tab5.values))
    out["table-vertex-k33"] = _sha(_array_bytes(tab33.values))
    # 1000 rows per phase in chunks of 333/333/333/1
    tab5_chunked = _with_row_chunk(333, fill_tables, g5, sel5, T=4, delta=0.1, Q=100, seed=601)
    out["table-vertex-c5-chunk333"] = _sha(_array_bytes(tab5_chunked.values))
    for name, g, sel, tab, excl in (("c5", g5, sel5, tab5, 1), ("k33", g33, sel_inf, tab33, 3)):
        rng = stream(603, "golden-vertex", name)
        Y = _grid_times(rng, (rows, g.vertex_count))
        F = sample_choices_batch(g, rng, rows)
        U = rng.random((rows, g.vertex_count))
        for t_stop in (0.5, 0.6, 1.0):
            for ex in (None, excl):
                res = run_vertex_batch(g, sel, tab, Y, F, U, t_stop, ex, 4, True, True)
                out[f"vertex-{name}-t{t_stop}-x{ex}"] = batch_digest(res)
        full, dropped = coupled_batch(g, sel, tab, excl, Y, F, U, t_k=0.75, track_targets=True)
        out[f"coupled-{name}"] = batch_digest(full) + batch_digest(dropped)

    tree, sel_e = random_tree(9, seed=5), edge_selection("edge_tree")
    tab_e = fill_tables_edge(tree, sel_e, T=6, delta=0.0, Q=150, seed=604)
    out["table-edge-tree9"] = _sha(_array_bytes(tab_e.values))
    # 1200 rows per phase in chunks of 500/500/200, cutting through the
    # 150-row groups of single forced edges
    tab_e_chunked = _with_row_chunk(500, fill_tables_edge, tree, sel_e, T=6, delta=0.0, Q=150, seed=604)
    out["table-edge-tree9-chunk500"] = _sha(_array_bytes(tab_e_chunked.values))
    rng = stream(605, "golden-edge")
    m = tree.edge_count
    active = rng.random((rows, m)) < tree.x[None, :]
    Ye = _grid_times(rng, (rows, m))
    U = rng.random((rows, m))
    for t_stop in (0.5, 0.6, 1.0):
        out[f"edge-tree9-t{t_stop}"] = batch_digest(run_edge_batch(tree, sel_e, tab_e, active, Ye, U, t_stop, 3))

    two_phase_graphs = (
        ("complete7", complete(7)),  # complete-graph phase-1 sums
        ("bipartite3", complete_bipartite(3)),  # bipartite phase-1 sums
        ("cycle5", cycle(5, 0.5)),  # dense phase-1 sums, degree 2
        ("blowup3x2", cycle_blowup(3, 2)),  # dense phase-1 sums, degree 4
    )
    for name, g in two_phase_graphs:
        rng = stream(606, "golden-two-phase", name)
        n = g.vertex_count
        Y = _grid_times(rng, (rows, n))
        F = sample_choices_batch(g, rng, rows)
        UA = rng.random((rows, n))
        UB = rng.random((rows, n))
        for t_stop in (0.5, 0.6, 1.0):
            res = run_two_phase_batch(g, 0.6, Y, F, UA, UB, t_stop, 4, True, False)
            out[f"two-phase-{name}-t{t_stop}"] = batch_digest(res)
    return out


def sampler_digests() -> dict[str, str]:
    """`sample_choices_batch` picks for one row, a few rows and many rows."""
    graphs = (
        ("complete61", complete(61)),  # degree 60
        # zero and tiny loads (equal and nearly equal breakpoints), leftover mass
        ("weighted-star", weighted_star([0.0, 1e-12, 0.3, 0.0, 0.0, 1e-13, 0.25, 2e-12, 0.0, 0.1, 1e-4])),
        ("double-star8", double_star(8)),
        ("cycle5", cycle(5, 0.5)),
    )
    out = {}
    for name, g in graphs:
        rng = stream(801, "golden-sampler", name)
        h = hashlib.sha256()
        for trials in (1, 7, 20000):
            h.update(_array_bytes(sample_choices_batch(g, rng, trials)))
        out[name] = h.hexdigest()
    return out


def selection_digests() -> dict[str, str]:
    """`c_vertex` on a dense grid of y, on slices of it and at single points."""
    y = np.concatenate([np.linspace(0.0, 1.0, 100001), np.geomspace(1e-300, 1.0, 2001)])
    out = {}
    for g in (3, 5, 7, 21):
        h = hashlib.sha256()
        h.update(_array_bytes(c_vertex(y, g)))
        for lo in range(0, y.size, 9973):  # each slice's largest y sets its term count
            h.update(_array_bytes(c_vertex(y[lo : lo + 997], g)))
        h.update(repr([c_vertex(float(v), g) for v in y[::257]]).encode())
        out[f"g{g}"] = h.hexdigest()
    return out


def _half_rule(t: int, n: int) -> float:
    return 0.5


def _ramp_rule(t: int, n: int) -> float:
    """Round-dependent: accepts less as the rounds go on, never at the end."""
    return 1.0 - t / (2 * n)


def hardness_digests() -> dict[str, str]:
    """`hardness_trajectory` bytes, greedy and under two acceptance rules."""
    cases = [("greedy", n, trials, "greedy") for n, trials in ((1, 5), (2, 9), (7, 13), (60, 40))]
    cases += [(name, n, trials, rule) for name, rule in (("half", _half_rule), ("ramp", _ramp_rule))
              for n, trials in ((7, 13), (60, 40))]
    out = {}
    for name, n, trials, rule in cases:
        rep = hardness_trajectory(n, trials, 1000 + n, rule)
        out[f"{name}-n{n}"] = _sha(_array_bytes(rep.matched) + _array_bytes(rep.balance))
    return out


def paths_digests() -> dict[str, str]:
    """Every `detect_potential_paths_batch` field on sampled choices."""
    graphs = (
        ("c5", cycle(5, 0.5), 0, 1),
        ("c7", cycle(7, 0.4), 0, 1),  # leftover mass: some walks stop at NO_CHOICE
        ("k33", complete_bipartite(3), 0, 3),  # bipartite: no path ever closes
        ("complete6", complete(6), 0, 1),
    )
    out = {}
    for name, g, u, v in graphs:
        F = sample_choices_batch(g, stream(901, "golden-paths", name), 4000)
        scan = detect_potential_paths_batch(g, F, u, v)
        out[name] = _sha(_array_bytes(scan.length) + _array_bytes(scan.path) + _array_bytes(scan.count))
    return out


def pinned_digest() -> str:
    """pinned_phase1_frequency on C5 with tied pinned times."""
    g5 = cycle(5, 0.5)
    got = [
        pinned_phase1_frequency(g5, 0.6, 0, 1, 0.25, {2: 0.25, 3: 0.1, 4: 0.1}, 20000, 701),
        pinned_phase1_frequency(g5, 0.6, 2, 3, 0.5, {0: 0.5, 1: 0.25, 4: 0.25}, 20000, 702),
    ]
    return _sha(repr(got).encode())


def compute_digests() -> dict[str, str]:
    """Every golden digest, keyed by report file or engine case."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        suite = Path(tmp) / "suite.json"
        suite.write_text(json.dumps(suite_payload()))
        result = run_suite(suite, out_dir=Path(tmp) / "out")
        for path in sorted(result.out_dir.iterdir()):
            if not path.name.endswith(".timing.json"):
                out[f"report/{path.name}"] = _sha(path.read_bytes())
    out.update({f"engine/{k}": v for k, v in engine_digests().items()})
    out.update({f"sampler/{k}": v for k, v in sampler_digests().items()})
    out.update({f"c-vertex/{k}": v for k, v in selection_digests().items()})
    out.update({f"hardness/{k}": v for k, v in hardness_digests().items()})
    out.update({f"paths/{k}": v for k, v in paths_digests().items()})
    out["pinned-phase1"] = pinned_digest()
    return out


def load_pinned() -> dict[str, str]:
    return json.loads(PINNED.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compute the golden digests of the fixed suite.")
    ap.add_argument("--print", action="store_true", dest="print_", help="print the digests as the pinned-file JSON")
    args = ap.parse_args(argv)
    digests = compute_digests()
    if args.print_:
        sys.stdout.write(json.dumps(digests, sort_keys=True, indent=2) + "\n")
        return 0
    pinned = load_pinned()
    changed = sorted(k for k in set(pinned) | set(digests) if pinned.get(k) != digests.get(k))
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(digests) - len(changed)} of {len(digests)} digests match the pinned values")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
