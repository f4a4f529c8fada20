"""Golden digests: sha256 of every report byte of a small fixed suite.

The suite runs each Monte-Carlo engine through the public harness and a few
direct entry points, and hashes what they produce:

- every report file `run_suite` writes (not the `.timing.json` wall-clock
  sidecars);
- the estimate tables of both recursive fillers; the engine and
  correlation-gap cases below run on fixed tables drawn from their own
  streams instead, so a change of a fill's draws leaves them alone;
- `pinned_phase1_frequency` (from `tests/analysis.py`) with tied pinned times;
- every `BatchResult` field of the three batch engines on tie-heavy inputs
  (arrival times on a coarse grid), with `exclude` and `bins`, plus the
  per-trial record of accepted proposals that `tests.oracles.recorded`
  keeps (`acc_edge`, `prop_is_ev`, `sel_into`); the engines and the
  kernel blocks below watch every vertex (`tests.oracles.watch_all`), so
  `matched` is the whole (trials, n) flag matrix the digests were pinned
  with;
- every chunked loop (the six trial loops and the edge fill) over several
  chunks with a partial last one, with the rank-1 safety tally replayed by
  `tests.analysis.rank1_safety`;
- every `BatchResult` field after `_BatchTally.resolve` alone on fixed
  blocks: rows past the first block, edge-like proposals, times on a
  4-point grid, and one block recorded by `RecordingTally`;
- the choice sampler's picks on degrees 1 to 60, on zero and tiny loads and
  on leftover mass, for batches of one row, a few rows and many rows;
- `hardness_trajectory`'s `matched` and `balance` at several n;
- every `detect_potential_paths_batch` field on C5, C7 (with leftover mass),
  K_{3,3} and K_6;
- `c_vertex` on a dense grid of y for several finite girths;
- every file `crslab simulate | profile | diag | generate --out` writes
  from its flags, for each scheme, `--t` form and diagnostic.

`tests/test_golden.py` compares the digests with the pinned values in
`tests/golden_digests.json`, so any change in output bytes across commits
fails it. The pinned values change only with a deliberate change of the
random-stream layout; such a change regenerates them with

    PYTHONPATH=src python -m tests.golden --print > tests/golden_digests.json

and lists every changed digest in CHANGES.md. Run without `--print`, it
lists the pinned keys it no longer computes, the keys it computes that are
not pinned, and the keys whose values changed, each apart.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from crslab.arrivals import sample_choices_batch
from crslab import diagnostics, recursive, two_phase
from crslab.cli import main as crslab_main
from crslab.diagnostics import correlation_gap, coupled_batch, detect_potential_paths_batch
from crslab.graph import complete, complete_bipartite, cycle, cycle_blowup, double_star, random_tree, weighted_star
from crslab.hardness import hardness_trajectory
from crslab.harness import run_suite
from crslab.matching import BatchResult, _BatchTally
from crslab.recursive import EstimateTable, fill_tables, fill_tables_edge, run_edge_batch, run_vertex_batch
from crslab.rng import stream
from crslab.selection import INFINITE, c_vertex, edge_selection, vertex_selection
from crslab.two_phase import run_two_phase_batch

from .analysis import pinned_phase1_frequency, rank1_safety
from .oracles import RecordingTally, edge_inputs, recorded, watch_all

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
    """sha256 over every BatchResult field and recorded field (None or
    missing fields hash as a marker)."""
    h = hashlib.sha256()
    for name in ("matched", "accepted", "active", "acc_bin", "act_bin", "acc_edge", "prop_is_ev", "sel_into"):
        value = getattr(res, name, None)
        h.update(name.encode() + b"=")
        h.update(b"none" if value is None else _array_bytes(value))
    return h.hexdigest()


def _grid_times(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform times snapped up to a GRID-point lattice on (0, 1]."""
    return (rng.integers(0, GRID, size=shape) + 1) / GRID


def _with_const(module, name: str, value, fn, *args, **kwargs):
    """fn(*args, **kwargs) run with the module constant `module.name` set to `value`."""
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        return fn(*args, **kwargs)
    finally:
        setattr(module, name, saved)


def _drop(res, *names):
    """`res` with the recorded fields `names` set to None, as the digest pinned them."""
    return dataclasses.replace(res, **dict.fromkeys(names))


def _fixed_table(sel, T: int, delta: float, width: int, *tags) -> EstimateTable:
    """An estimate table from its own stream (607, *tags): entries uniform on
    [C/2, 1), row 0 all ones. The engine digests run on these, so a change
    of a fill's draws leaves them alone."""
    values = stream(607, *tags).uniform(sel.floor / 2.0, 1.0, (T, width))
    values[0] = 1.0
    return EstimateTable(T, delta, values)


def engine_digests() -> dict[str, str]:
    """BatchResult digests of the three batch engines on tie-heavy inputs,
    and the tables of both fills."""
    out = {}
    rows = 3000

    g5, sel5 = cycle(5, 0.5), vertex_selection(5)
    g33, sel_inf = complete_bipartite(3), vertex_selection(INFINITE)
    out["table-vertex-c5"] = _sha(_array_bytes(fill_tables(g5, sel5, T=4, delta=0.1, Q=100, seed=601).values))
    out["table-vertex-k33"] = _sha(_array_bytes(fill_tables(g33, sel_inf, T=4, delta=0.1, Q=100, seed=602).values))
    # 1000 rows per phase in chunks of 333/333/333/1
    tab5_chunked = _with_const(recursive, "FILL_ROW_CHUNK", 333, fill_tables, g5, sel5, T=4, delta=0.1, Q=100, seed=601)
    out["table-vertex-c5-chunk333"] = _sha(_array_bytes(tab5_chunked.values))
    for name, g, sel, excl in (("c5", g5, sel5, 1), ("k33", g33, sel_inf, 3)):
        tab = _fixed_table(sel, 4, 0.1, 2 * g.edge_count, "golden-table", name)
        rng = stream(603, "golden-vertex", name)
        Y = _grid_times(rng, (rows, g.vertex_count))
        F = sample_choices_batch(g, rng, rows)
        U = rng.random((rows, g.vertex_count))
        for t_stop in (0.5, 0.6, 1.0):
            for ex in (None, excl):
                res = recorded(run_vertex_batch, g, sel, tab, Y, F, U, t_stop, ex, 4, watch_all(g, rows))
                out[f"vertex-{name}-t{t_stop}-x{ex}"] = batch_digest(res)
        full, dropped = recorded(coupled_batch, g, sel, tab, excl, Y, F, U, t_k=0.75, watch=watch_all(g, rows))
        # pinned when this call recorded the targets only
        out[f"coupled-{name}"] = "".join(batch_digest(_drop(r, "acc_edge", "prop_is_ev")) for r in (full, dropped))

    tree, sel_e = random_tree(9, seed=5), edge_selection("edge_tree")
    out["table-edge-tree9"] = _sha(_array_bytes(fill_tables_edge(tree, sel_e, T=6, delta=0.0, Q=150, seed=604).values))
    # 1200 rows per phase in chunks of 500/500/200, cutting through the
    # 150-row groups of single forced edges
    tab_e_chunked = _with_const(recursive, "FILL_ROW_CHUNK", 500, fill_tables_edge, tree, sel_e, T=6, delta=0.0, Q=150, seed=604)
    out["table-edge-tree9-chunk500"] = _sha(_array_bytes(tab_e_chunked.values))
    tab_e = _fixed_table(sel_e, 6, 0.0, tree.edge_count, "golden-table", "tree9")
    rng = stream(605, "golden-edge")
    m = tree.edge_count
    active = rng.random((rows, m)) < tree.x[None, :]
    Ye = _grid_times(rng, (rows, m))
    U = rng.random((rows, m))
    for t_stop in (0.5, 0.6, 1.0):
        out[f"edge-tree9-t{t_stop}"] = batch_digest(run_edge_batch(tree, sel_e, tab_e, *edge_inputs(active, Ye, U), t_stop, 3, watch_all(tree, rows)))

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
            res = recorded(run_two_phase_batch, g, 0.6, Y, F, UA, UB, t_stop, 4, watch_all(g, rows))
            # pinned when this call recorded the edges only
            out[f"two-phase-{name}-t{t_stop}"] = batch_digest(_drop(res, "sel_into"))
    return out


def sim_digest(res, extra: dict | None = None) -> str:
    """sha256 over a simulation result's counters, then the `extra` arrays by name."""
    h = hashlib.sha256()
    fields = {name: getattr(res, name) for name in ("trials", "bins", "accepted", "active", "acc_bin", "act_bin")}
    for name, value in {**fields, **(extra or {})}.items():
        h.update(name.encode() + b"=")
        h.update(_array_bytes(np.asarray(value)))
    return h.hexdigest()


def chunk_digests() -> dict[str, str]:
    """Every chunked loop over several chunks, the last one partial.

    The trial loops run 2,500 trials in chunks of 1,000, so their chunks
    1 and 2 are keyed too. The edge fill of `tree9-chunk1100` cuts each
    phase's 1,200 rows into 1,100 + 100, so its first chunk ends inside
    the last edge's 150 rows.
    """
    trials = 2500
    g5, sel5 = cycle(5, 0.5), vertex_selection(5)
    tree, sel_e = random_tree(9, seed=3), edge_selection("edge_tree")
    star = weighted_star([1.0 / 6.0] * 6)
    out = {}
    # a simulation fills its table with the simulation's own seed
    res = _with_const(recursive, "TRIAL_CHUNK", 1000, recursive.simulate_vertex, g5, sel5, 4, 0.1, trials, 1201, Q=100, bins=5)
    out["simulate-vertex-c5"] = sim_digest(res) + _sha(_array_bytes(fill_tables(g5, sel5, 4, 0.1, 100, 1201).values))
    res = _with_const(recursive, "TRIAL_CHUNK", 1000, recursive.simulate_edge, tree, sel_e, 6, 0.0, trials, 1202, Q=150, bins=4)
    out["simulate-edge-tree9"] = sim_digest(res) + _sha(_array_bytes(fill_tables_edge(tree, sel_e, 6, 0.0, 150, 1202).values))
    res = _with_const(recursive, "TRIAL_CHUNK", 1000, recursive.simulate_rank1, star, trials, 1203, bins=5)
    safe_bin, all_bin = _with_const(recursive, "TRIAL_CHUNK", 1000, rank1_safety, star, trials, 1203, bins=5)
    out["simulate-rank1-star6"] = sim_digest(res, extra={"safe_bin": safe_bin, "all_bin": all_bin})
    res = _with_const(two_phase, "TRIAL_CHUNK", 1000, two_phase.simulate_two_phase, complete(7), 0.5, trials, 1204, bins=4)
    out["simulate-two-phase-complete7"] = sim_digest(res)
    got = _with_const(two_phase, "TRIAL_CHUNK", 1000, pinned_phase1_frequency, g5, 0.6, 0, 1, 0.25, {2: 0.25, 3: 0.1, 4: 0.1}, trials, 1205)
    out["pinned-phase1-c5"] = _sha(repr(got).encode())
    tab5 = _fixed_table(sel5, 4, 0.1, 2 * g5.edge_count, "golden-table", "gap-c5")
    rep = _with_const(diagnostics, "GAP_TRIAL_CHUNK", 1000, correlation_gap, g5, sel5, tab5, 0, 1, 0.5, trials, 1207)
    out["correlation-gap-c5"] = _sha(repr(rep).encode())
    tab = _with_const(recursive, "FILL_ROW_CHUNK", 1100, fill_tables_edge, tree, sel_e, T=6, delta=0.0, Q=150, seed=1208)
    out["table-edge-tree9-chunk1100"] = _sha(_array_bytes(tab.values))
    return out


def _kernel_block(g, rng, rows: int, grid: int | None, flip: bool):
    """One resolve block: each row holds each edge with probability 1/2, in
    edge-id (slot) order, at a uniform time or one on a `grid`-point lattice.
    The target is the edge's `eu` end (edge mode), or either end with `flip`."""
    row, e = np.nonzero(rng.random((rows, g.edge_count)) < 0.5)
    y = rng.random(e.size) if grid is None else (rng.integers(0, grid, size=e.size) + 1) / grid
    side = rng.random(e.size) < 0.5 if flip else np.zeros(e.size, dtype=bool)
    return row, y, np.where(side, g.ev[e], g.eu[e]), np.where(side, g.eu[e], g.ev[e]), e


def kernel_digests() -> dict[str, str]:
    """BatchResult digests of `_BatchTally.resolve` alone on fixed blocks."""
    cases = (
        # (name, graph, trials, blocks, grid, flip, bins, tracked)
        ("resolve-lo", complete(7), 50, ((0, 20), (20, 45)), None, True, None, False),
        ("resolve-edge", random_tree(9, seed=5), 200, ((0, 200),), None, False, None, False),
        ("resolve-ties", complete_bipartite(4), 300, ((0, 300),), 4, True, 4, False),
        ("resolve-tracked", complete(6), 120, ((0, 70), (70, 120)), 4, True, 3, True),
    )
    out = {}
    for name, g, trials, blocks, grid, flip, bins, tracked in cases:
        rng = stream(1101, "golden-kernel", name)
        tally = (RecordingTally if tracked else _BatchTally)(g, trials, bins, watch_all(g, trials))
        for lo, hi in blocks:
            tally.resolve(lo, hi, *_kernel_block(g, rng, hi - lo, grid, flip))
        out[name] = batch_digest(tally.result())
    return out


def sampler_digests() -> dict[str, str]:
    """`sample_choices_batch` picks for one row, a few rows and many rows.

    The picks are hashed as int64 values, the dtype they were pinned in, so
    a narrower pick dtype keeps the digests.
    """
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
            h.update(_array_bytes(sample_choices_batch(g, rng, trials).astype(np.int64)))
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


def hardness_digests() -> dict[str, str]:
    """`hardness_trajectory` bytes at several n.

    `matched` is hashed as int64 values, the dtype it was pinned in, so its
    narrower round type keeps the digests.
    """
    out = {}
    for n, trials in ((1, 5), (2, 9), (7, 13), (60, 40)):
        rep = hardness_trajectory(n, trials, 1000 + n)
        out[f"greedy-n{n}"] = _sha(_array_bytes(rep.matched.astype(np.int64)) + _array_bytes(rep.balance))
    return out


def paths_digests() -> dict[str, str]:
    """Every `detect_potential_paths_batch` field on sampled choices, hashed
    as int64 values, the dtype they were pinned in."""
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
        out[name] = _sha(b"".join(_array_bytes(a.astype(np.int64)) for a in (scan.length, scan.path, scan.count)))
    return out


def pinned_digest() -> str:
    """pinned_phase1_frequency on C5 with tied pinned times."""
    g5 = cycle(5, 0.5)
    got = [
        pinned_phase1_frequency(g5, 0.6, 0, 1, 0.25, {2: 0.25, 3: 0.1, 4: 0.1}, 20000, 701),
        pinned_phase1_frequency(g5, 0.6, 2, 3, 0.5, {0: 0.5, 1: 0.25, 4: 0.25}, 20000, 702),
    ]
    return _sha(repr(got).encode())


CLI_CASES = {
    "sim-vertex-k33": [
        "simulate", "--family", "complete_bipartite", "--param", "n=3", "--scheme", "recursive-vertex",
        "--T", "4", "--delta", "0.1", "--Q", "100", "--trials", "3000", "--seed", "1301",
    ],
    "sim-vertex-c5": [
        "simulate", "--family", "cycle", "--param", "n=5", "--param", "x=0.5", "--scheme", "recursive-vertex",
        "--g", "5", "--T", "4", "--delta", "0.1", "--Q", "100", "--trials", "3000", "--seed", "1302",
    ],
    "sim-edge-tree": [
        "simulate", "--family", "random_tree", "--param", "n=8", "--param", "seed=3", "--scheme", "recursive-edge",
        "--selection", "edge_tree", "--T", "6", "--delta", "0", "--Q", "100", "--trials", "3000", "--seed", "1303",
    ],
    "two-phase-t0.5": [
        "simulate", "--family", "complete", "--param", "n=7", "--scheme", "two-phase", "--t", "0.5",
        "--trials", "3000", "--seed", "1304",
    ],
    "two-phase-t1": [
        "simulate", "--family", "complete", "--param", "n=7", "--scheme", "two-phase", "--t", "1",
        "--trials", "3000", "--seed", "1305",
    ],
    "two-phase-t0": [
        "simulate", "--family", "cycle", "--param", "n=5", "--param", "x=0.5", "--scheme", "two-phase",
        "--t", "t0", "--trials", "3000", "--seed", "1306",
    ],
    "profile-rank1": [
        "profile", "--family", "star", "--param", "k=4", "--param", "x=0.25", "--scheme", "rank1-closed",
        "--trials", "3000", "--seed", "1307", "--bins", "5",
    ],
    "diag-gap": [
        "diag", "--what", "gap", "--family", "cycle", "--param", "n=5", "--param", "x=0.5", "--g", "5",
        "--T", "4", "--Q", "100", "--u", "0", "--v", "1", "--t-k", "0.5", "--trials", "2000", "--seed", "1308",
    ],
    "diag-flipping": [
        "diag", "--what", "flipping", "--family", "cycle", "--param", "n=5", "--param", "x=0.5", "--g", "5",
        "--T", "4", "--delta", "0.2", "--Q", "100", "--trials", "2000", "--seed", "1309",
    ],
    "diag-hardness": ["diag", "--what", "hardness", "--n", "20", "--t-max", "30", "--trials", "20", "--seed", "1310"],
    "generate": ["generate", "--family", "cycle_blowup", "--param", "g=5", "--param", "b=2"],
}


def cli_digests() -> dict[str, str]:
    """Each file `crslab ... --out` writes (not the `.timing.json` sidecars)."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for case, argv in CLI_CASES.items():
            target = Path(tmp) / case
            if crslab_main(argv + ["--out", str(target)]) != 0:
                raise RuntimeError(f"crslab {' '.join(argv)} failed")
            for path in sorted(target.iterdir()) if target.is_dir() else [target]:
                if not path.name.endswith(".timing.json"):
                    out[f"{case}/{path.name}"] = _sha(path.read_bytes())
    return out


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
    out.update({f"chunks/{k}": v for k, v in chunk_digests().items()})
    out.update({f"kernel/{k}": v for k, v in kernel_digests().items()})
    out.update({f"sampler/{k}": v for k, v in sampler_digests().items()})
    out.update({f"c-vertex/{k}": v for k, v in selection_digests().items()})
    out.update({f"hardness/{k}": v for k, v in hardness_digests().items()})
    out.update({f"paths/{k}": v for k, v in paths_digests().items()})
    out["pinned-phase1"] = pinned_digest()
    out.update({f"cli/{k}": v for k, v in cli_digests().items()})
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
    removed = sorted(set(pinned) - set(digests))
    new = sorted(set(digests) - set(pinned))
    changed = sorted(k for k in set(pinned) & set(digests) if pinned[k] != digests[k])
    for label, keys in (("removed", removed), ("new", new), ("changed", changed)):
        for key in keys:
            print(f"{label}: {key}")
    print(f"{len(pinned) - len(removed) - len(changed)} of {len(pinned)} pinned digests match")
    return 1 if removed or new or changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
