"""The benchmark's workloads: experiment configs, work counts and output checks.

Every workload is a list of crslab experiment configs built from the run's
seed and a size scale (1.0 for the benchmark, smaller for the self-test).
`--seed 0` runs the acceptance-test seeds; seed s shifts every experiment
seed by 1000 * s. Instances are fixed, so the work per repeat does not
depend on the seed.

Each config travels with an `expect` entry: the statistical band its report
must fall in. Every edge's ratio, and their mean, must satisfy
`|value - ref| <= 6 sigma + tol`, with sigma the binomial error at the run's
size and `tol` covering estimate-table noise. `ref` is the edge mean over
six seeds at scale 1, where it moved by less than 0.002 and no edge strayed
beyond 4.2 sigma; the bands also held on seeds 0-7 at the self-test's scale.
"""

from __future__ import annotations

import math

SEED_STRIDE = 1000

WORKLOADS = {
    "vertex-fill-k66": "recursive-vertex on K_{6,6}: large table-fill batches (t_stop < 1) dominate, choice sampler in play",
    "edge-phases-tree16": "recursive-edge on a 16-vertex tree: many small fill phases, per-call overhead and argsort dominate",
    "two-phase-k61": "two-phase on K_61: no tables, all runs to t_stop = 1, degree-60 choice sampler and chunk memory",
    "diag-suite": "run_suite of gap, hardness and rank1 profile experiments with reports on disk: diagnostics and report I/O",
}


def _n(base: int, scale: float, lo: int = 1) -> int:
    return max(lo, round(base * scale))


def _vertex_fill_k66(seed: int, scale: float):
    cfg = {
        "name": "vertex-fill-k66",
        "kind": "selectability",
        "instance": {"family": "complete_bipartite", "n": 6},
        "scheme": "recursive-vertex",
        "trials": _n(50_000, scale),
        "seed": 105 + seed,
        "params": {"g": "infinite", "T": 20, "delta": 0.05, "Q": _n(750, scale, 20)},
    }
    return [(cfg, {"ratio": "ratio_x", "ref": 0.434, "tol": 0.25 / math.sqrt(cfg["params"]["Q"])})]


def _edge_phases_tree16(seed: int, scale: float):
    cfg = {
        "name": "edge-phases-tree16",
        "kind": "selectability",
        "instance": {"family": "random_tree", "n": 16, "seed": 2},
        "scheme": "recursive-edge",
        "trials": _n(40_000, scale),
        "seed": 104 + seed,
        "params": {"selection": "edge_tree", "T": 120, "delta": 0.0, "Q": _n(1000, scale, 20)},
    }
    return [(cfg, {"ratio": "ratio_active", "ref": 0.418, "tol": 0.25 / math.sqrt(cfg["params"]["Q"])})]


def _two_phase_k61(seed: int, scale: float):
    cfg = {
        "name": "two-phase-k61",
        "kind": "selectability",
        "instance": {"family": "complete", "n": 61},
        "scheme": "two-phase",
        "trials": _n(80_000, scale),
        "seed": 406 + seed,
        "params": {"t": (math.sqrt(3.0) - 1.0) / 2.0},
    }
    return [(cfg, {"ratio": "ratio_x", "ref": 0.557, "tol": 0.005})]


def _diag_suite(seed: int, scale: float):
    gap = {"T": 10, "delta": 0.1, "Q": _n(3000, scale, 20)}
    no_violation = [{"metric": "violation_count", "op": "==", "value": 0}]
    return [
        ({
            "name": "gap-c5",
            "kind": "gap",
            "instance": {"family": "cycle", "n": 5, "x": 0.5},
            "scheme": "recursive-vertex",
            "trials": _n(200_000, scale),
            "seed": 108 + seed,
            "params": {"g": 5, **gap, "u": 0, "v": 1, "t_k": 1.0},
            "checks": no_violation,
        }, {}),
        ({
            "name": "gap-k33",
            "kind": "gap",
            "instance": {"family": "complete_bipartite", "n": 3},
            "scheme": "recursive-vertex",
            "trials": _n(200_000, scale),
            "seed": 208 + seed,
            "params": {"g": "infinite", **gap, "u": 0, "v": 3, "t_k": 0.5},
            "checks": no_violation,
        }, {}),
        ({
            "name": "hardness-n2000",
            "kind": "hardness",
            "instance": {"family": "complete_bipartite", "n": 2000},
            "scheme": "greedy",
            "trials": _n(400, scale, 4),
            "seed": 109 + seed,
            "checks": [{"metric": "sup_distance", "op": "<=", "value": 0.02}],
        }, {}),
        ({
            "name": "rank1-star10",
            "kind": "profile",
            "instance": {"family": "star", "k": 10, "x": 0.1},
            "scheme": "rank1-closed",
            "trials": _n(200_000, scale),
            "seed": 103 + seed,
            "checks": [{"metric": "worst_gap_sigma", "op": "<=", "value": 6.0}],
        }, {}),
    ]


_FACTORIES = {
    "vertex-fill-k66": _vertex_fill_k66,
    "edge-phases-tree16": _edge_phases_tree16,
    "two-phase-k61": _two_phase_k61,
    "diag-suite": _diag_suite,
}


def experiments(workload: str, seed: int, scale: float = 1.0) -> list[tuple[dict, dict]]:
    """(config dict, expected band) for each experiment of the workload."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return _FACTORIES[workload](SEED_STRIDE * seed, scale)


def is_suite(workload: str) -> bool:
    return workload == "diag-suite"


def row_steps(cfg: dict, n: int, m: int) -> int:
    """Rows x sequential engine steps of one experiment (n vertices, m edges).

    The same count the traced run reads from the engine calls' input shapes.
    """
    trials, p = cfg["trials"], cfg.get("params", {})
    if cfg["kind"] == "hardness":
        return trials * 2 * cfg["instance"]["n"]
    if cfg["scheme"] == "rank1-closed":
        return trials * m
    if cfg["scheme"] == "two-phase":
        return trials * n
    if cfg["scheme"] == "recursive-edge":
        return (p["T"] - 1) * m * p["Q"] * m + trials * m
    fill = (p["T"] - 1) * 2 * m * p["Q"] * n
    runs = 2 if cfg["kind"] == "gap" else 1  # gap replays each trial with and without v
    return fill + runs * trials * n


# -- output checks ------------------------------------------------------------------


def _in_unit(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def check_report(cfg: dict, expect: dict, summary: dict, rows: list[list]) -> list[str]:
    """Structural invariants and the statistical band; returns the failures."""
    kind = cfg["kind"]
    bad = []
    if kind == "selectability":
        if summary["insufficient_count"] != 0:
            bad.append(f"{summary['insufficient_count']} edges never active")
        trials = cfg["trials"]
        ref, tol = expect["ref"], expect["tol"]
        values, variances = [], []
        for row in rows:
            eid, xe, act, acc, ra, rx = row[0], row[3], row[4], row[5], row[6], row[9]
            if not 0 <= acc <= act:
                bad.append(f"edge {eid}: accepted {acc} > active {act}")
            # accepted/active is a fraction; accepted/(trials x) is an estimate
            # of one and may exceed 1 by sampling noise at small sizes
            if not (_in_unit(ra) and isinstance(rx, float) and rx >= 0.0):
                bad.append(f"edge {eid}: ratio_active outside [0, 1] or ratio_x negative")
                continue
            if expect["ratio"] == "ratio_x":
                p = ref * xe
                value, sigma = rx, math.sqrt(p * (1.0 - p) / trials) / xe
            else:
                value, sigma = ra, math.sqrt(ref * (1.0 - ref) / max(act, 1))
            values.append(value)
            variances.append(sigma * sigma)
            if abs(value - ref) > 6.0 * sigma + tol:
                bad.append(f"edge {eid}: {expect['ratio']} {value:.4f} outside {ref} +- {6.0 * sigma + tol:.4f}")
        if values:
            mean, sigma = sum(values) / len(values), math.sqrt(sum(variances)) / len(values)
            if abs(mean - ref) > 6.0 * sigma + tol:
                bad.append(f"edge mean {expect['ratio']} {mean:.4f} outside {ref} +- {6.0 * sigma + tol:.4f}")
        if len(rows) != summary["edges"]:
            bad.append(f"{len(rows)} rows for {summary['edges']} edges")
    elif kind == "gap":
        s = summary
        if s["violation_count"] != 0:
            bad.append(f"violation_count {s['violation_count']}")
        if not 0 <= s["count_inner"] <= s["count_outer"] <= s["trials"]:
            bad.append("conditioning counts out of order")
        # t_k = 1 leaves no trial with Y_v > t_k: the inner mean is undefined
        # and the run is a pure flip-indicator audit
        inner_ok = _in_unit(s["mean_inner"]) or (s["count_inner"] == 0 and math.isnan(s["mean_inner"]))
        if not (inner_ok and _in_unit(s["mean_outer"])):
            bad.append("conditional means outside [0, 1]")
        elif s["count_inner"] and s["gap"] > s["bound"] + 6.0 * s["sigma"]:
            bad.append(f"gap {s['gap']:.5f} above bound {s['bound']:.5f} + 6 sigma")
    elif kind == "hardness":
        s = summary
        if len(rows) != 2 * s["n"] + 1:
            bad.append("trajectory length")
        means = [r[1] for r in rows]
        if any(b < a for a, b in zip(means, means[1:])) or not all(_in_unit(v) for v in means):
            bad.append("matched fraction not a nondecreasing trajectory in [0, 1]")
        if not all(_in_unit(r[3]) for r in rows):
            bad.append("Q_t frequency outside [0, 1]")
        if s["final_error"] > 0.01 or s["sup_distance"] > 0.02:
            bad.append(f"trajectory off the fluid limit (final {s['final_error']:.4f}, sup {s['sup_distance']:.4f})")
    elif kind == "profile":
        s = summary
        if any(not 0 <= r[5] <= r[4] for r in rows):
            bad.append("a bin accepted more than it saw")
        if s["bins_pass"] + s["bins_fail"] != s["powered"] or s["powered"] + s["underpowered"] != s["bins"]:
            bad.append("bin counts do not add up")
        if s["powered"] == 0 or s["worst_gap_sigma"] > 6.0:
            bad.append(f"profile off its target by {s['worst_gap_sigma']:.2f} sigma")
    return bad


def shortfalls(cfg: dict, summary: dict, rows: list[list]) -> dict:
    """Documented shortfalls, recorded beside their thresholds and never gated."""
    if cfg["name"] == "vertex-fill-k66":
        from crslab.selection import INFINITE, alpha_closed_form

        # criterion 5: worst-case binomial sigma over the edges' ratio_x
        sigma = max(math.sqrt(max(r[9] * r[3] * (1.0 - r[9] * r[3]), 1e-12) / cfg["trials"]) / r[3] for r in rows)
        return {
            "criterion5_min_ratio_x": summary["min_ratio_x"],
            "criterion5_threshold": 0.95**2 * alpha_closed_form(INFINITE) - 3.0 * sigma,
        }
    if cfg["kind"] == "hardness":
        return {"criterion9_q_min_frequency": summary["q_min_frequency"], "criterion9_threshold": 0.99}
    return {}
