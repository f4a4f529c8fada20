"""Experiment orchestration: configs, reports, and the suite runner.

A config names an instance, a scheme and a trial budget; runners produce a
flat summary dict (for checks) plus one CSV table (for plotting). Reports
are deterministic byte-for-byte given the same config and seed: wall-clock
timing and the engine thread count go to a separate sidecar file, so data
files can be compared across runs and machines.
"""

from __future__ import annotations

import copy
import json
import math
import operator
import re
import time
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import matching
from .diagnostics import correlation_gap
from .graph import FAMILIES, Graph, _integral, generate
from .hardness import hardness_trajectory, m_de
from .numerics import wilson_interval
from .recursive import fill_tables, simulate_edge, simulate_rank1, simulate_vertex
from .selection import EDGE_KINDS, INFINITE, edge_selection, parse_girth, vertex_selection
from .two_phase import find_t0, simulate_two_phase

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "SuiteResult",
    "validate_config",
    "resolve_instance",
    "run_experiment",
    "write_report",
    "run_suite",
]

CSV_VERSION = "crslab-report v1"
UNDERPOWERED_COUNT = 100
CHECK_OPS = {
    ">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt, "==": operator.eq, "!=": operator.ne,
}
_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass
class ExperimentConfig:
    name: str
    kind: str
    instance: dict
    scheme: str
    trials: int
    seed: int
    bins: int = 20
    params: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    # The run parameters as validate_config parsed them, defaults filled in.
    parsed: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        validate_config(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("experiment: must be an object")
        known = {f.name: f for f in fields(cls) if f.init}
        for key in raw:
            if key not in known:
                raise ConfigError(f"{key}: unknown field")
        for name, f in known.items():
            if name not in raw and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{name}: required")
        return cls(**raw)

    def echo(self) -> dict:
        """Config as a plain JSON-ready dict (normalized field order)."""
        return {f.name: copy.deepcopy(getattr(self, f.name)) for f in fields(self) if f.init}


def _as_int(value, fld: str, lo: int | None = None, hi: int | None = None) -> int:
    value = _integral(value)
    if value is None:
        raise ConfigError(f"{fld}: integer required")
    if lo is not None and value < lo:
        raise ConfigError(f"{fld}: must be >= {lo}")
    if hi is not None and value > hi:
        raise ConfigError(f"{fld}: must be <= {hi}")
    return value


def _unit(interval: str):
    """Parser for a number in `interval`, written like "[0, 1)": a parenthesis excludes that end."""

    def parse(value, fld: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{fld}: number required")
        if not (0 <= value <= 1) or (value == 0 and interval[0] == "(") or (value == 1 and interval[-1] == ")"):
            raise ConfigError(f"{fld}: must lie in {interval}")
        return float(value)

    return parse


def _girth(value, fld: str):
    try:
        return parse_girth(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{fld}: odd integer >= 3 or 'infinite'") from exc


def _selection(value, fld: str = "params.selection") -> str:
    if not isinstance(value, str) or value not in EDGE_KINDS:
        raise ConfigError(f"{fld}: must be one of {tuple(EDGE_KINDS)}")
    return value


def _threshold(value, fld: str) -> float:
    return find_t0() if value == "t0" else _unit("[0, 1]")(value, fld)


_positive = partial(_as_int, lo=1)
_nonnegative = partial(_as_int, lo=0)
REQUIRED = object()  # the default of a parameter that must be given

# Schemes -> (the kinds they run, their run parameters, their simulation). A
# run parameter is name -> (parser, parsed value when absent); a callable
# default is applied to the values parsed before it. simulate(cfg, g) gives
# (SimResult, the selection function or None) and names its engine when called.
_RECURSIVE = {"T": (_positive, REQUIRED), "delta": (_unit("[0, 1)"), REQUIRED), "Q": (_positive, None)}
SCHEMES = {
    "recursive-vertex": (("selectability", "profile", "gap"), {"g": (_girth, INFINITE), **_RECURSIVE}, lambda cfg, g: (
        simulate_vertex(g, sel := vertex_selection(cfg.parsed["g"]), cfg.parsed["T"], cfg.parsed["delta"], cfg.trials,
                        cfg.seed, Q=cfg.parsed["Q"], bins=cfg.bins), sel)),
    # an absent selection gets the error of an unknown one, which lists the kinds
    "recursive-edge": (("selectability", "profile"),
                       {"selection": (_selection, lambda parsed: _selection(None)), **_RECURSIVE}, lambda cfg, g: (
        simulate_edge(g, sel := edge_selection(cfg.parsed["selection"]), cfg.parsed["T"], cfg.parsed["delta"], cfg.trials,
                      cfg.seed, Q=cfg.parsed["Q"], bins=cfg.bins), sel)),
    "rank1-closed": (("selectability", "profile"), {},
                     lambda cfg, g: (simulate_rank1(g, cfg.trials, cfg.seed, bins=cfg.bins), None)),
    "two-phase": (("selectability",), {"t": (_threshold, REQUIRED)},
                  lambda cfg, g: (simulate_two_phase(g, cfg.parsed["t"], cfg.trials, cfg.seed, bins=cfg.bins), None)),
    "greedy": (("hardness",), {"t_max": (_nonnegative, lambda parsed: math.floor(1.9 * parsed["n"]))}, None),
}
GAP_PARAMS = {"u": (_nonnegative, REQUIRED), "v": (_nonnegative, REQUIRED), "t_k": (_unit("(0, 1]"), REQUIRED)}


def param_table(scheme: str, kind: str) -> dict:
    """The run parameters a config of this scheme and kind takes."""
    return {**SCHEMES[scheme][1], **(GAP_PARAMS if kind == "gap" else {})}


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming the first invalid field, else keep the parsed values.

    Every ExperimentConfig runs it on construction. `trials`, `seed` and
    `bins` become ints; `cfg.parsed` gets the run parameters (and `n` for
    kind=hardness) with their defaults, and the runners read nothing else.
    `cfg.params` stays as given, so the report echoes it.
    """
    if not isinstance(cfg.name, str) or not _NAME_RE.fullmatch(cfg.name):
        raise ConfigError("name: non-empty [A-Za-z0-9._-]+ required")
    if not isinstance(cfg.kind, str) or cfg.kind not in KINDS:
        raise ConfigError(f"kind: must be one of {tuple(KINDS)}")
    cfg.trials = _positive(cfg.trials, "trials")
    cfg.bins = _positive(cfg.bins, "bins")
    cfg.seed = _as_int(cfg.seed, "seed", lo=0, hi=2**64 - 1)
    if not isinstance(cfg.scheme, str) or cfg.scheme not in SCHEMES:
        raise ConfigError(f"scheme: must be one of {tuple(SCHEMES)}")
    kinds = SCHEMES[cfg.scheme][0]
    if cfg.kind not in kinds:
        runners = " or ".join(s for s in SCHEMES if cfg.kind in SCHEMES[s][0])
        raise ConfigError(f"scheme: kind={cfg.kind} requires scheme {runners}; "
                          f"{cfg.scheme} is only valid for kind={' or '.join(kinds)}")
    parsed = {}
    if cfg.kind == "hardness":
        instance = cfg.instance if isinstance(cfg.instance, dict) else {}
        if instance.get("family") != "complete_bipartite" or "n" not in instance:
            raise ConfigError("instance: kind=hardness requires {family: complete_bipartite, n: ...}")
        for key in instance:
            if key not in ("family", "n"):
                raise ConfigError(f"instance.{key}: kind=hardness takes only family and n")
        parsed["n"] = _positive(instance["n"], "instance.n")
    elif not isinstance(cfg.instance, dict) or not ("path" in cfg.instance or "family" in cfg.instance):
        raise ConfigError("instance: object with 'family' (plus parameters) or 'path' required")
    elif not isinstance(cfg.instance.get("path", ""), str):
        raise ConfigError("instance.path: string required")
    if not isinstance(cfg.params, dict):
        raise ConfigError("params: must be an object")
    table = param_table(cfg.scheme, cfg.kind)
    for key in cfg.params:
        if key not in table:
            raise ConfigError(f"params.{key}: not a parameter of scheme {cfg.scheme}")
    for key, (parse, default) in table.items():
        if key in cfg.params:
            parsed[key] = parse(cfg.params[key], f"params.{key}")
        elif default is REQUIRED:
            where = "kind=gap" if key in GAP_PARAMS else f"scheme {cfg.scheme}"
            raise ConfigError(f"params.{key}: required for {where}")
        else:
            parsed[key] = default(parsed) if callable(default) else default
    if parsed.get("delta") == 0.0 and parsed["Q"] is None:
        raise ConfigError("params.Q: required when delta is 0")
    if not isinstance(cfg.checks, list):
        raise ConfigError("checks: must be a list")
    for i, chk in enumerate(cfg.checks):
        if not isinstance(chk, dict) or set(chk) != {"metric", "op", "value"}:
            raise ConfigError(f"checks[{i}]: object with metric/op/value required")
        if not isinstance(chk["metric"], str) or not chk["metric"]:
            raise ConfigError(f"checks[{i}].metric: non-empty string required")
        if not isinstance(chk["op"], str) or chk["op"] not in CHECK_OPS:
            raise ConfigError(f"checks[{i}].op: must be one of {tuple(CHECK_OPS)}")
        if isinstance(chk["value"], (str, list, dict)) or chk["value"] is None:
            raise ConfigError(f"checks[{i}].value: number or boolean required")
        if chk["metric"] not in KINDS[cfg.kind][0]:
            raise ConfigError(f"checks[{i}].metric: unknown metric {chk['metric']!r} for kind={cfg.kind}")
    cfg.parsed = parsed


def resolve_instance(spec: dict) -> Graph:
    """The instance graph; a loaded file must be a fractional matching.

    Generated families always are. A file may hold any loads (`crslab
    validate` reports them), but no scheme can run on a vertex load above 1.
    """
    if "path" in spec:
        g = Graph.load(spec["path"])
        report = g.validate_fractional_matching()
        if not report.ok:
            raise ConfigError(f"instance: {report}")
        return g
    params = {k: v for k, v in spec.items() if k != "family"}
    family = spec.get("family")
    if family not in FAMILIES:
        raise ConfigError(f"instance.family: must be one of {sorted(FAMILIES)}")
    try:
        return generate(family, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"instance: {exc}") from exc


def _instance(cfg: ExperimentConfig) -> Graph:
    """The config's instance graph, checked against what its scheme needs."""
    g = resolve_instance(cfg.instance)
    if cfg.scheme == "rank1-closed" and abs(float(np.sum(g.x)) - 1.0) > 1e-9:
        raise ConfigError("instance: rank-1 closed form needs element values summing to 1")
    return g


# -- runners ---------------------------------------------------------------------


@dataclass
class ExperimentReport:
    kind: str
    summary: dict
    columns: list[str]
    rows: list[list]


def _py(value):
    """Coerce numpy scalars so json/repr formatting stays deterministic."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _run_selectability(cfg: ExperimentConfig) -> ExperimentReport:
    """Per-edge acceptance frequencies with Wilson intervals."""
    g = _instance(cfg)
    sim, _ = SCHEMES[cfg.scheme][2](cfg, g)
    columns = [
        "eid", "u", "v", "x", "active", "accepted",
        "ratio_active", "ra_lo", "ra_hi", "ratio_x", "rx_lo", "rx_hi", "insufficient",
    ]
    rows = []
    min_ra = min_rx = math.inf
    max_ra = max_rx = -math.inf
    argmin_ra = argmin_rx = -1
    insufficient = 0
    ratio_active, ratio_x = sim.ratio_active(), sim.ratio_x(g)
    for eid in range(g.edge_count):
        act = int(sim.active[eid])
        acc = int(sim.accepted[eid])
        x = float(g.x[eid])
        thin = act == 0 or x == 0.0
        if thin:
            insufficient += 1
            rows.append([eid, int(g.eu[eid]), int(g.ev[eid]), x, act, acc,
                         "", "", "", "", "", "", True])
            continue
        ra, rx = float(ratio_active[eid]), float(ratio_x[eid])
        ra_lo, ra_hi = wilson_interval(acc, act)
        px_lo, px_hi = wilson_interval(acc, cfg.trials)
        rx_lo, rx_hi = px_lo / x, px_hi / x
        rows.append([eid, int(g.eu[eid]), int(g.ev[eid]), x, act, acc,
                     ra, ra_lo, ra_hi, rx, rx_lo, rx_hi, False])
        if ra < min_ra:
            min_ra, argmin_ra = ra, eid
        if rx < min_rx:
            min_rx, argmin_rx = rx, eid
        max_ra = max(max_ra, ra)
        max_rx = max(max_rx, rx)
    summary = {
        "edges": g.edge_count,
        "trials": cfg.trials,
        "insufficient_count": insufficient,
        "min_ratio_active": min_ra if insufficient < g.edge_count else math.nan,
        "max_ratio_active": max_ra if insufficient < g.edge_count else math.nan,
        "min_ratio_x": min_rx if insufficient < g.edge_count else math.nan,
        "max_ratio_x": max_rx if insufficient < g.edge_count else math.nan,
        "argmin_edge_active": argmin_ra,
        "argmin_edge_x": argmin_rx,
    }
    return ExperimentReport("selectability", summary, columns, rows)


def _profile_band(cfg: ExperimentConfig, sel, mid: float, target: float) -> tuple[float, float, bool]:
    """(band_lo, band_hi, plain) for one bin; plain adds the undiscounted check."""
    if cfg.scheme == "rank1-closed":
        return target, target, True
    T, delta = cfg.parsed["T"], cfg.parsed["delta"]
    discount = (1.0 - delta) / (1.0 + delta) * (1.0 - 4.0 / (sel.floor * T * mid))
    # the engine's own 1/(1 + 1/(CTy)) thinning dominates small-y bins; the
    # plain +/- 3 sigma match is only meaningful where it is negligible
    plain = cfg.scheme == "recursive-edge" and mid >= 0.5
    return discount * target, target, plain


def _run_profile(cfg: ExperimentConfig) -> ExperimentReport:
    """Binned conditional acceptance versus the scheme's target curve."""
    g = _instance(cfg)
    sim, sel = SCHEMES[cfg.scheme][2](cfg, g)
    bins = cfg.bins
    act_b = sim.act_bin.sum(axis=0)
    acc_b = sim.acc_bin.sum(axis=0)
    if cfg.scheme == "rank1-closed":
        target_fn = lambda y: math.exp(-y)  # noqa: E731
    else:
        target_fn = sel
    columns = ["bin", "lo", "hi", "mid", "active", "accepted", "rate", "sigma",
               "target", "band_lo", "band_hi", "status"]
    rows = []
    passed = failed = underpowered = 0
    worst_gap = 0.0
    for b in range(bins):
        lo, hi = b / bins, (b + 1) / bins
        mid = (lo + hi) / 2.0
        act, acc = int(act_b[b]), int(acc_b[b])
        target = float(target_fn(mid))
        band_lo, band_hi, plain = _profile_band(cfg, sel, mid, target)
        if act < UNDERPOWERED_COUNT:
            underpowered += 1
            rate = acc / act if act else ""
            rows.append([b, lo, hi, mid, act, acc, rate, "", target, band_lo, band_hi, "underpowered"])
            continue
        rate = acc / act
        sigma = math.sqrt(max(rate * (1.0 - rate), 1e-12) / act)
        w_lo, w_hi = wilson_interval(acc, act, z=3.0)
        ok = w_hi >= band_lo and w_lo <= band_hi
        if plain:
            ok = ok and w_lo <= target <= w_hi
        passed += ok
        failed += not ok
        worst_gap = max(worst_gap, max(band_lo - rate, rate - band_hi) / sigma)
        rows.append([b, lo, hi, mid, act, acc, rate, sigma, target, band_lo, band_hi,
                     "pass" if ok else "fail"])
    summary = {
        "bins": bins,
        "powered": passed + failed,
        "underpowered": underpowered,
        "bins_pass": passed,
        "bins_fail": failed,
        "all_pass": failed == 0,
        "worst_gap_sigma": worst_gap,
    }
    return ExperimentReport("profile", summary, columns, rows)


def _run_gap(cfg: ExperimentConfig) -> ExperimentReport:
    g = _instance(cfg)
    p = cfg.parsed
    u, v = p["u"], p["v"]
    for fld, w in (("u", u), ("v", v)):
        if w >= g.vertex_count:
            raise ConfigError(f"params.{fld}: vertex {w} outside 0..{g.vertex_count - 1}")
    try:
        g.edge_id(u, v)
    except KeyError:
        raise ConfigError(f"params.v: ({u},{v}) is not an edge of the instance") from None
    sel = vertex_selection(p["g"])
    table = fill_tables(g, sel, p["T"], p["delta"], p["Q"], cfg.seed)
    rep = correlation_gap(g, sel, table, u, v, p["t_k"], cfg.trials, cfg.seed)
    summary = {key: getattr(rep, key) for key in KINDS["gap"][0]}
    columns = list(summary)
    return ExperimentReport("gap", summary, columns, [[summary[c] for c in columns]])


def _run_hardness(cfg: ExperimentConfig) -> ExperimentReport:
    n, t_max = cfg.parsed["n"], cfg.parsed["t_max"]
    rep = hardness_trajectory(n, cfg.trials, cfg.seed)
    mean = rep.mean_trajectory
    ref = rep.reference
    q_freq = rep.q_frequency
    columns = ["t", "mean_matched_frac", "reference", "q_frequency"]
    rows = [[int(t), float(mean[t]), float(ref[t]), float(q_freq[t])] for t in range(2 * n + 1)]
    summary = {
        "n": n,
        "trials": cfg.trials,
        "t_max": t_max,
        "mean_final": rep.mean_final,
        "reference_final": m_de(2.0),
        "final_error": abs(rep.mean_final - m_de(2.0)),
        "sup_distance": rep.sup_distance,
        "q_min_frequency": rep.q_min_frequency(t_max),
        "q_all_frequency": rep.q_all_frequency(t_max),
    }
    return ExperimentReport("hardness", summary, columns, rows)


# Experiment kinds -> (the keys of their report summary in order, a check names one; their runner).
KINDS = {
    "selectability": (("edges", "trials", "insufficient_count", "min_ratio_active", "max_ratio_active",
                       "min_ratio_x", "max_ratio_x", "argmin_edge_active", "argmin_edge_x"), _run_selectability),
    "profile": (("bins", "powered", "underpowered", "bins_pass", "bins_fail", "all_pass", "worst_gap_sigma"), _run_profile),
    "gap": (("u", "v", "t_k", "trials", "gap", "sigma", "bound", "within_bound", "mean_inner", "mean_outer",
             "count_inner", "count_outer", "flip_count", "violation_count", "max_paths"), _run_gap),
    "hardness": (("n", "trials", "t_max", "mean_final", "reference_final", "final_error", "sup_distance",
                  "q_min_frequency", "q_all_frequency"), _run_hardness),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """The report of a validated config: the one entry that runs a config, of any kind."""
    return KINDS[cfg.kind][1](cfg)


# -- report files ----------------------------------------------------------------


def _cell(value) -> str:
    value = _py(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(out_dir: str | Path, name: str, cfg: ExperimentConfig, report: ExperimentReport, seconds: float) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"# {CSV_VERSION} {report.kind}", ",".join(report.columns)]
    lines.extend(",".join(_cell(v) for v in row) for row in report.rows)
    (out / f"{name}.csv").write_text("\n".join(lines) + "\n")
    payload = {
        "kind": report.kind,
        "config": cfg.echo(),
        "summary": {k: _py(v) for k, v in report.summary.items()},
    }
    (out / f"{name}.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    (out / f"{name}.timing.json").write_text(json.dumps({"seconds": seconds, "workers": matching.WORKERS}) + "\n")


# -- suite -----------------------------------------------------------------------


@dataclass
class SuiteResult:
    out_dir: Path
    entries: list[dict]

    @property
    def passed(self) -> bool:
        return all(e["passed"] for e in self.entries)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def load_suite_config(path: str | Path) -> tuple[list[ExperimentConfig], str]:
    """The suite's configs and out_dir, every entry checked before any runs.

    Each non-hardness instance is resolved and checked here too, so a bad
    generator parameter, instance file or rank-1 mass names its
    `experiments[i]` and stops the suite before a report is written.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"suite: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("suite: top-level object required")
    for key in raw:
        if key not in ("out_dir", "experiments"):
            raise ConfigError(f"{key}: unknown field")
    out_dir = raw.get("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir: string required")
    experiments = raw.get("experiments", [])
    if not isinstance(experiments, list):
        raise ConfigError("experiments: must be a list")
    configs = []
    seen = set()
    for i, entry in enumerate(experiments):
        try:
            cfg = ExperimentConfig.from_dict(entry)
            if cfg.kind != "hardness":  # a hardness instance is never built
                _instance(cfg)
        except ConfigError as exc:
            raise ConfigError(f"experiments[{i}].{exc}") from exc
        if cfg.name in seen:
            raise ConfigError(f"experiments[{i}].name: duplicate {cfg.name!r}")
        seen.add(cfg.name)
        configs.append(cfg)
    return configs, out_dir


def run_suite(path: str | Path, out_dir: str | Path | None = None) -> SuiteResult:
    """Execute every configured experiment; exit code 1 iff a check failed."""
    configs, cfg_out = load_suite_config(path)
    out = Path(out_dir) if out_dir is not None else Path(path).parent / cfg_out
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    total_start = time.perf_counter()
    for cfg in configs:
        start = time.perf_counter()
        report = run_experiment(cfg)
        seconds = time.perf_counter() - start
        write_report(out, cfg.name, cfg, report, seconds)
        checks = []
        for chk in cfg.checks:
            actual = _py(report.summary[chk["metric"]])  # validate_config checked the name
            ok = CHECK_OPS[chk["op"]](actual, chk["value"])
            checks.append({
                "metric": chk["metric"],
                "op": chk["op"],
                "value": chk["value"],
                "actual": actual,
                "passed": bool(ok),
            })
        entries.append({"name": cfg.name, "kind": cfg.kind, "checks": checks,
                        "passed": all(c["passed"] for c in checks)})
    result = SuiteResult(out, entries)
    (out / "suite.json").write_text(
        json.dumps({"experiments": entries, "passed": result.passed}, sort_keys=True, indent=2) + "\n"
    )
    (out / "suite.timing.json").write_text(
        json.dumps({"seconds": time.perf_counter() - total_start, "workers": matching.WORKERS}) + "\n"
    )
    return result
