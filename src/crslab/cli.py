"""Command-line surface: generate | validate | selection | simulate | profile | diag | suite."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .graph import FAMILIES, Graph
from .harness import (
    CSV_VERSION,
    SCHEMES,
    ConfigError,
    ExperimentConfig,
    param_table,
    resolve_instance,
    run_experiment,
    run_suite,
    write_report,
)
from .selection import (
    EDGE_KINDS,
    INFINITE,
    edge_selection,
    parse_girth,
    phi,
    vertex_selection,
    verify_selection_conditions,
)

__all__ = ["main"]


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _family_spec(args) -> dict:
    """The instance spec of --family and its --param pairs."""
    out = {"family": args.family}
    for pair in args.param or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--param: key=value expected, got {pair!r}")
        if key in ("family", "path"):
            raise ConfigError(f"--param: {key} is not a generator parameter")
        out[key] = _parse_value(value)
    return out


def threshold(text: str):
    return text if text == "t0" else float(text)


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", metavar="PATH", help="instance JSON file")
    p.add_argument("--family", choices=sorted(FAMILIES), help="generator family")
    p.add_argument("--param", action="append", metavar="K=V", help="generator parameter (repeatable)")


def _instance_spec(args) -> dict:
    if args.instance:
        return {"path": args.instance}
    if args.family:
        return _family_spec(args)
    return {}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", required=True, choices=[s for s, (kinds, _) in SCHEMES.items() if "selectability" in kinds])
    p.add_argument("--g", default="infinite", help="odd girth parameter or 'infinite'")
    p.add_argument("--selection", choices=EDGE_KINDS, help="edge-mode selection kind")
    p.add_argument("--T", type=int, help="phase count")
    p.add_argument("--delta", type=float, help="estimate accuracy target")
    p.add_argument("--Q", type=int, help="samples per estimate (defaults from delta)")
    p.add_argument("--t", type=threshold, help="two-phase threshold in [0,1], or 't0' for the root threshold")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--name", default="report", help="report base name")
    p.add_argument("--out", metavar="DIR", help="write CSV/JSON reports here")


def _given(args, scheme: str, kind: str) -> dict:
    """The flags that were given and name a run parameter of `scheme` and `kind`, as config params."""
    return {k: getattr(args, k) for k in sorted(param_table(scheme, kind)) if getattr(args, k) is not None}


def _emit(cfg: ExperimentConfig, out_dir: str | None) -> dict:
    start = time.perf_counter()
    report = run_experiment(cfg)
    seconds = time.perf_counter() - start
    if out_dir:
        write_report(out_dir, cfg.name, cfg, report, seconds)
    return report.summary


def _cmd_generate(args) -> int:
    if args.list:
        for name in sorted(FAMILIES):
            print(name)
        return 0
    g = resolve_instance(_family_spec(args))
    if args.out:
        g.save(args.out)
    else:
        print(g.to_json())
    return 0


def _cmd_validate(args) -> int:
    g = Graph.load(args.path)
    report = g.validate_fractional_matching()
    girth = g.odd_girth()
    print(f"vertices: {g.vertex_count}  edges: {g.edge_count}")
    print(f"fractional matching: {'ok' if report.ok else 'INVALID'}")
    for v, load in report.violations[:10]:
        print(f"  load violation at vertex {v}: {load!r}")
    print(f"one-regular: {g.is_one_regular()}")
    print(f"odd girth: {'infinite' if girth == INFINITE else int(girth)}")
    return 0 if report.ok else 1


def _cmd_selection(args) -> int:
    girths = [parse_girth(tok) for tok in args.g.split(",")]
    if args.edge and args.certify:
        raise ConfigError("--certify: the certificate checks vertex-mode selection functions, not --edge")
    if args.grid < 1 or (args.certify and args.grid < 2):
        raise ConfigError("--grid: must be >= 2 with --certify" if args.certify else "--grid: must be >= 1")
    if args.out and len(girths) != 1:
        raise ConfigError("--out: exactly one --g value expected")
    if args.edge:
        sel = edge_selection(args.edge)
        print(f"edge[{args.edge}]: alpha = {sel.alpha!r}  floor = {sel.floor!r}")
    else:
        for gv in girths:
            label = "inf" if gv == INFINITE else str(gv)
            sel = vertex_selection(gv)
            print(f"g={label}: alpha = {sel.alpha!r}  floor = {sel.floor!r}")
            if args.certify:
                rep = verify_selection_conditions(sel, gv, grid_size=args.grid)
                print(
                    f"  certificate[{args.grid}]: monotone={rep.monotone_ok} floor={rep.floor_ok} "
                    f"max_violation={rep.max_violation!r} equality_slack={rep.equality_max_slack!r}"
                )
    if args.out:  # sel is the one selection printed above
        ys = np.linspace(0.0, 1.0, args.grid + 1)
        lines = [f"# {CSV_VERSION} selection", "y,c,phi"]
        for y in ys:
            y = float(y)
            lines.append(f"{y!r},{float(sel(y))!r},{float(phi(y, girths[0]))!r}")
        Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_simulate(args, kind: str) -> int:
    cfg = ExperimentConfig(
        name=args.name,
        kind=kind,
        instance=_instance_spec(args),
        scheme=args.scheme,
        trials=args.trials,
        seed=args.seed,
        bins=args.bins,
        params=_given(args, args.scheme, kind),
    )
    summary = _emit(cfg, args.out)
    keys = (
        ("min_ratio_active", "min_ratio_x", "insufficient_count")
        if kind == "selectability"
        else ("powered", "underpowered", "bins_fail", "all_pass")
    )
    print("  ".join(f"{k}={summary[k]!r}" for k in keys))
    return 0


def _cmd_diag(args) -> int:
    if args.what == "hardness":
        cfg = ExperimentConfig(
            name=args.name,
            kind="hardness",
            instance={"family": "complete_bipartite", "n": args.n},
            scheme="greedy",
            trials=args.trials,
            seed=args.seed,
            params=_given(args, "greedy", "hardness"),
        )
        summary = _emit(cfg, args.out)
        print(
            f"mean_final={summary['mean_final']!r}  reference={summary['reference_final']!r}  "
            f"sup_distance={summary['sup_distance']!r}  q_min={summary['q_min_frequency']!r}"
        )
        return 0
    params = _given(args, "recursive-vertex", "gap")
    if args.what == "flipping":
        params["t_k"] = 1.0
    cfg = ExperimentConfig(
        name=args.name,
        kind="gap",
        instance=_instance_spec(args),
        scheme="recursive-vertex",
        trials=args.trials,
        seed=args.seed,
        params=params,
    )
    summary = _emit(cfg, args.out)
    if args.what == "flipping":
        print(
            f"flips={summary['flip_count']}  violations={summary['violation_count']}  "
            f"max_paths={summary['max_paths']}"
        )
    else:
        print(
            f"gap={summary['gap']!r}  bound={summary['bound']!r}  sigma={summary['sigma']!r}  "
            f"within_bound={summary['within_bound']}  violations={summary['violation_count']}"
        )
    return 0


def _cmd_suite(args) -> int:
    result = run_suite(args.config, out_dir=args.out_dir)
    for entry in result.entries:
        status = "ok" if entry["passed"] else "FAIL"
        print(f"{entry['name']}: {status}")
        for chk in entry["checks"]:
            mark = "pass" if chk["passed"] else "FAIL"
            print(f"  {chk['metric']} {chk['op']} {chk['value']!r}: actual {chk['actual']!r} [{mark}]")
    print(f"suite: {'ok' if result.passed else 'FAIL'} -> {result.out_dir}")
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit an instance JSON from a generator family")
    p.add_argument("--family", choices=sorted(FAMILIES))
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--list", action="store_true", help="list families and exit")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("selection", help="selection-function values and certificate")
    p.add_argument("--g", default="infinite", help="comma list of odd girths / 'infinite'")
    p.add_argument("--edge", choices=EDGE_KINDS, help="edge-mode kind instead of vertex mode")
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--certify", action="store_true", help="run the vertex-mode certificate on the grid")
    p.add_argument("--out", metavar="PATH", help="write a (y, c, phi) CSV table")
    p.set_defaults(fn=_cmd_selection)

    p = sub.add_parser("simulate", help="per-edge selectability report")
    _add_instance_flags(p)
    _add_run_flags(p)
    p.set_defaults(fn=lambda a: _cmd_simulate(a, "selectability"))

    p = sub.add_parser("profile", help="binned conditional acceptance report")
    _add_instance_flags(p)
    _add_run_flags(p)
    p.set_defaults(fn=lambda a: _cmd_simulate(a, "profile"))

    p = sub.add_parser("diag", help="coupling diagnostics and the hardness trajectory")
    p.add_argument("--what", required=True, choices=("flipping", "gap", "hardness"))
    _add_instance_flags(p)
    p.add_argument("--g", default="infinite")
    p.add_argument("--T", type=int, default=10)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--Q", type=int)
    p.add_argument("--u", type=int, default=0)
    p.add_argument("--v", type=int, default=1)
    p.add_argument("--t-k", dest="t_k", type=float)
    p.add_argument("--n", type=int, default=500, help="hardness side size")
    p.add_argument("--t-max", dest="t_max", type=int)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--name", default="diag")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(fn=_cmd_diag)

    p = sub.add_parser("suite", help="run a JSON experiment suite")
    p.add_argument("config")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
