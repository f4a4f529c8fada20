"""crslab benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload vertex-fill-k66 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Runs the workload's experiments through the public harness API
(`run_experiment`, or `run_suite` for diag-suite) in this process, repeating
the whole workload until `--seconds` have passed, and checks every report
each repeat writes. It prints each metric as `name value unit`, then one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  run_s            median over repeats of the wall seconds from the first
                   engine call to the result in hand (table fill included)
  setup_s          median over fresh interpreters of the wall seconds spent
                   importing crslab, validating the configs, resolving the
                   instances and building the selection functions
  row_steps_per_s  rows x sequential engine steps per second of run_s
  peak_rss_mb      peak RSS of this process and the set-up children
Both times are scaled to reference-machine seconds by a probe timed next to
each measurement (probe.py), because a shared VM's speed drifts by tens of
percent within minutes; the raw wall times stay in the BENCH_*.json result.
--trace 1 alternates untraced and traced repeats and reports per-layer
metrics from spans recorded around crslab's public functions (spans.py),
plus the tracing overhead: traced minus untraced run_s.

An operation is one experiment; it fails if it raises, breaks a structural
invariant or its statistical band (workloads.py), or writes report bytes that
differ from the first repeat's. Reports, BENCH_*.json results and spans go
to .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import spans as spanlib
import workloads
from probe import REFERENCE_S, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
MIN_REPEATS = 3

# Timed in a fresh interpreter: import, config validation, instance and
# selection-function construction, exactly what a crslab run pays first.
# The probe that follows (its second call, caches warm) gives the speed
# the machine ran at.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from crslab import harness, selection
for raw in json.loads(sys.argv[2]):
    cfg = harness.ExperimentConfig.from_dict(raw)
    if cfg.kind != "hardness":
        harness.resolve_instance(cfg.instance)
    if cfg.scheme == "recursive-vertex":
        selection.vertex_selection(selection.parse_girth(str(cfg.params["g"])))
    elif cfg.scheme == "recursive-edge":
        selection.edge_selection(cfg.params["selection"])
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import numpy
from probe import Probe
probe = Probe(numpy)
probe()
print(setup, probe())
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0, help="0 runs the acceptance-test seeds")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="size factor (the self-test runs tiny sizes)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        ap.error("--seed must be >= 0, --seconds and --scale > 0")
    return args


# -- environment ---------------------------------------------------------------------


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _llc_bytes() -> int | None:
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level >= best[0]:
            best = (level, value)
    return best[1] if best else None


def environment(np) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "crslab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc_bytes": _llc_bytes(),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# -- one workload ----------------------------------------------------------------------


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    if text == "":
        return None
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def read_report(out: Path, name: str) -> tuple[dict, list[list], str]:
    """Summary and rows of a written report, and the sha256 of its bytes."""
    csv_bytes = (out / f"{name}.csv").read_bytes()
    json_bytes = (out / f"{name}.json").read_bytes()
    rows = [[_cell(c) for c in line.split(",")] for line in csv_bytes.decode().splitlines()[2:]]
    digest = hashlib.sha256(csv_bytes + b"\0" + json_bytes).hexdigest()
    return json.loads(json_bytes)["summary"], rows, digest


class Workload:
    def __init__(self, name: str, seed: int, scale: float, harness):
        self.name = name
        self.harness = harness
        self.exps = workloads.experiments(name, seed, scale)
        self.configs = [harness.ExperimentConfig.from_dict(raw) for raw, _ in self.exps]
        self.row_steps = 0
        for raw, _ in self.exps:
            if raw["kind"] == "hardness":
                self.row_steps += workloads.row_steps(raw, 0, 0)
            else:
                g = harness.resolve_instance(raw["instance"])
                self.row_steps += workloads.row_steps(raw, g.vertex_count, g.edge_count)
        self.out = OUT / name
        self.suite_path = OUT / f"{name}.suite.json"
        if workloads.is_suite(name):
            OUT.mkdir(parents=True, exist_ok=True)
            self.suite_path.write_text(json.dumps({"experiments": [raw for raw, _ in self.exps]}))
        self.first_digests: dict[str, str] | None = None
        self.shortfalls: dict = {}

    @property
    def ops(self) -> int:
        return len(self.exps)

    def run(self, tracer=None) -> dict:
        """One repeat: run, time, write and check; returns seconds and per-op failures."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        if tracer:
            tracer.reset()
            tracer.install()
        try:
            start = time.perf_counter()
            if workloads.is_suite(self.name):
                suite = self.harness.run_suite(self.suite_path, out_dir=self.out)
            else:
                report = self.harness.run_experiment(self.configs[0])
            seconds = time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()
        if workloads.is_suite(self.name):
            entry_ok = {e["name"]: e["passed"] for e in suite.entries}
            digests = {"suite.json": hashlib.sha256((self.out / "suite.json").read_bytes()).hexdigest()}
        else:
            cfg = self.configs[0]
            self.harness.write_report(self.out, cfg.name, cfg, report, seconds)
            entry_ok = {cfg.name: True}
            digests = {}
        failures = {}
        for raw, expect in self.exps:
            summary, rows, digests[raw["name"]] = read_report(self.out, raw["name"])
            bad = workloads.check_report(raw, expect, summary, rows)
            if not entry_ok.get(raw["name"], False):
                bad.append("a suite check failed")
            failures[raw["name"]] = bad
            self.shortfalls.update(workloads.shortfalls(raw, summary, rows))
        if self.first_digests is None:
            self.first_digests = digests
        for key, value in digests.items():
            if value != self.first_digests[key]:
                for name in failures if key == "suite.json" else (key,):
                    failures[name].append(f"{key} bytes differ from the first repeat")
        return {"seconds": seconds, "failures": failures, "digests": digests}


def measure_setup(configs: list[dict]) -> list[tuple[float, float]]:
    """(set-up wall seconds, probe seconds) of fresh interpreters."""
    payload = json.dumps(configs)
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), payload, str(HERE)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        setup, probe_s = proc.stdout.split()
        out.append((float(setup), float(probe_s)))
    return out


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def bench(args) -> dict:
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import crslab
    from crslab import harness

    if Path(crslab.__file__).resolve().parent != (SRC / "crslab").resolve():
        raise RuntimeError(f"imported crslab from {crslab.__file__}, not {SRC}")
    work = Workload(args.workload, args.seed, args.scale, harness)
    setup = measure_setup([raw for raw, _ in work.exps]) if not args.trace else []
    tracer = spanlib.Tracer() if args.trace else None
    probe = Probe(np)
    probe()

    attempted = failed = 0
    problems: list[str] = []
    repeats: list[dict] = []  # wall seconds, probe scale and whether traced
    layer_runs: list[dict] = []
    span_runs: list[list] = []
    start = time.perf_counter()
    r = 0
    while r < MIN_REPEATS * (1 + args.trace) or time.perf_counter() - start < args.seconds or (args.trace and r % 2):
        use_trace = bool(args.trace and r % 2)
        r += 1
        attempted += work.ops
        before = probe()
        try:
            res = work.run(tracer if use_trace else None)
        except Exception:  # noqa: BLE001 - a failing operation is counted, not fatal
            traceback.print_exc()
            failed += work.ops
            problems.append("an operation raised")
            continue
        repeats.append({"wall_s": res["seconds"], "scale": probe.scale(before, probe()), "traced": use_trace})
        for name, bad in res["failures"].items():
            failed += bool(bad)
            problems += [f"{name}: {b}" for b in bad]
        if use_trace:
            spans = tracer.spans
            span_runs.append(spans)
            layer_runs.append(spanlib.layer_metrics(spans))
            gap = spanlib.root_self_gap(spans)
            if gap > 1e-6:
                problems.append(f"top-level busy time differs from summed self time by {gap:.3g} s")
            steps = spanlib.engine_row_steps(spans)
            if steps != work.row_steps:
                problems.append(f"traced engine row steps {steps} != {work.row_steps}")

    def scaled(traced: bool) -> float:
        return statistics.median(x["wall_s"] * x["scale"] for x in repeats if x["traced"] == traced)

    metrics: dict[str, tuple[float, str]] = {}
    plain_ok = any(not x["traced"] for x in repeats)
    if plain_ok and not args.trace:
        run_s = scaled(False)
        metrics["run_s"] = (run_s, "s")
        metrics["setup_s"] = (statistics.median(t * REFERENCE_S / p for t, p in setup), "s")
        metrics["row_steps_per_s"] = (work.row_steps / run_s, "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if layer_runs and plain_ok:
        for key, (_, unit) in layer_runs[0].items():
            metrics[key] = (statistics.median_low(run[key][0] for run in layer_runs), unit)
        metrics["trace.run_s"] = (scaled(True), "s")
        metrics["trace.overhead_s"] = (scaled(True) - scaled(False), "s")
        metrics["trace.spans"] = (statistics.median_low(len(s) for s in span_runs), "count")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "env": environment(np),
        "row_steps": work.row_steps,
        "repeats": repeats,
        "setup": [{"wall_s": t, "probe_s": p} for t, p in setup],
        "digests": work.first_digests,
        "shortfalls": work.shortfalls,
        "problems": dict(Counter(problems)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if span_runs:
        spanlib.write_spans(OUT / f"spans_{stem}.jsonl", span_runs)
    return result


def run_all(args) -> int:
    """Every workload, each in its own interpreter so that peak RSS stays its own.

    Prints each workload's lines prefixed with its name, then one JSON line
    with the summed counts and the metrics named `<workload>.<metric>`.
    """
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}")
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crslab" / "__init__.py").is_file():
        print(f"perfbench: no crslab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = bench(args)
    for problem, count in result["problems"].items():
        print(f"FAIL {problem} (in {count} repeats)", file=sys.stderr)
    walls = [x["wall_s"] for x in result["repeats"] if not x["traced"]]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"repeats {len(result['repeats'])} wall_run_s_median {statistics.median(walls) if walls else 'nan'}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, digest in sorted((result["digests"] or {}).items()):
        print(f"report_sha256 {name} {digest}")
    for name, value in sorted(result["shortfalls"].items()):
        print(f"shortfall {name} {value!r}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {failed / attempted!r} ratio")
    correct = failed == 0 and not result["problems"] and attempted >= 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
