"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that:
  - an untraced run emits exactly the end_to_end metrics of BENCHMARK.json,
    each with its unit, and a traced run exactly the per_layer metrics;
  - both runs pass every output check, and their report digests are equal,
    so tracing changes no draw;
  - a second seed passes every output check too.
Finally the benchmark must fail, without printing a result, in a directory
that holds only BENCHMARK.json and perfbench/. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SCALE = "0.02"


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in (w["name"] for w in spec["workloads"]):
        digests = {}
        for seed, trace in ((0, 0), (0, 1), (1, 0)):
            res = result_of(run(w, seed, trace))
            label = f"{w} seed {seed} trace {trace}"
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{label}: output checks failed")
            units = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(units == wanted[trace], f"{label}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(units) ^ set(wanted[trace]))} or units")
            bench = json.loads((OUT / f"BENCH_{w}_seed{seed}_trace{trace}.json").read_text())
            digests[(seed, trace)] = bench["digests"]
        expect(digests[(0, 0)] == digests[(0, 1)], f"{w}: traced reports differ from untraced ones")
        expect(digests[(0, 0)] != digests[(1, 0)], f"{w}: seed 1 wrote the same reports as seed 0")
        print(f"ok {w}")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], 0, 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout, "benchmark ran without the crslab sources")
    print("ok fails without sources")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}")
        sys.exit(1)
