"""The benchmark's span tracer against the library, in the tier-1 run.

`perfbench/spans.py` wraps crslab's engines and loops by name, reads some
engine arguments by position, and adds up the row steps of the engine
spans; `perfbench/workloads.py` counts the same row steps from the configs.
A renamed engine, a moved argument or one traced engine calling another
breaks that contract. Both files are loaded by path and only read; every
workload's configs run at a small scale with the tracer installed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from crslab import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCALE = 0.02


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def _row_steps(raw: dict) -> int:
    """The workload's own count, as the benchmark takes it."""
    if raw["kind"] == "hardness":
        return workloads.row_steps(raw, 0, 0)
    g = harness.resolve_instance(raw["instance"])
    return workloads.row_steps(raw, g.vertex_count, g.edge_count)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_engine_row_steps_match_the_workload(workload, tmp_path):
    exps = workloads.experiments(workload, 0, SCALE)
    tracer = spans.Tracer()
    try:
        tracer.install()  # a failed install is undone too
        if workloads.is_suite(workload):
            suite = tmp_path / "suite.json"
            suite.write_text(json.dumps({"experiments": [raw for raw, _ in exps]}))
            harness.run_suite(suite, out_dir=tmp_path / "out")
        else:
            for raw, _ in exps:
                harness.run_experiment(harness.ExperimentConfig.from_dict(raw))
    finally:
        tracer.uninstall()
    assert spans.engine_row_steps(tracer.spans) == sum(_row_steps(raw) for raw, _ in exps)
    assert spans.root_self_gap(tracer.spans) < 1e-6
