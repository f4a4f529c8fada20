"""Spans recorded around crslab's public functions, from outside the library.

`Tracer.install()` replaces each traced function, in every loaded crslab
module namespace that holds it, with a wrapper that records one span:
name, start, end and parent, plus the counts its arguments and result
carry (rows x sequential steps from the input shapes, active proposals from
the returned BatchResult, bytes written). `Tracer.uninstall()` puts the
original objects back, so untraced and traced repeats alternate in one
process. Spans stay in memory; the caller writes them out at exit.

Engine calls are split by regime: `t_stop < 1` is a table-fill batch,
`t_stop = 1` a measurement batch, and calls made from `crslab.diagnostics`
are the coupled (diag) runs.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
REGIMES = (".fill", ".trials", ".diag")
FILL_TAGS = ("fill-vertex", "fill-edge")

# Span record: [name, start, end, parent index, extras dict or None].
NAME, START, END, PARENT, EXTRA = range(5)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _shape_steps(array) -> int:
    rows, steps = array.shape
    return int(rows) * int(steps)


def _batch_regime(args, kwargs) -> str:
    return "fill" if _arg(args, kwargs, 6, "t_stop", 1.0) < 1.0 else "trials"


def _active(result) -> int:
    return int(result.active.sum())


def _report_bytes(args, kwargs, result) -> int:
    out = os.fspath(_arg(args, kwargs, 0, "out_dir"))
    name = _arg(args, kwargs, 1, "name")
    return sum(os.path.getsize(os.path.join(out, name + ext)) for ext in (".csv", ".json", ".timing.json"))


# Traced layers: (module, attribute, regime(args, kwargs) or None,
# {extra: fn(args, kwargs, result)}). Row steps count rows x sequential
# engine steps and are read from the input shapes.
LAYERS = (
    ("arrivals", "sample_choices_batch", None, {
        "row_steps": lambda a, k, r: int(_arg(a, k, 2, "trials")) * a[0].vertex_count}),
    ("recursive", "run_vertex_batch", _batch_regime, {
        "row_steps": lambda a, k, r: _shape_steps(a[3]), "active": lambda a, k, r: _active(r)}),
    ("recursive", "run_edge_batch", _batch_regime, {
        "row_steps": lambda a, k, r: _shape_steps(a[4]), "active": lambda a, k, r: _active(r)}),
    ("recursive", "fill_tables", None, {}),
    ("recursive", "fill_tables_edge", None, {}),
    ("recursive", "simulate_vertex", None, {}),
    ("recursive", "simulate_edge", None, {}),
    ("recursive", "simulate_rank1", None, {
        "row_steps": lambda a, k, r: int(_arg(a, k, 1, "trials")) * a[0].edge_count}),
    ("two_phase", "run_two_phase_batch", None, {
        "row_steps": lambda a, k, r: _shape_steps(a[2]), "active": lambda a, k, r: _active(r)}),
    ("two_phase", "simulate_two_phase", None, {}),
    ("diagnostics", "correlation_gap", None, {}),
    ("diagnostics", "coupled_batch", None, {}),
    ("diagnostics", "flip_indicators", None, {}),
    ("diagnostics", "detect_potential_paths_batch", None, {}),
    ("hardness", "hardness_trajectory", None, {
        "row_steps": lambda a, k, r: int(_arg(a, k, 1, "trials")) * 2 * int(_arg(a, k, 0, "n"))}),
    ("harness", "run_suite", None, {}),
    ("harness", "run_experiment", None, {}),
    ("harness", "write_report", None, {"bytes": _report_bytes}),
    ("harness", "resolve_instance", None, {}),
    ("graph", "generate", None, {}),
    ("rng", "stream", None, {}),
)

# Spans whose row steps are engine work (the end-to-end row_steps count).
ENGINE_SPANS = (
    "recursive.run_vertex_batch",
    "recursive.run_edge_batch",
    "recursive.simulate_rank1",
    "two_phase.run_two_phase_batch",
    "hardness.hardness_trajectory",
)


class Tracer:
    """Records nested spans of the wrapped crslab functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, extra: dict | None = None) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][EXTRA] = extra
        popped = self._stack.pop()
        assert popped == idx, "spans must close in the order they opened"

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    # -- patching --------------------------------------------------------------

    def _wrap(self, name, fn, regime, extras, cpu=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if regime is None else f"{name}.{regime(args, kwargs)}"
            idx = tracer.open(label)
            cpu0 = time.process_time() if cpu else 0.0
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                extra = {key: f(args, kwargs, result) for key, f in extras.items()} if ok else {}
                if cpu:
                    extra["cpu_s"] = time.process_time() - cpu0
                tracer.close(idx, extra or None)
                if ok and name in ("recursive.fill_tables", "recursive.fill_tables_edge"):
                    tracer._record_phases(idx)

        return wrapper

    def _wrap_stream(self, fn):
        tracer = self

        @functools.wraps(fn)
        def stream(master_seed, *tags):
            idx = tracer.open("rng.stream")
            try:
                return fn(master_seed, *tags)
            finally:
                # a fill phase starts at the stream of its first row chunk
                phase = bool(tags) and tags[0] in FILL_TAGS and tags[-1] == 0
                tracer.close(idx, {"phase_start": True} if phase else None)

        return stream

    def _wrap_selection(self, fn):
        tracer = self

        @functools.wraps(fn)
        def __call__(sel, y):
            idx = tracer.open("selection.SelectionFunction")
            try:
                return fn(sel, y)
            finally:
                tracer.close(idx)

        return __call__

    def _record_phases(self, idx: int) -> None:
        """Per-phase durations of a fill span, cut at each phase's first stream."""
        span = self.spans[idx]
        starts = [s[START] for s in self.spans[idx + 1:] if s[PARENT] == idx and s[EXTRA] and s[EXTRA].get("phase_start")]
        bounds = starts + [span[END]]
        extra = span[EXTRA] or {}
        extra["phases_s"] = [b - a for a, b in zip(bounds, bounds[1:])]
        span[EXTRA] = extra

    def install(self) -> None:
        import crslab.selection

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items()) if key == "crslab" or key.startswith("crslab.")]
        for mod_name, attr, regime, extras in LAYERS:
            original = getattr(sys.modules[f"crslab.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is not original:
                        continue
                    if attr == "stream":
                        wrapper = self._wrap_stream(original)
                    elif attr == "run_vertex_batch" and module.__name__ == "crslab.diagnostics":
                        wrapper = self._wrap(name, original, lambda a, k: "diag", extras)
                    else:
                        wrapper = self._wrap(name, original, regime, extras, cpu=attr == "run_experiment")
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)
        cls = crslab.selection.SelectionFunction
        self._patches.append((cls, "__call__", cls.__call__))
        cls.__call__ = self._wrap_selection(cls.__call__)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches = []


# -- per-layer statistics ----------------------------------------------------------


def tail_percentile(count: int) -> float | None:
    """Highest percentile of PERCENTILES with at least ten samples beyond it."""
    best = None
    for pct in PERCENTILES:
        if count * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    return best


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Aggregate spans by name: calls, busy/self time, counts and call times."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    groups: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        groups.setdefault(span[NAME], []).append(i)
    out = {}
    for name, idxs in groups.items():
        durations = [spans[i][END] - spans[i][START] for i in idxs]
        extras = [spans[i][EXTRA] or {} for i in idxs]
        busy = sum(durations)
        stats = {
            "calls": len(idxs),
            "busy_s": busy,
            "self_s": busy - sum(child_time[i] for i in idxs),
        }
        for key in ("row_steps", "active", "bytes", "cpu_s"):
            if any(key in e for e in extras):
                stats[key] = sum(e.get(key, 0) for e in extras)
        # fill spans report per-phase times; everything else per call
        samples = [p for e in extras for p in e.get("phases_s", ())]
        if samples:
            stats["phases"] = len(samples)
        else:
            samples = durations
        stats["call_ms_p50"] = 1000.0 * percentile(samples, 50.0)
        tail = tail_percentile(len(samples))
        stats["ptail_pct"] = tail if tail is not None else 50.0
        stats["call_ms_ptail"] = 1000.0 * percentile(samples, stats["ptail_pct"])
        if "row_steps" in stats:
            stats["row_steps_per_s"] = stats["row_steps"] / busy if busy > 0 else 0.0
            if "active" in stats:
                stats["active_frac"] = stats["active"] / stats["row_steps"] if stats["row_steps"] else 0.0
        out[name] = stats
    return out


def root_self_gap(spans: list[list]) -> float:
    """|busy time of the top-level spans - sum of every span's self time|."""
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return abs(roots - sum(v["self_s"] for v in layer_stats(spans).values()))


def engine_row_steps(spans: list[list]) -> int:
    """Row steps of the engine calls, the count behind end-to-end row_steps_per_s."""
    total = 0
    for s in spans:
        base = s[NAME].rsplit(".", 1)[0] if s[NAME].endswith(REGIMES) else s[NAME]
        if base in ENGINE_SPANS:
            total += s[EXTRA]["row_steps"]
    return total


STAT_UNITS = {
    "calls": "count",
    "row_steps": "count",
    "phases": "count",
    "busy_s": "s",
    "self_s": "s",
    "cpu_s": "s",
    "row_steps_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_ptail": "ms",
    "ptail_pct": "%",
    "active_frac": "ratio",
    "bytes": "bytes",
}

# Per-layer metrics the traced run reports, as (span name, stats). Fill spans'
# call_ms_* are per phase, with `phases` as their sample count.
REPORTED = (
    ("arrivals.sample_choices_batch", ("calls", "row_steps", "busy_s", "row_steps_per_s")),
    *((f"recursive.run_vertex_batch.{r}", ("calls", "row_steps", "busy_s", "row_steps_per_s", "active_frac"))
      for r in ("fill", "trials", "diag")),
    ("recursive.fill_tables", ("busy_s", "self_s", "phases", "call_ms_p50")),
    *((f"recursive.run_edge_batch.{r}", ("calls", "row_steps", "busy_s", "call_ms_p50", "call_ms_ptail", "ptail_pct", "active_frac"))
      for r in ("fill", "trials")),
    ("recursive.fill_tables_edge", ("busy_s", "self_s", "phases", "call_ms_p50", "call_ms_ptail", "ptail_pct")),
    ("recursive.simulate_rank1", ("busy_s", "row_steps_per_s")),
    ("two_phase.run_two_phase_batch", ("calls", "row_steps", "busy_s", "row_steps_per_s", "active_frac")),
    ("two_phase.simulate_two_phase", ("self_s",)),
    *((f"diagnostics.{f}", ("busy_s", "self_s"))
      for f in ("correlation_gap", "coupled_batch", "flip_indicators", "detect_potential_paths_batch")),
    ("hardness.hardness_trajectory", ("busy_s", "row_steps_per_s")),
    ("harness.run_experiment", ("busy_s", "cpu_s")),
    ("harness.write_report", ("busy_s", "bytes")),
    ("harness.resolve_instance", ("busy_s",)),
    ("selection.SelectionFunction", ("calls", "busy_s")),
    ("graph.generate", ("busy_s",)),
    ("rng.stream", ("calls", "busy_s")),
)


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Every reported per-layer metric as (value, unit); 0 for layers not called."""
    stats = layer_stats(spans)
    return {f"{name}.{stat}": (stats.get(name, {}).get(stat, 0), STAT_UNITS[stat])
            for name, wanted in REPORTED for stat in wanted}


def write_spans(path, repeats: list[list[list]]) -> None:
    """Write spans as JSON lines: operation, id, name, start, end, parent.

    Times are seconds from the operation's first span; spans of one
    operation (one traced repeat) share its `op` number.
    """
    with open(path, "w") as fh:
        for op, spans in enumerate(repeats):
            t0 = spans[0][START] if spans else 0.0
            for i, s in enumerate(spans):
                fh.write(json.dumps({"op": op, "id": i, "name": s[NAME], "start": s[START] - t0,
                                     "end": s[END] - t0, "parent": s[PARENT]}) + "\n")
