"""Tests for experiment configs, report files, the suite runner and the CLI."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crslab.harness
import crslab.matching
from crslab.cli import main
from crslab.graph import Graph, cycle
from crslab.harness import (
    CHECK_OPS,
    CSV_VERSION,
    KINDS,
    SCHEMES,
    ConfigError,
    ExperimentConfig,
    load_suite_config,
    resolve_instance,
    run_experiment,
    run_suite,
    write_report,
)
from crslab.selection import INFINITE

BASE = {
    "name": "demo",
    "kind": "selectability",
    "instance": {"family": "cycle", "n": 5, "x": 0.5},
    "scheme": "recursive-vertex",
    "trials": 100,
    "seed": 5,
    "params": {"g": 5, "T": 4, "delta": 0.1, "Q": 50},
}


def make(**over) -> ExperimentConfig:
    return ExperimentConfig.from_dict({**BASE, **over})


# -- config validation -------------------------------------------------------------


BAD_CONFIGS = [
    ({"zzz": 1}, "unknown field"),
    ({"name": ""}, "name:"),
    ({"name": "bad name"}, "name:"),
    ({"kind": "nope"}, "kind: must be"),
    ({"trials": 0}, "trials: must be >="),
    ({"trials": 1.5}, "trials: integer required"),
    ({"trials": True}, "trials: integer required"),
    ({"seed": -1}, "seed: must be >= 0"),
    ({"seed": 2**64}, "seed: must be <="),
    ({"bins": 0}, "bins: must be >= 1"),
    ({"scheme": "nope"}, "scheme: must be"),
    ({"kind": "profile", "scheme": "two-phase", "params": {"t": 0.2}}, "kind=profile requires"),
    ({"kind": "gap", "scheme": "rank1-closed", "params": {}}, "kind=gap requires"),
    ({"kind": "hardness"}, "kind=hardness requires scheme greedy"),
    ({"scheme": "greedy", "params": {}}, "greedy is only valid"),
    ({"params": {**BASE["params"], "bogus": 1}}, "params.bogus: not a parameter"),
    ({"params": {"g": 5, "T": 0, "delta": 0.1, "Q": 50}}, "params.T: must be >= 1"),
    ({"params": {"g": 5, "T": 4, "delta": -0.5, "Q": 50}}, "params.delta: must lie in"),
    ({"params": {"g": 5, "T": 4, "delta": 1.0, "Q": 50}}, "params.delta: must lie in"),
    ({"params": {"g": 5, "T": 4, "delta": 0.0}}, "params.Q: required when delta is 0"),
    ({"params": {"g": 5, "T": 4, "delta": 0.1, "Q": 0}}, "params.Q: must be >= 1"),
    ({"params": {"g": 4, "T": 4, "delta": 0.1, "Q": 50}}, "params.g: odd integer"),
    ({"params": {"g": "nope", "T": 4, "delta": 0.1, "Q": 50}}, "params.g: odd integer"),
    ({"params": {"g": 1, "T": 4, "delta": 0.1, "Q": 50}}, "params.g: odd integer"),
    (
        {"scheme": "recursive-edge", "params": {"selection": "nope", "T": 4, "delta": 0.1, "Q": 50}},
        "params.selection: must be one of",
    ),
    (
        {"scheme": "recursive-edge", "params": {"T": 4, "delta": 0.1, "Q": 50}},
        "params.selection: must be one of",
    ),
    ({"scheme": "two-phase", "params": {}}, "params.t: required"),
    ({"scheme": "two-phase", "params": {"t": 1.5}}, "params.t: must lie in"),
    ({"scheme": "two-phase", "params": {"t": "late"}}, "params.t: number required"),
    (
        {"kind": "gap", "params": {"g": 5, "T": 4, "delta": 0.1, "Q": 50, "v": 1, "t_k": 0.5}},
        "params.u: required for kind=gap",
    ),
    (
        {"kind": "gap", "params": {"g": 5, "T": 4, "delta": 0.1, "Q": 50, "u": 0, "v": 1, "t_k": 0.0}},
        "params.t_k",
    ),
    (
        {"kind": "gap", "params": {"g": 5, "T": 4, "delta": 0.1, "Q": 50, "u": 0, "v": 1, "t_k": 1.5}},
        "params.t_k",
    ),
    ({"kind": "hardness", "scheme": "greedy", "params": {}}, "complete_bipartite"),
    (
        {
            "kind": "hardness",
            "scheme": "greedy",
            "instance": {"family": "complete_bipartite", "n": 0},
            "params": {},
        },
        "instance.n: must be >= 1",
    ),
    (
        {
            "kind": "hardness",
            "scheme": "greedy",
            "instance": {"family": "complete_bipartite", "n": 4},
            "params": {"t_max": -1},
        },
        "params.t_max: must be >= 0",
    ),
    ({"instance": {}}, "instance: object with"),
    ({"checks": "x"}, "checks: must be a list"),
    ({"checks": [{"metric": "a", "op": ">="}]}, "metric/op/value"),
    ({"checks": [{"metric": "", "op": ">=", "value": 1}]}, "metric: non-empty"),
    ({"checks": [{"metric": "a", "op": "~", "value": 1}]}, "op: must be"),
    ({"checks": [{"metric": "a", "op": ">=", "value": "x"}]}, "value: number or boolean"),
    ({"params": {"g": 5, "delta": 0.1, "Q": 50}}, "params.T: required for scheme recursive-vertex"),
    ({"params": {"g": 5, "T": 4, "Q": 50}}, "params.delta: required for scheme recursive-vertex"),
    ({"params": {"g": True, "T": 4, "delta": 0.1, "Q": 50}}, "params.g: odd integer"),
    ({"params": {"g": None, "T": 4, "delta": 0.1, "Q": 50}}, "params.g: odd integer"),
    (
        {"kind": "gap", "params": {"g": 5, "T": 4, "delta": 0.1, "Q": 50, "u": 0, "v": 1}},
        "params.t_k: required for kind=gap",
    ),
    # summaries are flat, and a check names a key of its own kind's summary
    ({"checks": [{"metric": "a.b", "op": "==", "value": True}]}, r"checks\[0\]\.metric: unknown metric 'a.b' for kind=selectability"),
    ({"kind": "profile", "checks": [{"metric": "edges", "op": "==", "value": 5}]}, "unknown metric 'edges' for kind=profile"),
    # open() would take an int or a bool as a file descriptor
    *(({"instance": {"path": path}}, "^instance.path: string required") for path in (0, True, None, ["a.json"])),
    # a hardness instance is never generated, so its other keys are checked here
    *(
        (
            {"kind": "hardness", "scheme": "greedy", "params": {}, "instance": {"family": "complete_bipartite", "n": 4, **extra}},
            f"^instance.{key}: kind=hardness takes only family and n",
        )
        for extra, key in (({"x": 0.3}, "x"), ({"bogus": 1}, "bogus"), ({"path": "k44.json"}, "path"))
    ),
]


@pytest.mark.parametrize("over,msg", BAD_CONFIGS)
def test_rejected_configs(over, msg):
    with pytest.raises(ConfigError, match=msg):
        make(**over)


def test_accepted_configs():
    make()
    make(params={"g": "inf", "T": 4, "delta": 0.1, "Q": 50})
    make(params={"g": "INFINITE", "T": 4, "delta": 0.1, "Q": 50})
    make(scheme="two-phase", params={"t": "t0"})
    make(scheme="rank1-closed", params={})
    make(name="ok-name_1.x")
    make(checks=[{"metric": "min_ratio_x", "op": ">=", "value": 0.5}])
    make(
        kind="hardness",
        scheme="greedy",
        instance={"family": "complete_bipartite", "n": 4},
        params={"t_max": 6},
    )


def test_config_echo_round_trip():
    cfg = make(checks=[{"metric": "edges", "op": "==", "value": 5}])
    again = ExperimentConfig.from_dict(cfg.echo())
    assert again.echo() == cfg.echo()


def test_from_dict_requires_object():
    with pytest.raises(ConfigError, match="must be an object"):
        ExperimentConfig.from_dict([])


@pytest.mark.parametrize("over,msg", [(over, msg) for over, msg in BAD_CONFIGS if msg != "unknown field"])
def test_direct_construction_validates(over, msg):
    # the CLI builds its configs directly, without from_dict
    with pytest.raises(ConfigError, match=msg):
        ExperimentConfig(**{**BASE, **over})


# The params of each scheme and what each kind adds: a (kind, scheme) config.
RECURSIVE = {"T": 4, "delta": 0.1, "Q": 50}
PARAMS_OF = {
    "recursive-vertex": {"g": 5, **RECURSIVE},
    "recursive-edge": {"selection": "edge_general", **RECURSIVE},
    "rank1-closed": {},
    "two-phase": {"t": 0.5},
    "greedy": {"t_max": 6},
}


def config_of(kind: str, scheme: str) -> dict:
    gap = {"u": 0, "v": 1, "t_k": 0.5} if kind == "gap" else {}
    instance = {"family": "complete_bipartite", "n": 4} if kind == "hardness" else BASE["instance"]
    return {**BASE, "kind": kind, "scheme": scheme, "params": {**PARAMS_OF[scheme], **gap}, "instance": instance}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", KINDS)
def test_scheme_kind_matrix(kind, scheme):
    if kind in SCHEMES[scheme][0]:
        ExperimentConfig.from_dict(config_of(kind, scheme))
        return
    with pytest.raises(ConfigError, match="^scheme: ") as exc:
        ExperimentConfig.from_dict(config_of(kind, scheme))
    assert f"kind={kind}" in str(exc.value) and scheme in str(exc.value)


# One valid config per scheme and kind; the property test below spoils one field at a time.
VALID_BASES = [config_of(kind, scheme) for scheme in SCHEMES for kind in SCHEMES[scheme][0]]
ABSENT = object()
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-5, 10**6).map(float),
    st.floats(),
    st.sampled_from(["", "t0", "inf", "5", "edge_tree", "complete_bipartite", "a.b"]),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.just(ABSENT),
)
INT_PARAMS = ("T", "u", "v", "t_max", "n")
FLOAT_PARAMS = ("delta", "t_k", "t")


def _spoil(raw: dict, path: tuple, value) -> dict:
    raw = json.loads(json.dumps(raw))
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is ABSENT:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = value
    return raw


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.data())
def test_any_json_value_builds_or_is_a_config_error(data):
    base = data.draw(st.sampled_from(VALID_BASES))
    paths = [(f,) for f in (*BASE, "bins", "checks")]
    paths += [("params", k) for k in (*base["params"], "Q", "g")]
    paths += [("instance", k) for k in base["instance"]]
    paths += [("checks", 0, k) for k in ("metric", "op", "value")]
    path = data.draw(st.sampled_from(paths))
    raw = {**base, "checks": [{"metric": KINDS[base["kind"]][0][0], "op": ">=", "value": 1}]}
    raw = _spoil(raw, path, data.draw(JSON_VALUES))
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    assert all(type(getattr(cfg, f)) is int for f in ("trials", "seed", "bins"))
    p = cfg.parsed
    assert all(type(p[k]) is int for k in INT_PARAMS if k in p)
    assert all(type(p[k]) is float for k in FLOAT_PARAMS if k in p)
    assert p.get("Q") is None or type(p["Q"]) is int
    assert "g" not in p or p["g"] == INFINITE or type(p["g"]) is int
    assert cfg.echo()["params"] == raw.get("params", {})


@pytest.mark.parametrize("instance", [[], "x", None, 5])
def test_hardness_instance_not_an_object(instance):
    with pytest.raises(ConfigError, match="instance: kind=hardness requires"):
        make(kind="hardness", scheme="greedy", instance=instance, params={})


def test_integral_floats_read_as_integers(tmp_path):
    payload = {"experiments": [{**BASE, "bins": 4, "checks": [{"metric": "edges", "op": "==", "value": 5}]}]}
    as_ints = run_suite(write_suite(tmp_path, payload, "ints.json"), out_dir=tmp_path / "ints")
    exp = payload["experiments"][0]
    exp.update(trials=100.0, seed=5.0, bins=4.0, params={**exp["params"], "T": 4.0, "Q": 50.0})
    as_floats = run_suite(write_suite(tmp_path, payload, "floats.json"), out_dir=tmp_path / "floats")
    assert as_ints.exit_code == as_floats.exit_code == 0
    assert (as_ints.out_dir / "demo.csv").read_bytes() == (as_floats.out_dir / "demo.csv").read_bytes()
    cfg = make(trials=1e5, seed=7.0, bins=10.0)
    assert (cfg.trials, cfg.seed, cfg.bins) == (100000, 7, 10) and type(cfg.trials) is int


# -- instance resolution ------------------------------------------------------------


def test_resolve_instance_family():
    g = resolve_instance({"family": "cycle", "n": 7, "x": 0.5})
    assert g.vertex_count == 7 and g.edge_count == 7


def test_resolve_instance_path_wins(tmp_path):
    p = tmp_path / "inst.json"
    cycle(5, 0.5).save(p)
    g = resolve_instance({"path": str(p)})
    assert g.edge_count == 5
    g2 = resolve_instance({"path": str(p), "family": "complete_bipartite"})
    assert g2.edge_count == 5


def test_overloaded_graph_rejected(tmp_path, capsys):
    # a file may hold any loads (`crslab validate` reads it), but no scheme runs on them
    p = tmp_path / "over.json"
    Graph(3, [(0, 1, 0.9), (0, 2, 0.9)]).save(p)
    instance = {"path": str(p)}
    configs = [
        make(instance=instance),
        make(instance=instance, scheme="recursive-edge", params={"selection": "edge_general", "T": 4, "delta": 0.1, "Q": 50}),
        make(instance=instance, scheme="rank1-closed", params={}),
        make(instance=instance, scheme="two-phase", params={"t": 0.5}),
        make(instance=instance, kind="profile", scheme="rank1-closed", params={}),
        make(instance=instance, kind="gap", params={**BASE["params"], "u": 0, "v": 1, "t_k": 0.5}),
    ]
    for cfg in configs:
        with pytest.raises(ConfigError, match=r"instance: fractional matching violated .*v0: 1\.8"):
            run_experiment(cfg)
    recursive = ["--T", "4", "--delta", "0.1"]
    run_flags = {
        "recursive-vertex": recursive,
        "recursive-edge": [*recursive, "--selection", "edge_general"],
        "rank1-closed": [],
        "two-phase": ["--t", "0.5"],
    }
    for scheme, flags in run_flags.items():
        argv = ["simulate", "--instance", str(p), "--scheme", scheme, "--trials", "10", "--seed", "1", *flags]
        assert main(argv) == 2
        assert "config error: instance: fractional matching violated" in capsys.readouterr().err
    assert main(["diag", "--what", "gap", "--instance", str(p), "--t-k", "0.5", "--trials", "10", "--seed", "1"]) == 2
    assert "config error: instance:" in capsys.readouterr().err
    assert main(["validate", str(p)]) == 1  # still loads, and reports the load


def test_resolve_instance_errors():
    with pytest.raises(ConfigError, match="instance.family"):
        resolve_instance({"family": "nope"})
    with pytest.raises(ConfigError, match="instance:"):
        resolve_instance({"family": "cycle", "n": 2})
    with pytest.raises(ConfigError, match="instance:"):
        resolve_instance({"family": "cycle", "sides": 5})


# -- selectability reports ----------------------------------------------------------


def test_selectability_report_shape():
    cfg = make(trials=2000, seed=11)
    rep = run_experiment(cfg)
    assert rep.kind == "selectability"
    assert len(rep.columns) == 13
    assert len(rep.rows) == 5
    for row in rep.rows:
        eid, u, v, x, act, acc, ra, ra_lo, ra_hi, rx, rx_lo, rx_hi, thin = row
        assert not thin
        assert 0 <= acc <= act
        assert ra_lo <= ra <= ra_hi
        assert rx_lo <= rx <= rx_hi
        assert 0.0 <= ra <= 1.0
    s = rep.summary
    assert s["insufficient_count"] == 0
    assert s["min_ratio_active"] <= s["max_ratio_active"]
    assert s["min_ratio_x"] <= s["max_ratio_x"]
    assert 0 <= s["argmin_edge_active"] < 5
    assert 0 <= s["argmin_edge_x"] < 5


def test_selectability_flags_silent_edges(tmp_path):
    p = tmp_path / "thin.json"
    Graph(3, [(0, 1, 0.5), (1, 2, 0.0)]).save(p)
    cfg = make(instance={"path": str(p)}, trials=300, seed=12)
    rep = run_experiment(cfg)
    assert rep.summary["insufficient_count"] == 1
    thin_row = rep.rows[1]
    assert thin_row[-1] is True
    assert thin_row[6] == ""
    assert math.isfinite(rep.summary["min_ratio_active"])


def test_selectability_all_edges_silent(tmp_path):
    p = tmp_path / "dead.json"
    Graph(2, [(0, 1, 0.0)]).save(p)
    cfg = make(instance={"path": str(p)}, trials=50, seed=13)
    rep = run_experiment(cfg)
    assert rep.summary["insufficient_count"] == 1
    assert math.isnan(rep.summary["min_ratio_active"])
    assert rep.summary["argmin_edge_active"] == -1


# -- profile reports ----------------------------------------------------------------


def test_profile_closed_form_targets():
    # the closed-form scheme needs unit total element mass
    cfg = make(
        kind="profile",
        scheme="rank1-closed",
        params={},
        instance={"family": "single_edge"},
        trials=20000,
        seed=14,
        bins=5,
    )
    rep = run_experiment(cfg)
    assert rep.kind == "profile"
    assert rep.summary["powered"] + rep.summary["underpowered"] == 5
    assert rep.summary["underpowered"] == 0
    for row in rep.rows:
        b, lo, hi, mid, act, acc, rate, sigma, target, band_lo, band_hi, status = row
        assert math.isclose(target, math.exp(-mid))
        assert band_lo == band_hi == target
        assert status in ("pass", "fail")
    assert rep.summary["all_pass"]
    assert rep.summary["worst_gap_sigma"] >= 0.0


def test_profile_marks_underpowered_bins():
    cfg = make(
        kind="profile",
        scheme="rank1-closed",
        params={},
        instance={"family": "single_edge"},
        trials=30,
        seed=15,
        bins=20,
    )
    rep = run_experiment(cfg)
    assert rep.summary["underpowered"] >= 1
    statuses = {row[-1] for row in rep.rows}
    assert "underpowered" in statuses
    assert rep.summary["powered"] + rep.summary["underpowered"] == 20


def test_profile_recursive_vertex_band_is_discounted():
    cfg = make(kind="profile", trials=20000, seed=16, bins=5)
    rep = run_experiment(cfg)
    for row in rep.rows:
        target, band_lo, band_hi = row[8], row[9], row[10]
        assert band_hi == target
        assert band_lo < band_hi
    assert rep.summary["all_pass"]


# -- gap and hardness runners ---------------------------------------------------------


# One small config per kind.
KIND_CONFIGS = {
    "selectability": {},
    "profile": {"kind": "profile", "scheme": "rank1-closed", "params": {}, "instance": {"family": "single_edge"}, "bins": 4},
    "gap": {"kind": "gap", "params": {"g": 5, "T": 4, "delta": 0.1, "Q": 50, "u": 0, "v": 1, "t_k": 0.5}},
    "hardness": {"kind": "hardness", "scheme": "greedy", "instance": {"family": "complete_bipartite", "n": 6}, "params": {}},
}


@pytest.mark.parametrize("kind", KINDS)
def test_summary_keys_are_the_kinds_keys_in_order(kind):
    # the order is the gap report's CSV column order
    rep = run_experiment(make(**KIND_CONFIGS[kind]))
    assert tuple(rep.summary) == KINDS[kind][0]


def test_gap_experiment_summary():
    cfg = make(
        kind="gap",
        trials=800,
        seed=17,
        params={"g": 5, "T": 4, "delta": 0.1, "Q": 100, "u": 0, "v": 1, "t_k": 0.5},
    )
    rep = run_experiment(cfg)
    assert rep.kind == "gap"
    assert rep.rows == [[rep.summary[c] for c in rep.columns]]
    assert rep.summary["violation_count"] == 0
    assert isinstance(rep.summary["within_bound"], bool)
    assert rep.summary["count_inner"] <= rep.summary["count_outer"]


@pytest.mark.parametrize(
    "u,v,message",
    [(0, 2, r"params.v: \(0,2\) is not an edge"), (7, 1, "params.u: vertex 7 outside 0..4"),
     (0, 5, "params.v: vertex 5 outside 0..4"), (1, 1, r"params.v: \(1,1\) is not an edge")],
)
def test_gap_vertices_checked_before_fill(monkeypatch, u, v, message):
    def no_fill(*args):
        raise AssertionError("filled the table before checking the vertices")

    monkeypatch.setattr(crslab.harness, "fill_tables", no_fill)
    cfg = make(kind="gap", params={"g": 5, "T": 4, "delta": 0.1, "Q": 50, "u": u, "v": v, "t_k": 0.5})
    with pytest.raises(ConfigError, match=message):
        run_experiment(cfg)


def test_hardness_experiment_summary():
    cfg = make(
        kind="hardness",
        scheme="greedy",
        instance={"family": "complete_bipartite", "n": 40},
        params={"t_max": 70},
        trials=60,
        seed=18,
    )
    rep = run_experiment(cfg)
    assert rep.kind == "hardness"
    assert rep.summary["n"] == 40 and rep.summary["t_max"] == 70
    assert len(rep.rows) == 81
    assert rep.columns == ["t", "mean_matched_frac", "reference", "q_frequency"]
    assert all(0.0 <= row[3] <= 1.0 for row in rep.rows)
    assert rep.summary["final_error"] == abs(
        rep.summary["mean_final"] - rep.summary["reference_final"]
    )


def test_hardness_default_t_max():
    cfg = make(
        kind="hardness",
        scheme="greedy",
        instance={"family": "complete_bipartite", "n": 40},
        params={},
        trials=10,
        seed=19,
    )
    rep = run_experiment(cfg)
    assert rep.summary["t_max"] == 76


# -- report files --------------------------------------------------------------------


def test_write_report_is_deterministic(tmp_path):
    cfg = make(trials=500, seed=20)
    rep = run_experiment(cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    write_report(a, "demo", cfg, rep, 1.23)
    write_report(b, "demo", cfg, rep, 9.87)
    assert (a / "demo.csv").read_bytes() == (b / "demo.csv").read_bytes()
    assert (a / "demo.json").read_bytes() == (b / "demo.json").read_bytes()
    assert (a / "demo.timing.json").read_text() != (b / "demo.timing.json").read_text()


def test_report_csv_layout(tmp_path):
    cfg = make(trials=500, seed=20)
    rep = run_experiment(cfg)
    write_report(tmp_path, "demo", cfg, rep, 0.5)
    lines = (tmp_path / "demo.csv").read_text().splitlines()
    assert lines[0] == "# crslab-report v1 selectability"
    assert lines[1].split(",")[:3] == ["eid", "u", "v"]
    assert len(lines) == 2 + 5
    cells = lines[2].split(",")
    assert cells[-1] in ("true", "false")
    # float cells are full-precision reprs that parse back exactly
    assert repr(float(cells[3])) == cells[3]


def test_report_json_layout(tmp_path):
    cfg = make(trials=300, seed=21)
    rep = run_experiment(cfg)
    write_report(tmp_path, "demo", cfg, rep, 0.5)
    payload = json.loads((tmp_path / "demo.json").read_text())
    assert set(payload) == {"kind", "config", "summary"}
    assert payload["kind"] == "selectability"
    assert payload["config"] == cfg.echo()
    assert payload["summary"]["edges"] == 5


# -- checks and metrics ---------------------------------------------------------------


def test_apply_check_ops():
    assert CHECK_OPS[">="](2, 2)
    assert not CHECK_OPS[">"](2, 2)
    assert CHECK_OPS["<="](1, 2)
    assert not CHECK_OPS["<"](3, 2)
    assert CHECK_OPS["=="](True, True)
    assert CHECK_OPS["!="](1, 2)


# -- suites ----------------------------------------------------------------------------


def suite_payload():
    return {
        "out_dir": "outs",
        "experiments": [
            {
                "name": "sel-one",
                "kind": "selectability",
                "instance": {"family": "single_edge"},
                "scheme": "rank1-closed",
                "trials": 400,
                "seed": 21,
                "checks": [
                    {"metric": "min_ratio_active", "op": ">=", "value": 0.0},
                    {"metric": "insufficient_count", "op": "==", "value": 0},
                ],
            },
            {
                "name": "prof-one",
                "kind": "profile",
                "instance": {"family": "single_edge"},
                "scheme": "rank1-closed",
                "trials": 400,
                "seed": 22,
                "bins": 2,
                "checks": [{"metric": "bins", "op": "==", "value": 2}],
            },
        ],
    }


def write_suite(tmp_path, payload, name="suite.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def test_load_suite_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_suite_config(bad)
    with pytest.raises(ConfigError, match="top-level object"):
        load_suite_config(write_suite(tmp_path, [], "l.json"))
    with pytest.raises(ConfigError, match="unknown field"):
        load_suite_config(write_suite(tmp_path, {"zzz": 1}, "u.json"))
    with pytest.raises(ConfigError, match="experiments: must be a list"):
        load_suite_config(write_suite(tmp_path, {"experiments": 5}, "e.json"))
    payload = suite_payload()
    payload["experiments"][1]["name"] = "sel-one"
    with pytest.raises(ConfigError, match="duplicate"):
        load_suite_config(write_suite(tmp_path, payload, "d.json"))
    payload = suite_payload()
    del payload["experiments"][0]["seed"]
    with pytest.raises(ConfigError, match=r"experiments\[0\]\.seed"):
        load_suite_config(write_suite(tmp_path, payload, "s.json"))


def test_suite_bad_instance_stops_before_any_report(tmp_path, capsys):
    payload = suite_payload()
    payload["experiments"][1]["instance"] = {"family": "cycle", "n": 2}
    p = write_suite(tmp_path, payload)
    with pytest.raises(ConfigError, match=r"^experiments\[1\]\.instance: cycle needs n >= 3"):
        run_suite(p, out_dir=tmp_path / "o")
    assert main(["suite", str(p), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: experiments[1].instance:")
    assert not (tmp_path / "o").exists()


def test_suite_rank1_without_unit_mass_stops_before_any_report(tmp_path, capsys):
    payload = suite_payload()
    payload["experiments"][1]["instance"] = {"family": "cycle", "n": 5, "x": 0.5}
    p = write_suite(tmp_path, payload)
    with pytest.raises(ConfigError, match=r"^experiments\[1\]\.instance: rank-1 closed form needs element values summing to 1"):
        run_suite(p, out_dir=tmp_path / "o")
    assert main(["suite", str(p), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: experiments[1].instance: rank-1")
    assert not (tmp_path / "o").exists()
    # a single run reports the same configuration error
    cfg = ExperimentConfig.from_dict(payload["experiments"][1])
    with pytest.raises(ConfigError, match=r"^instance: rank-1 closed form"):
        run_experiment(cfg)


def test_suite_unknown_metric_stops_before_any_report(tmp_path, capsys):
    payload = suite_payload()
    payload["experiments"][1]["checks"] = [{"metric": "worst_gap_sigmaa", "op": "<=", "value": 6.0}]
    p = write_suite(tmp_path, payload)
    with pytest.raises(ConfigError, match=r"^experiments\[1\]\.checks\[0\]\.metric: unknown metric 'worst_gap_sigmaa'"):
        run_suite(p, out_dir=tmp_path / "o")
    assert main(["suite", str(p), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: experiments[1].checks[0].metric: unknown metric")
    assert not (tmp_path / "o").exists()


def test_load_suite_config_skips_hardness_instances(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(crslab.harness, "generate", lambda family, **params: built.append(family))
    hardness = {"name": "h", "kind": "hardness", "instance": {"family": "complete_bipartite", "n": 2000},
                "scheme": "greedy", "trials": 10, "seed": 1}
    configs, _ = load_suite_config(write_suite(tmp_path, {"experiments": [hardness]}))
    assert [c.name for c in configs] == ["h"] and not built


def test_load_suite_config_defaults(tmp_path):
    payload = suite_payload()
    del payload["out_dir"]
    configs, out_dir = load_suite_config(write_suite(tmp_path, payload))
    assert [c.name for c in configs] == ["sel-one", "prof-one"]
    assert out_dir == "."


def test_run_suite_green(tmp_path):
    p = write_suite(tmp_path, suite_payload())
    result = run_suite(p)
    assert result.passed and result.exit_code == 0
    assert result.out_dir == tmp_path / "outs"
    for name in ("sel-one", "prof-one"):
        for ext in (".csv", ".json", ".timing.json"):
            assert (result.out_dir / f"{name}{ext}").exists()
    payload = json.loads((result.out_dir / "suite.json").read_text())
    assert payload["passed"] is True
    assert [e["name"] for e in payload["experiments"]] == ["sel-one", "prof-one"]
    assert all(c["passed"] for e in payload["experiments"] for c in e["checks"])


def test_run_suite_reruns_identically(tmp_path):
    p = write_suite(tmp_path, suite_payload())
    a = run_suite(p, out_dir=tmp_path / "a")
    b = run_suite(p, out_dir=tmp_path / "b")
    files_a = sorted(f.name for f in a.out_dir.iterdir())
    files_b = sorted(f.name for f in b.out_dir.iterdir())
    assert files_a == files_b
    for name in files_a:
        if name.endswith(".timing.json"):
            continue
        assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes(), name


def test_worker_count_only_in_sidecars(tmp_path, monkeypatch):
    p = write_suite(tmp_path, {"out_dir": "outs", "experiments": [BASE]})
    monkeypatch.setattr(crslab.matching, "ROW_BLOCK_ELEMS", 20)  # many row blocks
    outs = {}
    for workers in (1, 3):
        monkeypatch.setattr(crslab.matching, "WORKERS", workers)
        outs[workers] = run_suite(p, out_dir=tmp_path / str(workers)).out_dir
        for name in ("demo.timing.json", "suite.timing.json"):
            assert json.loads((outs[workers] / name).read_text())["workers"] == workers
    for name in ("demo.csv", "demo.json", "suite.json"):
        data = (outs[3] / name).read_bytes()
        assert b"workers" not in data, name
        assert data == (outs[1] / name).read_bytes(), name


def test_run_suite_red(tmp_path):
    payload = suite_payload()
    payload["experiments"][0]["checks"] = [
        {"metric": "min_ratio_active", "op": ">=", "value": 2.0}
    ]
    result = run_suite(write_suite(tmp_path, payload))
    assert not result.passed and result.exit_code == 1
    entry = result.entries[0]
    assert entry["passed"] is False
    assert entry["checks"][0]["actual"] < 2.0


# -- command line ------------------------------------------------------------------------


def test_cli_generate_list(capsys):
    assert main(["generate", "--list"]) == 0
    out = capsys.readouterr().out
    assert "cycle" in out and "complete_bipartite" in out


def test_cli_generate_prints_json(capsys):
    assert main(["generate", "--family", "cycle", "--param", "n=5", "--param", "x=0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertex_count"] == 5


def test_cli_generate_to_file(tmp_path):
    out = tmp_path / "c7.json"
    assert main(["generate", "--family", "cycle", "--param", "n=7", "--out", str(out)]) == 0
    assert Graph.load(out).vertex_count == 7


def test_cli_validate(tmp_path, capsys):
    p = tmp_path / "c5.json"
    cycle(5, 0.5).save(p)
    assert main(["validate", str(p)]) == 0
    out = capsys.readouterr().out
    assert "vertices: 5" in out
    assert "one-regular: True" in out
    assert "odd girth: 5" in out
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "payload,field",
    [
        ({}, "missing field 'vertex_count'"),
        ({"vertex_count": 3, "edges": [[0, 1]]}, "edges[0] must be [u, v, x]"),
        ({"vertex_count": 3, "edges": [[0.5, 1, 0.5]]}, "edges[0]: integer vertex ids required, got 0.5, 1"),
        ({"vertex_count": 3, "edges": [[True, 1, 0.5]]}, "edges[0]: integer vertex ids required, got True, 1"),
        ({"vertex_count": 2.7, "edges": [[0, 1, 0.5]]}, "vertex_count: integer required, got 2.7"),
        ({"vertex_count": 2, "edges": [[0, 1, None]]}, "edges[0]: number x required, got None"),
        ({"vertex_count": 2, "edges": [[0, 1, "0.5"]]}, "edges[0]: number x required, got '0.5'"),
        ({"vertex_count": 2, "edges": [[0, 1, True]]}, "edges[0]: number x required, got True"),
    ],
)
def test_cli_malformed_instance_file(tmp_path, capsys, payload, field):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    simulate = ["simulate", "--instance", str(p), "--scheme", "rank1-closed", "--trials", "10", "--seed", "1"]
    for argv in (["validate", str(p)], simulate):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and err.count("\n") == 1, argv


def test_cli_selection(capsys, tmp_path):
    assert main(["selection", "--g", "5,infinite", "--certify", "--grid", "200"]) == 0
    out = capsys.readouterr().out
    assert "g=5:" in out and "g=inf:" in out
    assert out.count("certificate[200]") == 2
    table = tmp_path / "sel.csv"
    assert main(["selection", "--g", "5", "--grid", "50", "--out", str(table)]) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "# crslab-report v1 selection" == f"# {CSV_VERSION} selection"
    assert lines[1] == "y,c,phi"
    assert len(lines) == 2 + 51


def test_cli_selection_edge_kind(capsys):
    assert main(["selection", "--edge", "rank1"]) == 0
    assert capsys.readouterr().out.count("edge[rank1]") == 1


def test_cli_simulate(tmp_path, capsys):
    code = main(
        [
            "simulate", "--family", "single_edge",
            "--scheme", "rank1-closed", "--trials", "200", "--seed", "3",
            "--name", "s1", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert "min_ratio_active=" in capsys.readouterr().out
    for ext in (".csv", ".json", ".timing.json"):
        assert (tmp_path / f"s1{ext}").exists()


def test_cli_simulate_two_phase(capsys):
    code = main(
        [
            "simulate", "--family", "cycle", "--param", "n=5", "--param", "x=0.5",
            "--scheme", "two-phase", "--t", "t0", "--trials", "150", "--seed", "4",
        ]
    )
    assert code == 0
    assert "min_ratio_active=" in capsys.readouterr().out


def test_cli_profile(capsys):
    code = main(
        [
            "profile", "--family", "cycle", "--param", "n=5", "--param", "x=0.5",
            "--scheme", "recursive-vertex", "--g", "5", "--T", "4", "--delta", "0.1",
            "--Q", "50", "--trials", "400", "--seed", "6", "--bins", "4",
        ]
    )
    assert code == 0
    assert "all_pass=" in capsys.readouterr().out


RUN = ["--trials", "10", "--seed", "1"]
C5 = ["--family", "cycle", "--param", "n=5", "--param", "x=0.5"]

# Every usage or configuration error: (argv, the one stderr line's text).
CLI_ERRORS = [
    (["simulate", *C5, "--scheme", "recursive-vertex", "--delta", "0.1", *RUN],
     "config error: params.T: required for scheme recursive-vertex"),
    (["simulate", *C5, "--scheme", "recursive-edge", "--selection", "edge_tree", "--T", "4", *RUN],
     "config error: params.delta: required for scheme recursive-edge"),
    (["simulate", *C5, "--scheme", "two-phase", *RUN], "config error: params.t: required for scheme two-phase"),
    (["simulate", *C5, "--scheme", "two-phase", "--t", "abc", *RUN],
     "crslab simulate: error: argument --t: invalid threshold value: 'abc'"),
    (["diag", "--what", "gap", *C5, *RUN], "config error: params.t_k: required for kind=gap"),
    (["simulate", "--scheme", "rank1-closed", *RUN], "config error: instance: object with 'family'"),
    (["simulate", "--family", "cycle", "--param", "n5", "--scheme", "rank1-closed", *RUN],
     "config error: --param: key=value expected, got 'n5'"),
    (["selection", "--g", "3,5", "--out", "unwritten.csv"], "config error: --out: exactly one --g value expected"),
    (["generate"], "config error: instance.family: must be one of"),
    (["generate", "--family", "cycle", "--param", "n5"], "config error: --param: key=value expected, got 'n5'"),
    (["generate", "--family", "cycle", "--param", "n=2"], "config error: instance: cycle needs n >= 3"),
    (["generate", "--family", "cycle", "--param", "n=abc"], "config error: instance: '<' not supported"),
    (["generate", "--family", "cycle", "--param", "m=3"], "config error: instance: cycle() got an unexpected keyword"),
    (["generate", "--family", "star", "--param", "k=3"], "config error: instance: star() missing 1 required"),
    (["generate", "--family", "cycle", "--param", "family=star", "--param", "k=2", "--param", "x=0.5"],
     "config error: --param: family is not a generator parameter"),
    (["generate", "--family", "cycle", "--param", "path=f.json"], "config error: --param: path is not a generator parameter"),
    (["simulate", "--family", "cycle", "--param", "family=star", "--param", "k=2", "--scheme", "rank1-closed", *RUN],
     "config error: --param: family is not a generator parameter"),
    (["selection", "--edge", "edge_general", "--certify"],
     "config error: --certify: the certificate checks vertex-mode selection functions, not --edge"),
    (["selection", "--grid", "-1", "--out", "t.csv"], "config error: --grid: must be >= 1"),
    (["selection", "--grid", "-3", "--out", "t.csv"], "config error: --grid: must be >= 1"),
    (["selection", "--grid", "1", "--certify"], "config error: --grid: must be >= 2 with --certify"),
    # a run flag that the scheme does not take, as a suite file's params would
    (["simulate", "--family", "star", "--param", "k=4", "--param", "x=0.25", "--scheme", "rank1-closed", "--T", "10",
      "--delta", "0.3", "--g", "5", "--selection", "edge_tree", *RUN],
     "config error: params.T: not a parameter of scheme rank1-closed"),
    (["profile", *C5, "--scheme", "recursive-edge", "--selection", "edge_tree", "--T", "4", "--delta", "0.1",
      "--g", "5", *RUN], "config error: params.g: not a parameter of scheme recursive-edge"),
    (["simulate", *C5, "--scheme", "two-phase", "--t", "0.5", "--Q", "10", *RUN],
     "config error: params.Q: not a parameter of scheme two-phase"),
    (["simulate", *C5, "--scheme", "recursive-vertex", "--T", "4", "--delta", "0.1", "--t", "0.5", *RUN],
     "config error: params.t: not a parameter of scheme recursive-vertex"),
    # a diag flag that the chosen --what never reads
    (["diag", "--what", "flipping", *C5, "--t-k", "0.5", *RUN], "config error: --t-k: not read by diag --what flipping"),
    (["diag", "--what", "flipping", *C5, "--n", "5", *RUN], "config error: --n: not read by diag --what flipping"),
    (["diag", "--what", "gap", *C5, "--t-k", "0.5", "--n", "5", *RUN], "config error: --n: not read by diag --what gap"),
    (["diag", "--what", "gap", *C5, "--t-k", "0.5", "--t-max", "3", *RUN],
     "config error: --t-max: not read by diag --what gap"),
    (["diag", "--what", "hardness", "--n", "4", *C5, *RUN], "config error: --family: not read by diag --what hardness"),
    (["diag", "--what", "hardness", "--instance", "g.json", *RUN],
     "config error: --instance: not read by diag --what hardness"),
    (["diag", "--what", "hardness", "--g", "5", *RUN], "config error: --g: not read by diag --what hardness"),
    (["diag", "--what", "hardness", "--T", "4", "--delta", "0.1", *RUN], "config error: --T: not read by diag --what hardness"),
    (["diag", "--what", "hardness", "--Q", "50", *RUN], "config error: --Q: not read by diag --what hardness"),
    (["diag", "--what", "hardness", "--u", "0", "--v", "1", *RUN], "config error: --u: not read by diag --what hardness"),
    (["diag", "--what", "hardness", "--v", "1", *RUN], "config error: --v: not read by diag --what hardness"),
    (["diag", "--what", "hardness", "--t-k", "0.5", *RUN], "config error: --t-k: not read by diag --what hardness"),
    # a selection flag that the run never reads
    (["selection", "--edge", "edge_tree", "--g", "3,5"], "config error: --g: not read with --edge"),
    (["selection", "--g", "5", "--grid", "7"], "config error: --grid: read only with --certify or --out"),
]


@pytest.mark.parametrize("argv,message", CLI_ERRORS)
def test_cli_error_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2
    assert not captured.out  # checked before any output
    if "argument --" in message:  # argparse prints its usage before its own errors
        assert lines[0].startswith("usage: ")
        lines = lines[-1:]
    assert len(lines) == 1 and lines[0].startswith(message)
    assert not list(tmp_path.iterdir())


def test_cli_config_error_exit_code(capsys):
    code = main(
        [
            "simulate", "--family", "cycle", "--param", "n=5", "--param", "x=0.5",
            "--scheme", "recursive-vertex", "--g", "4", "--T", "4", "--delta", "0.1",
            "--Q", "50", "--trials", "100", "--seed", "2",
        ]
    )
    assert code == 2
    assert "config error: params.g" in capsys.readouterr().err


def test_cli_diag_hardness(capsys):
    assert main(["diag", "--what", "hardness", "--n", "30", "--trials", "40", "--seed", "4"]) == 0
    assert "mean_final=" in capsys.readouterr().out


def test_cli_diag_flipping(capsys):
    code = main(
        [
            "diag", "--what", "flipping", "--family", "cycle", "--param", "n=5",
            "--param", "x=0.5", "--g", "5", "--T", "4", "--delta", "0.1", "--Q", "50",
            "--u", "0", "--v", "1", "--trials", "300", "--seed", "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "violations=0" in out


def test_cli_diag_gap(capsys):
    code = main(
        [
            "diag", "--what", "gap", "--family", "cycle", "--param", "n=5",
            "--param", "x=0.5", "--g", "5", "--T", "4", "--delta", "0.1", "--Q", "50",
            "--u", "0", "--v", "1", "--t-k", "0.5", "--trials", "300", "--seed", "6",
        ]
    )
    assert code == 0
    assert "within_bound=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "what,uv,message",
    [("gap", ("0", "2"), "params.v: (0,2) is not an edge"), ("flipping", ("7", "1"), "params.u: vertex 7 outside")],
)
def test_cli_diag_bad_vertices(capsys, what, uv, message):
    code = main(
        [
            "diag", "--what", what, "--family", "cycle", "--param", "n=5", "--param", "x=0.5",
            "--g", "5", "--T", "4", "--delta", "0.1", "--Q", "50", "--u", uv[0], "--v", uv[1],
            *(["--t-k", "0.5"] if what == "gap" else []), "--trials", "100", "--seed", "5",
        ]
    )
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_cli_suite(tmp_path, capsys):
    p = write_suite(tmp_path, suite_payload())
    assert main(["suite", str(p), "--out-dir", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "sel-one: ok" in out
    assert "suite: ok" in out
    payload = suite_payload()
    payload["experiments"][0]["checks"] = [{"metric": "edges", "op": "==", "value": 99}]
    p2 = write_suite(tmp_path, payload, "red.json")
    assert main(["suite", str(p2), "--out-dir", str(tmp_path / "o2")]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("out_dir", [5, None, ["a"]])
def test_cli_suite_out_dir_must_be_a_string(tmp_path, capsys, out_dir):
    p = write_suite(tmp_path, {"out_dir": out_dir, "experiments": []})
    assert main(["suite", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out_dir: string required") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [p]


def test_cli_suite_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["suite", str(bad)]) == 2
    assert "config error:" in capsys.readouterr().err
    hardness = {"name": "h", "kind": "hardness", "instance": [], "scheme": "greedy", "trials": 10, "seed": 1}
    assert main(["suite", str(write_suite(tmp_path, {"experiments": [hardness]}))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: experiments[0].instance: kind=hardness requires") and err.count("\n") == 1


def test_cli_suite_hardness_instance_takes_only_family_and_n(tmp_path, capsys):
    hardness = {"name": "h", "kind": "hardness", "scheme": "greedy", "trials": 10, "seed": 1,
                "instance": {"family": "complete_bipartite", "n": 4, "x": 0.3, "bogus": 1}}
    out = tmp_path / "out"
    assert main(["suite", str(write_suite(tmp_path, {"experiments": [hardness]})), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: experiments[0].instance.x: kind=hardness takes only family and n\n"
    assert not out.exists()
