"""Every public name of the library has a caller inside the library.

A name in a module's `__all__` must be read somewhere in `src/crslab`
outside its own definition (a class's own methods or a function's own body
do not count); `cli.main` is the command's entry point. Code that only the
tests call belongs in `tests/` (see `tests/oracles.py` and
`tests/analysis.py`), and so does a setting that only the tests make: every
defaulted parameter of a public function is set by some library call.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import crslab
from crslab import harness
from crslab.harness import KINDS

ENTRY_POINTS = {("crslab.cli", "main")}


def _modules() -> list:
    """The package and each of its modules."""
    return [crslab] + [importlib.import_module(f"crslab.{m.name}") for m in pkgutil.iter_modules(crslab.__path__)]


def _used_names() -> set[str]:
    """Names read in the library, each outside the top-level definition it names."""
    used = set()
    for path in Path(crslab.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return used


def test_every_public_name_has_a_library_caller():
    used = _used_names()
    unused = [
        f"{mod.__name__}.{name}"
        for mod in _modules()
        for name in getattr(mod, "__all__", ())
        if name not in used and (mod.__name__, name) not in ENTRY_POINTS
    ]
    assert not unused, f"public names that only tests use: {unused}"


def test_vertex_layout_has_one_owner():
    """`sample_choices_batch` is named only in `crslab.arrivals`, where
    `vertex_arrivals` fixes the order of a chunk's vertex-mode draws."""
    owners = set()
    for path in Path(crslab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            names += [getattr(node, "id", None), getattr(node, "attr", None)]
            if "sample_choices_batch" in names:
                owners.add(path.stem)
    assert owners == {"arrivals"}


def test_row_draws_have_one_owner():
    """`crslab.rng.rows` is imported and called only in `crslab.arrivals`,
    whose layouts fix the order of every engine chunk's draws."""
    owners = set()
    for path in Path(crslab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Call):
                names = [getattr(node.func, "id", None), getattr(node.func, "attr", None)]
            else:
                continue
            if "rows" in names:
                owners.add(path.stem)
    assert owners == {"arrivals"}


def _label(top: ast.stmt) -> str:
    """A top-level definition's name, a one-name assignment's target, else `<module>`."""
    if isinstance(top, ast.Assign) and len(top.targets) == 1 and isinstance(top.targets[0], ast.Name):
        return top.targets[0].id
    return getattr(top, "name", "<module>")


def _readers(name: str) -> set[str]:
    """The top-level definitions, as module.name, that read or import `name`."""
    readers = set()
    for path in Path(crslab.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.append(node.id)
                elif isinstance(node, ast.Attribute):
                    names.append(node.attr)
                if name in names:
                    readers.add(f"{path.stem}.{_label(top)}")
    return readers


def test_fill_policy_has_one_owner():
    """`FILL_ROW_CHUNK` and `required_samples` are read only inside
    `recursive._fill`, the one phase loop of both table fills."""
    assert _readers("FILL_ROW_CHUNK") | _readers("required_samples") == {"recursive._fill"}


def test_vertex_keep_rule_has_one_owner():
    """`_pair_estimate` is read only in `recursive._vertex_keep`, the keep
    rule that the vertex engine and the flip indicator's witness share."""
    assert _readers("_pair_estimate") == {"recursive._vertex_keep"}


def test_row_block_budget_has_one_owner():
    """`ROW_BLOCK_ELEMS` is read only inside `crslab.matching`; every other
    row-block loop takes its ranges from `matching._row_blocks`."""
    assert {reader.split(".")[0] for reader in _readers("ROW_BLOCK_ELEMS")} == {"matching"}


def _set_parameters() -> dict[str, tuple[int, set[str]]]:
    """Per called name: the most positional arguments any library call
    passes before its first starred one, and every keyword any call names
    (a starred argument or `**` sets nothing)."""
    out: dict[str, tuple[int, set[str]]] = {}
    for path in Path(crslab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            positional = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
            most, keywords = out.get(name, (0, set()))
            out[name] = (max(most, positional), keywords | {k.arg for k in node.keywords if k.arg})
    return out


def test_every_defaulted_parameter_is_set_by_a_library_call():
    """A public function's parameter with a default is a knob; some call in
    `src/crslab` must set it, by position or by keyword. Tests that need
    another setting make it on their side."""
    calls = _set_parameters()
    unset = []
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name)
            if not inspect.isfunction(fn) or (mod.__name__, name) in ENTRY_POINTS:
                continue
            most, keywords = calls.get(name, (0, set()))
            for i, param in enumerate(inspect.signature(fn).parameters.values()):
                if param.default is not param.empty and i >= most and param.name not in keywords:
                    unset.append(f"{mod.__name__}.{name}({param.name})")
    assert not unset, f"defaulted parameters that no library call sets: {unset}"


def test_each_runner_is_read_only_in_its_table():
    """Each kind's runner is read only in `harness.KINDS`, which
    `run_experiment` dispatches through, and each engine's simulation entry
    only in `harness.SCHEMES` (and the import there)."""
    for kind, (_, runner) in KINDS.items():
        assert _readers(runner.__name__) == {"harness.KINDS"}, kind
    for name in ("simulate_vertex", "simulate_edge", "simulate_rank1", "simulate_two_phase"):
        assert _readers(name) == {"harness.<module>", "harness.SCHEMES"}, name
    assert not hasattr(harness, "_run_scheme")
