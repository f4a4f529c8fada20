"""Every public name of the library has a caller inside the library.

A name in a module's `__all__` must be read somewhere in `src/crslab`
outside its own definition (a class's own methods or a function's own body
do not count); `cli.main` is the command's entry point. Code that only the
tests call belongs in `tests/` (see `tests/oracles.py` and
`tests/analysis.py`).
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import crslab

ENTRY_POINTS = {("crslab.cli", "main")}


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
    modules = [crslab] + [importlib.import_module(f"crslab.{m.name}") for m in pkgutil.iter_modules(crslab.__path__)]
    unused = [
        f"{mod.__name__}.{name}"
        for mod in modules
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


def test_fill_policy_has_one_owner():
    """`FILL_ROW_CHUNK` and `required_samples` are read only inside
    `recursive._fill`, the one phase loop of both table fills."""
    readers = set()
    for path in Path(crslab.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.append(node.id)
                elif isinstance(node, ast.Attribute):
                    names.append(node.attr)
                if {"FILL_ROW_CHUNK", "required_samples"} & set(names):
                    readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert readers == {"recursive._fill"}
