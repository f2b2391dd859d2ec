"""The package's layers keep the order its docstring gives them.

numerics -> geometry -> focal -> skeleton -> body -> cli: each module imports
only modules listed before it, so a lower layer never knows of a higher one,
and a skeleton keeps no state for the body built on it.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import peabody4d
from peabody4d.body import build_ball_model, sample_theta
from peabody4d.skeleton import FocalSkeleton, build_focal_skeleton

PACKAGE = Path(peabody4d.__file__).parent
LAYERS = ["numerics", "geometry", "focal", "skeleton", "body", "cli"]


def test_the_package_docstring_lists_every_module_in_layer_order():
    listed = [line.split()[0] for line in peabody4d.__doc__.splitlines()
              if " -- " in line]
    assert listed == LAYERS
    assert sorted(p.stem for p in PACKAGE.glob("*.py")
                  if p.stem != "__init__") == sorted(LAYERS)


def imported_modules(name):
    """The package modules that module name imports, read with ast."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from .focal import x" and "from . import focal" alike
            base = (["peabody4d"] if node.level else []) + (
                node.module.split(".") if node.module else [])
            paths = [base + ([alias.name] if not node.module else [])
                     for alias in node.names]
        else:
            continue
        found.update(path[1] for path in paths
                     if path[0] == "peabody4d" and len(path) > 1)
    return found


@pytest.mark.parametrize("name", LAYERS)
def test_no_module_imports_a_later_layer(name):
    assert imported_modules(name) <= set(LAYERS[:LAYERS.index(name)])


def test_the_import_reader_finds_every_import_of_the_cli():
    assert imported_modules("cli") == {"numerics", "geometry", "focal",
                                       "skeleton", "body"}
    assert imported_modules("numerics") == set()


def test_a_skeleton_that_served_a_sampler_keeps_only_its_own_state(
        constants, simplex, group):
    skeleton = build_focal_skeleton(constants, simplex, group)
    model = build_ball_model(skeleton, patch_grid=(16, 24), arc_n=64)
    sample_theta(model, 2000, seed=0)
    own = {f.name for f in dataclasses.fields(FocalSkeleton)}
    assert set(vars(skeleton)) == own | {"_by_label"}


def test_only_the_constants_default_to_the_canonical_a_sq():
    """a^2 = 3/2 is a default in one place; every other function takes c."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = node.args.defaults + node.args.kw_defaults
                if any(isinstance(d, ast.Constant) and d.value == 1.5
                       for d in defaults):
                    found.add(f"{path.stem}.{node.name}")
    assert found == {"numerics.compute_model_constants"}


def unread_imports(path):
    """The names that the module at path imports and never reads, by ast."""
    imported, read = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return imported - read


def test_every_imported_name_is_read():
    # an __init__.py imports names to re-export them
    root = Path(__file__).resolve().parent.parent
    found = {f"{path.relative_to(root)}: {name}"
             for folder in ("src", "tests", "demos")
             for path in (root / folder).rglob("*.py")
             if path.name != "__init__.py"
             for name in unread_imports(path)}
    assert found == set()
