"""The package's source against pyproject.toml: requires-python >= 3.10 and
numpy as the one runtime dependency; each module's ``__all__`` against the
names the module defines; ``np.linalg.norm`` confined to the scaled column
norm; and no switch of numpy's floating-point error handling."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "rrckit").glob("*.py"))
by_name = pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)


def parse(path: Path) -> ast.Module:
    # feature_version rejects grammar newer than Python 3.10.
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                     feature_version=(3, 10))


@by_name
def test_parses_as_python_3_10(path):
    parse(path)


@by_name
def test_imports_only_numpy_and_the_stdlib(path):
    tree = parse(path)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    outside = {name.split(".")[0] for name in imported} - set(sys.stdlib_module_names)
    assert outside <= {"numpy"}


@by_name
def test_every_exported_name_is_defined(path):
    # A stale entry would also break perfbench's tracer, which looks up every
    # name in each module's __all__.
    module = importlib.import_module(
        "rrckit" if path.stem == "__init__" else f"rrckit.{path.stem}")
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def _linalg_norm_uses(node, scope):
    """The scope of every np.linalg.norm reference (or numpy.linalg norm import)."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Attribute) and child.attr == "norm":
            if ast.unparse(child.value).split(".")[-1] == "linalg":
                yield inner
        if isinstance(child, ast.ImportFrom) and child.module == "numpy.linalg":
            if any(alias.name == "norm" for alias in child.names):
                yield inner
        yield from _linalg_norm_uses(child, inner)


def test_only_the_scaled_column_norm_calls_linalg_norm():
    # Every reported residual figure is a power-of-two-scaled pairwise sum
    # without BLAS, taken by linalg._column_norms; an unscaled norm can
    # overflow near the float maximum.
    uses = [use for path in SOURCES for use in _linalg_norm_uses(parse(path), path.stem)]
    assert uses == ["linalg._column_norms"]


def test_no_module_silences_floating_point_errors():
    # A fit decides overflow from the window peaks before it forms a product
    # (model._finite_features), so no computation needs numpy's overflow or
    # invalid-value warnings switched off.
    silencers = {"errstate", "seterr"}
    uses = [f"{path.stem}:{node.lineno}" for path in SOURCES for node in ast.walk(parse(path))
            if isinstance(node, ast.Attribute) and node.attr in silencers
            or isinstance(node, ast.ImportFrom)
            and any(alias.name in silencers for alias in node.names)]
    assert uses == []
