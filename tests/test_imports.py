"""Every name a package module imports is used in that module, every
private function or class it defines is used somewhere else in the package,
and importing the command line loads no scipy module but the oracle's
scipy.linalg."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hnls_utm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, "%s imports unused names %s" % (path.name, unused)


def _private_definitions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            yield node


def _referenced_names(nodes):
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    return names


TREES = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_private_definitions_are_used_in_the_package(path):
    # a private function or class that only tests reach is dead code
    unused = []
    for definition in _private_definitions(TREES[path]):
        elsewhere = [top for p, tree in TREES.items() for top in tree.body
                     if top is not definition]
        if definition.name not in _referenced_names(elsewhere):
            unused.append(definition.name)
    assert not unused, "%s defines %s, used nowhere else in the package" % (
        path.name, unused)


def test_no_private_function_in_linear_takes_ell():
    # every problem is solved as its twin on [0, 1]: the interval length is
    # read only where make_plan and SolvePlan.apply map a problem there and
    # back, never passed below them, nor to any function of the region
    # geometry, which is the unit interval's
    takes_ell = []
    for name in ("linear.py", "regions.py"):
        for node in ast.walk(TREES[PACKAGE / name]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            private = node.name.startswith("_") and not node.name.startswith("__")
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            if "ell" in names and (private or name == "regions.py"):
                takes_ell.append("%s: %s" % (name, node.name))
    assert not takes_ell, "%s take ell" % sorted(takes_ell)


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # the one spline is numpy's: only the oracle's banded LU needs scipy
    heavy = ("scipy.interpolate", "scipy.special", "scipy.sparse")
    code = ("import sys, hnls_utm.cli; "
            "print(' '.join(m for m in %r if m in sys.modules))" % (heavy,))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
