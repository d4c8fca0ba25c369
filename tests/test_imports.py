"""Every name a package module imports is used in that module, every
private function or class it defines is used somewhere else in the package,
importing the package or its command line, or running the oracle, loads no
scipy module at all, the oracle keeps the module-level name it solves
through, and a first solve loads no module."""

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


# names a module imports only so that perfbench's tracer can patch them in
# its namespace, until the tracer's rework (ROADMAP item 4)
TRACER_BINDINGS = {"linear.py": {"arc_half_angle"}, "nonlinear.py": {"solve_full"}}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used
                    - TRACER_BINDINGS.get(path.name, set()))
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


def _run(code):
    """The standard output of code run in a fresh interpreter with the
    package on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("module", ["hnls_utm", "hnls_utm.cli"])
def test_import_loads_no_scipy_module(module):
    # the solver and the oracle are numpy's
    code = ("import sys, %s; print(' '.join(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))" % module)
    assert _run(code).split() == []


def test_oracle_solve_loads_no_scipy_module():
    # the oracle factors and solves its step with numpy through the
    # module-level name lapack, which perfbench's tracer swaps
    code = """if True:
        import sys
        from hnls_utm import oracle
        from hnls_utm.dispersion import DispersionParams
        from hnls_utm.presets import plane_wave_data
        oracle.oracle_solve(plane_wave_data(DispersionParams(1.0, 0.0, 0.0),
                                            1.0, 0.5, 2.0),
                            oracle.OracleConfig(nx=16, nt=16))
        print(' '.join(m for m in sys.modules
                       if m == 'scipy' or m.startswith('scipy.')) or '-',
              'lapack' in vars(oracle),
              oracle.lapack.zgbtrf is oracle._factor,
              oracle.lapack.zgbtrs is oracle._solve)
    """
    assert _run(code).split() == ["-", "True", "True", "True"]


def test_first_solve_loads_no_module():
    # whatever a solve needs is loaded by importing the package, so a first
    # solve's time is the solve's: np.unique, for one, imports numpy.ma
    code = """if True:
        import sys
        from hnls_utm import QuadratureBudget, solve_full
        from hnls_utm.dispersion import DispersionParams
        from hnls_utm.presets import plane_wave_data
        data = plane_wave_data(DispersionParams(1.0, 0.0, 0.0), 1.0, 0.5, 2.0)
        before = set(sys.modules)
        solve_full(data, (9, 9), QuadratureBudget())
        print(' '.join(sorted(set(sys.modules) - before)))
    """
    assert _run(code).split() == []
