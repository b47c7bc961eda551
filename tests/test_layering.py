"""The package imports in one direction, at module level only.

The layers, bottom to top: grid_field, material -> order_parameter,
elasticity, reduction3d -> config -> diagnostics -> simulator -> studies ->
cli.  A module may import only modules listed before it in ``ORDER``, so the
intra-package import graph is acyclic and needs no deferred imports.

From scipy the package imports only the top-level ``scipy`` package, in
``grid_field``, which loads the compiled LAPACK extension
``scipy.linalg._flapack`` by file for ``dgtsv``, ``dgttrf`` and ``dgttrs``.
Beyond what ``import numpy, scipy`` loads, a cold start therefore runs
neither ``scipy.linalg``'s package init (and the ``numpy.f2py``, ``numpy.ma``
and ``numpy.testing`` it pulls in) nor ``scipy.integrate``,
``scipy.interpolate`` and their subpackages; the tests still use those as
oracles.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "confsim"

ORDER = (
    "grid_field",
    "material",
    "order_parameter",
    "elasticity",
    "reduction3d",
    "config",
    "diagnostics",
    "simulator",
    "studies",
    "cli",
    "__init__",
)

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


def package_imports(tree):
    """(line, module) for every import of a confsim module in ``tree``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "confsim":
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                out.append((node.lineno, parts[0]))
            else:  # ``from . import diagnostics``
                out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".") + ["__init__"]
                if parts[0] == "confsim":
                    out.append((node.lineno, parts[1]))
    return out


def test_order_lists_every_module():
    assert sorted(ORDER) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    nested = [
        inner.lineno
        for node in ast.walk(parse(name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"{name}.py imports inside a function at lines {nested}"


@pytest.mark.parametrize("name", MODULES)
def test_imports_point_down(name):
    rank = ORDER.index(name)
    upward = [
        f"line {line}: {target}"
        for line, target in package_imports(parse(name))
        if target not in ORDER or ORDER.index(target) >= rank
    ]
    assert not upward, f"{name}.py imports at or above its layer: {upward}"


SCIPY_IMPORTER = "grid_field"
SCIPY_HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.optimize", "scipy.sparse")
NOT_AT_COLD_START = ("scipy.linalg", "numpy.f2py", "numpy.ma", "numpy.testing")


def scipy_imports(tree):
    """(line, module) for every import that names a scipy module in ``tree``.

    ``from scipy import x`` is reported as ``scipy.x``: it may load a subpackage.
    """
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        out.extend((node.lineno, name) for name in names if name.split(".")[0] == "scipy")
    return out


@pytest.mark.parametrize("name", MODULES)
def test_scipy_only_for_lapack(name):
    allowed = ["scipy"] if name == SCIPY_IMPORTER else []
    other = [f"line {line}: {mod}" for line, mod in scipy_imports(parse(name)) if mod not in allowed]
    assert not other, f"{name}.py imports scipy beyond {allowed or 'nothing'}: {other}"


def run_probe(code):
    """stdout of ``python -c code`` in a fresh interpreter that can import confsim."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_cold_start_loads_no_heavy_scipy():
    # Only what confsim adds over ``import numpy, scipy`` counts: numpy 1.x
    # imports numpy.ma and numpy.testing from its own __init__.
    probe = (
        "import sys, numpy, scipy; before = set(sys.modules); "
        "import confsim, confsim.cli; "
        f"print(' '.join(m for m in set(sys.modules) - before "
        f"if m.startswith({SCIPY_HEAVY!r}) or m in {NOT_AT_COLD_START!r}))"
    )
    assert run_probe(probe).split() == []


@pytest.mark.parametrize(
    "first, second", [("confsim.grid_field", "scipy.linalg.lapack"), ("scipy.linalg.lapack", "confsim.grid_field")]
)
def test_dgtsv_is_scipy_lapack_dgtsv(first, second):
    # the factor and solve pair too, which also shows that the extension provides them
    probe = (
        f"import sys, {first}, {second}; "
        "ours, theirs = sys.modules['confsim.grid_field'], sys.modules['scipy.linalg.lapack']; "
        "print(*(getattr(ours, name) is getattr(theirs, name) for name in ('dgtsv', 'dgttrf', 'dgttrs')))"
    )
    assert run_probe(probe).split() == ["True", "True", "True"]
