"""Layering: no library module imports the Laurent-series engine, which is
the tests' reference, the library imports only the standard library and
numpy, numpy stays off the residue path's start-up, only small frozen
configurations key a functools cache, the test extras cover what the tests
import, and the package exports exactly the public names it imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

import su2dh
from conftest import PACKAGE, run_child


def imports_series(path: Path) -> bool:
    """True if the module imports su2dh.series in any spelling."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            if any(alias.name == "su2dh.series" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level and module == "series") or module == "su2dh.series":
                return True
            if module in ("", "su2dh") and any(alias.name == "series" for alias in node.names):
                return True
    return False


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "series.py")
)
def test_module_does_not_import_series(name):
    assert not imports_series(PACKAGE / name)


def test_the_guard_sees_each_spelling(tmp_path):
    spellings = [
        "from .series import mul",
        "from . import series",
        "from su2dh.series import mul",
        "from su2dh import series",
        "import su2dh.series",
    ]
    for i, line in enumerate(spellings):
        module = tmp_path / f"m{i}.py"
        module.write_text(line + "\n", encoding="utf-8")
        assert imports_series(module), line


def imported_roots(path: Path) -> set[str]:
    """Top-level names of the modules a file imports anywhere; "su2dh" if relative."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("su2dh" if node.level else node.module.partition(".")[0])
    return roots


def test_library_imports_only_the_standard_library_and_numpy():
    # the dependency rule: no runtime dependency beyond numpy
    allowed = set(sys.stdlib_module_names) | {"numpy", "su2dh"}
    for path in sorted(PACKAGE.glob("*.py")):
        assert imported_roots(path) <= allowed, path.name


def test_the_import_guard_sees_each_spelling(tmp_path):
    spellings = {
        "import scipy.special": {"scipy"},
        "from mpmath import mpf": {"mpmath"},
        "def f():\n    import sympy as sp": {"sympy"},
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np": {
            "typing", "numpy"
        },
        "from . import model\nfrom .residue import density": {"su2dh"},
    }
    for i, (text, expected) in enumerate(spellings.items()):
        module = tmp_path / f"m{i}.py"
        module.write_text(text + "\n", encoding="utf-8")
        assert imported_roots(module) == expected, text


def test_the_export_list_is_what_the_package_imports():
    # `__version__` is package metadata, not an export
    exported = su2dh.__all__
    assert all(hasattr(su2dh, name) for name in exported)
    assert len(set(exported)) == len(exported)
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(exported) == {name for name in imported if not name.startswith("_")}


def test_the_test_extras_cover_what_the_tests_import():
    tomllib = pytest.importorskip("tomllib")
    tests = Path(__file__).resolve().parent
    pyproject = (tests.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = tomllib.loads(pyproject)["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
        for requirement in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    local = {path.stem for path in tests.glob("*.py")}
    imported = set().union(*(imported_roots(path) for path in tests.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - local - {"su2dh"}
    assert third_party <= declared


_CACHES = {"lru_cache", "cache"}


def cached_functions(path: Path) -> list[str]:
    """Names of the functions a module decorates with a functools cache.

    Import aliases are followed.  A cache applied other than as a decorator,
    such as ``lru_cache(maxsize=4)(f)``, is listed as ``"?"``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set(_CACHES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(a.asname for a in node.names if a.name in _CACHES and a.asname)

    def is_cache(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr in _CACHES
        )

    decorated = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if any(map(is_cache, ast.walk(decorator))):
                    decorated.append(node.name)
    uses = sum(map(is_cache, ast.walk(tree)))
    return decorated + ["?"] * (uses - len(decorated))


def test_only_small_frozen_configurations_key_a_cache():
    # compiled data live on the component or space they come from, never in
    # a cache keyed by content; the two caches left are keyed by a
    # SummationMethod and a point count
    cached = {
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in cached_functions(path)
    }
    assert cached == {"fourier.py:_ladder", "fourier.py:_gauss_nodes"}


def test_the_cache_guard_sees_each_spelling(tmp_path):
    spellings = {
        "from functools import lru_cache\n@lru_cache(maxsize=4)\ndef f(x): pass": ["f"],
        "import functools\n@functools.lru_cache\ndef f(x): pass": ["f"],
        "from functools import cache\n@cache\ndef f(x): pass": ["f"],
        "import functools\n@functools.cache\nasync def f(x): pass": ["f"],
        "from functools import lru_cache as memo\n@memo()\ndef f(x): pass": ["f"],
        "from functools import lru_cache\ndef f(x): pass\ng = lru_cache(maxsize=4)(f)": ["?"],
        "import functools\ndef f(x): pass": [],
    }
    for i, (text, expected) in enumerate(spellings.items()):
        module = tmp_path / f"m{i}.py"
        module.write_text(text + "\n", encoding="utf-8")
        assert cached_functions(module) == expected, text


# A fresh interpreter runs cli.main on the arguments (none: only
# ``import su2dh``) and prints its exit code and whether numpy and the
# series engine were loaded.
_CHILD = """
import contextlib, io, sys
import su2dh
code = None
if sys.argv[1:]:
    from su2dh.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(sys.argv[1:])
print(code, "numpy" in sys.modules, "su2dh.series" in sys.modules)
"""

_WALLED = str(Path(__file__).parent / "golden" / "walled.json")


def modules_loaded_by(*args: str) -> tuple[str, bool, bool]:
    code, numpy, series = run_child(_CHILD, *args).split()
    return code, numpy == "True", series == "True"


@pytest.mark.parametrize(
    "args, code",
    [
        ((), "None"),
        (("eval", "--builtin", "s4", "--t", "0.3"), "0"),
        (("eval", "--builtin", "product:15", "--grid", "0.05:0.95:0.05"), "0"),
        (("eval", "--builtin", "s4", "--grid", "0.1:0.9:0.1", "--format", "json"), "0"),
        (("eval", "--space", _WALLED, "--grid", "0.15:0.85:0.1", "--mode", "residue"), "0"),
        (("central", "--builtin", "product:3", "--at", "-e"), "0"),
        (("central", "--builtin", "s4", "--at", "e", "--format", "json"), "0"),
        (("eval", "--builtin", "torus", "--t", "0.5"), "2"),
        # refused before any array is built, although the path would load numpy
        (("eval", "--builtin", "s4", "--t", "0.3", "--mode", "fourier",
          "--terms", "1000000000000"), "2"),
        (("lemma", "--coeff", "2:1", "--gamma", "1", "--M", "1000000000000"), "2"),
    ],
)
def test_residue_start_up_does_not_load_numpy(args, code):
    assert modules_loaded_by(*args) == (code, False, False)


# A fresh interpreter runs each residue-path entry point on s4, quadrature
# of the residue density included, and prints whether numpy was loaded.
_RESIDUE_CHILD = """
import sys
import su2dh

space = su2dh.builtin_space("s4")
su2dh.density(space, 0.3)
su2dh.scan(space, [0.1, 0.2, 0.7])
su2dh.central_density(space, su2dh.CentralElement.IDENTITY)
su2dh.reduced_volume(space, 0.4)
su2dh.reduced_volume(space, su2dh.CentralElement.MINUS_IDENTITY)
su2dh.fourier_coefficient(space, 3)
su2dh.coefficient_quadrature(lambda t: su2dh.density(space, t).total, 2)
print("numpy" in sys.modules)
"""


def test_residue_entry_points_and_quadrature_do_not_load_numpy():
    assert run_child(_RESIDUE_CHILD).split() == ["False"]


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--builtin", "s4", "--t", "0.3", "--mode", "fourier"),
        ("eval", "--builtin", "s4", "--t", "0.3", "--mode", "both"),
        ("lemma", "--coeff", "2:1", "--gamma", "1", "--M", "1000"),
    ],
)
def test_the_start_up_guard_sees_numpy(args):
    assert modules_loaded_by(*args) == ("0", True, False)
