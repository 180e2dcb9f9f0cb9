"""Layering: no library module imports the Laurent-series engine, which is
the tests' reference, and numpy stays off the residue path's start-up."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import su2dh

PACKAGE = Path(su2dh.__file__).resolve().parent


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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *args],
        capture_output=True, text=True, env=env, timeout=60.0,
    )
    assert proc.returncode == 0, proc.stderr
    code, numpy, series = proc.stdout.split()
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
