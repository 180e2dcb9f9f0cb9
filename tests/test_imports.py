"""Layering: the Laurent-series engine stays off the evaluation paths."""

import ast
from pathlib import Path

import pytest

import su2dh

PACKAGE = Path(su2dh.__file__).resolve().parent

# spaces.py holds the product-space oracle, and __init__.py re-exports names
ALLOWED = {"spaces.py", "__init__.py"}


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
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in ALLOWED | {"series.py"})
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
    assert imports_series(PACKAGE / "spaces.py")
