"""Module boundaries: no module of the package imports a private
(``_``-prefixed) name from a sibling module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qlr"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """Private sibling names a module imports by ``from`` or reaches through
    an imported sibling module, as ``line N: name`` strings."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "qlr"
            if not package:
                continue
            if node.module and _is_private(node.module.split(".")[-1]):
                found.append(f"line {node.lineno}: {node.module}")
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"line {node.lineno}: {alias.name}")
                elif node.module in (None, "qlr"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qlr":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _is_private(node.attr)
            and ast.unparse(node.value) in modules
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from .classical import _argmax",
        "from qlr.tables import CountTable, _check_pair",
        "from . import tables\ntables._check_pair",
        "import qlr.tables\nqlr.tables._check_pair",
        "from ._private import name",
    ],
)
def test_checker_flags_private_imports(source):
    assert private_imports(source)


def test_checker_allows_public_and_dunder_names():
    assert private_imports("from . import __version__\nfrom .tables import new_table") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_cross_module_lines(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
