"""Source hygiene: no corpusprep module imports a name it never uses, so a
deletion that leaves its import behind fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "corpusprep"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds in `tree` -> the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


def _used(tree: ast.AST) -> set[str]:
    """Each name `tree` reads, the names inside quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:  # a function's return annotation, if any
            annotation = getattr(node, "returns", None)
        for quoted in ast.walk(annotation) if annotation else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                used |= _used(ast.parse(quoted.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses (name: line): {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse(
        "import os\nfrom typing import Any, Iterator\ndef f(x: 'Iterator[int]') -> None:\n    os.sep\n"
    )
    assert {n for n in _imported(tree) if n not in _used(tree)} == {"Any"}
