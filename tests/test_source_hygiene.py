"""Source hygiene: no module in ``src/ebp`` imports a name it never uses.

Only the standard library's ``ast`` is needed. A name counts as used when
the module reads it anywhere, a quoted annotation included, or when it is
listed in the module's ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "ebp").glob("*.py"))


def imported(tree: ast.Module) -> dict:
    """Each name an import statement binds -> the line it is bound on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used(tree: ast.Module) -> set:
    """Every name the module reads, and the names in its ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            note = getattr(node, "returns", None) or getattr(node, "annotation", None)
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= used(ast.parse(note.value, mode="eval"))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in imported(tree).items() if name not in used(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
