"""click stays the only runtime dependency: ``src/ebp`` imports nothing else
from outside the standard library."""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ebp"
ALLOWED = set(sys.stdlib_module_names) | {"click", "ebp"}


def imported_packages(path: pathlib.Path):
    """(line, top-level package) of every absolute import in one module,
    wherever it sits; relative imports stay inside ``ebp``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_the_standard_library_and_click():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    outside = [
        f"{path.relative_to(SRC.parent)}:{line}: {package}"
        for path in modules
        for line, package in imported_packages(path)
        if package not in ALLOWED
    ]
    assert outside == []


def test_the_check_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom . import wire\n\ndef f():\n    import numpy.linalg\n")
    assert [pkg for _, pkg in imported_packages(module) if pkg not in ALLOWED] == ["numpy"]
