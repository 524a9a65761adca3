"""What ``src/ebp`` may import: click stays the only runtime dependency, so
nothing else from outside the standard library, and the depot and its
transform engine import no networking."""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ebp"
ALLOWED = set(sys.stdlib_module_names) | {"click", "ebp"}


def imported_modules(path: pathlib.Path):
    """(line, dotted name) of every module and name one ``ebp`` module
    imports, wherever it sits, a relative import resolved inside ``ebp``:
    ``from .wire import Framer`` gives ``ebp.wire`` and ``ebp.wire.Framer``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["ebp" if node.level else "", node.module]))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def imported_packages(path: pathlib.Path):
    """(line, top-level package) of every import in one module."""
    for line, name in imported_modules(path):
        yield line, name.split(".")[0]


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


# The weak primitive stays free of networking: the depot and its transform
# engine reach no socket and no transport of their own.
WEAK_PRIMITIVE = ("depot.py", "nfu.py")
NETWORKING = ("socket", "select", "ebp.client", "ebp.server", "ebp.simnet")


def networking_imports(path: pathlib.Path) -> list:
    return [
        f"{path.name}:{line}: {name}"
        for line, name in imported_modules(path)
        if any(name == net or name.startswith(net + ".") for net in NETWORKING)
    ]


def test_depot_and_nfu_import_no_networking():
    assert [hit for name in WEAK_PRIMITIVE for hit in networking_imports(SRC / name)] == []


def test_the_networking_check_sees_relative_and_nested_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from . import client\nfrom .server import transfer\nfrom .wire import Framer\n"
        "def f():\n    import select\n    from socket import create_connection\n"
    )
    assert networking_imports(module) == [
        "m.py:1: ebp.client",
        "m.py:2: ebp.server",
        "m.py:2: ebp.server.transfer",
        "m.py:5: select",
        "m.py:6: socket",
        "m.py:6: socket.create_connection",
    ]
