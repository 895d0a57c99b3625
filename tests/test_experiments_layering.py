"""The sweep stack never reaches a socket.

Experiments and the reliability sweeps run serially or on the engine's
local fork pool, so no module under ``repro/experiments`` or
``repro/reliability`` imports ``asyncio``, ``socket`` or ``repro.net``
— not at module level, and not lazily inside a function either.  The
check reads each module's syntax tree, so it also covers imports that
only run on some code path.
"""

from __future__ import annotations

import ast
import pathlib
import textwrap

import pytest

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Modules (and their submodules) the sweep stack may not import.
FORBIDDEN = ("asyncio", "socket", "repro.net")

SWEEP_MODULES = sorted(
    path.relative_to(SRC_DIR).as_posix()
    for package in ("experiments", "reliability")
    for path in (SRC_DIR / "repro" / package).glob("*.py"))


def _imported_names(node: ast.AST, package: str) -> list[str]:
    """Absolute names an import statement in ``package`` brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level:
        parts = package.split(".")
        base = ".".join(parts[:len(parts) - node.level + 1])
        base = f"{base}.{node.module}" if node.module else base
    else:
        base = node.module or ""
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def socket_imports(source: str, package: str) -> list[tuple[int, str]]:
    """``(line, name)`` for every forbidden import in ``source``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        for name in _imported_names(node, package):
            if any(name == bad or name.startswith(bad + ".")
                   for bad in FORBIDDEN):
                hits.append((node.lineno, name))
    return hits


def test_both_packages_are_found():
    assert "repro/experiments/engine.py" in SWEEP_MODULES
    assert "repro/reliability/mask_enum.py" in SWEEP_MODULES


@pytest.mark.parametrize("module", SWEEP_MODULES)
def test_sweep_module_imports_no_socket_layer(module):
    package = module.rsplit("/", 1)[0].replace("/", ".")
    source = (SRC_DIR / module).read_text()
    assert socket_imports(source, package) == []


@pytest.mark.parametrize("source, name", [
    ("import asyncio", "asyncio"),
    ("import socket as sock", "socket"),
    ("from asyncio import streams", "asyncio"),
    ("from ..net import AsyncRpcClient", "repro.net"),
    ("from .. import net", "repro.net"),
    ("from repro.net import RetryPolicy", "repro.net"),
    ("def run():\n    import asyncio\n    return asyncio", "asyncio"),
])
def test_the_check_sees_every_import_form(source, name):
    hits = socket_imports(textwrap.dedent(source), "repro.experiments")
    assert name in [found for _, found in hits]


def test_the_check_leaves_other_imports_alone():
    source = textwrap.dedent("""\
        import os
        import numpy as np
        from . import engine
        from .engine import Cell, run_cells
        from ..core import make_code
        from .. import reliability
        from repro.network_model import links
    """)
    assert socket_imports(source, "repro.experiments") == []
