"""RPC-surface checker: every op exists on both sides of the wire.

The service speaks framed ``(kind, payload)`` pickles.  The namenode
dispatches by method name (``_op_<kind>`` with ``-`` -> ``_``), the
datanode by an if-chain over ``kind`` in ``_handle``, and the
distributed executor by literal frame kinds (``hello``/``unit``/...).
Nothing ties the two sides together: a typo'd kind in a client, or a
handler added without a caller, parses fine and fails only at runtime
— as a remote ``unknown-op`` error, or not at all.

This checker rebuilds both sides from the AST and cross-references
them:

* **registries** — ``_op_*`` methods in ``service/namenode.py``
  (sync or async), ``kind == "..."``/``kind in (...)`` comparisons in
  ``service/datanode.py``'s ``_handle`` and in ``repro/net.py``'s
  shared RPC server (framing-level kinds like ``bye`` are valid
  against either server), plus any module-level ``OP_*``/``KIND_*``
  string constants in ``service/protocol.py``.
* **call sites** — literal kinds passed to ``_nn_call`` (namenode),
  ``_dn_call``/``dn_call_sync`` (datanode), the bare framed
  ``call(sock, kind, ...)`` helper and the async ``client.call(kind,
  ...)``/``pool.call(address, kind, ...)`` methods (either side),
  ``return ("kind", {...})`` in ``service/protocol.py``'s request
  builders (``transfer_request``: callers send what it returns), and
  direct ``_op_<kind>`` attribute access.  Call sites are collected
  from the scanned tree *and* the context files (the test suite), so
  an op exercised only by tests still counts as called.

Rules
-----
``rpc.unknown-op``
    A call site sends a kind no server registers (reported at the
    call site), or — in ``experiments/distributed.py`` — a frame kind
    is sent that no dispatch arm handles.
``rpc.unused-op``
    A registered op that no call site anywhere (src, benchmarks,
    examples, tests) ever sends: dead surface, or a caller that was
    lost (reported at the handler).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass, field

from .core import (Checker, Finding, Project, SourceFile, dotted_name,
                   register, string_literal)


@dataclass
class _Surface:
    """One side's registry and the observed call sites against it."""

    # op -> (rel, line) of the handler / constant
    namenode_ops: dict[str, tuple[str, int]] = field(default_factory=dict)
    datanode_ops: dict[str, tuple[str, int]] = field(default_factory=dict)
    framing_ops: dict[str, tuple[str, int]] = field(default_factory=dict)
    protocol_consts: dict[str, tuple[str, int]] = field(default_factory=dict)
    # ops observed at call sites
    namenode_calls: set[str] = field(default_factory=set)
    datanode_calls: set[str] = field(default_factory=set)
    either_calls: set[str] = field(default_factory=set)


def _kind_comparisons(tree: ast.AST) -> Iterable[tuple[str, int]]:
    """Literal kinds compared against a variable named ``kind``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not (isinstance(node.left, ast.Name)
                and node.left.id == "kind"):
            continue
        for comparator in node.comparators:
            literal = string_literal(comparator)
            if literal is not None:
                yield literal, node.lineno
            elif isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
                for element in comparator.elts:
                    literal = string_literal(element)
                    if literal is not None:
                        yield literal, node.lineno


class RpcSurfaceChecker(Checker):
    name = "rpc"
    rules = {
        "rpc.unknown-op":
            "op/frame kind sent that no server dispatch registers; "
            "fails at runtime as an unknown-op error (or silently)",
        "rpc.unused-op":
            "registered op that no call site in src/tests ever sends; "
            "dead surface or a lost caller",
    }

    def run(self, project: Project) -> Iterable[Finding]:
        surface = _Surface()
        for entry in project.all_files():
            if entry.tree is None:
                continue
            self._collect_registry(entry, surface)
        unknown: list[Finding] = []
        scanned = {entry.rel for entry in project.files}
        for entry in project.all_files():
            if entry.tree is None:
                continue
            unknown.extend(self._collect_calls(
                entry, surface, report=entry.rel in scanned))
        yield from unknown
        yield from self._unused(surface)
        distributed = project.find("experiments/distributed.py")
        if distributed is not None and distributed.tree is not None:
            yield from self._check_frames(distributed)

    # -- registry ----------------------------------------------------

    def _collect_registry(self, entry: SourceFile,
                          surface: _Surface) -> None:
        if entry.rel.endswith("service/namenode.py"):
            for node in ast.walk(entry.tree):
                if (isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                        and node.name.startswith("_op_")):
                    op = node.name[len("_op_"):].replace("_", "-")
                    surface.namenode_ops[op] = (entry.rel, node.lineno)
        elif entry.rel.endswith("service/datanode.py"):
            for op, line in _kind_comparisons(entry.tree):
                surface.datanode_ops.setdefault(op, (entry.rel, line))
        elif entry.rel.endswith("repro/net.py"):
            for op, line in _kind_comparisons(entry.tree):
                surface.framing_ops.setdefault(op, (entry.rel, line))
        elif entry.rel.endswith("service/protocol.py"):
            for node in ast.walk(entry.tree):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and (target.id.startswith("OP_")
                                 or target.id.startswith("KIND_"))):
                        literal = string_literal(node.value)
                        if literal is not None:
                            surface.protocol_consts[literal] = (
                                entry.rel, node.lineno)

    # -- call sites --------------------------------------------------

    def _collect_calls(self, entry: SourceFile, surface: _Surface,
                       report: bool) -> list[Finding]:
        findings: list[Finding] = []

        def either(kind: str | None, node: ast.AST) -> None:
            """A kind sent to whichever server registers it."""
            if kind is None:
                return
            surface.either_calls.add(kind)
            if report and not self._known(kind, surface,
                                          surface.namenode_ops,
                                          surface.datanode_ops):
                findings.append(Finding(
                    "rpc.unknown-op", entry.rel, node.lineno,
                    f"op '{kind}' is sent but neither server "
                    f"registers it"))

        builders = entry.rel.endswith("service/protocol.py")
        for node in ast.walk(entry.tree):
            if (builders and isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Tuple)
                    and len(node.value.elts) == 2
                    and isinstance(node.value.elts[1], ast.Dict)):
                # A request builder: callers send what it returns.
                either(string_literal(node.value.elts[0]), node)
                continue
            if isinstance(node, ast.Attribute):
                if (node.attr.startswith("_op_")
                        and not isinstance(getattr(node, "ctx", None),
                                           ast.Store)):
                    op = node.attr[len("_op_"):].replace("_", "-")
                    surface.namenode_calls.add(op)
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            name = func.id if isinstance(func, ast.Name) else None
            if attr == "_nn_call" and node.args:
                kind = string_literal(node.args[0])
                if kind is None:
                    continue
                surface.namenode_calls.add(kind)
                if report and not self._known(kind, surface,
                                              surface.namenode_ops):
                    findings.append(Finding(
                        "rpc.unknown-op", entry.rel, node.lineno,
                        f"namenode op '{kind}' has no _op_ handler"))
            elif (attr in {"_dn_call", "dn_call_sync"}
                    and len(node.args) >= 2):
                kind = string_literal(node.args[1])
                if kind is None:
                    continue
                surface.datanode_calls.add(kind)
                if report and not self._known(kind, surface,
                                              surface.datanode_ops):
                    findings.append(Finding(
                        "rpc.unknown-op", entry.rel, node.lineno,
                        f"datanode op '{kind}' has no _handle arm"))
            elif name == "call" and len(node.args) >= 2:
                either(string_literal(node.args[1]), node)
            elif attr == "call" and node.args:
                # AsyncRpcClient.call("kind", data) has the kind first;
                # RpcPool.call(address, "kind", data) has it second.
                kind = string_literal(node.args[0])
                if kind is None and len(node.args) >= 2:
                    kind = string_literal(node.args[1])
                either(kind, node)
        return findings

    @staticmethod
    def _known(kind: str, surface: _Surface,
               *registries: dict[str, tuple[str, int]]) -> bool:
        if kind in surface.framing_ops or kind in surface.protocol_consts:
            return True
        return any(kind in registry for registry in registries)

    # -- dead surface ------------------------------------------------

    def _unused(self, surface: _Surface) -> Iterable[Finding]:
        called_any = (surface.namenode_calls | surface.datanode_calls
                      | surface.either_calls)
        for op, (rel, line) in sorted(surface.namenode_ops.items()):
            if op not in surface.namenode_calls | surface.either_calls:
                yield Finding(
                    "rpc.unused-op", rel, line,
                    f"namenode op '{op}' has no call site in src or "
                    f"tests")
        for op, (rel, line) in sorted(surface.datanode_ops.items()):
            if op not in surface.datanode_calls | surface.either_calls:
                yield Finding(
                    "rpc.unused-op", rel, line,
                    f"datanode op '{op}' has no call site in src or "
                    f"tests")
        for op, (rel, line) in sorted(surface.framing_ops.items()):
            if op not in called_any:
                yield Finding(
                    "rpc.unused-op", rel, line,
                    f"framing-level op '{op}' is handled but never "
                    f"sent")
        for op, (rel, line) in sorted(surface.protocol_consts.items()):
            if (op not in surface.namenode_ops
                    and op not in surface.datanode_ops
                    and op not in surface.framing_ops):
                yield Finding(
                    "rpc.unknown-op", rel, line,
                    f"protocol constant '{op}' matches no dispatch "
                    f"table")

    # -- worker frame kinds ------------------------------------------

    def _check_frames(self, entry: SourceFile) -> Iterable[Finding]:
        sent: dict[str, int] = {}
        handled: dict[str, int] = {}
        # frames are also built indirectly: reply = ("result", ...) in
        # one branch, send_frame(sock, reply) later
        assigned: dict[str, list[tuple[str, int]]] = {}
        frame_vars: set[str] = set()
        for node in ast.walk(entry.tree):
            if isinstance(node, ast.Assign):
                value = node.value
                if (isinstance(value, ast.Tuple) and value.elts
                        and string_literal(value.elts[0]) is not None):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assigned.setdefault(target.id, []).append(
                                (string_literal(value.elts[0]),
                                 node.lineno))
            if isinstance(node, ast.Call):
                frame = None
                if (dotted_name(node.func).endswith("send_frame")
                        and len(node.args) >= 2):
                    frame = node.args[1]
                elif (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "send" and node.args):
                    # conn.send((kind, data)) on an AsyncConnection
                    frame = node.args[0]
                if isinstance(frame, ast.Tuple) and frame.elts:
                    kind = string_literal(frame.elts[0])
                    if kind is not None:
                        sent.setdefault(kind, node.lineno)
                elif isinstance(frame, ast.Name):
                    frame_vars.add(frame.id)
        for var in frame_vars:
            for kind, line in assigned.get(var, ()):
                sent.setdefault(kind, line)
        for kind, line in _kind_comparisons(entry.tree):
            handled.setdefault(kind, line)
        for kind, line in sorted(sent.items()):
            if kind not in handled:
                yield Finding(
                    "rpc.unknown-op", entry.rel, line,
                    f"frame kind '{kind}' is sent but no dispatch arm "
                    f"handles it")
        for kind, line in sorted(handled.items()):
            if kind not in sent:
                yield Finding(
                    "rpc.unused-op", entry.rel, line,
                    f"frame kind '{kind}' is handled but never sent")
    # Frame kinds in the executor protocol are symmetric by
    # construction (coordinator and worker live in the same module),
    # so both directions are checked file-locally.


register(RpcSurfaceChecker())
