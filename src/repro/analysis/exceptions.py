"""Exception-flow checker for the RPC error surface.

The service's error contract is :data:`repro.service.protocol._ERROR_CODES`:
an exception raised inside a handler is marshalled by walking its MRO
until a type in that table matches, and unmarshalled client-side back
into the same type.  Anything *not* in the table degrades to a generic
``internal`` error — the client loses the type, the retry logic loses
its signal, and the operator loses the message's meaning.

This checker computes the typed-error surface of every RPC handler
over the call graph (:mod:`.callgraph`) and holds it to the contract:

* Every exception a handler can raise — transitively, through any
  chain of calls, minus what enclosing ``try``/``except`` blocks
  catch along the way — must have an ancestor in the error-code
  table (:rule:`exceptions.unmarshallable`).
* Every type in the table must actually be raised or constructed
  somewhere, or it is dead contract (:rule:`exceptions.unraised-code`).
* Every typed error a handler can put on the wire should be caught
  (or deliberately propagated) somewhere client-side — an
  ``except`` clause or a ``pytest.raises`` in src or tests
  (:rule:`exceptions.uncaught-error`).
* An ``except Exception: pass`` (or bare except) around an RPC call
  silently swallows *every* typed error the server worked to
  preserve (:rule:`exceptions.silent-swallow`); deliberate
  best-effort paths carry a waiver saying why.

The table itself, the class hierarchy of the repo's error types, and
the handlers are all read from the AST — the checker works on fixture
trees that are never imported.  Builtin exception ancestry comes from
a small static table (enough to know ``FileNotFoundError`` is an
``OSError`` and ``KeyError`` is not a ``ValueError``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .callgraph import CallGraph, get_callgraph
from .core import (Checker, Finding, Project, dotted_name, register,
                   string_literal)

#: Builtin exception -> parent, enough ancestry for marshallability
#: and catch-coverage decisions on the types this repo touches.
BUILTIN_EXC_PARENTS = {
    "BaseException": None,
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BlockingIOError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionError": "OSError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "EOFError": "Exception",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "IndexError": "LookupError",
    "InterruptedError": "OSError",
    "KeyError": "LookupError",
    "LookupError": "Exception",
    "MemoryError": "Exception",
    "NotADirectoryError": "OSError",
    "NotImplementedError": "RuntimeError",
    "OSError": "Exception",
    "OverflowError": "ArithmeticError",
    "PermissionError": "OSError",
    "RecursionError": "RuntimeError",
    "RuntimeError": "Exception",
    "StopAsyncIteration": "Exception",
    "StopIteration": "Exception",
    "TimeoutError": "OSError",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
}

#: Calls whose failure modes are environmental, not contract: raises
#: reached only through these are the transport's business.
_RPC_CALL_ATTRS = {"_nn_call", "_dn_call", "call", "dn_call_sync"}


def _bare(name: str) -> str:
    return name.rpartition(".")[2]


class _Hierarchy:
    """Subtype queries over repo classes + the builtin table."""

    def __init__(self, graph: CallGraph):
        self.graph = graph

    def ancestors(self, type_name: str) -> list[str]:
        """``type_name`` and its ancestors, outward; qualified names
        where repo-known, bare builtin names otherwise."""
        out: list[str] = []
        seen: set[str] = set()
        queue = [type_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            if current in self.graph.classes:
                queue.extend(self.graph.class_bases(current))
            else:
                parent = BUILTIN_EXC_PARENTS.get(_bare(current))
                if parent is not None:
                    queue.append(parent)
        return out

    def matches(self, type_name: str, names: Iterable[str]) -> bool:
        """Does ``type_name`` or an ancestor match any of ``names``
        (compared by bare name — the table/handlers name types as
        imported)?"""
        targets = {_bare(name) for name in names}
        return any(_bare(ancestor) in targets
                   for ancestor in self.ancestors(type_name))


def _error_code_table(graph: CallGraph
                      ) -> tuple[dict[str, tuple[str, int]], str] | None:
    """``type name (as written) -> (code, line)`` parsed from the
    ``_ERROR_CODES`` dict in ``service/protocol.py``, plus the file's
    rel path.  ``None`` when the tree has no protocol module."""
    for module in graph.modules.values():
        if not module.rel.endswith("service/protocol.py"):
            continue
        entry = None
        for source in graph.project.all_files():
            if source.rel == module.rel:
                entry = source
                break
        if entry is None or entry.tree is None:
            return None
        for node in ast.walk(entry.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if not (any(isinstance(t, ast.Name)
                        and t.id == "_ERROR_CODES" for t in targets)
                    and isinstance(node.value, ast.Dict)):
                continue
            table: dict[str, tuple[str, int]] = {}
            for key, value in zip(node.value.keys, node.value.values):
                code = string_literal(key) if key is not None else None
                name = dotted_name(value)
                if code and name:
                    table[name] = (code, value.lineno)
            return table, module.rel
    return None


def _handler_roots(graph: CallGraph) -> list:
    """The RPC entry points whose raise surface is the wire contract."""
    roots = [fn for fn in graph.functions.values()
             if fn.cls and fn.name.startswith("_op_")
             and fn.rel.endswith(("service/namenode.py",
                                  "service/datanode.py"))]
    return sorted(roots, key=lambda f: (f.rel, f.line))


class _RaiseSurface:
    """Transitive raise sites minus what try/except catches en route."""

    def __init__(self, graph: CallGraph, hierarchy: _Hierarchy):
        self.graph = graph
        self.hierarchy = hierarchy
        self._memo: dict[str, frozenset[tuple[str, str, int]]] = {}

    def surface(self, qualname: str,
                _stack: frozenset = frozenset()
                ) -> frozenset[tuple[str, str, int]]:
        if qualname in self._memo:
            return self._memo[qualname]
        if qualname in _stack:
            return frozenset()
        fn = self.graph.functions.get(qualname)
        if fn is None:
            return frozenset()
        stack = _stack | {qualname}
        out: set[tuple[str, str, int]] = set()
        for site in fn.raises:
            resolved = self.graph.resolve_type(site.type_name,
                                               fn.module)
            if not self.hierarchy.matches(resolved, site.caught):
                out.add((resolved, fn.rel, site.line))
        for call in fn.calls:
            if call.callee is None:
                continue
            if _bare(call.raw) in _RPC_CALL_ATTRS:
                continue            # transport errors, not handler logic
            callee = self.graph.functions.get(call.callee)
            if callee is None or (callee.is_async and not call.awaited):
                continue
            for item in self.surface(call.callee, stack):
                if not self.hierarchy.matches(item[0], call.caught):
                    out.add(item)
        result = frozenset(out)
        self._memo[qualname] = result
        return result


def _catch_mentions(project: Project) -> set[str]:
    """Bare type names appearing in any ``except`` clause or
    ``raises(...)`` call across scanned + context files (tests catch
    with ``pytest.raises``)."""
    out: set[str] = set()
    for entry in project.all_files():
        if entry.tree is None:
            continue
        for node in ast.walk(entry.tree):
            if isinstance(node, ast.ExceptHandler) \
                    and node.type is not None:
                targets = (node.type.elts
                           if isinstance(node.type, ast.Tuple)
                           else [node.type])
                for target in targets:
                    name = dotted_name(target)
                    if name:
                        out.add(_bare(name))
            elif (isinstance(node, ast.Call)
                    and _bare(dotted_name(node.func)) == "raises"):
                for arg in node.args:
                    name = dotted_name(arg)
                    if name:
                        out.add(_bare(name))
    return out


def _swallow_findings(project: Project) -> Iterable[Finding]:
    """``except Exception: pass`` (or bare except) around RPC calls."""
    from .locks import in_scope     # same networked-subsystem scope

    for entry in project.files:
        if entry.tree is None or not in_scope(entry.rel):
            continue
        for node in ast.walk(entry.tree):
            if not isinstance(node, ast.Try):
                continue
            rpc_calls = sorted(
                _bare(dotted_name(call.func))
                for stmt in node.body
                for call in ast.walk(stmt)
                if isinstance(call, ast.Call)
                and _bare(dotted_name(call.func)) in _RPC_CALL_ATTRS)
            if not rpc_calls:
                continue
            for handler in node.handlers:
                if handler.type is not None and \
                        dotted_name(handler.type) not in {
                            "Exception", "BaseException"}:
                    continue
                if not all(isinstance(stmt, (ast.Pass, ast.Continue))
                           for stmt in handler.body):
                    continue
                yield Finding(
                    "exceptions.silent-swallow", entry.rel,
                    handler.lineno,
                    f"except clause silently swallows every typed "
                    f"error of the RPC call(s) "
                    f"({', '.join(sorted(set(rpc_calls)))}) in its "
                    f"try body")


class ExceptionFlowChecker(Checker):
    name = "exceptions"
    rules = {
        "exceptions.unmarshallable":
            "an RPC handler can raise this exception but no ancestor "
            "is in _ERROR_CODES — it crosses the wire as a generic "
            "'internal' error, losing type, signal and meaning",
        "exceptions.unraised-code":
            "_ERROR_CODES maps a type nothing ever raises or "
            "constructs — dead contract",
        "exceptions.uncaught-error":
            "a typed error a handler can put on the wire has no "
            "client-side catch site (except clause or pytest.raises) "
            "in src or tests",
        "exceptions.silent-swallow":
            "except Exception: pass around an RPC call swallows every "
            "typed error; deliberate best-effort paths need a waiver "
            "saying so",
    }

    def run(self, project: Project) -> Iterable[Finding]:
        graph = get_callgraph(project)
        table = _error_code_table(graph)
        findings: list[Finding] = list(_swallow_findings(project))
        if table is None:
            return findings         # tree without a service protocol
        codes, protocol_rel = table
        hierarchy = _Hierarchy(graph)
        surface = _RaiseSurface(graph, hierarchy)

        marshal_names = set(codes)
        raised_types: dict[str, list] = {}
        seen_sites: set[tuple[str, str, int]] = set()
        for root in _handler_roots(graph):
            for type_name, rel, line in sorted(
                    surface.surface(root.qualname)):
                raised_types.setdefault(type_name, []).append(root)
                if (type_name, rel, line) in seen_sites:
                    continue
                seen_sites.add((type_name, rel, line))
                if not hierarchy.matches(type_name, marshal_names):
                    findings.append(Finding(
                        "exceptions.unmarshallable", rel, line,
                        f"{_bare(type_name)} raised here reaches RPC "
                        f"handler {root.name}() but has no ancestor "
                        f"in _ERROR_CODES; it crosses the wire as a "
                        f"generic 'internal' error"))

        # dead contract: codes whose type nothing raises/constructs
        used: set[str] = set()
        for fn in graph.functions.values():
            for site in fn.raises:
                used.add(_bare(site.type_name))
            for call in fn.calls:
                used.add(_bare(call.raw))
        for type_name, (code, line) in sorted(codes.items()):
            if _bare(type_name) not in used:
                findings.append(Finding(
                    "exceptions.unraised-code", protocol_rel, line,
                    f"error code {code!r} maps {type_name}, which "
                    f"nothing raises or constructs"))

        # wire-visible typed errors with no client-side catch site
        catches = _catch_mentions(project)
        reported: set[str] = set()
        for type_name, roots in sorted(raised_types.items()):
            if not hierarchy.matches(type_name, marshal_names):
                continue            # already an unmarshallable finding
            bare = _bare(type_name)
            if bare in reported or bare in catches:
                continue
            if any(_bare(a) in catches
                   for a in hierarchy.ancestors(type_name)):
                continue            # caught via an ancestor type
            reported.add(bare)
            root = roots[0]
            findings.append(Finding(
                "exceptions.uncaught-error", root.rel, root.line,
                f"handler {root.name}() can send typed error {bare} "
                f"over the wire but nothing in src or tests catches "
                f"it"))
        return findings


register(ExceptionFlowChecker())
