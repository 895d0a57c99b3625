"""Wire-surface checker: hold handlers, call sites and frames to the
declared op tables.

The service's wire surface is declared once, as pure literals:
``NAMENODE_OPS`` / ``DATANODE_OPS`` in ``service/protocol.py`` (op ->
required request keys, optional request keys, reply keys, error codes),
``FRAMES`` in ``experiments/distributed.py`` (frame kind -> payload
shape) and ``FRAMING_OPS`` in ``repro/net.py``.  The daemons dispatch
from the op tables at run time (``protocol.dispatch``); this checker
reads the same literals with :func:`ast.literal_eval` — scanned trees
are never imported — and cross-checks everything that has to agree
with them:

* every ``_op_<kind>`` handler body: the ``data["k"]`` /
  ``data.get("k")`` reads (followed through helpers the payload is
  forwarded into, via :meth:`.callgraph.CallGraph.payload_keys`) fit
  the declaration, every declared op has a handler and every handler a
  declaration;
* every client call site: the kind is declared, a dict-literal payload
  carries the required keys and no undeclared ones, reads of the reply
  stay within the declared reply keys, and every declared op is sent
  from somewhere (tests count as senders);
* the distributed executor's frames: sends, dispatch arms, tuple
  unpacks and ``f(*data)`` star-calls agree with ``FRAMES``;
* the committed rendering ``docs/wire_schema.json`` (regenerate with
  ``repro lint --emit-schema``) — CI fails on drift.

Rules
-----
``schema.unknown-op``       kind sent or frame kind handled that is undeclared
``schema.unused-op``        declared op or frame kind that nothing sends
``schema.declaration``      op table and ``_op_*`` handlers disagree
``schema.missing-key``      call site omits a key the op requires
``schema.unknown-key``      call site passes a key the op does not declare
``schema.unknown-reply-key`` caller reads a reply key the op does not declare
``schema.frame-shape``      distributed frame at odds with its declared shape
``schema.artifact-drift``   docs/wire_schema.json is stale
``schema.artifact-missing`` docs/wire_schema.json has not been generated
"""

from __future__ import annotations

import ast
import json
from collections.abc import Iterable
from dataclasses import dataclass

from .callgraph import CallGraph, FunctionInfo, get_callgraph
from .core import (Checker, Finding, Project, dotted_name, register,
                   string_literal)

#: Wire-schema artifact version; bump on incompatible format changes.
WIRE_SCHEMA_VERSION = 1

#: Repo-relative location of the committed artifact.
ARTIFACT_REL = "docs/wire_schema.json"

_PROTOCOL_FILE = "service/protocol.py"
_FRAMES_FILE = "experiments/distributed.py"

#: service -> (its table in service/protocol.py, the file whose
#: classes carry its ``_op_*`` handlers)
_SERVICES = {"namenode": ("NAMENODE_OPS", "service/namenode.py"),
             "datanode": ("DATANODE_OPS", "service/datanode.py")}


# ---------------------------------------------------------------------------
# The declarations
# ---------------------------------------------------------------------------

@dataclass
class _Op:
    """One declared RPC op.  ``rel``/``line`` start at the table entry
    and move to the ``_op_*`` handler once one is found."""

    service: str
    kind: str
    rel: str
    line: int
    required: tuple = ()
    optional: tuple = ()
    reply: tuple | None = None          # None: the reply is not a dict
    errors: tuple = ()                  # wire codes besides the implicit
    used: bool = False

    def as_dict(self) -> dict:
        if self.reply is None:
            response: dict = {"kind": "any"}
        else:
            response = {"kind": "dict", "keys": sorted(self.reply),
                        "required": sorted(self.reply), "complete": True}
        return {"request": {"required": sorted(self.required),
                            "optional": sorted(self.optional)},
                "response": response, "errors": sorted(self.errors)}


@dataclass
class FrameShape:
    """Declared payload shape of one distributed frame kind."""

    kind: str                           # "tuple" | "dict" | "none"
    arity: int = 0
    keys: tuple[str, ...] = ()
    line: int = 0
    sent: bool = False
    handled: bool = False

    @classmethod
    def declared(cls, shape, line: int) -> "FrameShape":
        """From a ``FRAMES`` value: ``None``, a tuple arity, or the
        key names of a dict."""
        if shape is None:
            return cls("none", line=line)
        if isinstance(shape, int):
            return cls("tuple", arity=shape, line=line)
        return cls("dict", keys=tuple(shape), line=line)

    def as_dict(self) -> dict:
        if self.kind == "tuple":
            return {"kind": "tuple", "arity": self.arity}
        if self.kind == "dict":
            return {"kind": "dict", "keys": sorted(self.keys)}
        return {"kind": "none"}

    def __str__(self) -> str:
        if self.kind == "tuple":
            return f"a {self.arity}-tuple"
        if self.kind == "dict":
            return f"a dict with keys {', '.join(sorted(self.keys))}"
        return "None"


class _Declared:
    """Every table the loaded files declare; a table whose file is not
    in view (a partial scan) is ``None`` and its checks are skipped."""

    def __init__(self, project: Project):
        self.findings: list[Finding] = []
        self.services: dict[str, dict[str, _Op] | None] = {}
        for service, (table, _handlers) in _SERVICES.items():
            rel, rows = self._load(project, _PROTOCOL_FILE, table, dict)
            self.services[service] = None if rows is None else {
                kind: _Op(service, kind, rel, line, *spec)
                for kind, spec, line in rows}
        rel, rows = self._load(project, "repro/net.py", "FRAMING_OPS",
                               tuple)
        self.framing: dict[str, _Op] = {
            kind: _Op("framing", kind, rel, line)
            for kind, _, line in rows or ()}
        self.frames_rel, rows = self._load(project, _FRAMES_FILE,
                                           "FRAMES", dict)
        self.frames: dict[str, FrameShape] | None = None if rows is None \
            else {kind: FrameShape.declared(shape, line)
                  for kind, shape, line in rows}

    def _load(self, project: Project, suffix: str, name: str, kind: type
              ) -> tuple[str, list[tuple[str, object, int]] | None]:
        """``(rel, [(key, value, line), ...])`` of the module-level
        ``name = <literal>`` in the loaded file ending with ``suffix``
        (a tuple literal's elements are the keys); ``("", None)`` when
        it is not in view."""
        entry = project.find(suffix)
        for node in (entry.tree.body if entry and entry.tree else ()):
            if not (isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == name
                    for target in node.targets)):
                continue
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                value = None
            if not isinstance(value, kind):
                self.findings.append(Finding(
                    "schema.declaration", entry.rel, node.lineno,
                    f"{name} must be a pure {kind.__name__} literal "
                    f"(the lint reads it without importing)"))
                break
            if kind is dict:
                return entry.rel, [
                    (key, value[key], item.lineno)
                    for key, item in zip(value, node.value.keys)]
            return entry.rel, [(key, None, item.lineno) for key, item
                               in zip(value, node.value.elts)]
        return "", None

    def lookup(self, services: tuple[str, ...], kind: str
               ) -> list[_Op] | None:
        """The ops ``kind`` can mean at a call site against ``services``
        (a framing kind is valid against any); ``None`` when one of the
        candidate tables is not in view."""
        tables = [self.services[service] for service in services]
        if any(table is None for table in tables):
            return None
        return [table[kind] for table in [*tables, self.framing]
                if kind in table]

    def ready(self) -> bool:
        """Every table the artifact renders is in view."""
        return (self.frames is not None
                and None not in self.services.values())


# ---------------------------------------------------------------------------
# Handlers against the tables
# ---------------------------------------------------------------------------

def _check_handlers(project: Project, graph: CallGraph,
                    declared: _Declared) -> Iterable[Finding]:
    for service, (table, handler_file) in _SERVICES.items():
        ops = declared.services[service]
        if ops is None or project.find(handler_file) is None:
            continue
        handlers = {fn.name: fn for fn in graph.functions.values()
                    if fn.cls and fn.name.startswith("_op_")
                    and fn.rel.endswith(handler_file)}
        for op in ops.values():
            fn = handlers.pop("_op_" + op.kind.replace("-", "_"), None)
            if fn is None:
                yield Finding(
                    "schema.declaration", op.rel, op.line,
                    f"{table} declares {op.kind!r} but {handler_file} "
                    f"has no _op_{op.kind.replace('-', '_')} method")
                continue
            op.rel, op.line = fn.rel, fn.line
            reads = (graph.payload_keys(fn.qualname, fn.params[0])
                     if fn.params else {})
            for key, (subscript, line) in sorted(reads.items()):
                if key not in op.required + op.optional:
                    yield Finding(
                        "schema.declaration", fn.rel, line,
                        f"{fn.name}() reads payload key {key!r}, which "
                        f"{table}[{op.kind!r}] does not declare")
                elif subscript and key not in op.required:
                    yield Finding(
                        "schema.declaration", fn.rel, line,
                        f"{fn.name}() reads data[{key!r}] "
                        f"unconditionally but {table}[{op.kind!r}] "
                        f"declares it optional")
            for key in op.required:
                if key not in reads:
                    yield Finding(
                        "schema.declaration", fn.rel, fn.line,
                        f"{table}[{op.kind!r}] requires {key!r} but "
                        f"{fn.name}() never reads it")
        for fn in sorted(handlers.values(), key=lambda f: f.line):
            yield Finding(
                "schema.declaration", fn.rel, fn.line,
                f"{fn.name}() has no entry in {table}: dispatch will "
                f"never reach it")


# ---------------------------------------------------------------------------
# Client-side call sites and reply reads
# ---------------------------------------------------------------------------

_EITHER = ("namenode", "datanode")


def _wire_call(node: ast.AST
               ) -> tuple[tuple[str, ...], str, ast.expr | None] | None:
    """``(candidate services, kind, payload expr)`` when ``node`` is an
    RPC call with a literal kind: ``_nn_call(kind, data)``,
    ``_dn_call``/``dn_call_sync(node, kind, data)``, the bare framed
    ``call(sock, kind, data)``, ``client.call(kind, data)`` and
    ``pool.call(address, kind, data)``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    attr = func.attr if isinstance(func, ast.Attribute) else None
    bare = func.id if isinstance(func, ast.Name) else None
    if "_nn_call" in (attr, bare):
        services, index = ("namenode",), 0
    elif attr in ("_dn_call", "dn_call_sync"):
        services, index = ("datanode",), 1
    elif bare == "call":
        services, index = _EITHER, 1
    elif attr == "call":
        services, index = _EITHER, 0
        if (len(node.args) > 1
                and string_literal(node.args[0]) is None):
            index = 1
    else:
        return None
    if len(node.args) <= index:
        return None
    kind = string_literal(node.args[index])
    if kind is None:
        return None
    payload = node.args[index + 1] if len(node.args) > index + 1 else None
    return services, kind, payload


def _built_request(node: ast.AST
                   ) -> tuple[tuple[str, ...], str, ast.expr] | None:
    """``return ("kind", {...})`` in ``service/protocol.py``: a request
    builder (``transfer_request``) whose callers send what it returns."""
    if not (isinstance(node, ast.Return)
            and isinstance(node.value, ast.Tuple)
            and len(node.value.elts) == 2
            and isinstance(node.value.elts[1], ast.Dict)):
        return None
    kind = string_literal(node.value.elts[0])
    return None if kind is None else (_EITHER, kind, node.value.elts[1])


def _dict_literal_keys(node: ast.expr | None) -> set[str] | None:
    """String keys of a dict literal; ``None`` unless it is one with
    constant keys only (no ``**`` spread)."""
    if not isinstance(node, ast.Dict):
        return None
    keys = {string_literal(key) if key is not None else None
            for key in node.keys}
    return None if None in keys else keys


def _payload_findings(op: _Op, keys: set[str], rel: str, line: int
                      ) -> list[Finding]:
    out = [Finding(
        "schema.missing-key", rel, line,
        f"{op.service} op {op.kind!r} requires payload key {key!r} "
        f"but this call omits it")
        for key in sorted(set(op.required) - keys)]
    out += [Finding(
        "schema.unknown-key", rel, line,
        f"{op.service} op {op.kind!r} declares no payload key {key!r}")
        for key in sorted(keys - set(op.required) - set(op.optional))]
    return out


def _check_call_sites(project: Project, declared: _Declared
                      ) -> Iterable[Finding]:
    """Every send in scanned *and* context files: an op exercised only
    by the test suite still counts as used."""
    for entry in project.all_files():
        if entry.tree is None:
            continue
        builders = entry.rel.endswith(_PROTOCOL_FILE)
        for node in ast.walk(entry.tree):
            site = _wire_call(node) or (builders and _built_request(node))
            if not site:
                continue
            services, kind, payload = site
            ops = declared.lookup(services, kind)
            if ops is None:
                continue
            if not ops:
                yield Finding(
                    "schema.unknown-op", entry.rel, node.lineno,
                    f"op {kind!r} is sent but "
                    f"{' / '.join(_SERVICES[s][0] for s in services)} "
                    f"does not declare it")
                continue
            for op in ops:
                op.used = True
            keys = _dict_literal_keys(payload)
            if keys is not None:
                problems = [_payload_findings(op, keys, entry.rel,
                                              node.lineno) for op in ops]
                if all(problems):       # fits none of the candidates
                    yield from problems[0]


def _unused_ops(declared: _Declared) -> Iterable[Finding]:
    for table in [*declared.services.values(), declared.framing]:
        for op in (table or {}).values():
            if not op.used:
                yield Finding(
                    "schema.unused-op", op.rel, op.line,
                    f"{op.service} op {op.kind!r} has no call site in "
                    f"src or tests")


def _check_reply_reads(graph: CallGraph, declared: _Declared
                       ) -> Iterable[Finding]:
    """Reads of reply dicts checked against the declared reply keys of
    every op the variable can carry."""
    for fn in sorted(graph.functions.values(),
                     key=lambda f: (f.rel, f.line)):
        replies: dict[str, list[_Op]] = {}
        opaque: set[str] = set()
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if isinstance(value, ast.Await):
                value = value.value
            names = [t.id for t in node.targets
                     if isinstance(t, ast.Name)]
            if not names or not isinstance(value, ast.Call):
                continue
            site = _wire_call(value)
            ops = declared.lookup(site[0], site[1]) if site else None
            for name in names:
                if ops:
                    replies.setdefault(name, []).extend(ops)
                else:
                    opaque.add(name)    # non-RPC or undeclared source
        for name, sources in replies.items():
            if name in opaque or any(op.reply is None for op in sources):
                continue
            known = set().union(*(op.reply for op in sources))
            origin = ", ".join(sorted({f"{op.kind!r}" for op in sources}))
            for node in ast.walk(fn.node):
                if (isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == name):
                    key = string_literal(node.slice)
                    if key is not None and key not in known:
                        yield Finding(
                            "schema.unknown-reply-key", fn.rel,
                            node.lineno,
                            f"reply of op(s) {origin} has no key "
                            f"{key!r} (declared reply keys: "
                            f"{', '.join(sorted(known)) or 'none'})")


# ---------------------------------------------------------------------------
# Distributed frames
# ---------------------------------------------------------------------------

def _kind_compare(test: ast.AST) -> tuple[str, str] | None:
    """``("==", kind)`` / ``("!=", kind)`` for ``kind <op> "lit"``."""
    if not (isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "kind" and len(test.ops) == 1):
        return None
    literal = string_literal(test.comparators[0])
    if literal is None:
        return None
    if isinstance(test.ops[0], ast.Eq):
        return "==", literal
    if isinstance(test.ops[0], ast.NotEq):
        return "!=", literal
    return None


def _frame_kinds(expr: ast.expr, fn: FunctionInfo
                 ) -> list[tuple[str, ast.expr]]:
    """``(kind, payload expr)`` pairs one frame argument can carry.
    A frame is a 2-tuple ``(kind, payload)``; a variable is chased to
    its tuple assignments (a worker's ``reply`` is ``("result", ...)``
    on one branch and ``("error", ...)`` on the other)."""
    if (isinstance(expr, ast.Tuple) and len(expr.elts) == 2):
        kind = string_literal(expr.elts[0])
        return [(kind, expr.elts[1])] if kind is not None else []
    if isinstance(expr, ast.Name):
        out: list[tuple[str, ast.expr]] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and target.id == expr.id):
                        out.extend(_frame_kinds(node.value, fn))
        return out
    return []


def _fits(payload: ast.expr, shape: FrameShape) -> bool:
    """Whether a literal payload expression has the declared shape
    (anything that is not a literal is not judged)."""
    if isinstance(payload, ast.Tuple):
        return shape.kind == "tuple" and len(payload.elts) == shape.arity
    if isinstance(payload, ast.Dict):
        keys = _dict_literal_keys(payload)
        return keys is None or (shape.kind == "dict"
                                and keys == set(shape.keys))
    if isinstance(payload, ast.Constant) and payload.value is None:
        return shape.kind == "none"
    return True


def _check_frames(graph: CallGraph, declared: _Declared
                  ) -> Iterable[Finding]:
    """Sends, dispatch arms and payload unpacks in the distributed
    executor against ``FRAMES`` (both ends live in the one module)."""
    frames = declared.frames
    if frames is None:
        return
    undeclared = ("frame kind {!r} is {} but FRAMES does not declare it")
    for fn in sorted(graph.functions.values(),
                     key=lambda f: (f.rel, f.line)):
        if not fn.rel.endswith(_FRAMES_FILE):
            continue
        for node in ast.walk(fn.node):
            compare = _kind_compare(node)
            if compare is not None:
                if compare[1] in frames:
                    frames[compare[1]].handled = True
                else:
                    yield Finding("schema.unknown-op", fn.rel, node.lineno,
                                  undeclared.format(compare[1], "handled"))
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            head, _, attr = raw.rpartition(".")
            if attr == "send_frame" and len(node.args) >= 2:
                frame = node.args[1]    # send_frame(sock, frame)
            elif attr == "send" and head and len(node.args) == 1:
                frame = node.args[0]    # conn.send(frame)
            else:
                continue
            for kind, payload in _frame_kinds(frame, fn):
                shape = frames.get(kind)
                if shape is None:
                    yield Finding("schema.unknown-op", fn.rel, node.lineno,
                                  undeclared.format(kind, "sent"))
                    continue
                shape.sent = True
                if not _fits(payload, shape):
                    yield Finding(
                        "schema.frame-shape", fn.rel, node.lineno,
                        f"frame {kind!r} is declared {shape} "
                        f"(FRAMES, line {shape.line}) but sent with a "
                        f"different payload here")
        payload_vars = _payload_vars(fn)
        if payload_vars:
            yield from _scan_receive_block(fn.node.body, None, fn,
                                           payload_vars, frames, graph)
    for kind, shape in frames.items():
        if not (shape.sent and shape.handled):
            yield Finding(
                "schema.unused-op", declared.frames_rel, shape.line,
                f"frame kind {kind!r} is declared but never "
                f"{'handled' if shape.sent else 'sent'}")


def _payload_vars(fn: FunctionInfo) -> set[str]:
    """Names bound as the payload half of a ``kind, data`` unpack."""
    out: set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (isinstance(target, ast.Tuple)
                    and len(target.elts) == 2
                    and all(isinstance(e, ast.Name)
                            for e in target.elts)
                    and target.elts[0].id == "kind"):
                out.add(target.elts[1].id)
    return out


def _scan_receive_block(stmts: list[ast.stmt], kind: str | None,
                        fn: FunctionInfo, payload_vars: set[str],
                        shapes: dict[str, FrameShape],
                        graph: CallGraph) -> Iterable[Finding]:
    for index, stmt in enumerate(stmts):
        if isinstance(stmt, ast.If):
            compare = _kind_compare(stmt.test)
            if compare is not None and compare[0] == "==":
                yield from _scan_receive_block(
                    stmt.body, compare[1], fn, payload_vars, shapes,
                    graph)
                yield from _scan_receive_block(
                    stmt.orelse, kind, fn, payload_vars, shapes, graph)
                continue
            if (compare is not None and compare[0] == "!="
                    and stmt.body
                    and isinstance(stmt.body[-1],
                                   (ast.Raise, ast.Return,
                                    ast.Continue, ast.Break))):
                # guard style: everything after runs with kind == lit
                yield from _scan_receive_block(
                    stmt.body, kind, fn, payload_vars, shapes, graph)
                yield from _scan_receive_block(
                    stmts[index + 1:], compare[1], fn, payload_vars,
                    shapes, graph)
                return
        if kind is not None:
            yield from _check_receive_statement(
                stmt, kind, fn, payload_vars, shapes, graph)
        for body in (getattr(stmt, "body", None),
                     getattr(stmt, "orelse", None),
                     getattr(stmt, "finalbody", None)):
            if isinstance(body, list) and not isinstance(stmt, ast.If):
                yield from _scan_receive_block(
                    body, kind, fn, payload_vars, shapes, graph)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _scan_receive_block(
                handler.body, kind, fn, payload_vars, shapes, graph)


def _check_receive_statement(stmt: ast.stmt, kind: str,
                             fn: FunctionInfo, payload_vars: set[str],
                             shapes: dict[str, FrameShape],
                             graph: CallGraph) -> Iterable[Finding]:
    shape = shapes.get(kind)
    if shape is None:
        return
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if (isinstance(target, ast.Tuple)
                    and isinstance(stmt.value, ast.Name)
                    and stmt.value.id in payload_vars
                    and (shape.kind != "tuple"
                         or len(target.elts) != shape.arity)):
                yield Finding(
                    "schema.frame-shape", fn.rel, stmt.lineno,
                    f"frame {kind!r} is declared {shape} (FRAMES, "
                    f"line {shape.line}) but unpacked as a "
                    f"{len(target.elts)}-tuple")
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        starred = [arg for arg in node.args
                   if isinstance(arg, ast.Starred)
                   and isinstance(arg.value, ast.Name)
                   and arg.value.id in payload_vars]
        if not starred:
            continue
        callee = graph.resolve_call(dotted_name(node.func), fn)
        target = graph.functions.get(callee) if callee else None
        if target is None:
            continue
        fixed = len(node.args) - 1      # positionals before *data
        expected = len(target.params) - fixed
        if shape.kind == "tuple" and expected != shape.arity:
            yield Finding(
                "schema.frame-shape", fn.rel, node.lineno,
                f"frame {kind!r} is declared {shape} (FRAMES, line "
                f"{shape.line}) but {target.name}() takes {expected} "
                f"payload argument(s)")


# ---------------------------------------------------------------------------
# The artifact
# ---------------------------------------------------------------------------

def _render(declared: _Declared) -> dict:
    return {
        "version": WIRE_SCHEMA_VERSION,
        "services": {
            service: {kind: op.as_dict()
                      for kind, op in sorted((table or {}).items())}
            for service, table in declared.services.items()},
        "frames": {kind: shape.as_dict() for kind, shape
                   in sorted((declared.frames or {}).items())},
    }


def derive_wire_schema(project: Project) -> dict:
    """The declared tables in the machine-readable v1 layout."""
    return _render(_Declared(project))


def render_wire_schema(schema: dict) -> str:
    return json.dumps(schema, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

class WireSchemaChecker(Checker):
    name = "schema"
    rules = {
        "schema.unknown-op":
            "op or frame kind sent (or a frame kind handled) that no "
            "table declares; dispatch answers it with bad-request",
        "schema.unused-op":
            "declared op or frame kind that no call site in src/tests "
            "ever sends; dead surface or a lost caller",
        "schema.declaration":
            "op table and _op_* handlers disagree: undeclared key "
            "read, required key never read, op without handler, "
            "handler without op, or a table that is not a pure literal",
        "schema.missing-key":
            "RPC call site omits a payload key the op requires — "
            "dispatch refuses it at runtime",
        "schema.unknown-key":
            "RPC call site passes a payload key the op does not "
            "declare — dispatch refuses it, usually a typo",
        "schema.unknown-reply-key":
            "caller reads a reply key absent from the declared reply "
            "keys of every op the variable can carry",
        "schema.frame-shape":
            "distributed frame sent or consumed with a payload shape "
            "other than the one FRAMES declares",
        "schema.artifact-drift":
            "docs/wire_schema.json no longer matches the declared "
            "tables; regenerate with `repro lint --emit-schema`",
        "schema.artifact-missing":
            "docs/wire_schema.json has not been generated; run "
            "`repro lint --emit-schema`",
    }

    def run(self, project: Project) -> Iterable[Finding]:
        graph = get_callgraph(project)
        declared = _Declared(project)
        findings = list(declared.findings)
        findings.extend(_check_handlers(project, graph, declared))
        findings.extend(_check_call_sites(project, declared))
        findings.extend(_unused_ops(declared))
        findings.extend(_check_reply_reads(graph, declared))
        findings.extend(_check_frames(graph, declared))
        findings.extend(self._check_artifact(project, declared))
        return findings

    def _check_artifact(self, project: Project, declared: _Declared
                        ) -> Iterable[Finding]:
        # Fixture trees have no docs/; a partial scan (`repro lint
        # somefile.py`) does not see every table, so a drift verdict
        # would be noise.  The full run still gates.
        if not (project.root / "docs").is_dir() or not declared.ready():
            return
        artifact = project.root / ARTIFACT_REL
        if not artifact.is_file():
            yield Finding("schema.artifact-missing", ARTIFACT_REL, 1,
                          self.rules["schema.artifact-missing"])
            return
        try:
            committed = json.loads(
                artifact.read_text(encoding="utf-8"))
        except ValueError as exc:
            yield Finding("schema.artifact-drift", ARTIFACT_REL, 1,
                          f"artifact is not valid JSON: {exc}")
            return
        if committed != _render(declared):
            yield Finding("schema.artifact-drift", ARTIFACT_REL, 1,
                          self.rules["schema.artifact-drift"])


register(WireSchemaChecker())
