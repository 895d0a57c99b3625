"""Interprocedural analysis core: call graph + per-function summaries.

The PR 7 checkers were per-file pattern matchers: a lock cycle or a
payload mismatch that spans two functions was invisible.  This module
gives every checker whole-program context:

* **Symbol tables** — every scanned file becomes a module
  (``src/repro/net.py`` -> ``repro.net``) with its imports, top-level
  functions and classes (methods included, bases resolved through
  imports so ``self.m()`` finds inherited methods).
* **Per-function summaries** (:class:`FunctionInfo`) — locks acquired
  (class-qualified tokens, sync vs asyncio, what was already held),
  calls made (with the lock context at the call site), ``await``
  presence, and payload-parameter key reads (``data["k"]`` /
  ``data.get("k")``) for the wire-schema checker.
  Nested defs and lambdas are folded into the enclosing function under
  their definition-site locks, matching the lock checker's model (in
  this codebase closures run where they are made).
* **Resolution** — ``self.m()`` through the class and its repo-known
  bases, bare names through module functions and ``from``-imports
  (re-export chains are chased a few hops), ``mod.f()`` through module
  aliases.  Resolution is deliberately best-effort: an unresolved call
  contributes nothing, so every derived fact stays a *may* fact on the
  resolved subgraph, never a speculative one.
* **Fixpoint closures** — :meth:`CallGraph.transitive_locks`
  propagates lock summaries over the graph until stable (cycles are
  fine), and :meth:`CallGraph.payload_keys` follows a payload dict
  forwarded whole into helpers.

Exception flow is not modelled: the typed errors an RPC op may answer
are declared in ``service/protocol.py``'s op tables and checked on
every reply at run time.

Checkers share one graph per lint run via :func:`get_callgraph`,
which memoises on the :class:`~.core.Project` instance.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from .core import Project, SourceFile, dotted_name, string_literal


def module_name(rel: str) -> str:
    """Dotted module name for a repo-relative path (best effort)."""
    trimmed = rel[:-3] if rel.endswith(".py") else rel
    parts = [part for part in trimmed.split("/") if part]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or trimmed


def lock_token(expr: ast.AST) -> str | None:
    """Canonical token for a with-item that acquires a lock.

    ``self._meta`` -> ``"self._meta"``; ``self._stripe_lock(key)`` ->
    ``"self._stripe_lock()"`` (all stripe locks are one class for
    ordering purposes); a bare name containing ``lock`` -> the name.
    """
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        attr = expr.attr
        if (attr in {"_meta", "_state", "_cond"}
                or "lock" in attr.lower()):
            return f"{expr.value.id}.{attr}"
        return None
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        if name.endswith("_lock") or name.endswith("_stripe_lock"):
            return f"{name}()"
        return None
    if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
        return expr.id
    return None


def qualify_token(token: str, cls: str | None) -> str:
    """``self._meta`` inside ``class NameNodeServer`` ->
    ``NameNodeServer._meta`` so the ordering graph never aliases two
    classes' locks just because both fields are called ``_meta``."""
    if cls is not None and token.startswith("self."):
        return cls + token[len("self"):]
    return token


@dataclass(frozen=True)
class Acquisition:
    """One lock acquisition inside a function body."""

    token: str                      # class-qualified
    is_sync: bool                   # ``with`` vs ``async with``
    line: int
    held: tuple[str, ...]           # qualified tokens held just before


@dataclass(frozen=True)
class CallSite:
    """One call made by a function, with its lock context."""

    line: int
    raw: str                        # dotted target as written ("" if exotic)
    held: tuple[tuple[str, bool], ...]   # (qualified token, is_sync)
    awaited: bool
    # bare parameter names forwarded whole: (positional index, param)
    forwarded: tuple[tuple[int, str], ...] = ()
    callee: str | None = None       # resolved qualname (filled at build)


@dataclass
class FunctionInfo:
    """Summary of one function or method."""

    qualname: str                   # module.Class.name or module.name
    module: str
    cls: str | None                 # bare enclosing class name
    name: str
    rel: str
    line: int
    is_async: bool
    params: tuple[str, ...]         # positional params, self/cls stripped
    node: ast.AST
    acquisitions: list[Acquisition] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    awaits: bool = False
    # payload reads: param -> key -> (required, first line)
    reads: dict[str, dict[str, tuple[bool, int]]] = field(
        default_factory=dict)


@dataclass
class ClassInfo:
    """One class: bases as written, methods by name."""

    qualname: str
    module: str
    name: str
    line: int
    bases: tuple[str, ...]
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One file's symbol table."""

    name: str
    rel: str
    is_package: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


class _Summarizer:
    """One walk of a function body, tracking the held-lock context."""

    def __init__(self, fn: FunctionInfo):
        self.fn = fn
        params = set(fn.params)
        self._params = params

    def walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._walk(stmt, (), awaited=False)

    def _walk(self, node: ast.AST,
              held: tuple[tuple[str, bool], ...],
              awaited: bool) -> None:
        fn = self.fn
        if isinstance(node, (ast.With, ast.AsyncWith)):
            is_sync = isinstance(node, ast.With)
            tokens: list[tuple[str, bool]] = []
            for item in node.items:
                # the with-expression evaluates *before* the lock holds
                self._walk(item.context_expr, held, awaited)
                token = lock_token(item.context_expr)
                if token is not None:
                    token = qualify_token(token, fn.cls)
                    fn.acquisitions.append(Acquisition(
                        token, is_sync, node.lineno,
                        tuple(name for name, _ in held)
                        + tuple(name for name, _ in tokens)))
                    tokens.append((token, is_sync))
            inner = held + tuple(tokens)
            for stmt in node.body:
                self._walk(stmt, inner, False)
            return
        if isinstance(node, ast.Await):
            fn.awaits = True
            self._walk(node.value, held, True)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # folded into the enclosing summary under definition-site
            # locks
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt in body:
                self._walk(stmt, held, False)
            return
        if isinstance(node, ast.Call):
            self._record_call(node, held, awaited)
        if isinstance(node, ast.Subscript):
            self._record_read(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child, held, awaited)

    def _record_call(self, node: ast.Call,
                     held: tuple[tuple[str, bool], ...],
                     awaited: bool) -> None:
        fn = self.fn
        raw = dotted_name(node.func)
        forwarded = tuple(
            (index, arg.id) for index, arg in enumerate(node.args)
            if isinstance(arg, ast.Name) and arg.id in self._params)
        fn.calls.append(CallSite(
            node.lineno, raw,
            tuple((qualify_token(t, fn.cls), s) for t, s in held),
            awaited, forwarded))
        # payload.get("key") reads
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "get"
                and isinstance(func.value, ast.Name)
                and func.value.id in self._params and node.args):
            key = string_literal(node.args[0])
            if key is not None:
                self._add_read(func.value.id, key, required=False,
                               line=node.lineno)

    def _record_read(self, node: ast.Subscript) -> None:
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            return
        if not (isinstance(node.value, ast.Name)
                and node.value.id in self._params):
            return
        key = string_literal(node.slice)
        if key is not None:
            self._add_read(node.value.id, key, required=True,
                           line=node.lineno)

    def _add_read(self, param: str, key: str, required: bool,
                  line: int) -> None:
        keys = self.fn.reads.setdefault(param, {})
        if key in keys:
            old_required, old_line = keys[key]
            keys[key] = (old_required or required, min(old_line, line))
        else:
            keys[key] = (required, line)


#: Cap on re-export chasing (``from .registry import make_code``
#: re-exported through a package ``__init__``).
_REEXPORT_HOPS = 5


class CallGraph:
    """Project-wide call graph with module-qualified resolution."""

    def __init__(self, project: Project):
        self.project = project
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._locks_closure: dict[str, frozenset[str]] | None = None
        self._keys_memo: dict[tuple[str, str],
                              dict[str, tuple[bool, int]]] = {}
        for entry in project.all_files():
            if entry.tree is not None:
                self._index_file(entry)
        self._resolve_calls()

    # -- construction --------------------------------------------------

    def _index_file(self, entry: SourceFile) -> None:
        mod = ModuleInfo(module_name(entry.rel), entry.rel,
                         is_package=entry.rel.endswith("__init__.py"))
        # first file wins on module-name collisions (scanned before
        # context, so the real tree shadows same-named fixtures)
        if mod.name in self.modules:
            return
        self.modules[mod.name] = mod
        for node in entry.tree.body:
            self._index_statement(entry, mod, node)

    def _index_statement(self, entry: SourceFile, mod: ModuleInfo,
                         node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else local
                mod.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = self._import_base(mod, node)
            if base is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mod.imports[local] = f"{base}.{alias.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = self._summarize(entry, mod, node, cls=None)
            mod.functions[node.name] = info
            self.functions[info.qualname] = info
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                f"{mod.name}.{node.name}", mod.name, node.name,
                node.lineno,
                tuple(dotted_name(b) for b in node.bases
                      if dotted_name(b)))
            mod.classes[node.name] = cls
            self.classes[cls.qualname] = cls
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    info = self._summarize(entry, mod, item,
                                           cls=node.name)
                    cls.methods[item.name] = info
                    self.functions[info.qualname] = info

    @staticmethod
    def _import_base(mod: ModuleInfo, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        parts = mod.name.split(".")
        # level 1 means "this package": a package __init__ IS its
        # package, a regular module's package is its parent
        drop = node.level - 1 if mod.is_package else node.level
        if drop > len(parts):
            return None
        base = parts[:len(parts) - drop]
        if node.module:
            base.append(node.module)
        return ".".join(base) if base else node.module

    def _summarize(self, entry: SourceFile, mod: ModuleInfo,
                   node: ast.FunctionDef | ast.AsyncFunctionDef,
                   cls: str | None) -> FunctionInfo:
        params = [arg.arg for arg in (node.args.posonlyargs
                                      + node.args.args)]
        if cls is not None and params and params[0] in {"self", "cls"}:
            params = params[1:]
        qual = (f"{mod.name}.{cls}.{node.name}" if cls
                else f"{mod.name}.{node.name}")
        info = FunctionInfo(
            qualname=qual, module=mod.name, cls=cls, name=node.name,
            rel=entry.rel, line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            params=tuple(params), node=node)
        _Summarizer(info).walk_body(node.body)
        return info

    # -- resolution ----------------------------------------------------

    def _resolve_calls(self) -> None:
        for info in self.functions.values():
            info.calls = [replace(c, callee=self.resolve_call(c.raw, info))
                          for c in info.calls]

    def resolve_call(self, raw: str, fn: FunctionInfo) -> str | None:
        """Qualified name of the function ``raw`` refers to, if known."""
        if not raw:
            return None
        parts = raw.split(".")
        if parts[0] == "self" and fn.cls is not None:
            if len(parts) != 2:
                return None         # self.attr.m(): receiver type unknown
            method = self.method_on(f"{fn.module}.{fn.cls}", parts[1])
            return method.qualname if method else None
        return self.resolve_symbol(fn.module, raw)

    def resolve_symbol(self, module: str, raw: str) -> str | None:
        """Resolve a dotted name in ``module`` to a known function."""
        mod = self.modules.get(module)
        if mod is None:
            return None
        parts = raw.split(".")
        head, rest = parts[0], parts[1:]
        if not rest:
            if head in mod.functions:
                return mod.functions[head].qualname
            target = mod.imports.get(head)
            return self._chase(target) if target else None
        target = mod.imports.get(head)
        if target is None:
            return None
        return self._chase(".".join([target, *rest]))

    def _chase(self, target: str) -> str | None:
        """Follow re-export chains to a real function definition."""
        for _ in range(_REEXPORT_HOPS):
            if target in self.functions:
                return target
            module, _, name = target.rpartition(".")
            if not module:
                return None
            mod = self.modules.get(module)
            if mod is None:
                return None
            if name in mod.functions:
                return mod.functions[name].qualname
            nxt = mod.imports.get(name)
            if nxt is None or nxt == target:
                return None
            target = nxt
        return None

    def method_on(self, class_qualname: str,
                  name: str) -> FunctionInfo | None:
        """Method lookup through the class and its repo-known bases."""
        seen: set[str] = set()
        queue = [class_qualname]
        while queue:
            qual = queue.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            mod = self.modules.get(cls.module)
            for base in cls.bases:
                resolved = None
                if mod is not None and base in mod.classes:
                    resolved = f"{cls.module}.{base}"
                elif mod is not None and base in mod.imports:
                    resolved = mod.imports[base]
                elif base in self.classes:
                    resolved = base
                if resolved is not None:
                    queue.append(resolved)
        return None

    # -- fixpoint closures ---------------------------------------------

    def transitive_locks(self) -> dict[str, frozenset[str]]:
        """Function -> every lock token it may acquire, transitively."""
        if self._locks_closure is not None:
            return self._locks_closure
        result = {qual: {a.token for a in fn.acquisitions}
                  for qual, fn in self.functions.items()}
        changed = True
        while changed:
            changed = False
            for qual, fn in self.functions.items():
                mine = result[qual]
                before = len(mine)
                for call in fn.calls:
                    if call.callee is not None and call.callee != qual:
                        mine |= result.get(call.callee, set())
                if len(mine) != before:
                    changed = True
        self._locks_closure = {qual: frozenset(items)
                               for qual, items in result.items()}
        return self._locks_closure

    def acquire_chain(self, start: str, token: str) -> list[str]:
        """Shortest call chain from ``start`` to a function that
        directly acquires ``token`` (for human-readable cycle reports).
        Returns function qualnames, ``[start, ..., acquirer]``."""
        closure = self.transitive_locks()
        if token not in closure.get(start, frozenset()):
            return []
        parents: dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            qual = queue.pop(0)
            fn = self.functions[qual]
            if any(a.token == token for a in fn.acquisitions):
                chain = [qual]
                while chain[-1] in parents:
                    chain.append(parents[chain[-1]])
                return list(reversed(chain))
            for call in fn.calls:
                callee = call.callee
                if (callee is None or callee in seen
                        or token not in closure.get(callee, frozenset())):
                    continue
                seen.add(callee)
                parents[callee] = qual
                queue.append(callee)
        return []

    def payload_keys(self, qualname: str, param: str,
                     _stack: frozenset = frozenset()
                     ) -> dict[str, tuple[bool, int]]:
        """Keys a function reads from a payload parameter, following
        the payload forwarded *whole* into resolved callees."""
        memo_key = (qualname, param)
        if memo_key in self._keys_memo:
            return self._keys_memo[memo_key]
        if memo_key in _stack:
            return {}
        fn = self.functions.get(qualname)
        if fn is None:
            return {}
        out = dict(fn.reads.get(param, {}))
        stack = _stack | {memo_key}
        for call in fn.calls:
            if call.callee is None:
                continue
            callee = self.functions.get(call.callee)
            if callee is None:
                continue
            for index, name in call.forwarded:
                if name != param or index >= len(callee.params):
                    continue
                sub = self.payload_keys(call.callee,
                                        callee.params[index], stack)
                for key, (required, line) in sub.items():
                    if key in out:
                        old_req, old_line = out[key]
                        out[key] = (old_req or required,
                                    min(old_line, call.line))
                    else:
                        out[key] = (required, call.line)
        self._keys_memo[memo_key] = out
        return out


def get_callgraph(project: Project) -> CallGraph:
    """The shared per-run call graph (memoised on the project)."""
    graph = getattr(project, "_callgraph", None)
    if graph is None:
        graph = CallGraph(project)
        project._callgraph = graph      # type: ignore[attr-defined]
    return graph
