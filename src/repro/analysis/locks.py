"""Lock-discipline checker for the service daemons and their RPC core.

The storage service keeps its invariants with a small set of locks —
``NameNodeServer._meta`` (RLock over namespace + liveness), per-stripe
locks from ``_stripe_lock(key)``, ``AsyncRpcServer._close_lock``.  A
datanode is one thread and holds none.  Two classes of bug hide from
tests here: a *blocking* call (socket I/O, RPC round-trip, sleep,
subprocess wait) made while holding a lock turns one slow peer into a
stalled daemon; and two functions acquiring the same pair of locks in
opposite orders is a deadlock that needs the right interleaving to
fire.

Since the daemons moved onto one asyncio loop apiece (the shared
:mod:`repro.net` core), two async-specific bugs joined the list: a
*blocking* call inside a coroutine stalls not one thread but the whole
event loop (every connection, every heartbeat); and an ``await`` while
holding a *synchronous* lock parks the loop with the lock held, so
any foreign thread queued on that lock (a bridging ``run_coroutine``
caller) deadlocks against the coroutine that will never resume.

This is the v2 of the checker: the ordering and blocking analyses now
ride the project-wide call graph (:mod:`.callgraph`) instead of
one-level sibling-call propagation.  Lock tokens in the ordering graph
are **class-qualified** (``self._meta`` in ``NameNodeServer`` is
``NameNodeServer._meta``), so two classes that both name a field
``_meta`` no longer alias; edges come from direct nesting *and* from
any call made under a lock to a function whose transitive lock set
(fixpoint over the graph) contains another lock; cycles of any length
are reported, once per edge on the cycle.

Rules
-----
``locks.blocking-call``
    A blocking operation while at least one synchronous lock is held.
    Direct calls are matched syntactically; calls into helpers are
    checked against the call graph — a helper (any hops away, through
    non-awaited sync calls) that performs socket I/O, an RPC bridge
    (``run_coroutine``), a subprocess wait or ``time.sleep`` flags the
    call site that made it under the lock.  ``cond.wait()`` /
    ``cond.wait_for()`` *on a held condition* is exempt — a condition
    wait releases the lock; that is the pattern, not a bug.
``locks.lock-order``
    Lock-order cycle: B acquired while holding A (directly, or by
    calling — through any chain — a function that acquires B), and a
    path in the ordering graph leads from B back to A.  Each edge on
    the cycle is reported at the site that recorded it.
``locks.async-blocking``
    A blocking call (socket I/O, framed send/recv, ``time.sleep``,
    join/wait) inside an ``async def`` that is not awaited — it runs
    on the event loop thread and stalls every coroutine on it.
    Awaited calls are exempt (``await asyncio.sleep`` / ``conn.recv``
    yield to the loop), as is ``.sleep`` on anything but ``time``.
``locks.sync-lock-await``
    An ``await`` while holding a synchronous (threading) lock.  The
    coroutine suspends with the lock held; threads blocked on it
    stall for as long as the await takes — or forever, if the thing
    awaited needs one of those threads.  (Transitively this is the
    whole story: ``await`` is syntactically local to the coroutine,
    so the cross-function variants are exactly the awaits this rule
    sees plus the ``run_coroutine`` bridge, which the blocking-call
    rule covers.)

Scope: ``service/`` and ``repro/net.py``.  Nested functions defined inside a ``with`` block
are analysed as running under that lock (in this codebase they are
called there — e.g. the ``fetch`` closure handed to the repair
planner).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .callgraph import (CallGraph, CallSite, FunctionInfo, get_callgraph,
                        lock_token, qualify_token)
from .core import Checker, Finding, Project, SourceFile, dotted_name, register

SCOPE_SEGMENTS = ("service/",)
SCOPE_FILES = ("repro/net.py",)

#: Attribute calls that block (socket I/O, subprocess, sleeps, joins).
BLOCKING_ATTRS = {"recv", "recv_into", "recv_frame", "send", "sendall",
                  "send_frame", "accept", "connect", "makefile",
                  "communicate", "check_call", "check_output", "sleep",
                  "join", "wait", "wait_for", "run_coroutine"}

#: Bare-name calls that block (module-level helpers).
BLOCKING_NAMES = {"recv_frame", "send_frame", "create_connection",
                  "call", "run_coroutine"}

#: RPC helper methods — a full request/response round-trip.
RPC_ATTRS = {"_nn_call", "_dn_call", "call"}

#: Attribute calls the *interprocedural* closure treats as blocking.
#: Deliberately tighter than :data:`BLOCKING_ATTRS`: without the call
#: site in hand we cannot tell a thread ``join`` from ``os.path.join``
#: or a condition ``wait`` from a released one, so the closure only
#: trusts the unambiguous operations.
PROPAGATED_BLOCK_ATTRS = {"recv", "recv_into", "recv_frame", "sendall",
                          "send_frame", "accept", "connect",
                          "communicate", "check_call", "check_output",
                          "run_coroutine"}


def in_scope(rel: str) -> bool:
    if any(segment in rel for segment in SCOPE_SEGMENTS):
        return True
    return any(rel.endswith(name) for name in SCOPE_FILES)


def _blocking_reason(node: ast.Call) -> str | None:
    """Why this call blocks, or ``None`` if it does not."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in BLOCKING_NAMES:
            return f"{func.id}() performs blocking I/O"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    base = dotted_name(func.value)
    if attr in RPC_ATTRS:
        return f".{attr}() is a full RPC round-trip"
    if attr == "run" and base.endswith("subprocess"):
        return "subprocess.run() waits on a child process"
    if attr in BLOCKING_ATTRS:
        # "".join(...) and friends: a str-literal receiver is not a
        # thread/process join.
        if attr == "join" and isinstance(func.value, ast.Constant):
            return None
        return f".{attr}() blocks"
    return None


def _raw_block_reason(raw: str) -> str | None:
    """The closure's version of :func:`_blocking_reason`, on the dotted
    call target recorded in a :class:`~.callgraph.CallSite`."""
    if not raw:
        return None
    head, _, attr = raw.rpartition(".")
    if not head:
        if raw in BLOCKING_NAMES:
            return f"{raw}() performs blocking I/O"
        return None
    if attr in RPC_ATTRS:
        return f".{attr}() is a full RPC round-trip"
    if attr == "run" and head.endswith("subprocess"):
        return "subprocess.run() waits on a child process"
    if attr == "sleep":
        return ".sleep() blocks" if head == "time" else None
    if attr in PROPAGATED_BLOCK_ATTRS:
        return f".{attr}() blocks"
    return None


def _condition_exempt(call: CallSite, fn: FunctionInfo) -> bool:
    """``cond.wait()/wait_for()`` on a condition held at the site."""
    head, _, attr = call.raw.rpartition(".")
    if attr not in {"wait", "wait_for"} or not head:
        return False
    held_tokens = {token for token, _ in call.held}
    return qualify_token(head, fn.cls) in held_tokens


class _BlockClosure:
    """Function -> first blocking site reachable through non-awaited
    calls to synchronous functions (an un-awaited call to an ``async
    def`` never runs its body; an awaited one yields to the loop)."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self._memo: dict[str, tuple[str, str, int] | None] = {}

    def block_site(self, qualname: str,
                   _stack: frozenset = frozenset()
                   ) -> tuple[str, str, int] | None:
        if qualname in self._memo:
            return self._memo[qualname]
        if qualname in _stack:
            return None
        fn = self.graph.functions.get(qualname)
        if fn is None:
            return None
        stack = _stack | {qualname}
        found: tuple[str, str, int] | None = None
        for call in fn.calls:
            if call.awaited or _condition_exempt(call, fn):
                continue
            reason = _raw_block_reason(call.raw)
            if reason is not None:
                found = (reason, fn.rel, call.line)
                break
            if call.callee is None:
                continue
            callee = self.graph.functions.get(call.callee)
            if callee is None or callee.is_async:
                continue
            found = self.block_site(call.callee, stack)
            if found is not None:
                break
        self._memo[qualname] = found
        return found


class LockDisciplineChecker(Checker):
    name = "locks"
    rules = {
        "locks.blocking-call":
            "blocking call (socket I/O, RPC helper, sleep, subprocess "
            "wait) while holding a lock — directly or through any "
            "call chain; a slow peer stalls every thread queued on it",
        "locks.lock-order":
            "lock-order cycle: the ordering graph (direct nesting + "
            "locks acquired transitively through calls) reaches the "
            "held lock again; a deadlock waiting for the right "
            "interleaving",
        "locks.async-blocking":
            "non-awaited blocking call inside an async function; it "
            "runs on the event loop thread and stalls every coroutine "
            "the daemon is serving",
        "locks.sync-lock-await":
            "await while holding a synchronous lock; the coroutine "
            "suspends with the lock held and every thread queued on "
            "it stalls",
    }

    def run(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        for entry in project.files:
            if entry.tree is None or not in_scope(entry.rel):
                continue
            for node in ast.walk(entry.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._walk_function(entry, node, findings)
        graph = get_callgraph(project)
        findings.extend(self._propagated_blocking(graph))
        findings.extend(self._order_findings(self._order_edges(graph)))
        return findings

    # -- direct per-function rules -------------------------------------

    def _walk_function(self, entry: SourceFile, func: ast.AST,
                       findings: list[Finding]) -> None:
        body = getattr(func, "body", [])
        in_async = isinstance(func, ast.AsyncFunctionDef)
        for stmt in body:
            self._walk(entry, stmt, (), findings, in_async=in_async)

    def _walk(self, entry: SourceFile, node: ast.AST,
              held: tuple[tuple[str, bool], ...],
              findings: list[Finding],
              in_async: bool = False,
              awaited: bool = False) -> None:
        """``held`` is a tuple of ``(token, is_sync)`` pairs: ``with``
        acquisitions are synchronous (threading) locks, ``async with``
        ones are asyncio locks that only suspend the coroutine."""
        if isinstance(node, (ast.With, ast.AsyncWith)):
            is_sync = isinstance(node, ast.With)
            tokens: list[tuple[str, bool]] = []
            for item in node.items:
                # the with-expression itself evaluates *before* the
                # lock is held
                self._walk(entry, item.context_expr, held, findings,
                           in_async=in_async, awaited=awaited)
                token = lock_token(item.context_expr)
                if token is not None:
                    tokens.append((token, is_sync))
            inner = held + tuple(tokens)
            for stmt in node.body:
                self._walk(entry, stmt, inner, findings,
                           in_async=in_async)
            return
        if isinstance(node, ast.Await):
            sync_held = [name for name, is_sync in held if is_sync]
            if sync_held:
                findings.append(Finding(
                    "locks.sync-lock-await", entry.rel, node.lineno,
                    f"await while holding {', '.join(sync_held)}; the "
                    f"coroutine suspends with the lock held and every "
                    f"thread queued on it stalls"))
            # Everything under the await yields to the loop rather
            # than blocking it (arguments construct coroutines).
            self._walk(entry, node.value, held, findings,
                       in_async=in_async, awaited=True)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # Nested def: analysed under the locks of its definition
            # site (in this codebase closures run where they are made).
            nested_async = (in_async if isinstance(node, ast.Lambda)
                            else isinstance(node, ast.AsyncFunctionDef))
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt in body:
                self._walk(entry, stmt, held, findings,
                           in_async=nested_async)
            return
        if isinstance(node, ast.Call):
            self._check_call(entry, node, held, findings,
                             in_async=in_async, awaited=awaited)
        for child in ast.iter_child_nodes(node):
            self._walk(entry, child, held, findings,
                       in_async=in_async, awaited=awaited)

    def _check_call(self, entry: SourceFile, node: ast.Call,
                    held: tuple[tuple[str, bool], ...],
                    findings: list[Finding],
                    in_async: bool = False,
                    awaited: bool = False) -> None:
        func = node.func
        held_tokens = [name for name, _ in held]
        # Condition-wait exemption: cond.wait()/wait_for() on a held
        # condition releases it while waiting — that is the pattern.
        if (isinstance(func, ast.Attribute)
                and func.attr in {"wait", "wait_for"}
                and dotted_name(func.value) in held_tokens):
            return
        reason = _blocking_reason(node)
        if reason is None or awaited:
            return
        sync_held = [name for name, is_sync in held if is_sync]
        if sync_held:
            findings.append(Finding(
                "locks.blocking-call", entry.rel, node.lineno,
                f"{reason} while holding {', '.join(sync_held)}"))
        elif in_async:
            # asyncio.sleep / loop.sleep construct awaitables; only
            # time.sleep actually parks the loop thread.
            if (isinstance(func, ast.Attribute) and func.attr == "sleep"
                    and dotted_name(func.value) != "time"):
                return
            findings.append(Finding(
                "locks.async-blocking", entry.rel, node.lineno,
                f"{reason} inside an async function; it runs on the "
                f"event loop thread and stalls every coroutine"))

    # -- interprocedural blocking --------------------------------------

    def _propagated_blocking(self, graph: CallGraph) -> Iterable[Finding]:
        """Calls made under a sync lock into helpers that block —
        through any chain of non-awaited synchronous calls."""
        closure = _BlockClosure(graph)
        functions = sorted(
            (fn for fn in graph.functions.values() if in_scope(fn.rel)),
            key=lambda f: (f.rel, f.line))
        for fn in functions:
            for call in fn.calls:
                sync_held = [t for t, is_sync in call.held if is_sync]
                if not sync_held or call.awaited or call.callee is None:
                    continue
                if _raw_block_reason(call.raw) is not None:
                    continue        # the direct rule already fires here
                callee = graph.functions.get(call.callee)
                if callee is None or callee.is_async:
                    continue
                site = closure.block_site(call.callee)
                if site is None:
                    continue
                reason, rel, line = site
                yield Finding(
                    "locks.blocking-call", fn.rel, call.line,
                    f"{call.raw}() blocks ({reason} at {rel}:{line}) "
                    f"while holding {', '.join(sync_held)}")

    # -- interprocedural lock ordering ---------------------------------

    def _order_edges(self, graph: CallGraph
                     ) -> dict[tuple[str, str], tuple[str, int, str]]:
        """Directed ordering edges ``(held, acquired) -> (rel, line,
        detail)``, first site wins.  Tokens are class-qualified."""
        edges: dict[tuple[str, str], tuple[str, int, str]] = {}
        closure = graph.transitive_locks()
        functions = sorted(
            (fn for fn in graph.functions.values() if in_scope(fn.rel)),
            key=lambda f: (f.rel, f.line))
        for fn in functions:
            for acq in fn.acquisitions:
                for prior in acq.held:
                    if prior != acq.token:
                        edges.setdefault(
                            (prior, acq.token),
                            (fn.rel, acq.line, ""))
            for call in fn.calls:
                if not call.held or call.callee is None:
                    continue
                for token in sorted(closure.get(call.callee,
                                                frozenset())):
                    for prior, _ in call.held:
                        if prior == token:
                            continue
                        if (prior, token) in edges:
                            continue
                        chain = graph.acquire_chain(call.callee, token)
                        names = " -> ".join(
                            graph.functions[q].name + "()"
                            for q in chain)
                        edges[(prior, token)] = (
                            fn.rel, call.line,
                            f" (via {names})" if names else "")
        return edges

    @staticmethod
    def _order_findings(edges: dict[tuple[str, str],
                                    tuple[str, int, str]]
                        ) -> Iterable[Finding]:
        """One finding per edge that sits on a cycle, at the edge's
        first-recorded site.  A two-lock inversion therefore reports
        both sites, exactly as v1 did; longer cycles report each leg."""
        adjacency: dict[str, set[str]] = {}
        for first, second in edges:
            adjacency.setdefault(first, set()).add(second)

        def reaches(start: str, goal: str) -> list[str] | None:
            parents: dict[str, str] = {}
            queue, seen = [start], {start}
            while queue:
                token = queue.pop(0)
                if token == goal:
                    chain = [token]
                    while chain[-1] in parents:
                        chain.append(parents[chain[-1]])
                    return list(reversed(chain))
                for nxt in sorted(adjacency.get(token, ())):
                    if nxt not in seen:
                        seen.add(nxt)
                        parents[nxt] = token
                        queue.append(nxt)
            return None

        for (first, second), (rel, line, detail) in sorted(edges.items()):
            path = reaches(second, first)
            if path is None:
                continue
            reverse = edges.get((second, first))
            if reverse is not None and len(path) == 2:
                rev_rel, rev_line, _ = reverse
                yield Finding(
                    "locks.lock-order", rel, line,
                    f"acquires {second} while holding {first}{detail}, "
                    f"but {rev_rel}:{rev_line} acquires them in the "
                    f"opposite order")
            else:
                cycle = " -> ".join([first, *path])
                yield Finding(
                    "locks.lock-order", rel, line,
                    f"acquires {second} while holding {first}{detail}; "
                    f"the ordering graph closes a cycle: {cycle}")


register(LockDisciplineChecker())
