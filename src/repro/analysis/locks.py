"""Lock and loop discipline for the service daemons and their RPC core.

Each daemon keeps its state on one asyncio loop, so the service holds
one threading lock: ``AsyncRpcServer._close_lock``, a leaf taken for a
few lines so that ``close`` may be called from any thread.  CI fails
if ``service/`` and ``repro/net.py`` construct a second one, which is
what would make a lock order possible.  Three defects stay invisible
to the tests, because they stall a daemon instead of breaking it:

``locks.blocking-call``
    A blocking call (socket I/O, an RPC round-trip or bridge, a sleep,
    a subprocess or thread wait) while a threading lock is held: every
    thread queued on the lock waits for the slowest peer.
``locks.async-blocking``
    The same calls, not awaited, inside an ``async def``: they run on
    the loop thread and stall every coroutine the daemon serves.
    Awaited calls yield to the loop and are exempt, as is ``.sleep``
    on anything but ``time``.
``locks.sync-lock-await``
    An ``await`` while a threading lock is held: the coroutine suspends
    with the lock held, and every thread queued on it waits until the
    loop resumes it.

The check reads one function at a time.  A lock is a ``with`` item
whose name contains ``lock``; ``async with`` takes an asyncio lock,
which only suspends the coroutine.  A function nested in another is
checked on its own: a sync ``def`` inside an ``async def`` is sync
code.  Scope: ``service/`` and ``repro/net.py``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .core import Checker, Finding, Project, SourceFile, dotted_name, register

SCOPE_SEGMENTS = ("service/",)
SCOPE_FILES = ("repro/net.py",)

#: Attribute calls that block (socket I/O, subprocess, sleeps, joins).
BLOCKING_ATTRS = {"recv", "recv_into", "recv_frame", "send", "sendall",
                  "send_frame", "accept", "connect", "makefile",
                  "communicate", "check_call", "check_output", "sleep",
                  "join", "wait", "wait_for", "run_coroutine", "on_loop"}

#: Bare-name calls that block (module-level helpers).
BLOCKING_NAMES = {"recv_frame", "send_frame", "create_connection",
                  "call", "run_coroutine"}

#: RPC helper methods — a full request/response round-trip.
RPC_ATTRS = {"_nn_call", "_dn_call", "call"}


def in_scope(rel: str) -> bool:
    if any(segment in rel for segment in SCOPE_SEGMENTS):
        return True
    return any(rel.endswith(name) for name in SCOPE_FILES)


def _lock_name(expr: ast.AST) -> str | None:
    """The name of a ``with`` item that takes a lock, else ``None``."""
    name = dotted_name(expr)
    return name if "lock" in name.rpartition(".")[2].lower() else None


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
    if attr in RPC_ATTRS:
        return f".{attr}() is a full RPC round-trip"
    if attr == "run" and dotted_name(func.value).endswith("subprocess"):
        return "subprocess.run() waits on a child process"
    if attr in BLOCKING_ATTRS:
        # "".join(...) and friends: a str-literal receiver is not a
        # thread/process join.
        if attr == "join" and isinstance(func.value, ast.Constant):
            return None
        return f".{attr}() blocks"
    return None


class LockDisciplineChecker(Checker):
    name = "locks"
    rules = {
        "locks.blocking-call":
            "blocking call (socket I/O, RPC helper, sleep, subprocess "
            "wait) while holding a threading lock; a slow peer stalls "
            "every thread queued on it",
        "locks.async-blocking":
            "non-awaited blocking call inside an async function; it "
            "runs on the event loop thread and stalls every coroutine "
            "the daemon is serving",
        "locks.sync-lock-await":
            "await while holding a threading lock; the coroutine "
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
                    in_async = isinstance(node, ast.AsyncFunctionDef)
                    for stmt in node.body:
                        self._walk(entry, stmt, (), in_async, False,
                                   findings)
        return findings

    def _walk(self, entry: SourceFile, node: ast.AST, held: tuple[str, ...],
              in_async: bool, awaited: bool,
              findings: list[Finding]) -> None:
        """``held`` names the threading locks held at ``node``."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return              # checked on its own by run()
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                # the with-expression runs before the lock is held
                self._walk(entry, item.context_expr, held, in_async,
                           awaited, findings)
                name = _lock_name(item.context_expr)
                if name is not None and isinstance(node, ast.With):
                    inner += (name,)
            for stmt in node.body:
                self._walk(entry, stmt, inner, in_async, False, findings)
            return
        if isinstance(node, ast.Await):
            if held:
                findings.append(Finding(
                    "locks.sync-lock-await", entry.rel, node.lineno,
                    f"await while holding {', '.join(held)}; the "
                    f"coroutine suspends with the lock held and every "
                    f"thread queued on it stalls"))
            # Everything under the await yields to the loop rather
            # than blocking it (arguments construct coroutines).
            self._walk(entry, node.value, held, in_async, True, findings)
            return
        if isinstance(node, ast.Call) and not awaited:
            self._check_call(entry, node, held, in_async, findings)
        for child in ast.iter_child_nodes(node):
            self._walk(entry, child, held, in_async, awaited, findings)

    @staticmethod
    def _check_call(entry: SourceFile, node: ast.Call, held: tuple[str, ...],
                    in_async: bool, findings: list[Finding]) -> None:
        reason = _blocking_reason(node)
        if reason is None:
            return
        if held:
            findings.append(Finding(
                "locks.blocking-call", entry.rel, node.lineno,
                f"{reason} while holding {', '.join(held)}"))
        elif in_async:
            # asyncio.sleep / loop.sleep construct awaitables; only
            # time.sleep actually parks the loop thread.
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "sleep"
                    and dotted_name(func.value) != "time"):
                return
            findings.append(Finding(
                "locks.async-blocking", entry.rel, node.lineno,
                f"{reason} inside an async function; it runs on the "
                f"event loop thread and stalls every coroutine"))


register(LockDisciplineChecker())
