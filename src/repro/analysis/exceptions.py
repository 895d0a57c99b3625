"""Silent-swallow checker for the RPC error surface.

Which typed errors each RPC op may answer with is declared next to its
keys in ``NAMENODE_OPS`` / ``DATANODE_OPS`` (``service/protocol.py``);
``protocol.dispatch`` holds every error reply to that declaration at
run time, and the live tests provoke every declared code.  What a
literal cannot say is how a *caller* treats those errors: an
``except Exception: pass`` (or bare except) around an RPC call silently
swallows every typed error the server worked to preserve
(:rule:`exceptions.silent-swallow`); deliberate best-effort paths carry
a waiver saying why.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .core import Checker, Finding, Project, dotted_name, register

#: The RPC call helpers whose typed errors a swallow would lose.
_RPC_CALL_ATTRS = {"_nn_call", "_dn_call", "call", "dn_call_sync"}


def _bare(name: str) -> str:
    return name.rpartition(".")[2]


def _swallow_findings(project: Project) -> Iterable[Finding]:
    """``except Exception: pass`` (or bare except) around RPC calls."""
    from .locks import in_scope     # same networked-subsystem scope

    for entry in project.files:
        if entry.tree is None or not in_scope(entry.rel):
            continue
        for node in ast.walk(entry.tree):
            if not isinstance(node, ast.Try):
                continue
            rpc_calls = {
                _bare(dotted_name(call.func))
                for stmt in node.body
                for call in ast.walk(stmt)
                if isinstance(call, ast.Call)
                and _bare(dotted_name(call.func)) in _RPC_CALL_ATTRS}
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
                    f"({', '.join(sorted(rpc_calls))}) in its "
                    f"try body")


class ExceptionFlowChecker(Checker):
    name = "exceptions"
    rules = {
        "exceptions.silent-swallow":
            "except Exception: pass around an RPC call swallows every "
            "typed error; deliberate best-effort paths need a waiver "
            "saying so",
    }

    def run(self, project: Project) -> Iterable[Finding]:
        return list(_swallow_findings(project))


register(ExceptionFlowChecker())
