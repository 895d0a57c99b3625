"""Invariant-aware static analysis for the repro codebase.

``repro lint`` runs AST checkers that encode the invariants the rest
of the system depends on — determinism by construction, picklability
into the sweep engine's fork pool, no blocking call under the
service's one threading lock or on a daemon's event loop, the declared
wire surface, and RPC errors never swallowed silently.  The
wire-schema rules ride a project-wide call graph
(:mod:`repro.analysis.callgraph`).  See :mod:`repro.analysis.core`
for the framework and the waiver syntax, ``docs/linting.md`` for the
rule catalogue and the checker-author guide.
"""

from .callgraph import CallGraph, get_callgraph
from .core import (Checker, Finding, LintReport, Project, SourceFile,
                   Waiver, changed_paths, register,
                   registered_checkers, run_lint)
from .schema import derive_wire_schema, render_wire_schema

__all__ = [
    "CallGraph",
    "Checker",
    "Finding",
    "LintReport",
    "Project",
    "SourceFile",
    "Waiver",
    "changed_paths",
    "derive_wire_schema",
    "get_callgraph",
    "register",
    "registered_checkers",
    "render_wire_schema",
    "run_lint",
]
