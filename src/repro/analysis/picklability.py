"""Picklability checker: nothing unpicklable crosses a process boundary.

Everything handed to the sweep engine travels by pickle: every
``Cell``'s work units are shipped to the engine's fork pool.  Lambdas
and nested functions (closures) pickle by *qualified name*, so they
fail at dispatch time — and only when a pooled run first touches them,
which is exactly when a failure is most expensive.  ``Cell.__post_init__``
rejects ``<lambda>``/``<locals>`` at construction time; this checker
moves the same contract to lint time, and extends it to raw executor
submission sites the runtime check cannot see.

Rules
-----
``picklability.lambda-callable``
    A ``lambda`` flowing into ``Cell(fn=...)``, ``run_cells``/
    ``run_keyed``, or a pool/executor submission method
    (``submit``, ``map``, ``apply_async``, ...).
``picklability.nested-callable``
    A function *defined inside another function* passed by name into
    one of the same sites.  Closures pickle by qualname and fail with
    ``AttributeError: <locals>`` on the far side.

Module-level functions, ``functools.partial`` over module-level
functions, and bound methods of module-level classes all pickle fine
and are not flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .core import Checker, Finding, Project, SourceFile, register

#: Executor/pool methods whose first argument is a callable that will
#: be pickled (multiprocessing Pool, concurrent.futures, our engine).
SUBMIT_ATTRS = {"submit", "map", "map_async", "imap", "imap_unordered",
                "apply", "apply_async", "starmap", "starmap_async"}

#: Engine entry points taking cells (built from callables).
ENGINE_ENTRY_POINTS = {"run_cells", "run_keyed"}


class _NestedDefs(ast.NodeVisitor):
    """Names of functions defined inside another function."""

    def __init__(self) -> None:
        self.names: dict[str, int] = {}     # name -> def line
        self._depth = 0

    def _visit_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                   ) -> None:
        if self._depth > 0:
            self.names.setdefault(node.name, node.lineno)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def


class PicklabilityChecker(Checker):
    name = "picklability"
    rules = {
        "picklability.lambda-callable":
            "lambda passed where a picklable callable is required "
            "(Cell fn, run_cells, pool/executor submission)",
        "picklability.nested-callable":
            "function defined inside another function passed across "
            "a process boundary; closures pickle by qualname and fail "
            "at dispatch time",
    }

    def run(self, project: Project) -> Iterable[Finding]:
        for entry in project.files:
            if entry.tree is None:
                continue
            nested = _NestedDefs()
            nested.visit(entry.tree)
            for node in ast.walk(entry.tree):
                if isinstance(node, ast.Call):
                    yield from self._check_call(entry, nested.names, node)

    def _check_call(self, entry: SourceFile, nested: dict[str, int],
                    node: ast.Call) -> Iterable[Finding]:
        target = node.func
        # Cell(...): fn is the keyword or the third positional field.
        if self._is_named(target, "Cell"):
            fn_args = [kw.value for kw in node.keywords if kw.arg == "fn"]
            if not fn_args and len(node.args) >= 3:
                fn_args = [node.args[2]]
            for arg in fn_args:
                yield from self._check_callable_arg(
                    entry, nested, arg, "Cell(fn=...)")
            return
        # run_cells(cells, ...) / run_keyed(...): lambdas anywhere in
        # the arguments are headed for a Cell.
        if self._is_named(target, *ENGINE_ENTRY_POINTS):
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Lambda):
                        yield Finding(
                            "picklability.lambda-callable", entry.rel,
                            sub.lineno,
                            "lambda in run_cells/run_keyed arguments "
                            "cannot be pickled to pool or remote "
                            "workers")
            return
        # pool.submit(fn, ...) / pool.map(fn, ...) style sites.
        if (isinstance(target, ast.Attribute)
                and target.attr in SUBMIT_ATTRS and node.args):
            yield from self._check_callable_arg(
                entry, nested, node.args[0],
                f".{target.attr}(...) submission")

    def _check_callable_arg(self, entry: SourceFile,
                            nested: dict[str, int], arg: ast.AST,
                            where: str) -> Iterable[Finding]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Lambda):
                yield Finding(
                    "picklability.lambda-callable", entry.rel, sub.lineno,
                    f"lambda passed to {where} cannot be pickled")
            elif isinstance(sub, ast.Name) and sub.id in nested:
                yield Finding(
                    "picklability.nested-callable", entry.rel, sub.lineno,
                    f"'{sub.id}' (defined inside a function at line "
                    f"{nested[sub.id]}) passed to {where} pickles by "
                    f"qualname and fails at dispatch")

    @staticmethod
    def _is_named(target: ast.AST, *names: str) -> bool:
        if isinstance(target, ast.Name):
            return target.id in names
        if isinstance(target, ast.Attribute):
            return target.attr in names
        return False


register(PicklabilityChecker())
