"""Determinism checker: no ambient randomness or wall-clock in
seed-sensitive code.

The engine's contract (PR 2) is determinism *by construction*: every
trial re-derives its RNG from ``stable_seed(experiment, cell, trial)``,
which is what makes ``workers=1 == workers=N`` bit-exact and lets a
broken pool's batch be rerun without changing results.  One
``random.random()`` or ``np.random.seed()`` anywhere in an experiment,
simulator, scheduler or fault plan silently breaks that — and nothing
fails until someone diffs two runs.

Rules
-----
``determinism.global-rng``
    A call through the process-global RNG state: any ``random.*``
    module function, any ``np.random.*`` module function (including
    ``np.random.seed``), whether via module attribute or a
    ``from``-import alias.  Use ``stable_seed``/``trial_rng`` or an
    injected ``numpy.random.Generator`` instead.
``determinism.unseeded-rng``
    ``np.random.default_rng()`` / ``RandomState()`` with no seed
    argument — a fresh OS-entropy generator, different every run.
``determinism.wall-clock``
    ``time.time()``/``time.time_ns()``, ``datetime.now()``/
    ``utcnow()``, ``date.today()``.  Wall-clock reads make behaviour
    (and recorded results) depend on when a run happens.  Monotonic
    clocks (``time.monotonic``, ``perf_counter``) are fine — they
    drive timeouts, not results.

Scope: files under the seed-sensitive trees (``experiments/``,
``reliability/``, ``mapreduce/``, ``scheduling/``, ``workloads/``)
plus ``service/faults.py`` (a *seedable* fault plan that consults the
global RNG is not seedable).  Daemon/server code may use wall-clock
freely; it is out of scope.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .core import Checker, Finding, Project, SourceFile, register

#: A file is seed-sensitive when its relative path contains one of
#: these directory segments or ends with one of the file names.
SENSITIVE_SEGMENTS = ("experiments/", "reliability/", "mapreduce/",
                      "scheduling/", "workloads/")
SENSITIVE_FILES = ("service/faults.py",)

#: numpy.random constructors that are fine *when seeded*.
_SEEDED_CONSTRUCTORS = {"default_rng", "RandomState", "Generator",
                        "SeedSequence", "PCG64", "MT19937", "Philox",
                        "SFC64"}

#: stdlib ``random`` attributes that do not touch the global state.
_RANDOM_SAFE_ATTRS = {"Random", "SystemRandom"}

#: datetime attributes that read the wall clock.
_WALLCLOCK_DT_ATTRS = {"now", "utcnow", "today"}


def is_seed_sensitive(rel: str) -> bool:
    if any(segment in rel for segment in SENSITIVE_SEGMENTS):
        return True
    return any(rel.endswith(name) for name in SENSITIVE_FILES)


class _Imports(ast.NodeVisitor):
    """Aliases for the modules/names the rules care about."""

    def __init__(self) -> None:
        self.random_mod: set[str] = set()       # stdlib random module
        self.numpy_mod: set[str] = set()        # numpy
        self.np_random_mod: set[str] = set()    # numpy.random
        self.time_mod: set[str] = set()         # time
        self.datetime_mod: set[str] = set()     # datetime module
        self.datetime_cls: set[str] = set()     # datetime.datetime class
        self.date_cls: set[str] = set()         # datetime.date class
        # from-imports of individual offenders: local name -> origin
        self.from_random: dict[str, str] = {}
        self.from_np_random: dict[str, str] = {}
        self.from_time: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_mod.add(local)
            elif alias.name == "numpy":
                self.numpy_mod.add(local)
            elif alias.name == "numpy.random":
                self.np_random_mod.add(alias.asname or "numpy")
                if alias.asname is None:
                    self.numpy_mod.add("numpy")
            elif alias.name == "time":
                self.time_mod.add(local)
            elif alias.name == "datetime":
                self.datetime_mod.add(local)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module == "random":
                if alias.name not in _RANDOM_SAFE_ATTRS:
                    self.from_random[local] = alias.name
            elif node.module == "numpy":
                if alias.name == "random":
                    self.np_random_mod.add(local)
            elif node.module == "numpy.random":
                if alias.name not in _SEEDED_CONSTRUCTORS:
                    self.from_np_random[local] = alias.name
                elif alias.name in {"default_rng", "RandomState"}:
                    # still need the unseeded-call check
                    self.from_np_random[local] = alias.name
            elif node.module == "time":
                if alias.name in {"time", "time_ns"}:
                    self.from_time[local] = alias.name
            elif node.module == "datetime":
                if alias.name == "datetime":
                    self.datetime_cls.add(local)
                elif alias.name == "date":
                    self.date_cls.add(local)


class DeterminismChecker(Checker):
    name = "determinism"
    rules = {
        "determinism.global-rng":
            "global-state RNG call (random.* / np.random.* module "
            "function) in seed-sensitive code; derive from stable_seed "
            "or an injected Generator",
        "determinism.unseeded-rng":
            "np.random.default_rng()/RandomState() without a seed in "
            "seed-sensitive code; every generator must be seeded",
        "determinism.wall-clock":
            "wall-clock read (time.time, datetime.now, date.today) in "
            "seed-sensitive code; use monotonic clocks for timeouts "
            "and stable inputs for results",
    }

    def run(self, project: Project) -> Iterable[Finding]:
        for entry in project.files:
            if entry.tree is None or not is_seed_sensitive(entry.rel):
                continue
            yield from self._check_file(entry)

    def _check_file(self, entry: SourceFile) -> Iterable[Finding]:
        imports = _Imports()
        imports.visit(entry.tree)
        for node in ast.walk(entry.tree):
            if not isinstance(node, ast.Call):
                continue
            finding = self._check_call(entry, imports, node)
            if finding is not None:
                yield finding

    def _check_call(self, entry: SourceFile, imports: _Imports,
                    node: ast.Call) -> Finding | None:
        func = node.func
        if isinstance(func, ast.Name):
            return self._check_bare_call(entry, imports, node, func.id)
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        base = func.value

        # random.<fn>(...) via a module alias
        if isinstance(base, ast.Name) and base.id in imports.random_mod:
            if attr not in _RANDOM_SAFE_ATTRS:
                return Finding(
                    "determinism.global-rng", entry.rel, node.lineno,
                    f"random.{attr}() uses the process-global RNG")
            return None

        # np.random.<fn>(...) — via numpy alias attribute or a
        # numpy.random module alias
        np_random_base = (
            (isinstance(base, ast.Name) and base.id in imports.np_random_mod)
            or (isinstance(base, ast.Attribute) and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in imports.numpy_mod))
        if np_random_base:
            if attr in _SEEDED_CONSTRUCTORS:
                return self._check_constructor(entry, node, attr)
            return Finding(
                "determinism.global-rng", entry.rel, node.lineno,
                f"np.random.{attr}() uses the process-global RNG")

        # time.time()/time_ns() via a time module alias
        if (isinstance(base, ast.Name) and base.id in imports.time_mod
                and attr in {"time", "time_ns"}):
            return Finding(
                "determinism.wall-clock", entry.rel, node.lineno,
                f"time.{attr}() reads the wall clock")

        # datetime.now()/utcnow()/today() on the class or module path
        if attr in _WALLCLOCK_DT_ATTRS:
            if isinstance(base, ast.Name) and (
                    base.id in imports.datetime_cls
                    or base.id in imports.date_cls):
                return Finding(
                    "determinism.wall-clock", entry.rel, node.lineno,
                    f"{base.id}.{attr}() reads the wall clock")
            if (isinstance(base, ast.Attribute)
                    and base.attr in {"datetime", "date"}
                    and isinstance(base.value, ast.Name)
                    and base.value.id in imports.datetime_mod):
                return Finding(
                    "determinism.wall-clock", entry.rel, node.lineno,
                    f"datetime.{base.attr}.{attr}() reads the wall clock")
        return None

    def _check_bare_call(self, entry: SourceFile, imports: _Imports,
                         node: ast.Call, name: str) -> Finding | None:
        if name in imports.from_random:
            return Finding(
                "determinism.global-rng", entry.rel, node.lineno,
                f"{name}() (from random import "
                f"{imports.from_random[name]}) uses the process-global "
                f"RNG")
        if name in imports.from_np_random:
            origin = imports.from_np_random[name]
            if origin in _SEEDED_CONSTRUCTORS:
                return self._check_constructor(entry, node, origin)
            return Finding(
                "determinism.global-rng", entry.rel, node.lineno,
                f"{name}() (from numpy.random import {origin}) uses "
                f"the process-global RNG")
        if name in imports.from_time:
            return Finding(
                "determinism.wall-clock", entry.rel, node.lineno,
                f"{name}() (from time import "
                f"{imports.from_time[name]}) reads the wall clock")
        return None

    @staticmethod
    def _check_constructor(entry: SourceFile, node: ast.Call,
                           origin: str) -> Finding | None:
        if origin not in {"default_rng", "RandomState"}:
            return None
        if node.args or node.keywords:
            return None
        return Finding(
            "determinism.unseeded-rng", entry.rel, node.lineno,
            f"np.random.{origin}() without a seed draws OS entropy; "
            f"pass a seed derived from stable_seed")


register(DeterminismChecker())
