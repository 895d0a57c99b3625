"""`repro lint` framework: parsed-file cache, findings, waivers, runner.

The repo rests on invariants that ordinary tests only trip by luck:
determinism by construction (every RNG derives from ``stable_seed``),
picklability of everything that crosses the Serial/Pooled/Distributed
executor seam, the service daemons' lock discipline, and a declared
wire surface.  Each invariant gets an AST checker
(:mod:`.determinism`, :mod:`.picklability`, :mod:`.locks`,
:mod:`.schema`); this module is the machinery they share.

Architecture
------------
* :class:`SourceFile` — one parsed file: source text, AST, and the
  ``# lint: allow(...)`` waivers found in it.  Parsing happens once
  per file per run; every checker walks the same cached tree.
* :class:`Project` — the file cache plus path helpers.  Checkers see
  the whole project, so cross-file rules (RPC surface, lock ordering)
  are first-class, not bolted on.
* :class:`Checker` — plugin protocol: a ``name``, a ``rules`` table
  (rule id -> description) and ``run(project) -> findings``.  Checker
  modules self-register via :func:`register` at import time; adding a
  checker is adding a module.
* :func:`run_lint` — discovers files, runs every (or the selected)
  checker, applies waivers, and returns a :class:`LintReport` that
  renders as ``file:line rule message`` text or stable JSON.

Waiver syntax
-------------
An intentional violation is silenced *at the line* with an inline
comment naming the rule and justifying the exception::

    horizon = time.monotonic() + fault.duration  # lint: allow(determinism.wall-clock): fault triggers are wall-time by design

``allow(rule1, rule2)`` waives several rules at once; a bare checker
name (``allow(locks)``) waives every rule of that checker on the
line.  A waiver comment on its *own* line covers the next line, so
long statements stay readable.  Waivers are surfaced in the report
(marked ``waived``) rather than dropped — the JSON output is the
audit trail of every exception and its justification.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

#: Report/JSON schema version; bump on incompatible output changes.
LINT_SCHEMA_VERSION = 1

#: ``# lint: allow(rule[, rule...])[: justification]``
WAIVER_RE = re.compile(
    r"#\s*lint:\s*allow\(\s*([^)]*?)\s*\)\s*(?::\s*(.*?))?\s*$")

#: Directories never scanned (caches, VCS internals, build output).
SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "results",
             ".pytest_cache", "build", "dist"}


@dataclass(frozen=True)
class Finding:
    """One checker hit: ``path:line rule message`` plus waiver state."""

    rule: str
    path: str                       # posix path relative to the root
    line: int
    message: str
    waived: bool = False
    justification: str | None = None

    def format(self) -> str:
        suffix = ""
        if self.waived:
            note = f": {self.justification}" if self.justification else ""
            suffix = f"  [waived{note}]"
        return f"{self.path}:{self.line} {self.rule} {self.message}{suffix}"

    def as_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "waived": self.waived,
                "justification": self.justification}


@dataclass(frozen=True)
class Waiver:
    """One parsed ``# lint: allow(...)`` comment."""

    line: int                       # the line the comment sits on
    rules: tuple[str, ...]
    justification: str | None
    standalone: bool                # comment-only line: covers line+1

    def covers(self, rule: str) -> bool:
        """True when ``rule`` matches a waived token exactly or by
        checker prefix (``allow(locks)`` covers ``locks.blocking-call``)."""
        for token in self.rules:
            if rule == token or rule.startswith(token + "."):
                return True
        return False


def _parse_waivers(lines: Sequence[str]) -> list[Waiver]:
    waivers: list[Waiver] = []
    for index, text in enumerate(lines, start=1):
        match = WAIVER_RE.search(text)
        if match is None:
            continue
        rules = tuple(part.strip() for part in match.group(1).split(",")
                      if part.strip())
        if not rules:
            continue
        standalone = text.strip().startswith("#")
        waivers.append(Waiver(index, rules, match.group(2) or None,
                              standalone))
    return waivers


class SourceFile:
    """One cached parse: path, text, lines, AST, waivers.

    ``tree`` is ``None`` when the file does not parse; the runner
    reports that as a ``lint.parse-error`` finding so a syntax error
    cannot silently disable every checker on the file.
    """

    def __init__(self, path: pathlib.Path, root: pathlib.Path):
        self.path = path
        resolved = path.resolve()
        try:
            self.rel = resolved.relative_to(root).as_posix()
        except ValueError:
            # scanning a path outside the root (e.g. `repro lint
            # /some/dir`): report it by its absolute path
            self.rel = resolved.as_posix()
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.lines: list[str] = self.text.splitlines()
        self.waivers = _parse_waivers(self.lines)
        self.parse_error: str | None = None
        try:
            self.tree: ast.Module | None = ast.parse(self.text,
                                                     filename=str(path))
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = f"line {exc.lineno}: {exc.msg}"

    def waiver_for(self, rule: str, line: int) -> Waiver | None:
        """The waiver covering ``rule`` at ``line``, if any.

        A standalone waiver covers the next *code* line: consecutive
        standalone waivers stack, and decorator lines are skipped, so
        a waiver written above ``@retry``-decorated defs lands on the
        def itself (where checkers report).
        """
        for waiver in self.waivers:
            if waiver.covers(rule) and waiver.line == line:
                return waiver
        standalone = {w.line: w for w in self.waivers if w.standalone}
        cursor = line - 1
        while cursor >= 1:
            waiver = standalone.get(cursor)
            if waiver is not None:
                if waiver.covers(rule):
                    return waiver
                cursor -= 1             # stacked standalone waivers
                continue
            text = (self.lines[cursor - 1].strip()
                    if cursor <= len(self.lines) else "")
            if text.startswith("@"):
                cursor -= 1             # decorator between waiver/def
                continue
            return None
        return None


#: Cross-run parse cache: (path, root) -> (mtime_ns, size, parsed).
#: Repeated in-process runs (`--changed` loops, the test suite) skip
#: re-parsing files that have not changed on disk.
_PARSE_CACHE: dict[tuple[str, str],
                   tuple[int, int, "SourceFile"]] = {}
_PARSE_CACHE_LIMIT = 4096


def _load_source(path: pathlib.Path, root: pathlib.Path) -> SourceFile:
    key = (str(path), str(root))
    try:
        stat = path.stat()
    except OSError:
        return SourceFile(path, root)
    cached = _PARSE_CACHE.get(key)
    if (cached is not None and cached[0] == stat.st_mtime_ns
            and cached[1] == stat.st_size):
        return cached[2]
    if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
        _PARSE_CACHE.clear()
    entry = SourceFile(path, root)
    _PARSE_CACHE[key] = (stat.st_mtime_ns, stat.st_size, entry)
    return entry


class Project:
    """The shared parsed-file cache every checker runs over."""

    def __init__(self, root: pathlib.Path,
                 paths: Sequence[pathlib.Path] | None = None, *,
                 context_paths: Sequence[pathlib.Path] = ()):
        self.root = root.resolve()
        self.files: list[SourceFile] = [
            _load_source(path, self.root)
            for path in _discover(self.root, paths)
        ]
        # Context files are parsed and visible to checkers (the RPC
        # checker counts call sites in tests as real callers) but never
        # produce findings of their own.
        context = _discover(self.root, context_paths) if context_paths else []
        scanned = {entry.path for entry in self.files}
        self.context_files: list[SourceFile] = [
            _load_source(path, self.root) for path in context
            if path not in scanned
        ]

    def all_files(self) -> list[SourceFile]:
        """Scanned files plus context files (call-site visibility)."""
        return [*self.files, *self.context_files]

    def find(self, suffix: str) -> SourceFile | None:
        """The loaded file (scanned first, then context) whose relative
        path ends with ``suffix``."""
        for entry in self.all_files():
            if entry.rel.endswith(suffix):
                return entry
        return None


def _discover(root: pathlib.Path,
              paths: Sequence[pathlib.Path] | None) -> list[pathlib.Path]:
    """Python files under ``paths`` (default: the whole root), sorted.

    An explicit *empty* ``paths`` scans nothing — ``--changed`` with a
    clean worktree must not fall back to scanning the world."""
    bases = ([root] if paths is None
             else [pathlib.Path(p) for p in paths])
    seen: set[pathlib.Path] = set()
    out: list[pathlib.Path] = []
    for base in bases:
        base = base if base.is_absolute() else root / base
        if base.is_file():
            candidates: Iterable[pathlib.Path] = [base]
        elif base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        else:
            continue
        for path in candidates:
            path = path.resolve()
            if path in seen or path.suffix != ".py":
                continue
            if any(part in SKIP_DIRS for part in path.parts):
                continue
            seen.add(path)
            out.append(path)
    return out


class Checker:
    """Plugin protocol: subclass, set ``name``/``rules``, implement
    :meth:`run`, and :func:`register` an instance at import time."""

    #: Checker id; also the rule prefix (``<name>.<rule>``).
    name: str = ""
    #: rule id -> one-line description (drives ``repro lint --rules``).
    rules: dict[str, str] = {}

    def run(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Checker] = {}


def register(checker: Checker) -> Checker:
    """Add a checker to the registry (modules call this at import)."""
    if not checker.name:
        raise ValueError("a checker needs a name")
    _REGISTRY[checker.name] = checker
    return checker


def registered_checkers() -> dict[str, Checker]:
    """Name -> checker, with the built-in checker modules loaded."""
    from . import (determinism, exceptions, locks,  # noqa: F401
                   picklability, schema)

    return dict(_REGISTRY)


@dataclass
class LintReport:
    """Every finding of one run, waivers applied and marked."""

    root: str
    checkers: list[str]
    findings: list[Finding] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def waived(self) -> list[Finding]:
        return [f for f in self.findings if f.waived]

    def ok(self) -> bool:
        return not self.active

    def format_text(self) -> str:
        lines = [finding.format() for finding in self.findings]
        lines.append(f"{len(self.findings)} finding(s): "
                     f"{len(self.active)} active, "
                     f"{len(self.waived)} waived")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "version": LINT_SCHEMA_VERSION,
            "root": self.root,
            "checkers": sorted(self.checkers),
            "findings": [f.as_dict() for f in self.findings],
            "counts": {"findings": len(self.findings),
                       "active": len(self.active),
                       "waived": len(self.waived)},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_sarif(self) -> str:
        """SARIF 2.1.0 — CI renders findings as inline annotations.
        Active findings are ``warning``-level results; waived ones are
        ``note``-level with an in-source suppression carrying the
        justification, so the audit trail survives the format."""
        rule_meta: dict[str, str] = {}
        for checker in registered_checkers().values():
            rule_meta.update(checker.rules)
        rule_ids = sorted({finding.rule for finding in self.findings})
        rules = []
        for rule_id in rule_ids:
            entry: dict = {"id": rule_id}
            if rule_id in rule_meta:
                entry["shortDescription"] = {"text": rule_meta[rule_id]}
            rules.append(entry)
        results = []
        for finding in self.findings:
            result: dict = {
                "ruleId": finding.rule,
                "level": "note" if finding.waived else "warning",
                "message": {"text": finding.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": max(finding.line, 1)},
                    },
                }],
            }
            if finding.waived:
                result["suppressions"] = [{
                    "kind": "inSource",
                    "justification": finding.justification or "",
                }]
            results.append(result)
        sarif = {
            "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                        "sarif-spec/master/Schemata/sarif-schema-2.1.0"
                        ".json"),
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {
                    "name": "repro-lint",
                    "version": f"{LINT_SCHEMA_VERSION}",
                    "rules": rules,
                }},
                "originalUriBaseIds": {
                    "SRCROOT": {
                        "uri": pathlib.Path(self.root).as_uri() + "/",
                    },
                },
                "results": results,
            }],
        }
        return json.dumps(sarif, indent=2, sort_keys=True)


def default_root() -> pathlib.Path:
    """The repo root, derived from the installed package location
    (``src/repro/analysis/core.py`` -> three parents up)."""
    return pathlib.Path(__file__).resolve().parents[3]


def changed_paths(root: pathlib.Path,
                  base: str | None = None) -> list[pathlib.Path]:
    """Python files changed vs git: worktree + index against ``base``
    (default ``HEAD``), plus untracked files.  Drives ``repro lint
    --changed`` — fast pre-commit runs that scan only the diff while
    the cross-file checkers keep whole-project context."""
    import subprocess

    def git(*args: str) -> list[str]:
        proc = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True)
        if proc.returncode != 0:
            detail = proc.stderr.strip() or f"exit {proc.returncode}"
            raise ValueError(f"git {args[0]} failed: {detail}")
        return proc.stdout.splitlines()

    names = set(git("diff", "--name-only", base or "HEAD"))
    names |= set(git("ls-files", "--others", "--exclude-standard"))
    out = []
    for name in sorted(names):
        path = root / name
        if path.suffix == ".py" and path.is_file():
            out.append(path)
    return out


def default_scan_paths(root: pathlib.Path) -> list[pathlib.Path]:
    """What a bare ``repro lint`` scans: the package source plus the
    benchmark/example drivers when present (a checkout); just the
    package when installed elsewhere."""
    candidates = [root / "src", root / "benchmarks", root / "examples"]
    paths = [path for path in candidates if path.is_dir()]
    return paths or [pathlib.Path(__file__).resolve().parents[1]]


def run_lint(root: pathlib.Path | None = None,
             paths: Sequence[pathlib.Path] | None = None, *,
             checkers: Sequence[str] | None = None,
             context_paths: Sequence[pathlib.Path] | None = None
             ) -> LintReport:
    """Run the static-analysis suite; returns the full report.

    ``paths`` restricts what is scanned (files or directories, relative
    to ``root``); ``checkers`` restricts which checkers run;
    ``context_paths`` adds files that checkers may *read* (call-site
    visibility) but that never yield findings — ``repro lint`` passes
    the test suite here so an RPC op exercised only by tests still
    counts as called.
    """
    root = (root or default_root()).resolve()
    if paths is None:
        paths = default_scan_paths(root)
    if context_paths is None:
        tests = root / "tests"
        context_paths = [tests] if tests.is_dir() else []
    available = registered_checkers()
    if checkers is None:
        selected = dict(available)
    else:
        unknown = [name for name in checkers if name not in available]
        if unknown:
            raise ValueError(
                f"unknown checker(s) {', '.join(sorted(unknown))}; "
                f"available: {', '.join(sorted(available))}")
        selected = {name: available[name] for name in checkers}
    project = Project(root, paths, context_paths=context_paths or ())
    findings: list[Finding] = []
    for entry in project.files:
        if entry.parse_error is not None:
            findings.append(Finding("lint.parse-error", entry.rel, 1,
                                    f"file does not parse: "
                                    f"{entry.parse_error}"))
    for name in sorted(selected):
        findings.extend(selected[name].run(project))
    # Cross-file checkers reason over scanned + context files, but
    # findings belong to scanned files only (so --changed stays sound);
    # non-.py paths (the wire-schema artifact) are runner-level checks
    # that always report.
    scanned_rels = {entry.rel for entry in project.files}
    findings = [finding for finding in findings
                if finding.path in scanned_rels
                or not finding.path.endswith(".py")]
    findings = [_apply_waiver(project, finding) for finding in findings]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return LintReport(root=str(project.root),
                      checkers=sorted(selected),
                      findings=findings)


def _apply_waiver(project: Project, finding: Finding) -> Finding:
    for entry in project.files:
        if entry.rel == finding.path:
            waiver = entry.waiver_for(finding.rule, finding.line)
            if waiver is not None:
                return Finding(finding.rule, finding.path, finding.line,
                               finding.message, waived=True,
                               justification=waiver.justification)
            break
    return finding


# ---------------------------------------------------------------------------
# Shared AST helpers (used by several checkers)
# ---------------------------------------------------------------------------

def call_name(node: ast.Call) -> str:
    """Dotted name of a call target, best effort (``"a.b.c"`` or ``""``)."""
    return dotted_name(node.func)


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, ``""`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def string_literal(node: ast.AST) -> str | None:
    """The value of a string-constant node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
