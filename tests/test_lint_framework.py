"""Framework-level tests for `repro lint`: waivers, JSON, CLI, and the
meta-test asserting the shipped tree is clean."""

from __future__ import annotations

import io
import json
import pathlib
import textwrap
import tokenize

import pytest

from repro import cli
from repro.analysis import registered_checkers, run_lint
from repro.analysis.core import (LINT_SCHEMA_VERSION, Finding, SourceFile,
                                 _parse_waivers)


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint(tmp_path, checkers=None):
    return run_lint(root=tmp_path, paths=[tmp_path], checkers=checkers,
                    context_paths=[])


BAD_EXPERIMENT = """\
    import random

    def draw():
        return random.random()
"""


class TestWaiverParsing:
    def test_same_line_waiver(self):
        waivers = _parse_waivers(
            ["x = 1  # lint: allow(determinism.global-rng): because"])
        assert len(waivers) == 1
        waiver = waivers[0]
        assert waiver.rules == ("determinism.global-rng",)
        assert waiver.justification == "because"
        assert not waiver.standalone
        assert waiver.covers("determinism.global-rng")
        assert not waiver.covers("determinism.wall-clock")

    def test_multiple_rules_one_comment(self):
        waivers = _parse_waivers(
            ["y()  # lint: allow(locks.blocking-call, schema.unused-op)"])
        assert waivers[0].rules == ("locks.blocking-call", "schema.unused-op")
        assert waivers[0].justification is None
        assert waivers[0].covers("schema.unused-op")

    def test_checker_prefix_waives_every_rule(self):
        waivers = _parse_waivers(["z()  # lint: allow(locks): all of it"])
        assert waivers[0].covers("locks.blocking-call")
        assert waivers[0].covers("locks.lock-order")
        assert not waivers[0].covers("schema.unused-op")
        # prefix match is on dotted boundaries, not substrings
        assert not waivers[0].covers("locksmith.pick")

    def test_standalone_comment_covers_next_line(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            # lint: allow(some.rule): long call below
            value = 1
        """)
        entry = SourceFile(path, tmp_path)
        assert entry.waiver_for("some.rule", 2) is not None
        assert entry.waiver_for("some.rule", 3) is None

    def test_inline_waiver_does_not_leak_to_next_line(self, tmp_path):
        path = write(tmp_path, "mod.py", """\
            value = 1  # lint: allow(some.rule)
            other = 2
        """)
        entry = SourceFile(path, tmp_path)
        assert entry.waiver_for("some.rule", 1) is not None
        assert entry.waiver_for("some.rule", 2) is None


class TestWaiverApplication:
    def test_waived_finding_marked_not_dropped(self, tmp_path):
        write(tmp_path, "experiments/sweep.py", """\
            import random

            def draw():
                return random.random()  # lint: allow(determinism.global-rng): fixture
        """)
        report = lint(tmp_path, checkers=["determinism"])
        assert report.ok()
        assert len(report.waived) == 1
        finding = report.waived[0]
        assert finding.rule == "determinism.global-rng"
        assert finding.justification == "fixture"

    def test_waiver_for_other_rule_does_not_apply(self, tmp_path):
        write(tmp_path, "experiments/sweep.py", """\
            import random

            def draw():
                return random.random()  # lint: allow(determinism.wall-clock)
        """)
        report = lint(tmp_path, checkers=["determinism"])
        assert not report.ok()
        assert report.active[0].rule == "determinism.global-rng"


class TestReport:
    def test_json_schema(self, tmp_path):
        write(tmp_path, "experiments/sweep.py", BAD_EXPERIMENT)
        report = lint(tmp_path, checkers=["determinism"])
        payload = json.loads(report.to_json())
        assert payload["version"] == LINT_SCHEMA_VERSION
        assert payload["root"] == str(tmp_path)
        assert payload["checkers"] == ["determinism"]
        assert payload["counts"] == {"findings": 1, "active": 1,
                                     "waived": 0}
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "message",
                                "waived", "justification"}
        assert finding["path"] == "experiments/sweep.py"
        assert finding["line"] == 4
        assert finding["waived"] is False

    def test_text_format(self, tmp_path):
        write(tmp_path, "experiments/sweep.py", BAD_EXPERIMENT)
        report = lint(tmp_path, checkers=["determinism"])
        text = report.format_text()
        assert "experiments/sweep.py:4 determinism.global-rng" in text
        assert "1 active" in text

    def test_parse_error_is_a_finding(self, tmp_path):
        write(tmp_path, "broken.py", "def broken(:\n")
        report = lint(tmp_path)
        assert [f.rule for f in report.active] == ["lint.parse-error"]

    def test_findings_sorted_by_path_then_line(self):
        report_findings = [
            Finding("r", "b.py", 2, "m"),
            Finding("r", "a.py", 9, "m"),
            Finding("r", "a.py", 1, "m"),
        ]
        ordered = sorted(report_findings,
                         key=lambda f: (f.path, f.line, f.rule, f.message))
        assert [(f.path, f.line) for f in ordered] == [
            ("a.py", 1), ("a.py", 9), ("b.py", 2)]


class TestRegistryAndSelection:
    def test_the_five_checkers_registered(self):
        assert set(registered_checkers()) == {
            "determinism", "picklability", "locks", "schema",
            "exceptions"}

    def test_every_rule_is_prefixed_by_its_checker(self):
        for name, checker in registered_checkers().items():
            assert checker.rules, name
            for rule in checker.rules:
                assert rule.startswith(name + "."), rule

    def test_unknown_checker_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown checker"):
            lint(tmp_path, checkers=["nonesuch"])

    def test_checker_selection_limits_findings(self, tmp_path):
        write(tmp_path, "experiments/sweep.py", BAD_EXPERIMENT)
        report = lint(tmp_path, checkers=["picklability"])
        assert report.ok()


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "experiments/fine.py", "VALUE = 1\n")
        assert cli.main(["lint", str(tmp_path)]) == 0
        assert "0 active" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        write(tmp_path, "experiments/sweep.py", BAD_EXPERIMENT)
        with pytest.raises(SystemExit) as exc:
            cli.main(["lint", str(tmp_path)])
        assert exc.value.code == 1
        assert "determinism.global-rng" in capsys.readouterr().out

    def test_json_flag(self, tmp_path, capsys):
        write(tmp_path, "experiments/sweep.py", BAD_EXPERIMENT)
        with pytest.raises(SystemExit):
            cli.main(["lint", "--json", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["active"] == 1

    def test_rules_listing(self, capsys):
        assert cli.main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("determinism.global-rng", "picklability.lambda-callable",
                     "locks.blocking-call", "schema.unknown-op"):
            assert rule in out

    def test_unknown_checker_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["lint", "--checker", "nonesuch", str(tmp_path)])
        assert exc.value.code == 2
        assert "unknown checker" in capsys.readouterr().err


class TestShippedTree:
    def test_repro_lint_is_clean_on_the_shipped_tree(self):
        """The CI gate in test form: zero unwaived findings on main."""
        report = run_lint()
        assert report.ok(), "\n" + report.format_text()

    def test_shipped_waivers_all_carry_justifications(self):
        report = run_lint()
        for finding in report.waived:
            assert finding.justification, finding.format()

    def test_every_shipped_waiver_covers_a_waived_finding(self):
        """A waiver that matches nothing is stale: it would silently
        waive whatever finding lands on its line next.  Waivers quoted
        inside docstrings are text, not comments, and are not counted."""
        report = run_lint()
        root = pathlib.Path(report.root)
        used = {(finding.path, SourceFile(root / finding.path, root)
                 .waiver_for(finding.rule, finding.line).line)
                for finding in report.waived}
        shipped = set()
        for path in sorted((root / "src").rglob("*.py")):
            source = SourceFile(path, root)
            comments = {token.start[0] for token in tokenize.generate_tokens(
                io.StringIO(source.text).readline)
                if token.type == tokenize.COMMENT}
            shipped |= {(source.rel, waiver.line) for waiver in source.waivers
                        if waiver.line in comments}
        assert shipped, "no waiver comment found under src/"
        assert sorted(shipped - used) == []


class TestWaiverPlacement:
    def test_stacked_standalone_waivers(self, tmp_path):
        write(tmp_path, "experiments/sweep.py", """\
            import random
            import time

            def draw():
                # lint: allow(determinism.global-rng): fixture
                # lint: allow(determinism.wall-clock): fixture
                return random.random() + time.time()
        """)
        report = lint(tmp_path, checkers=["determinism"])
        assert report.ok()
        assert {f.rule for f in report.waived} == {
            "determinism.global-rng", "determinism.wall-clock"}

    def test_standalone_waiver_skips_decorator_lines(self, tmp_path):
        # a waiver written above the decorators still covers the def
        path = write(tmp_path, "mod.py", """\
            # lint: allow(some.rule): covers the decorated def
            @property
            @staticmethod
            def thing():
                return 1
        """)
        entry = SourceFile(path, tmp_path)
        assert entry.waiver_for("some.rule", 4) is not None
        assert entry.waiver_for("some.rule", 5) is None


class TestParseCache:
    def test_rewritten_file_is_reparsed(self, tmp_path):
        from repro.analysis.core import Project
        write(tmp_path, "experiments/sweep.py", BAD_EXPERIMENT)
        first = Project(tmp_path, [tmp_path])
        assert lint(tmp_path, checkers=["determinism"]).active
        write(tmp_path, "experiments/sweep.py", "VALUE = 1\n")
        assert lint(tmp_path, checkers=["determinism"]).ok()
        second = Project(tmp_path, [tmp_path])
        assert first.files[0].tree is not second.files[0].tree

    def test_untouched_file_reuses_the_parse(self, tmp_path):
        from repro.analysis.core import Project
        write(tmp_path, "experiments/sweep.py", BAD_EXPERIMENT)
        first = Project(tmp_path, [tmp_path])
        second = Project(tmp_path, [tmp_path])
        assert first.files[0] is second.files[0]


class TestChangedScoping:
    def _git(self, root, *args):
        import subprocess
        subprocess.run(
            ["git", "-C", str(root), "-c", "user.email=t@t",
             "-c", "user.name=t", *args],
            check=True, capture_output=True)

    def test_changed_paths_sees_worktree_and_untracked(self, tmp_path):
        from repro.analysis import changed_paths
        self._git(tmp_path, "init", "-q")
        committed = write(tmp_path, "src/mod.py", "VALUE = 1\n")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        assert changed_paths(tmp_path) == []
        committed.write_text("VALUE = 2\n")
        fresh = write(tmp_path, "src/new.py", "OTHER = 3\n")
        write(tmp_path, "notes.txt", "not python\n")
        assert changed_paths(tmp_path) == [committed, fresh]

    def test_changed_paths_against_a_ref(self, tmp_path):
        from repro.analysis import changed_paths
        self._git(tmp_path, "init", "-q")
        write(tmp_path, "src/mod.py", "VALUE = 1\n")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "one")
        write(tmp_path, "src/mod.py", "VALUE = 2\n")
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "two")
        assert changed_paths(tmp_path) == []
        assert changed_paths(tmp_path, base="HEAD~1") == [
            tmp_path / "src/mod.py"]

    def test_bad_ref_raises_value_error(self, tmp_path):
        from repro.analysis import changed_paths
        self._git(tmp_path, "init", "-q")
        with pytest.raises(ValueError, match="git"):
            changed_paths(tmp_path, base="no-such-ref")

    def test_empty_paths_scans_nothing(self, tmp_path):
        write(tmp_path, "experiments/sweep.py", BAD_EXPERIMENT)
        report = run_lint(root=tmp_path, paths=[], context_paths=[])
        assert report.ok()
        assert report.findings == []


class TestSarif:
    def test_sarif_shape_and_suppressions(self, tmp_path):
        write(tmp_path, "experiments/sweep.py", """\
            import random
            import time

            def draw():
                t = time.time()  # lint: allow(determinism.wall-clock): fixture
                return random.random() + t
        """)
        report = lint(tmp_path, checkers=["determinism"])
        sarif = json.loads(report.to_sarif())
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "determinism.global-rng" in rule_ids
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels["determinism.global-rng"] == "warning"
        assert levels["determinism.wall-clock"] == "note"
        (suppressed,) = [r for r in run["results"]
                         if r["ruleId"] == "determinism.wall-clock"]
        assert suppressed["suppressions"][0]["justification"] == "fixture"
        location = run["results"][0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"

    def test_cli_format_sarif(self, tmp_path, capsys):
        write(tmp_path, "experiments/sweep.py", BAD_EXPERIMENT)
        with pytest.raises(SystemExit) as exc:
            cli.main(["lint", "--format", "sarif", str(tmp_path)])
        assert exc.value.code == 1
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["runs"][0]["results"]
