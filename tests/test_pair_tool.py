"""The gain rule of ``tools/pair.py`` on synthetic pairs, and how the
tool exports its trees and stops its runs.

A change gains on a metric when it wins at least nine tenths of all
pairs run (ties count for neither side) and its median is better than
the base's by more than the base's interquartile range; it regresses
when its median is worse than the base's by more than the bound.
"""

import importlib.util
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "pair.py"
_spec = importlib.util.spec_from_file_location("pair_tool", TOOL)
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)

BASE = [2.0, 2.1, 1.9, 2.2, 1.8, 2.0, 2.3, 1.7, 2.1, 1.9]    # IQR 0.2


def test_nine_wins_and_a_gap_beyond_the_iqr_is_a_gain():
    change = [1.0] * 9 + [2.5]                       # loses pair 9
    result = pair.verdict(BASE, change, "lower", 0.25)
    assert (result["wins"], result["losses"]) == (9, 1)
    assert result["gain"] and result["within_bound"]
    assert result["base"] == pytest.approx((2.0, 1.9, 2.1))


def test_eight_wins_is_no_gain_however_large_the_gap():
    change = [1.0] * 8 + [2.5, 2.5]
    assert not pair.verdict(BASE, change, "lower")["gain"]


def test_a_tie_counts_for_neither_side():
    nine = [1.0] * 9 + [BASE[9]]
    eight = [1.0] * 8 + [BASE[8], BASE[9]]
    assert pair.verdict(BASE, nine, "lower")["wins"] == 9
    assert pair.verdict(BASE, nine, "lower")["gain"]
    assert pair.verdict(BASE, eight, "lower")["losses"] == 0
    assert not pair.verdict(BASE, eight, "lower")["gain"]


def test_a_gap_inside_the_base_iqr_is_no_gain_even_winning_every_pair():
    change = [value - 0.15 for value in BASE]        # gap 0.15 < 0.2
    result = pair.verdict(BASE, change, "lower")
    assert result["wins"] == 10 and not result["gain"]


def test_higher_is_better_turns_the_rule_around():
    assert pair.verdict(BASE, [3.0] * 10, "higher")["gain"]
    assert not pair.verdict(BASE, [3.0] * 10, "lower")["gain"]
    assert pair.verdict(BASE, [1.0] * 10, "higher")["wins"] == 0


def test_the_bound_is_relative_to_the_base_median():
    assert pair.verdict(BASE, [2.4] * 10, "lower", 0.25)["within_bound"]
    assert not pair.verdict(BASE, [2.6] * 10, "lower", 0.25)["within_bound"]
    assert not pair.verdict(BASE, [1.4] * 10, "higher",
                            0.25)["within_bound"]


def test_a_tree_against_itself_names_no_winner():
    result = pair.verdict(BASE, list(BASE), "lower", 0.25)
    assert result["wins"] == result["losses"] == 0
    assert not result["gain"] and result["within_bound"]


def test_unpaired_or_single_runs_are_refused():
    with pytest.raises(ValueError):
        pair.verdict(BASE, BASE[:-1], "lower")
    with pytest.raises(ValueError):
        pair.verdict([1.0], [0.5], "lower")
    with pytest.raises(ValueError):
        pair.verdict(BASE, BASE, "smaller")


def test_runs_get_no_caller_pythonpath_and_write_bytecode(monkeypatch,
                                                          tmp_path):
    """The warm-up run must leave ``.pyc`` files behind for the timed
    runs, whatever the caller's ``PYTHONDONTWRITEBYTECODE``, and the
    tree under test must import nothing from the caller's path."""
    seen, killed = [], []

    class FakeRun:
        pid, returncode = 4242, 0

        def __init__(self, command, **kwargs):
            seen.append(kwargs["env"])

        def communicate(self, timeout=None):
            return '{"ok": 1}\n', ""

        def wait(self):
            return self.returncode

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setenv("PAIR_TOOL_PROBE", "kept")
    monkeypatch.setattr(pair.subprocess, "Popen", FakeRun)
    monkeypatch.setattr(pair.os, "killpg",
                        lambda group, signum: killed.append(group))
    assert pair.run_once(tmp_path, "codec", 0, smoke=True) == {"ok": 1}
    assert killed == [FakeRun.pid]      # whatever the run left behind
    (env,) = seen
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert "PYTHONPATH" not in env
    assert env["PAIR_TOOL_PROBE"] == "kept"


def test_export_into_a_reused_workdir_makes_fresh_trees(monkeypatch,
                                                       tmp_path):
    """An interrupted batch leaves its trees behind; exporting the same
    commit into that ``--workdir`` again must neither fail nor reuse
    them."""
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=pair",
           "-c", "user.email=pair@example.invalid"]
    subprocess.run([*git, "init", "-q"], check=True)
    (repo / "file.txt").write_text("tracked\n")
    subprocess.run([*git, "add", "file.txt"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "one file"], check=True)
    monkeypatch.setattr(pair, "ROOT", repo)
    commit = pair.resolve("HEAD")
    workdir = tmp_path / "work"
    workdir.mkdir()
    # A half-extracted tree under the name earlier versions used.
    (workdir / f"base-{commit[:12]}").mkdir()
    trees = [pair.export(commit, workdir, side)
             for _ in range(2) for side in ("base", "change")]
    assert len(set(trees)) == 4
    for tree in trees:
        assert tree.parent == workdir
        assert (tree / "file.txt").read_text() == "tracked\n"


#: A stand-in harness: starts one sleeping grandchild, records its own
#: process group and the grandchild's pid, then sleeps itself.
STUB_HARNESS = """\
import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
with open("pids.tmp", "w") as out:
    out.write(f"{os.getpgrp()} {child.pid}")
os.replace("pids.tmp", "pids")
time.sleep(60)
"""


def stub_tree(tmp_path):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "__main__.py").write_text(STUB_HARNESS)
    (tree / "BENCHMARK.json").write_text('{"end_to_end": []}')
    return tree


def wait_for_pids(tree, within_s=20.0):
    deadline = time.monotonic() + within_s
    while not (tree / "pids").exists():
        assert time.monotonic() < deadline, "stub harness never started"
        time.sleep(0.05)
    group, grandchild = map(int, (tree / "pids").read_text().split())
    return group, grandchild


def live_members(group):
    """Pids in process group ``group`` that are not zombies."""
    members = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == group and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


def assert_group_gone(group, within_s=10.0):
    deadline = time.monotonic() + within_s
    while live_members(group):
        assert time.monotonic() < deadline, (
            f"process group {group} still has {live_members(group)}")
        time.sleep(0.05)


def test_a_run_past_its_timeout_is_killed_with_its_group(monkeypatch,
                                                         tmp_path):
    tree = stub_tree(tmp_path)
    monkeypatch.setattr(pair, "RUN_TIMEOUT_S", 10)
    exits = []

    def run():
        try:
            pair.run_once(tree, "codec", 0)
        except SystemExit as stopped:
            exits.append(str(stopped))

    runner = threading.Thread(target=run)
    runner.start()
    try:
        group, grandchild = wait_for_pids(tree, within_s=10)
        # Alive until the timeout fires, so the kill is the tool's doing.
        assert grandchild in live_members(group)
    finally:
        runner.join(timeout=30)
    assert len(exits) == 1 and "timed out after 10 s" in exits[0]
    assert_group_gone(group)


def test_sigterm_to_the_tool_kills_the_run_in_flight(tmp_path):
    tree = stub_tree(tmp_path)
    script = (
        "import importlib.util, pathlib, sys\n"
        f"spec = importlib.util.spec_from_file_location('pair', {str(TOOL)!r})\n"
        "pair = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(pair)\n"
        "pair.resolve = lambda rev: '0' * 40\n"
        f"pair.export = lambda commit, workdir, side: pathlib.Path({str(tree)!r})\n"
        f"pair.main(['A', 'B', '--workload', 'codec', '--workdir', {str(tmp_path)!r}])\n")
    tool = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        group, grandchild = wait_for_pids(tree)
        assert grandchild in live_members(group)
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=20) == 128 + signal.SIGTERM
    finally:
        tool.kill()
        tool.wait()
    assert_group_gone(group)
