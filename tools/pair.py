#!/usr/bin/env python3
"""Interleaved parent/change pairs of one benchmark workload, judged by
the gain rule.

::

    python3 tools/pair.py BASE_REV CHANGE_REV --workload W --pairs N
                          [--seed S] [--workdir DIR]

Both revisions are exported with ``git archive`` into fresh
directories (new ones under ``--workdir`` on every call, so a tree an
interrupted batch left half-extracted there is never reused);
``WORKTREE`` names the working tree as it stands, tracked
and staged files, through ``git stash create`` (stage a new file for it
to be included).  Each tree first runs the workload once untimed at
``--smoke`` size, so every ``.pyc`` it imports is compiled and the GF
kernel is built before anything is timed.  Then pair ``i`` runs
``python3 -m perfbench --workload W --seed S+i`` in both trees, the
base first in even pairs and the change first in odd ones.  The
harness runs unchanged, from each tree's own ``perfbench/``, each run
in a process group of its own: a run past its timeout, or one in
flight when the tool gets SIGTERM or SIGINT, is killed with everything
it started (the service workloads' datanode launchers included).

Every run must report ``failed 0``, and both runs of a pair the same
``attempted`` count; otherwise the tool names the run and exits 1.

Per end-to-end metric of ``BENCHMARK.json`` (the base tree's, with its
"better" direction and bound), it prints how many pairs the change
won, each side's median and quartiles, and two verdicts:

* **gain** holds when the change wins at least nine tenths of all
  pairs run (a tie counts for neither side) and its median is better
  than the base's by more than the base's interquartile range;
* **bound** fails when the change's median is worse than the base's by
  more than the metric's bound, taken relative to the base median.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
#: Longest a single benchmark run may take.
RUN_TIMEOUT_S = 1800


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(rev: str) -> str:
    """The commit to export for ``rev``; ``WORKTREE`` is the working
    tree, committed on the side by ``git stash create``."""
    if rev == WORKTREE:
        return _git("stash", "create") or _git("rev-parse", "HEAD")
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}")


def export(commit: str, workdir: pathlib.Path, side: str) -> pathlib.Path:
    """Extract ``commit`` into a new directory under ``workdir``."""
    dest = pathlib.Path(tempfile.mkdtemp(dir=workdir,
                                         prefix=f"{side}-{commit[:12]}-"))
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                   check=True)
    return dest


def run_once(tree: pathlib.Path, workload: str, seed: int,
             smoke: bool = False) -> dict:
    """One harness run in ``tree``, at the harness's own length: its
    final JSON line."""
    command = [sys.executable, "-m", "perfbench", "--workload", workload,
               "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    # The tree under test supplies every import: nothing from ours.
    # Bytecode writes stay on, so the warm-up pass leaves the ``.pyc``
    # files the timed runs then load instead of compiling from source.
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    run = subprocess.Popen(command, cwd=tree, env=env, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           start_new_session=True)
    try:
        stdout, stderr = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"pair: {' '.join(command)} in {tree} timed out "
                         f"after {RUN_TIMEOUT_S} s") from None
    finally:
        # The run's group outlives its leader if anything it started
        # is still running; none of it may outlive the run.
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        run.wait()
    if run.returncode not in (0, 1) or not stdout.strip():
        raise SystemExit(f"pair: {' '.join(command)} in {tree} exited "
                         f"{run.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.splitlines()[-1])


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """The gain rule and the bound check over paired runs
    (``base[i]`` and ``change[i]`` ran as pair ``i``)."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need at least two pairs, as many of each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher': {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    base_q1, base_median, base_q3 = statistics.quantiles(
        base, n=4, method="inclusive")
    change_q1, change_median, change_q3 = statistics.quantiles(
        change, n=4, method="inclusive")
    gain = sign * (base_median - change_median)     # > 0: change better
    worse = -gain / abs(base_median) if base_median else 0.0
    return {
        "pairs": len(base), "wins": wins, "losses": losses,
        "base": (base_median, base_q1, base_q3),
        "change": (change_median, change_q1, change_q3),
        "delta": ((change_median - base_median) / abs(base_median)
                  if base_median else 0.0),
        "gain": wins >= 0.9 * len(base) and gain > base_q3 - base_q1,
        "within_bound": bound is None or worse <= bound,
    }


def _check(record: dict, label: str) -> list[str]:
    problems = []
    if record["failed"]:
        problems.append(f"{label}: failed {record['failed']}")
    if not record["correct"]:
        problems.append(f"{label}: correct is false")
    return problems


def _table(specs: list[dict], base_runs: list[dict],
           change_runs: list[dict]) -> list[str]:
    lines = [f"{'metric':<14} {'better':<7} {'wins':>6}  "
             f"{'base median [q1 .. q3]':<30} "
             f"{'change median [q1 .. q3]':<30} {'change':>8}  gain  bound"]
    for spec in specs:
        name = spec["name"]
        result = verdict([r["metrics"][name]["value"] for r in base_runs],
                         [r["metrics"][name]["value"] for r in change_runs],
                         spec["better"], spec.get("bound"))
        sides = ["{:.4g} [{:.4g} .. {:.4g}]".format(*result[side])
                 for side in ("base", "change")]
        lines.append(
            f"{name:<14} {spec['better']:<7} "
            f"{result['wins']:>3}/{result['pairs']:<2}  {sides[0]:<30} "
            f"{sides[1]:<30} {result['delta']:>+8.1%}  "
            f"{'yes ' if result['gain'] else 'no  '}  "
            f"{'ok' if result['within_bound'] else 'WORSE'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 tools/pair.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", metavar="BASE_REV")
    parser.add_argument("change", metavar="CHANGE_REV",
                        help=f"a revision, or {WORKTREE}")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of pair 0; pair i runs seed + i")
    parser.add_argument("--workdir", default=None,
                        help="where the trees are exported (default: a "
                             "new temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    # SIGTERM unwinds like SIGINT, so the run in flight is killed.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    workdir = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="pair-"))
    workdir.mkdir(parents=True, exist_ok=True)
    commits = {"base": resolve(args.base), "change": resolve(args.change)}
    trees = {}
    for side, commit in commits.items():
        trees[side] = export(commit, workdir, side)
        print(f"{side:<6} {args.base if side == 'base' else args.change} "
              f"= {commit[:12]} in {trees[side]}", flush=True)
    specs = json.loads(
        (trees["base"] / "BENCHMARK.json").read_text())["end_to_end"]

    for side, tree in trees.items():
        run_once(tree, args.workload, args.seed, smoke=True)
        print(f"warm-up {side}: done", flush=True)

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    problems: list[str] = []
    for index in range(args.pairs):
        seed = args.seed + index
        order = ("base", "change") if index % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed))
        base, change = runs["base"][-1], runs["change"][-1]
        problems += _check(base, f"pair {index} base")
        problems += _check(change, f"pair {index} change")
        if base["attempted"] != change["attempted"]:
            problems.append(f"pair {index}: attempted {base['attempted']} "
                            f"(base) != {change['attempted']} (change)")
        print(f"pair {index} seed {seed} ({order[0]} first): " + "  ".join(
            f"{spec['name']} {base['metrics'][spec['name']]['value']:.4g}"
            f" -> {change['metrics'][spec['name']]['value']:.4g}"
            for spec in specs), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}")
    print("\n".join(_table(specs, runs["base"], runs["change"])))
    for problem in problems:
        print(f"INVALID {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
