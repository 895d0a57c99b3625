"""``paper_suite``: what a reader of the paper runs, as fresh processes.

Interleaved :mod:`perfbench.suite_pass` subprocesses — four at
``--workers 2`` with three at ``--workers 1`` between them (how much the
second vCPU gives swings, so the 2-worker pass is the noisier one and
gets the extra sample) — each building Table 1,
its Monte-Carlo validation, Fig. 3 (mu=4), Figs. 4 and 5, the
repair-bandwidth and families tables and the 2**16-mask recoverability
table, at the issue's sizes when ``--seconds`` is 10 (trial counts scale
with it; the enumeration does not).  ``experiments.engine``,
``scheduling``, ``mapreduce``, ``workloads`` and ``reliability`` do the
work; ``gf`` and ``net`` almost none.

A pass's wall time is measured here, from spawn to exit, so interpreter
start and imports are in it — they are part of what the reader waits
for.  Every ``shape_checks`` claim must hold and the workers=1 and
workers=2 result digests must be equal.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from .. import procstat
from ..metrics import ROOT, Outcome, layer_names
from ..spans import Span, self_times
from ..stats import quartiles
from ..suite_pass import BUILDERS

#: Worker count of each pass of an untraced run, in order.
ORDER = (2, 1, 2, 1, 2, 1, 2)
SETUP_REPS = 3
PASS_TIMEOUT_S = 150.0

EMITS = layer_names("experiments") + (
    "trace.overhead_frac", "suite_wall_s_w1", "suite_wall_s_w2",
    "suite_cpu_s")


def _pass(*flags: str) -> dict:
    """Run one suite_pass subprocess; its record plus our wall clock."""
    command = [sys.executable, "-m", "perfbench.suite_pass", *flags]
    started = time.perf_counter()
    result = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True, timeout=PASS_TIMEOUT_S)
    wall = time.perf_counter() - started
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{result.returncode}: {result.stderr[-2000:]}")
    record = json.loads(result.stdout.strip().splitlines()[-1])
    record["spawn_to_exit_s"] = wall
    return record


def _quietest(passes: list[dict], clock: str) -> float:
    """The pass as it would run with no interference: every component —
    start-up and imports, each builder, the rest — at the least any of
    the passes took for it.  ``clock`` is ``"wall"`` or ``"cpu"``.

    Interference only ever adds time, and a spell that hits one builder
    of each pass spoils every whole-pass figure; it cannot spoil this.
    """
    def components(record: dict) -> dict[str, float]:
        if clock == "wall":
            total, parts = record["spawn_to_exit_s"], record["builders"]
            head = record["import_s"] + total - record["wall_s"]
        else:
            total, parts = record["cpu_s"], record["builders_cpu"]
            head = record["import_cpu_s"]
        return {"start": head, **parts,
                "rest": total - head - sum(parts.values())}

    split = [components(record) for record in passes]
    return sum(min(part[name] for part in split) for name in split[0])


def run(ctx) -> Outcome:
    outcome = Outcome()
    smoke = ctx.smoke
    scale = 0.05 if smoke else ctx.seconds / 10.0
    sizing = ["--scale", f"{scale:g}"] + (["--small-masks"] if smoke else [])
    reps = 1 if smoke else SETUP_REPS
    order = (1, 2) if smoke or ctx.trace else ORDER

    imports = [_pass("--import-only") for _ in range(reps)]
    setup_s = ctx.import_s + statistics.median(
        record["spawn_to_exit_s"] for record in imports)

    passes: dict[int, list[dict]] = {1: [], 2: []}
    for workers in order:
        passes[workers].append(_pass("--workers", str(workers), *sizing))
    traced: dict[int, dict] = {}
    probes: dict[str, float] = {}
    if ctx.trace:
        for workers in (1, 2):
            traced[workers] = _pass("--workers", str(workers), "--trace",
                                    *sizing)
        probes = _pass("--probes")["probes"]
    everything = [*passes[1], *passes[2], *traced.values()]

    checks: dict[str, bool] = {}
    for record in everything:
        for claim, held in record["checks"].items():
            checks[claim] = checks.get(claim, True) and held
    outcome.checks.update(checks)
    outcome.checks["workers=1 and workers=2 digests are equal"] = (
        len({record["digest"] for record in everything}) == 1)
    outcome.attempted = len(everything) * len(BUILDERS)
    outcome.failed = sum(not held for record in everything
                         for held in record["checks"].values())

    wall = {w: [r["spawn_to_exit_s"] for r in passes[w]] for w in (1, 2)}
    cpu_w1 = [r["cpu_s"] for r in passes[1]]
    quiet = {"w1": _quietest(passes[1], "wall"),
             "w2": _quietest(passes[2], "wall"),
             "cpu": _quietest(passes[1], "cpu")}
    outcome.put("setup_s", setup_s, n=reps)
    q1, _, q3 = quartiles(wall[1])
    outcome.put("op_p50_ms", quiet["w1"] * 1e3, n=len(passes[1]),
                q1=q1 * 1e3, q3=q3 * 1e3)
    q1, _, q3 = quartiles([1.0 / seconds for seconds in wall[2]])
    outcome.put("ops_per_s", 1.0 / quiet["w2"], n=len(passes[2]),
                q1=q1, q3=q3)
    q1, _, q3 = quartiles(cpu_w1)
    outcome.put("cpu_ms_per_op", quiet["cpu"] * 1e3, n=len(passes[1]),
                q1=q1 * 1e3, q3=q3 * 1e3)
    outcome.put("peak_rss_mb", procstat.tree_peak_rss_mib()
                + max(record["rss_mib"] for record in everything))
    if ctx.trace:
        for workers, record in traced.items():
            spans = [Span(*row) for row in record["spans"]]
            for span, own in zip(spans, self_times(spans)):
                if span.parent < 0:
                    outcome.put(f"{span.name}_s_w{workers}",
                                span.end - span.start)
        outcome.put("suite.import_s", statistics.median(
            record["import_s"] for record in everything), n=len(everything))
        outcome.put("suite_wall_s_w1", quiet["w1"], n=len(passes[1]))
        outcome.put("suite_wall_s_w2", quiet["w2"], n=len(passes[2]))
        outcome.put("suite_cpu_s", quiet["cpu"], n=len(passes[1]))
        outcome.put("suite.speedup_w2", quiet["w1"] / quiet["w2"])
        outcome.put("trace.overhead_frac",
                    traced[1]["spawn_to_exit_s"] / min(wall[1]) - 1.0)
        for name, value in probes.items():
            outcome.put(name, value)
        if ctx.spans_path:
            with open(ctx.spans_path, "w") as handle:
                json.dump({f"w{w}": r["spans"] for w, r in traced.items()},
                          handle)
    outcome.config = {
        "scale": scale, "order": list(order), "builders": list(BUILDERS),
        "wall_s_w1": wall[1], "wall_s_w2": wall[2], "cpu_s_w1": cpu_w1,
        "quietest": quiet,
        "builder_s_w1": [r["builders"] for r in passes[1]],
        "builder_s_w2": [r["builders"] for r in passes[2]],
        "setup_import_s": [r["spawn_to_exit_s"] for r in imports],
        "import_s": ctx.import_s}
    return outcome
