"""One command for the whole benchmark.

::

    python3 -m perfbench --workload NAME|all --seed N [--seconds S]
                         [--trace [0|1]] [--json PATH] [--smoke]

Runs the workload(s), bit-verifies every output, prints every metric by
name with unit, sample count and quartiles, and — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of an untraced run (``--trace 0``)
or the per-layer metrics of a traced one (``--trace 1``).  A failed,
refused or mismatched operation makes ``correct`` false and the exit
code 1.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()      # before anything heavy is imported

import argparse
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Build outputs (the cffi-compiled GF kernel) stay inside the checkout.
BUILD_DIR = ROOT / ".bench_build"


def _prepare_imports() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro is missing — run from a checkout "
              "of the repository, the benchmark measures its src/ tree",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.setdefault("REPRO_NATIVE_CACHE", str(BUILD_DIR / "native"))


def _check_backend() -> str:
    """Resolve the GF backend now (first use may compile the kernel).

    A concretely requested backend that silently fell back refuses to
    run — ``benchmarks/perf_snapshot.py`` owns that rule, so it is
    reused rather than restated.
    """
    from repro.gf import kernels

    if kernels.requested_backend() != "auto":
        spec = importlib.util.spec_from_file_location(
            "perf_snapshot", ROOT / "benchmarks" / "perf_snapshot.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.ensure_backend_matches()
    return kernels.active_backend()


def run_workload(name: str, args) -> dict:
    """Run one workload; returns the result record (also printed)."""
    from . import environment
    from .metrics import END_TO_END, PER_LAYER
    from .stats import Sample
    from .workloads import PINNED, Context, load

    allowed = os.sched_getaffinity(0)
    if name in PINNED:      # before anything is spawned: children inherit
        os.sched_setaffinity(0, {min(allowed)})
    try:
        runner, emits = load(name)
        backend = _check_backend()
        ctx = Context(seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), smoke=args.smoke,
                      import_s=time.perf_counter() - _STARTED,
                      spans_path=args.spans)
        outcome = runner(ctx)
    finally:
        # the fingerprint below measures what the host's CPUs give
        os.sched_setaffinity(0, allowed)

    missing = [m for m in END_TO_END if m not in outcome.metrics]
    if ctx.trace:
        missing += [m for m in emits if m not in outcome.metrics]
    undeclared = [m for m in outcome.metrics
                  if m not in END_TO_END and m not in PER_LAYER]
    if missing or undeclared:
        raise SystemExit(f"perfbench: {name} broke its declaration — "
                         f"missing {missing}, undeclared {undeclared}")
    zero = [m for m in END_TO_END if not outcome.metrics[m].value > 0]
    if zero:
        outcome.checks[f"end-to-end metrics are positive ({zero})"] = False

    wanted = PER_LAYER if ctx.trace else END_TO_END
    reported = {m: outcome.metrics.get(m, Sample(0.0, wanted[m][0], 0))
                for m in wanted}
    print(f"== {name}  seed={ctx.seed}  seconds={ctx.seconds:g}  "
          f"trace={int(ctx.trace)}  backend={backend}")
    print(f"   attempted {outcome.attempted}  failed {outcome.failed}  "
          f"correct {outcome.correct}")
    for check, passed in outcome.checks.items():
        print(f"   check {'ok  ' if passed else 'FAIL'} {check}")
    for metric, sample in sorted(outcome.metrics.items(),
                                 key=lambda kv: (kv[0] not in END_TO_END,
                                                 kv[0])):
        spread = (f"  [{sample.q1:.6g} .. {sample.q3:.6g}]"
                  if sample.q1 is not None else "")
        print(f"   {metric:<46} {sample.value:>14.6g} {sample.unit:<6} "
              f"n={sample.n}{spread}")
    return {
        "workload": name,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "trace": int(ctx.trace),
        "metrics": {m: s.as_json() for m, s in outcome.metrics.items()},
        "reported": {m: {"value": s.value, "unit": s.unit}
                     for m, s in reported.items()},
        "config": outcome.config,
        "environment": (environment.fingerprint(ctx, backend)
                        if args.json else None),
    }


def _run_in_own_process(name: str, args) -> dict:
    """``--workload all``: each workload exactly as the driver runs it —
    a process of its own, so set-up time, peak memory and CPU affinity
    of one never leak into the next."""
    BUILD_DIR.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=BUILD_DIR, suffix=".json") as out:
        command = [sys.executable, "-m", "perfbench", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--json", out.name]
        if args.smoke:
            command.append("--smoke")
        result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                text=True)
        # everything but the child's own final JSON line
        sys.stdout.write("".join(result.stdout.splitlines(True)[:-1]))
        sys.stderr.write(result.stderr)
        if result.returncode not in (0, 1):
            raise SystemExit(result.returncode)
        record = json.loads(pathlib.Path(out.name).read_text())
    if not args.json:
        record["environment"] = None
    return record


def main(argv: list[str] | None = None) -> int:
    from .metrics import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the measured phase runs (op counts "
                             "scale with it)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (spans + layer probes, "
                             "closed-loop counts cut to a third)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full result record(s), with "
                             "the environment fingerprint, to PATH")
    parser.add_argument("--spans", metavar="PATH",
                        help="write the traced run's raw spans to PATH")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny counts: checks the plumbing, measures "
                             "nothing")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _prepare_imports()

    if args.workload == "all":
        records = [_run_in_own_process(name, args) for name in WORKLOADS]
    else:
        records = [run_workload(args.workload, args)]
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            records if args.workload == "all" else records[0],
            indent=1) + "\n")
    final = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": (records[0]["reported"] if len(records) == 1 else
                    {f"{r['workload']}.{m}": v for r in records
                     for m, v in r["reported"].items()}),
    }
    sys.stdout.flush()
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
