"""One pass over the paper's experiments, in a process of its own.

``python3 -m perfbench.suite_pass --workers N [--scale X] [--trace]``
builds, in order, Table 1, its Monte-Carlo validation, the Fig. 3 mu=4
locality panel, Figs. 4 and 5, the repair-bandwidth table, the
polygon-local families table and the 2**16-mask recoverability table of
``pentagon-local(3g,2p)``, checks every ``shape_checks`` claim, and
prints one JSON line: seconds per builder, the checks, a digest of every
result, CPU seconds and peak memory of the pass and its pool workers.

A fresh process per pass, because the decodability memo makes a repeated
enumeration ~25x cheaper than the first one (2.2 s -> 0.08 s): a warm
in-process loop would report a steady state no reader of the paper ever
sees.  ``--import-only`` stops after the imports (the suite's set-up);
``--probes`` times single calls into the engine and the batch layers
instead.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import hashlib
import importlib
import json
import os
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BUILDERS = ("table1", "table1_mc", "fig3_mu4", "fig4", "fig5", "repair_bw",
            "families", "mask_enum")
FAMILY_CODES = ("pentagon-local", "pentagon-local(3g,2p)")
MASK_CODE = "pentagon-local(3g,2p)"


def _noop(index: int) -> int:
    return index


def run_pass(workers: int, scale: float, small_masks: bool, wrap) -> dict:
    """Build everything once; ``wrap(name, fn)`` may add a span."""
    from repro.core import make_code
    from repro.experiments import (families, fig3, fig4, fig5,
                                   repair_bandwidth, table1)
    from repro.reliability import recoverable_mask_table

    trials = max(1, round(600 * scale))
    fig3_trials = max(1, round(30 * scale))
    runs = max(1, round(10 * scale))
    mask_code = "pentagon-local" if small_masks else MASK_CODE
    steps = {
        "table1": lambda: table1.build_table1(workers=workers),
        "table1_mc": lambda: table1.monte_carlo_validation(
            trials=trials, workers=workers),
        "fig3_mu4": lambda: fig3.locality_panel(
            4, trials=fig3_trials, workers=workers),
        "fig4": lambda: fig4.figure4(runs=runs, workers=workers),
        "fig5": lambda: fig5.figure5(runs=runs, workers=workers),
        "repair_bw": lambda: repair_bandwidth.measure_all(workers=workers),
        "families": lambda: families.build_families(
            FAMILY_CODES, workers=workers),
        "mask_enum": lambda: recoverable_mask_table(
            make_code(mask_code), workers=workers, serial_below=0),
    }
    seconds: dict[str, float] = {}
    cpu: dict[str, float] = {}
    results: dict[str, object] = {}
    for name in BUILDERS:
        step = wrap(f"exp.{name}", steps[name])
        start, cpu_start = time.perf_counter(), time.process_time()
        results[name] = step()
        seconds[name] = time.perf_counter() - start
        cpu[name] = time.process_time() - cpu_start

    checks: dict[str, bool] = {}
    checks.update(table1.shape_checks(results["table1"]))
    if scale >= 1.0:
        # the statistical claims need their full trial counts
        checks.update(table1.mc_shape_checks(results["table1_mc"]))
        checks.update(fig4.shape_checks(results["fig4"]))
        checks.update(fig5.shape_checks(results["fig5"]))
    checks.update(repair_bandwidth.shape_checks(results["repair_bw"]))
    checks.update(families.shape_checks(results["families"]))
    canonical = {
        "table1": results["table1"].as_rows(),
        "table1_mc": [row.as_list() for row in results["table1_mc"]],
        "fig3_mu4": results["fig3_mu4"].points(),
        "fig4": {k: v.points() for k, v in results["fig4"].items()},
        "fig5": {k: v.points() for k, v in results["fig5"].items()},
        "repair_bw": [m.as_list() for m in results["repair_bw"]],
        "families": results["families"].as_rows(),
        "mask_enum": hashlib.sha256(
            results["mask_enum"].tobytes()).hexdigest(),
    }
    digest = hashlib.sha256(json.dumps(
        canonical, sort_keys=True, default=repr).encode()).hexdigest()
    return {"builders": seconds, "builders_cpu": cpu, "checks": checks,
            "digest": digest}


def run_probes() -> dict:
    """Single calls into the engine and the batch layers, timed."""
    import numpy as np

    from perfbench.environment import cpu_parallel_capacity
    from perfbench.layers import timed
    from repro.core import make_code
    from repro.experiments import fig3
    from repro.experiments.engine import Cell, run_cells, shutdown_pools
    from repro.mapreduce import run_terasort_once, setup1
    from repro.reliability import ReliabilityParams, simulate_group_mttd
    from repro.scheduling import make_scheduler
    from repro.workloads import workload_for_load

    median = statistics.median
    out: dict[str, float] = {}
    cells = [Cell(experiment="perfbench-noop", key=(index,), fn=_noop,
                  args=(index,)) for index in range(2000)]
    out["engine.dispatch_us_per_cell_serial"] = median(
        timed(lambda: run_cells(cells, 1), 5, warmup=1)) / len(cells) * 1e6
    shutdown_pools()
    start = time.perf_counter()
    run_cells(cells, 2)                     # pays for the pool
    cold = time.perf_counter() - start
    warm = median(timed(lambda: run_cells(cells, 2), 5, warmup=0))
    out["engine.pool_spinup_s"] = max(cold - warm, 0.0)
    out["engine.dispatch_us_per_cell_pooled"] = warm / len(cells) * 1e6
    shutdown_pools()
    out["engine.cpu_parallel_capacity"] = cpu_parallel_capacity()

    nodes, slots = fig3.NODE_COUNT, 4
    tasks = workload_for_load("pentagon", 75.0, nodes, slots,
                              np.random.default_rng(1))
    for label, name in (("delay", "delay"), ("maxmatch", "max-matching"),
                        ("peeling", "peeling")):
        scheduler = make_scheduler(name)
        out[f"scheduling.{label}_assign_us"] = median(timed(
            lambda: scheduler.assign(tasks, nodes, slots,
                                     np.random.default_rng(2)), 30)) * 1e6
    config = setup1()
    out["mapreduce.terasort_once_ms"] = median(timed(
        lambda: run_terasort_once("pentagon", 75.0, config,
                                  np.random.default_rng(3)), 10)) * 1e3
    fast = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0)
    code = make_code("pentagon")
    out["reliability.simulate_group_mttd_ms"] = median(timed(
        lambda: simulate_group_mttd(code, fast, np.random.default_rng(4),
                                    trials=300), 5, warmup=1)) * 1e3
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every trial count (1.0: the "
                             "issue's sizes)")
    parser.add_argument("--small-masks", action="store_true",
                        help="enumerate the 11-slot pentagon-local code "
                             "instead (smoke runs)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--probes", action="store_true")
    args = parser.parse_args(argv)

    importlib.import_module("repro.experiments")   # all a pass needs
    from repro.gf import kernels

    backend = kernels.active_backend()      # loads the native kernel
    record: dict = {"import_s": time.perf_counter() - _STARTED,
                    "import_cpu_s": time.process_time(),
                    "backend": backend, "workers": args.workers}
    if args.probes:
        record["probes"] = run_probes()
    elif not args.import_only:
        from perfbench.spans import Recorder

        recorder = Recorder()
        wrap = recorder.wrap if args.trace else (lambda name, fn: fn)
        record.update(run_pass(args.workers, args.scale, args.small_masks,
                               wrap))
        if args.trace:
            record["spans"] = [[s.name, s.start, s.end, s.parent, s.op]
                               for s in recorder.spans]
    from perfbench import procstat
    from repro.experiments.engine import shutdown_pools

    record["rss_mib"] = procstat.tree_peak_rss_mib()
    shutdown_pools()            # reap the workers: their CPU counts below
    times = os.times()
    record["cpu_s"] = (times.user + times.system
                       + times.children_user + times.children_system)
    record["wall_s"] = time.perf_counter() - _STARTED
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
