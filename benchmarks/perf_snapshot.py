"""Write a dated JSON snapshot of the repo's hot-path performance.

Usage::

    PYTHONPATH=src python benchmarks/perf_snapshot.py [--tag NAME]

Produces ``results/BENCH_<YYYY-MM-DD>[_NAME].json`` with encode/decode
throughput, Monte-Carlo simulation wall time, decodability-engine
timings, serial-vs-sharded exact-reliability mask enumeration, end-to-end
sweep wall-clock at 1 vs 4 workers, and a storage service section (`service_s`: sustained read IOPS plus normal and
degraded read latency percentiles against a live namenode + datanode
cluster, healthy and under a kill-one-datanode fault plan), so the perf
trajectory is tracked PR over PR (commit
the file with the change that moved the numbers; ``--tag`` avoids
clobbering a same-day baseline).  Timings are medians of several
repetitions; throughputs are MB/s over the stripe's data payload.

``--sections`` limits the run, e.g. ``--sections service`` writes a
snapshot with only the storage-service numbers (pair it with
``--tag service``).

``--backend`` forces one GF kernel backend (``native`` or the
``numpy`` reference) for the whole run — A/B snapshots without env-var
juggling.  Without it the ``core`` section compares backends itself:
each ``encode_mb_s``/``decode_mb_s`` row carries one throughput per
available backend plus ``speedup`` (native over numpy) and a
``bit_identical`` flag asserting the compared outputs matched byte for
byte; the other sections run on the session's active backend, recorded
in the top-level ``gf_backend`` block.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import platform
import statistics
import sys
import time

import numpy as np

from repro.core import make_code
from repro.experiments import fig3, fig5
from repro.gf import kernels as gf_kernels
from repro.gf import native as gf_native
from repro.reliability import (
    ReliabilityParams,
    recoverable_mask_table,
    simulate_group_mttd,
)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
BLOCK_BYTES = 1 << 20
FAST = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0)

ENCODE_CODES = ("heptagon-local", "rs(14,10)", "pentagon", "(10,9) RAID+m")
SIM_CODES = ("pentagon", "heptagon-local", "(4,3) RAID+m")


def median_seconds(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


#: Section name -> does the full snapshot include it by default.
SECTIONS = ("core", "mask_enum", "sweep", "service")


def snapshot(sections: tuple[str, ...] = SECTIONS) -> dict:
    record: dict = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "block_bytes": BLOCK_BYTES,
        "gf_backend": {
            "requested": gf_kernels.requested_backend(),
            "active": gf_kernels.active_backend(),
            "simd": gf_native.simd_active(),
        },
    }
    if "core" in sections:
        record.update(core_benchmark())
    if "mask_enum" in sections:
        record["mask_enum_s"] = mask_enum_benchmark()
    if "sweep" in sections:
        record["sweep_s"] = sweep_benchmark()
    if "service" in sections:
        record["service_s"] = service_benchmark()
    return record


def _core_backends() -> list[str]:
    """Backends the core section measures (order: baseline first)."""
    requested = gf_kernels.requested_backend()
    if requested != "auto":
        return [requested]
    if gf_kernels.native_available():
        return ["numpy", "native"]
    return ["numpy"]


def core_benchmark() -> dict:
    rng = np.random.default_rng(0)
    backends = _core_backends()
    record: dict = {
        "encode_mb_s": {},
        "decode_mb_s": {},
        "simulate_group_mttd_s": {},
        "fault_tolerance_s": {},
    }
    restore = gf_kernels.requested_backend()
    try:
        for name in ENCODE_CODES:
            code = make_code(name)
            data = [rng.integers(0, 256, BLOCK_BYTES, dtype=np.uint8)
                    for _ in range(code.k)]
            payload_mb = code.k * BLOCK_BYTES / 2**20
            encode_row: dict = {}
            decode_row: dict = {}
            encoded_by: dict[str, list] = {}
            decoded_by: dict[str, list] = {}
            for backend in backends:
                gf_kernels.set_backend(backend)
                encoded = code.encode(data)      # warm the kernel
                encoded_by[backend] = encoded
                seconds = median_seconds(lambda: code.encode(data))
                encode_row[backend] = round(payload_mb / seconds, 1)
            failed = set(range(code.fault_tolerance))
            reference = encoded_by[backends[0]]
            available = {i: reference[i]
                         for i in code.layout.surviving_symbols(failed)}
            for backend in backends:
                gf_kernels.set_backend(backend)
                decoded_by[backend] = code.decode_data(available)  # warm
                seconds = median_seconds(lambda: code.decode_data(available))
                decode_row[backend] = round(payload_mb / seconds, 1)
            if len(backends) > 1:
                base, test = backends[0], backends[-1]
                encode_row["speedup"] = round(
                    encode_row[test] / encode_row[base], 2)
                decode_row["speedup"] = round(
                    decode_row[test] / decode_row[base], 2)
                encode_row["bit_identical"] = all(
                    np.array_equal(a, b) for a, b in
                    zip(encoded_by[base], encoded_by[test]))
                decode_row["bit_identical"] = all(
                    np.array_equal(a, b) for a, b in
                    zip(decoded_by[base], decoded_by[test]))
            record["encode_mb_s"][name] = encode_row
            record["decode_mb_s"][name] = decode_row
    finally:
        gf_kernels.set_backend(None if restore == "auto" else restore)
    for name in SIM_CODES:
        code = make_code(name)
        simulate_group_mttd(code, FAST, np.random.default_rng(0), trials=50)
        seconds = median_seconds(
            lambda: simulate_group_mttd(code, FAST, np.random.default_rng(1),
                                        trials=300),
            repeats=3)
        record["simulate_group_mttd_s"][name] = round(seconds, 4)
    for name in ("heptagon-local", "rs(14,10)"):
        seconds = median_seconds(
            lambda: make_code(name).fault_tolerance, repeats=3)
        record["fault_tolerance_s"][name] = round(seconds, 4)
    return record


def mask_enum_benchmark(workers: int = 2, repeats: int = 5) -> dict:
    """Exact-reliability enumeration: serial vs sharded wall-clock.

    Times the full 2**16-mask recoverability table of the 3-group
    pentagon-local code (16 slots — one past the old 15-slot wall,
    rank-test bound) serially and sharded over ``workers`` pool
    processes, plus the closed-form heptagon-local table (2**15 masks,
    bit-count bound) as the cheap reference.  Three numbers per code:
    ``workers_1`` (fresh code), the *cold* sharded run (fresh pool, so
    its ~0.025 s fork start-up and the workers' first layout build are
    priced in — expect ~breakeven at 2**16 masks on this 2-vCPU
    container; the fan-out pays from 2**19 masks, or on real
    multi-core/multi-host hardware), and ``repeat_warm`` — the same
    sharded call again on the live pool, whose workers already hold
    the built code (there is no verdict memo: every run redoes the
    batched rank tests).  The merged tables are bit-identical by
    construction; the snapshot records that too.

    The sharded legs pass ``serial_below=0`` to keep measuring the
    fan-out machinery itself: production callers that just say
    ``workers=N`` auto-serialise below
    :data:`~repro.reliability.mask_enum.AUTO_SERIAL_MASKS` masks (the
    fix for the ``speedup_cold=0.06`` cold-start regression this
    section recorded), and each row's ``auto_serial`` flag says
    whether that heuristic would have kicked in.
    """
    from repro.experiments.engine import shutdown_pools
    from repro.reliability.mask_enum import AUTO_SERIAL_MASKS

    out: dict = {"workers": workers}
    for label, name in (("pentagon_local_3g_2p16", "pentagon-local(3g,2p)"),
                        ("heptagon_local_2p15", "heptagon-local")):
        serial_times, cold_times, warm_times = [], [], []
        for _ in range(repeats):
            code = make_code(name)
            start = time.perf_counter()
            # workers=1 explicitly: a stray REPRO_WORKERS would
            # otherwise shard the run recorded as the serial baseline.
            serial = recoverable_mask_table(code, workers=1)
            serial_times.append(time.perf_counter() - start)
            shutdown_pools()    # cold shard caches + pool start-up cost
            code = make_code(name)
            start = time.perf_counter()
            sharded = recoverable_mask_table(code, workers=workers,
                                             serial_below=0)
            cold_times.append(time.perf_counter() - start)
            code = make_code(name)
            start = time.perf_counter()
            recoverable_mask_table(code, workers=workers, serial_below=0)
            warm_times.append(time.perf_counter() - start)
        one = statistics.median(serial_times)
        cold = statistics.median(cold_times)
        out[label] = {
            "masks": 1 << make_code(name).length,
            "auto_serial": (1 << make_code(name).length) < AUTO_SERIAL_MASKS,
            "workers_1": round(one, 3),
            f"workers_{workers}_cold": round(cold, 3),
            f"workers_{workers}_repeat_warm": round(
                statistics.median(warm_times), 3),
            "speedup_cold": round(one / cold, 2),
            "bit_identical": bool((serial == sharded).all()),
        }
    return out


def _spin(seconds: float) -> int:
    end = time.perf_counter() + seconds
    count = 0
    while time.perf_counter() < end:
        for _ in range(10_000):
            pass
        count += 1
    return count


def cpu_parallel_capacity(procs: int = 2, seconds: float = 2.0) -> float:
    """Aggregate throughput of ``procs`` spinning processes vs one.

    The hardware ceiling for any multiprocessing speedup: shared
    containers often advertise N CPUs but sustain well under Nx
    aggregate throughput (SMT siblings, host contention).  Recorded
    alongside the sweep speedups so they are interpretable.
    """
    import multiprocessing

    one = _spin(seconds)
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:   # non-POSIX hosts
        context = multiprocessing.get_context()
    with context.Pool(procs) as pool:
        counts = pool.map(_spin, [seconds] * procs)
    return sum(counts) / one


def sweep_benchmark(workers: int = 4, repeats: int = 3) -> dict:
    """End-to-end sweep wall-clock: serial vs engine fan-out.

    Times a full fig3 mu=4 locality panel (30 trials per cell) and the
    fig5 Terasort grid at ``workers=1`` vs ``workers=N``; outputs are
    bit-identical by the engine's construction, so this isolates the
    executor.  Serial and parallel runs interleave (this container's
    timings swing ±2x minute to minute) and medians are reported, next
    to the measured aggregate-CPU ceiling.
    """
    out: dict = {"cpu_parallel_capacity": round(cpu_parallel_capacity(), 2)}
    for label, fn in {
        "fig3_mu4": lambda w: fig3.locality_panel(4, trials=30, workers=w),
        "fig5": lambda w: fig5.figure5(runs=8, workers=w),
    }.items():
        fn(workers)   # warm caches and the worker pool
        serial_times, parallel_times = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(1)
            serial_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            fn(workers)
            parallel_times.append(time.perf_counter() - start)
        serial = statistics.median(serial_times)
        parallel = statistics.median(parallel_times)
        out[label] = {
            "workers_1": round(serial, 3),
            f"workers_{workers}": round(parallel, 3),
            "speedup": round(serial / parallel, 2),
        }
    return out


def service_benchmark(datanodes: int = 6, duration: float = 10.0,
                      seed: int = 0) -> dict:
    """Storage-service read throughput, healthy and under a kill fault.

    Spins up a loopback cluster (in-process namenode + ``datanodes``
    daemon subprocesses), prefils a seeded working set under the
    pentagon code, and runs two ``repro load`` passes: a *healthy*
    baseline and a run with a seeded kill-one-datanode
    :class:`~repro.service.FaultPlan` firing mid-load.  Each pass
    records sustained read IOPS and latency percentiles split into
    normal and degraded (reconstruction) buckets, plus the faulted
    pass's repair tally and settle time — the service-level twin of the
    paper's degraded-read and repair-bandwidth story.  Reads are
    bit-verified; ``failed``/``mismatched`` should be 0.

    The 10 s window (after a discarded warmup) is what it takes for a
    stable IOPS figure on a small shared host: shorter passes are
    dominated by the checker's first full scrub and scheduler noise
    across the nine processes involved.
    """
    from repro.service import (
        ServiceCluster,
        StorageClient,
        parse_fault_plan,
        run_load,
    )

    def read_stats(report: dict) -> dict:
        reads = report["reads"]
        return {key: reads[key]
                for key in ("ops", "failed", "mismatched", "iops",
                            "latency_ms", "degraded_latency_ms")}

    out: dict = {"datanodes": datanodes, "code": "pentagon",
                 "duration_s": duration}
    def warm_up(cluster) -> None:
        """Discarded warmup: freshly spawned daemons finish their lazy
        imports and first-use table builds before the measured window
        opens (the cold-start penalty otherwise lands inside the
        measured pass and dominates run-to-run variance).  Whole-file
        reads touch every daemon; degraded probes on each stripe warm
        the combine path."""
        with StorageClient(cluster.address) as warm:
            info = warm.write_file("warmup", b"\xa5" * (4 * 65536),
                                   "pentagon")
            for _ in range(30):
                warm.read_file("warmup")
            for stripe in range(info["stripes"]):
                for _ in range(10):
                    warm.degraded_read("warmup", stripe)

    with ServiceCluster(datanodes, seed=seed) as cluster:
        warm_up(cluster)
        healthy = run_load(cluster.address, files=3,
                           file_bytes=4 * 65536, code_name="pentagon",
                           duration=duration, workers=2, seed=seed)
        out["healthy"] = read_stats(healthy)
    with ServiceCluster(datanodes, seed=seed) as cluster:
        warm_up(cluster)
        plan = parse_fault_plan(f"kill:random@t={duration / 3:.2f}",
                                seed=seed)
        wounded = run_load(cluster.address, files=3,
                           file_bytes=4 * 65536, code_name="pentagon",
                           duration=duration, workers=2, seed=seed,
                           fault_plan=plan)
        out["kill_one_datanode"] = {
            **read_stats(wounded),
            "faults": wounded["config"]["faults"],
            "repair": wounded["repair"],
        }
    return out


def ensure_backend_matches() -> None:
    """Refuse to run when the requested GF backend silently fell back.

    A concrete backend request (``--backend`` or ``$REPRO_GF_BACKEND``)
    that degrades would record e.g. numpy numbers labelled "native" in
    the BENCH JSON; exit nonzero instead of writing a snapshot that
    lies about its backend.
    """
    requested = gf_kernels.requested_backend()
    active = gf_kernels.active_backend()
    if requested != "auto" and active != requested:
        reason = gf_kernels.native_error() or "backend unavailable"
        print(f"error: gf backend {requested!r} requested but "
              f"{active!r} is active ({reason}); refusing to record "
              f"mislabelled numbers", file=sys.stderr)
        raise SystemExit(3)


def main(argv: list[str] | None = None) -> pathlib.Path:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tag", default="",
                        help="suffix for the output file name")
    parser.add_argument("--sections", nargs="+", choices=SECTIONS,
                        default=list(SECTIONS),
                        help="which snapshot sections to run")
    parser.add_argument("--backend", choices=gf_kernels.BACKEND_NAMES,
                        default=None,
                        help="force one GF kernel backend for the whole "
                             "run (default: auto-compare in the core "
                             "section)")
    args = parser.parse_args(argv)
    if args.backend is not None:
        gf_kernels.set_backend(args.backend)
    ensure_backend_matches()
    RESULTS_DIR.mkdir(exist_ok=True)
    record = snapshot(tuple(args.sections))
    suffix = f"_{args.tag}" if args.tag else ""
    path = RESULTS_DIR / f"BENCH_{record['date']}{suffix}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"[saved to {path}]")
    return path


if __name__ == "__main__":
    main()
