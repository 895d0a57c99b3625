"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro table1
    python -m repro table1 --mc-trials 600 --workers 4
    python -m repro fig3 --mu 4 --trials 30
    python -m repro fig4 --runs 10
    python -m repro fig5 --workers 4
    python -m repro repair
    python -m repro families --uber 1e-4 --workers 2
    python -m repro ablations
    python -m repro all

Parallel runs
-------------

Every subcommand accepts ``--workers N`` to fan the experiment's sweep
cells out over ``N`` local processes (``0`` means one per CPU; negative
counts are rejected).  When the flag is absent the ``REPRO_WORKERS``
environment variable is consulted; otherwise the sweep runs serially.
Results are **bit-identical for any worker count**: every cell
re-derives its random stream from ``stable_seed(experiment, cell,
trial)``, never from shared state (see
:mod:`repro.experiments.engine`).

Distributed runs
----------------

When one host is saturated, the same sweeps fan out across machines::

    # coordinator (any subcommand)
    python -m repro fig3 --mu 4 --distributed 0.0.0.0:7571

    # on each worker host
    python -m repro worker COORDINATOR:7571 --retries 30

``--distributed HOST:PORT`` starts a socket coordinator and blocks
until at least one ``repro worker`` connects; workers may join or die
at any point mid-sweep and the results are still bit-identical to a
serial run (see :mod:`repro.experiments.distributed`).

Storage service
---------------

The paper's codes can also be *served* by a long-lived daemon cluster
(:mod:`repro.service`)::

    # namenode + 6 datanode subprocesses on loopback (Ctrl-C stops)
    python -m repro serve --datanodes 6

    # read-load a cluster under a seeded fault plan; --strict makes a
    # failed/mismatched read or an undrained repair queue a nonzero exit
    python -m repro load --spin-up 6 --faults "kill:random@t=1" --strict

    # one extra datanode joining an already-running namenode
    python -m repro datanode --node-id 6 --namenode 127.0.0.1:7007

Static analysis
---------------

``repro lint`` runs the invariant checkers over the tree (determinism,
picklability, lock discipline, declared wire surface, typed errors;
see ``docs/linting.md``)::

    python -m repro lint                 # scan src/ benchmarks/ examples/
    python -m repro lint --format json   # machine-readable report
    python -m repro lint --format sarif  # SARIF 2.1.0 for code scanners
    python -m repro lint --changed       # only files touched vs HEAD
    python -m repro lint --emit-schema   # (re)generate docs/wire_schema.json
    python -m repro lint src/repro/service --checker locks

Exit status is nonzero when any unwaived finding remains — CI runs it
as a hard gate, plus a drift check that ``docs/wire_schema.json``
matches the op tables declared in ``service/protocol.py``.

Imports
-------

Each handler imports what it runs, and :func:`build_parser` imports
no experiment module.  So ``repro datanode``, one per daemon
:class:`~repro.service.ServiceCluster` spawns, loads neither numpy,
scipy, the coding stack nor the sweep engine, and ``repro lint``
loads no numpy.
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def run_lint_cmd(args: argparse.Namespace) -> None:
    # analysis/ imports no numpy, so `repro lint` loads neither numpy
    # nor the experiment stack
    from . import analysis

    if args.rules:
        for name, checker in sorted(analysis.registered_checkers().items()):
            print(f"{name}:")
            for rule, description in sorted(checker.rules.items()):
                print(f"  {rule}: {description}")
        return
    from .analysis import core as analysis_core

    root = analysis_core.default_root()
    if args.emit_schema is not None:
        from .analysis import schema as analysis_schema
        target = (pathlib.Path(args.emit_schema) if args.emit_schema
                  else root / analysis_schema.ARTIFACT_REL)
        project = analysis_core.Project(
            root, analysis_core.default_scan_paths(root))
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            analysis_schema.render_wire_schema(
                analysis_schema.derive_wire_schema(project)))
        print(f"wrote {target}")
        return
    paths = args.paths or None
    context = None
    if args.changed is not None:
        try:
            base = args.changed if args.changed != "HEAD" else None
            changed = analysis.changed_paths(root, base=base)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
        # Findings are scoped to the changed files, but cross-file
        # checkers (declared wire surface) still need the whole
        # tree in view — pass the default scan roots as read-only
        # context.  Changed test files stay context-only, as always.
        scan_roots = analysis_core.default_scan_paths(root)
        paths = [p for p in changed
                 if any(p == base_dir or base_dir in p.parents
                        for base_dir in scan_roots)]
        if not paths:
            print("no changed python files in the scanned trees; "
                  "nothing to lint")
            return
        context = list(scan_roots)
        tests = root / "tests"
        if tests.is_dir():
            context.append(tests)
    try:
        report = analysis.run_lint(
            paths=paths,
            checkers=args.checker or None,
            context_paths=context)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    fmt = args.format or ("json" if args.json else "text")
    if fmt == "json":
        print(report.to_json())
    elif fmt == "sarif":
        print(report.to_sarif())
    else:
        print(report.format_text())
    if not report.ok():
        raise SystemExit(1)


def _print_checks(checks: dict[str, bool]) -> None:
    for name, ok in checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")


def run_table1(args: argparse.Namespace) -> None:
    from .experiments import render_table, table1

    result = table1.build_table1(workers=args.workers)
    print(render_table(table1.Table1Result.HEADERS, result.as_rows(),
                       title="Table 1 (25-node system, calibrated)"))
    mttf = result.params.node_mttf_hours / 8766.0
    print(f"\ncalibrated node MTTF: {mttf:.1f} years "
          f"(MTTR {result.params.node_mttr_hours:.0f} h)")
    _print_checks(table1.shape_checks(result))
    if getattr(args, "mc_trials", 0):
        rows = table1.monte_carlo_validation(trials=args.mc_trials,
                                             workers=args.workers)
        print()
        print(render_table(table1.MC_HEADERS, [r.as_list() for r in rows],
                           title="Monte-Carlo validation (accelerated rates)"))
        _print_checks(table1.mc_shape_checks(rows))


def run_fig3(args: argparse.Namespace) -> None:
    from .experiments import fig3, render_figure

    if args.mu:
        panels = {f"mu={args.mu}": fig3.locality_panel(
            args.mu, trials=args.trials, workers=args.workers)}
    else:
        panels = fig3.full_figure(trials=args.trials, workers=args.workers)
    for name, panel in panels.items():
        print(f"\n=== Fig. 3 {name} ===")
        print(render_figure(panel))


def run_fig4(args: argparse.Namespace) -> None:
    from .experiments import fig4, render_figure

    panels = fig4.figure4(runs=args.runs, workers=args.workers)
    for name in ("job_time", "traffic", "locality"):
        print(f"\n=== Fig. 4 {name} ===")
        print(render_figure(panels[name]))
    _print_checks(fig4.shape_checks(panels))


def run_fig5(args: argparse.Namespace) -> None:
    from .experiments import fig5, render_figure

    panels = fig5.figure5(runs=args.runs, workers=args.workers)
    for name in ("traffic", "locality"):
        print(f"\n=== Fig. 5 {name} ===")
        print(render_figure(panels[name]))
    _print_checks(fig5.shape_checks(panels))


def run_repair(args: argparse.Namespace) -> None:
    from .experiments import render_table, repair_bandwidth

    measurements = repair_bandwidth.measure_all(workers=args.workers)
    print(render_table(repair_bandwidth.HEADERS,
                       [m.as_list() for m in measurements],
                       title="Repair / degraded-read bandwidth (blocks)"))
    _print_checks(repair_bandwidth.shape_checks(measurements))


def run_families(args: argparse.Namespace) -> None:
    from .experiments import families, render_table

    result = families.build_families(
        codes=tuple(args.codes) if args.codes else families.FAMILY_CODES,
        node_count=(families.NODE_COUNT if args.node_count is None
                    else args.node_count),
        uber_block_prob=(families.DEFAULT_UBER if args.uber is None
                         else args.uber),
        workers=args.workers)
    print(render_table(
        families.FamiliesResult.HEADERS, result.as_rows(),
        title=(f"Polygon-local families ({result.node_count}-node system, "
               f"UBER {result.uber_block_prob:g}/block)")))
    mttf = result.params.node_mttf_hours / 8766.0
    print(f"\ncalibrated node MTTF: {mttf:.1f} years "
          f"(MTTR {result.params.node_mttr_hours:.0f} h)")
    _print_checks(families.shape_checks(result))


def run_ablations(args: argparse.Namespace) -> None:
    from .experiments import ablations, render_figure, render_table

    print(render_figure(ablations.delay_sensitivity(trials=args.trials,
                                                    workers=args.workers)))
    print()
    print(render_figure(ablations.slots_crossover(trials=args.trials,
                                                  workers=args.workers)))
    print()
    rows = ablations.degraded_job_sweep(workers=args.workers)
    print(render_table(list(rows[0].keys()), [list(r.values()) for r in rows],
                       title="Degraded MapReduce traffic"))
    print()
    for code in ("pentagon", "heptagon-local", "rs(14,10)"):
        stats = ablations.encoding_throughput(code, block_bytes=1 << 18)
        print(f"encode {code:14s} {stats['encode_mb_s']:8.0f} MB/s   "
              f"decode {stats['decode_mb_s']:8.0f} MB/s")


def run_serve(args: argparse.Namespace) -> None:
    from .service import ServiceCluster

    with ServiceCluster(args.datanodes, block_bytes=args.block_bytes,
                        seed=args.seed,
                        silence_timeout=args.silence_timeout,
                        check_period=args.check_period,
                        racks=args.racks) as cluster:
        host, port = cluster.address
        print(f"[serve] namenode on {host}:{port} with "
              f"{args.datanodes} datanode(s), checker every "
              f"{args.check_period:g}s", flush=True)
        print(f"[serve] drive it with: python -m repro load {host}:{port}",
              flush=True)
        try:
            while not cluster.namenode._closed.wait(0.5):
                pass
            print("[serve] shutdown requested", flush=True)
        except KeyboardInterrupt:
            print("[serve] interrupted, shutting down", flush=True)


def run_datanode_cmd(args: argparse.Namespace) -> None:
    from .net import parse_hostport
    from .service import run_datanode

    host, port = parse_hostport(args.namenode)
    run_datanode(
        args.node_id, (host, port), host=args.host, port=args.port,
        heartbeat_interval=args.heartbeat_interval,
        fault_seed=args.fault_seed, connect_retries=args.connect_retries,
        log=lambda message: print(f"[datanode] {message}", flush=True))


def run_load_cmd(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from .net import parse_hostport
    from .service import ServiceCluster, parse_fault_plan, run_load

    plan = (parse_fault_plan(args.faults, seed=args.seed)
            if args.faults else None)
    emit = (lambda message: print(f"[load] {message}", flush=True))
    kwargs = dict(files=args.files, file_bytes=args.file_bytes,
                  code_name=args.code, duration=args.duration,
                  workers=args.load_workers, seed=args.seed,
                  fault_plan=plan, settle_timeout=args.settle_timeout,
                  log=emit)
    if args.spin_up:
        with ServiceCluster(args.spin_up, seed=args.seed,
                            block_bytes=args.block_bytes,
                            racks=args.racks) as cluster:
            result = run_load(cluster.address, **kwargs)
    else:
        if not args.address:
            print("error: give a namenode HOST:PORT or --spin-up N",
                  file=sys.stderr)
            raise SystemExit(2)
        result = run_load(parse_hostport(args.address), **kwargs)
    reads = result["reads"]
    repair = result["repair"]
    print(f"[load] {reads['ops']} reads @ {reads['iops']} IOPS | "
          f"failed {reads['failed']} mismatched {reads['mismatched']} | "
          f"repairs {repair['done']} "
          f"({'settled' if repair['settled'] else 'NOT settled'})",
          flush=True)
    for bucket in ("latency_ms", "degraded_latency_ms"):
        stats = reads[bucket]
        if stats:
            print(f"[load] {bucket.replace('_', ' ')[:-3]}: "
                  f"p50 {stats['p50']} p90 {stats['p90']} "
                  f"p99 {stats['p99']} (n={stats['n']})", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2,
                                              sort_keys=True) + "\n")
        print(f"[load] wrote {args.json}", flush=True)
    if args.strict and (reads["failed"] or reads["mismatched"]
                        or not repair["settled"] or repair["lost"]):
        print("[load] STRICT: failures above — exiting nonzero",
              file=sys.stderr, flush=True)
        raise SystemExit(1)


def run_worker_cmd(args: argparse.Namespace) -> None:
    from .experiments.distributed import run_worker
    from .net import ProtocolError, parse_hostport

    host, port = parse_hostport(args.address)
    try:
        units = run_worker(
            host, port,
            heartbeat_interval=args.heartbeat,
            reconnect_attempts=args.retries,
            log=lambda message: print(f"[worker] {message}", flush=True),
        )
    except (ConnectionError, OSError, ProtocolError) as exc:
        print(f"[worker] giving up on {host}:{port}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr, flush=True)
        raise SystemExit(1) from None
    print(f"[worker] done: served {units} unit(s)", flush=True)


def run_all(args: argparse.Namespace) -> None:
    run_table1(args)
    run_fig3(args)
    run_fig4(args)
    run_fig5(args)
    run_repair(args)
    run_ablations(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workers(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=_worker_count, default=None, metavar="N",
            help="fan sweep cells out over N local processes (0: one per "
                 "CPU; default: $REPRO_WORKERS or serial); results are "
                 "bit-identical for any worker count")
        p.add_argument(
            "--distributed", type=_hostport, default=None,
            metavar="HOST:PORT",
            help="coordinate the sweep over remote `repro worker "
                 "HOST:PORT` processes instead of local ones (port 0 "
                 "picks a free port); results stay bit-identical")

    p_table1 = sub.add_parser("table1",
                              help="storage overhead / length / MTTDL")
    p_table1.add_argument("--mc-trials", type=int, default=0,
                          help="also validate the MTTDL chains by "
                               "Monte-Carlo with this many trials")
    add_workers(p_table1)

    p_fig3 = sub.add_parser("fig3", help="locality vs load panels")
    p_fig3.add_argument("--mu", type=int, default=None,
                        help="map slots per node (default: all panels)")
    p_fig3.add_argument("--trials", type=int, default=30)
    add_workers(p_fig3)

    p_fig4 = sub.add_parser("fig4", help="Terasort on set-up 1")
    p_fig4.add_argument("--runs", type=int, default=10)
    add_workers(p_fig4)

    p_fig5 = sub.add_parser("fig5", help="Terasort on set-up 2")
    p_fig5.add_argument("--runs", type=int, default=10)
    add_workers(p_fig5)

    p_repair = sub.add_parser("repair", help="repair-bandwidth measurements")
    add_workers(p_repair)

    p_families = sub.add_parser(
        "families", help="polygon-local family sweep (2- and 3-group "
                         "variants, MTTDL with and without UBER)")
    # Defaults are filled in by run_families, so the parser never
    # imports the experiment stack; the help names the constants.
    p_families.add_argument(
        "--codes", nargs="+", default=None, metavar="NAME",
        help="registry names to sweep (default: families.FAMILY_CODES)")
    p_families.add_argument("--uber", type=float, default=None,
                            help="per-block unrecoverable-read "
                                 "probability (default: "
                                 "families.DEFAULT_UBER)")
    p_families.add_argument("--node-count", type=int, default=None,
                            help="system size in nodes (default: "
                                 "families.NODE_COUNT)")
    add_workers(p_families)

    p_ablate = sub.add_parser("ablations", help="design-knob sweeps")
    p_ablate.add_argument("--trials", type=int, default=20)
    add_workers(p_ablate)

    p_all = sub.add_parser("all", help="everything")
    p_all.add_argument("--trials", type=int, default=20)
    p_all.add_argument("--runs", type=int, default=8)
    p_all.add_argument("--mu", type=int, default=None)
    p_all.add_argument("--mc-trials", type=int, default=0)
    add_workers(p_all)

    p_serve = sub.add_parser(
        "serve", help="run a storage service (namenode + datanode "
                      "subprocesses) until interrupted")
    p_serve.add_argument("--datanodes", type=int, default=6, metavar="N",
                         help="datanode subprocesses (default %(default)s)")
    p_serve.add_argument("--block-bytes", type=int, default=65536)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--silence-timeout", type=float, default=5.0,
                         help="heartbeat silence before a datanode is "
                              "declared dead (default %(default)ss)")
    p_serve.add_argument("--check-period", type=float, default=2.0,
                         help="checker/repairer sweep period "
                              "(default %(default)ss)")
    p_serve.add_argument("--racks", type=_racks, default=None,
                         metavar="N,N,...",
                         help="rack sizes summing to --datanodes (e.g. "
                              "2,2,2); stripes are placed rack-aware so "
                              "one rack loss stays within code tolerance")

    p_dn = sub.add_parser(
        "datanode", help="run one storage datanode daemon")
    p_dn.add_argument("--node-id", type=int, required=True)
    p_dn.add_argument("--namenode", type=_hostport, required=True,
                      metavar="HOST:PORT")
    p_dn.add_argument("--host", default="127.0.0.1")
    p_dn.add_argument("--port", type=int, default=0)
    p_dn.add_argument("--heartbeat-interval", type=float, default=1.0)
    p_dn.add_argument("--fault-seed", type=int, default=0)
    p_dn.add_argument("--connect-retries", type=int, default=60,
                      help="namenode reconnect budget before the daemon "
                           "gives up (default %(default)s)")

    p_load = sub.add_parser(
        "load", help="drive a storage service: prefill, optional fault "
                     "plan, sustained reads, repair settle")
    p_load.add_argument("address", nargs="?", default=None,
                        type=_hostport, metavar="HOST:PORT",
                        help="namenode address (omit with --spin-up)")
    p_load.add_argument("--spin-up", type=int, default=0, metavar="N",
                        help="spin up a fresh N-datanode cluster for the "
                             "run instead of targeting a running one")
    p_load.add_argument("--files", type=int, default=4)
    p_load.add_argument("--file-bytes", type=int, default=4 * 65536)
    p_load.add_argument("--block-bytes", type=int, default=65536,
                        help="block size for --spin-up clusters")
    p_load.add_argument("--racks", type=_racks, default=None,
                        metavar="N,N,...",
                        help="rack sizes for --spin-up clusters (rack-"
                             "aware stripe placement)")
    p_load.add_argument("--code", default="pentagon")
    p_load.add_argument("--duration", type=float, default=5.0,
                        help="read-load duration in seconds")
    p_load.add_argument("--load-workers", type=int, default=2,
                        help="reader threads (default %(default)s)")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--faults", default=None, metavar="PLAN",
                        help="fault plan, e.g. 'kill:random@t=1;"
                             "slow:dn0@k=5,delay=0.1' (seeded by --seed)")
    p_load.add_argument("--settle-timeout", type=float, default=60.0,
                        help="max wait for the repair queue to drain")
    p_load.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full report as JSON")
    p_load.add_argument("--strict", action="store_true",
                        help="exit nonzero on any failed/mismatched read, "
                             "lost stripe, or undrained repair queue")

    p_lint = sub.add_parser(
        "lint", help="run the invariant static-analysis suite "
                     "(determinism, picklability, locks, declared wire "
                     "surface, typed errors)")
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to scan (default: the repo's src/, "
             "benchmarks/ and examples/ trees)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the report as JSON on stdout "
                             "(alias for --format json)")
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default=None,
        help="report format (default: text; sarif emits SARIF 2.1.0 "
             "for code-scanning uploads)")
    p_lint.add_argument(
        "--changed", nargs="?", const="HEAD", default=None,
        metavar="REF",
        help="scan only python files changed versus REF "
             "(default REF: HEAD, i.e. uncommitted + untracked work)")
    p_lint.add_argument(
        "--emit-schema", nargs="?", const="", default=None,
        metavar="PATH",
        help="render the declared op and frame tables as the wire "
             "schema, write it to PATH (default: docs/wire_schema.json) "
             "and exit")
    p_lint.add_argument("--rules", action="store_true",
                        help="list every checker and rule, then exit")
    p_lint.add_argument(
        "--checker", action="append", default=None, metavar="NAME",
        help="run only this checker (repeatable; default: all)")

    p_worker = sub.add_parser(
        "worker", help="serve sweep units to a distributed coordinator")
    p_worker.add_argument(
        "address", type=_hostport, metavar="HOST:PORT",
        help="coordinator address (the `--distributed` value of the "
             "driving subcommand)")
    p_worker.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a refused or lost connection up to N times, 1s "
             "apart (lets workers start before their coordinator)")
    p_worker.add_argument(
        "--heartbeat", type=_heartbeat_interval, default=2.0,
        metavar="SECONDS",
        help="heartbeat interval while computing a unit")
    return parser


HANDLERS = {
    "table1": run_table1,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "repair": run_repair,
    "families": run_families,
    "ablations": run_ablations,
    "all": run_all,
    "worker": run_worker_cmd,
    "serve": run_serve,
    "datanode": run_datanode_cmd,
    "load": run_load_cmd,
    "lint": run_lint_cmd,
}


def _worker_count(text: str) -> int:
    """argparse type for ``--workers``, aligned with ``resolve_workers``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer worker count") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            "worker count must be >= 0 (0 means one per CPU)")
    return value


def _hostport(text: str) -> str:
    """argparse type validating HOST:PORT addresses (kept as a string)."""
    from .net import parse_hostport

    try:
        parse_hostport(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _racks(text: str) -> list[int]:
    """argparse type for comma-separated rack sizes, e.g. ``2,2,2``."""
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of rack sizes"
        ) from None
    if not sizes or any(size < 1 for size in sizes):
        raise argparse.ArgumentTypeError("rack sizes must be positive")
    return sizes


def _heartbeat_interval(text: str) -> float:
    """argparse type for ``--heartbeat``: must fit the coordinator's
    silence budget, or every long unit would be declared hung and
    requeued forever."""
    from .experiments.distributed import HEARTBEAT_TIMEOUT

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a number of seconds") from None
    if not 0 < value < HEARTBEAT_TIMEOUT:
        raise argparse.ArgumentTypeError(
            f"heartbeat interval must be in (0, {HEARTBEAT_TIMEOUT:.0f}) "
            "seconds — the coordinator drops a connection silent for "
            f"{HEARTBEAT_TIMEOUT:.0f}s")
    return value


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = HANDLERS[args.command]
    address = getattr(args, "distributed", None)
    if address is None:
        handler(args)
        return 0
    if args.workers is not None:
        print("error: --workers and --distributed are mutually exclusive",
              file=sys.stderr)
        return 2
    from .experiments.distributed import DistributedExecutor
    from .net import parse_hostport

    host, port = parse_hostport(address)
    with DistributedExecutor(host, port) as executor:
        bound_host, bound_port = executor.address
        print(f"[distributed] coordinator on {bound_host}:{bound_port}; "
              f"start workers with: python -m repro worker "
              f"{bound_host}:{bound_port}", flush=True)
        executor.wait_for_workers(1)
        print(f"[distributed] {executor.worker_count} worker(s) connected",
              flush=True)
        # Experiment builders thread their ``workers`` argument straight
        # into run_cells, which accepts an Executor in its place.
        args.workers = executor
        handler(args)
    return 0


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
