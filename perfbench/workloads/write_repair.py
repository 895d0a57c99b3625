"""``svc_write_repair``: write, lose a datanode, repair, read back.

The service layers used the other way round from the read workloads.
On a fresh production-default cluster one client writes
``16 * --seconds`` files of two pentagon stripes each (1.125 MiB): per
stripe a client-side ``Code.encode``, a ``place-stripe`` RPC and 20
outbound 64 KiB ``put`` frames, then a two-phase commit.  Then one
datanode, chosen by the seed, is SIGKILLed through the service's own
fault plan (``kill:random@t=0``) and the harness polls
``ServiceCluster.status()`` every 20 ms until the namenode's checker has
noticed, repaired every affected stripe onto the spare node and gone
quiet.  Finally every file is read back once — the cold stat-cache case
— and compared with what was written; ``ops_per_s`` is the rate of these
whole-file reads.

Repair is timed from the polls alone: ``wait_settled``'s default and
``run_load``'s ``settle_s`` both floor at ``silence_timeout + 2 *
check_period`` (9.0 s) whatever the repair work was.  Its rate
(``repair_stripes_per_s``) is a per-layer figure, not a gate: it is one
~0.7 s event per run whose blocks land in memory the spare datanode has
never touched, and on the reference microVM a first touch costs 2 or
8-25 us per page depending on whether the host still backs the page
(README, "Noise") — 400 stripes/s in one run, 260 in the next.
"""

from __future__ import annotations

import statistics
import time

import repro.service.client as client_module
from repro.core import make_code
from repro.service import ServiceCluster, StorageClient, parse_fault_plan
from repro.service.load import file_payload
from repro.service.protocol import ServiceError

from .. import layers, procstat
from ..metrics import Outcome
from ..spans import Recorder, median_us
from ..spans import summarise as summarise_spans
from . import set_up

CODE = "pentagon"
DATANODES = 6
BLOCK_BYTES = 65536
STRIPES_PER_FILE = 2
#: Files written per second of ``--seconds``.
FILES_PER_SECOND = 16
#: Consecutive writes (or read-backs) per latency / CPU / rate window
#: (README, "Noise").
WINDOW_FILES = 10
SETUP_REPS = 2
#: Status poll period: while waiting for the checker to notice, and
#: while repairs are landing (finer, so the ~0.7 s of repair work is
#: timed to about a per cent).
POLL_S = 0.020
POLL_REPAIRING_S = 0.004
SETTLE_TIMEOUT_S = 90.0

EMITS = (
    "client.write_self_us", "client.puts_per_stripe", "client.retries",
    "datanode.put_us", "namenode.place_stripe_us",
    "namenode.begin_commit_us",
    "repair.detect_s", "repair.first_done_s", "repair.work_s",
    "repair.stripes_done", "repair.failed", "verify.read_mb_per_s",
    "budget.write_sum_us", "budget.write_residual_frac",
    "trace.overhead_frac",
    "write_mb_per_s", "repair_stripes_per_s", "storage_overhead")


def _fresh_cluster(seed: int) -> ServiceCluster:
    """Spawn and warm a cluster: every daemon has served a put, a get
    and a combine (so has loaded the GF kernel) before anything is
    timed."""
    cluster = ServiceCluster(DATANODES, block_bytes=BLOCK_BYTES, seed=seed)
    try:
        with cluster.client() as client:
            for index in range(3):
                name = f"warmup-{index}"
                info = client.write_file(
                    name, file_payload(seed, 10_000 + index, _file_bytes()),
                    CODE)
                client.read_file(name)
                for stripe in range(info["stripes"]):
                    client.degraded_read(name, stripe)
    except BaseException:
        cluster.close()
        raise
    return cluster


def _file_bytes() -> int:
    return STRIPES_PER_FILE * make_code(CODE).k * BLOCK_BYTES


def _quiet(status: dict) -> bool:
    """Nothing left for the checker to notice or repair."""
    repair = status["repair"]
    return not (repair["queued"] or repair["in_progress"]
                or repair["damaged_stripes"] or repair["degraded_stripes"])


def _kill_and_repair(cluster: ServiceCluster, plan) -> dict:
    """Arm ``plan`` (a kill at t=0); poll status until repaired.
    Returns the timeline (seconds from the kill) and the final status."""
    before = cluster.status()["repair"]
    killed_at = time.perf_counter()
    cluster.arm_faults(plan)
    polls: list[tuple[float, int]] = []      # (t, repairs done so far)
    detect = first_done = None
    status = cluster.status()
    deadline = killed_at + SETTLE_TIMEOUT_S
    while time.perf_counter() < deadline:
        now = time.perf_counter() - killed_at
        done = status["repair"]["done"] - before["done"]
        quiet = _quiet(status)
        if detect is None and not quiet:
            detect = now
        if done > 0:
            if first_done is None:
                first_done = now
            polls.append((now, done))
        if detect is not None and quiet:
            break
        time.sleep(POLL_S if detect is None else POLL_REPAIRING_S)
        status = cluster.status()
    return {"detect_s": detect, "first_done_s": first_done, "polls": polls,
            "settled": detect is not None and _quiet(status),
            "status": status,
            "failed": status["repair"]["failed"] - before["failed"]}


def run(ctx) -> Outcome:
    outcome = Outcome()
    smoke = ctx.smoke
    per_window = 4 if smoke else WINDOW_FILES
    files = 8 if smoke else max(per_window * 4,
                                int(FILES_PER_SECOND * ctx.seconds))
    if ctx.trace and not smoke:
        files = max(per_window * 4, files // 3)
    reps = 1 if smoke else SETUP_REPS
    size = _file_bytes()
    code = make_code(CODE)

    cluster, builds = set_up(lambda: _fresh_cluster(ctx.seed), reps,
                             close=ServiceCluster.close)
    setup_s = ctx.import_s + statistics.median(builds)
    recorder = Recorder()
    client = cluster.client()
    try:
        names = [f"file-{index:05d}" for index in range(files)]
        payloads = [file_payload(ctx.seed, index, size)
                    for index in range(files)]
        probes: dict = {}
        if ctx.trace:
            repeats = 40 if smoke else 300
            probes.update(layers.datanode_probes(
                cluster.address, ["warmup-0", "warmup-1", "warmup-2"], code,
                repeats))
            probes.update(layers.namenode_probes(
                cluster.address, "warmup-0", repeats))

        # Phase 1: writes, one client, back to back.
        traced_from = files // 2 if ctx.trace else files
        latencies: list[float] = []
        daemons = procstat.descendants()
        cpu_marks = [procstat.cpu_seconds(daemons)]
        failed_writes = 0
        write_started = time.perf_counter()
        for index, (name, payload) in enumerate(zip(names, payloads)):
            if index == traced_from:
                recorder.install(StorageClient, "write_file",
                                 "client.write_file")
                recorder.install(type(code), "encode", "core.encode")
                recorder.install(client_module, "call", "rpc.",
                                 namer=lambda sock, kind, data: kind)
            started = time.perf_counter()
            try:
                client.write_file(name, payload, CODE)
            except ServiceError:
                failed_writes += 1
            latencies.append(time.perf_counter() - started)
            if (index + 1) % per_window == 0:
                cpu_marks.append(procstat.cpu_seconds(daemons))
        write_wall = time.perf_counter() - write_started
        recorder.uninstall()

        # Storage: what the datanodes themselves say they hold.  (The
        # namenode's heartbeat block counts lag by up to a beat.)
        status = cluster.status()
        user_bytes = (files + 3) * size          # + the warm-up files
        overhead = layers.stored_bytes(status) / user_bytes

        # Phase 2: kill one datanode, repair from status polls.
        plan = parse_fault_plan("kill:random@t=0", seed=ctx.seed)
        victim = next(iter(plan.resolve(range(DATANODES))))
        with cluster.client() as reader:
            expected_repairs = sum(
                victim in stripe for name in reader.list_files()
                for stripe in reader.stat(name)["stripes"])
        repair = _kill_and_repair(cluster, plan)
        # Pure repair work, no timers: stripes finished between the
        # first poll that saw one done and the poll that saw the last.
        polls = repair["polls"]
        done = polls[-1][1] if polls else 0
        last = next((t for t, count in polls if count == done), 0.0)
        work_s = last - polls[0][0] if polls else 0.0

        # Phase 3: cold read-back of everything.
        mismatched = 0
        read_s: list[float] = []
        with cluster.client() as reader:
            for name, payload in zip(names, payloads):
                started = time.perf_counter()
                try:
                    data = reader.read_file(name)
                except ServiceError:
                    data = None
                read_s.append(time.perf_counter() - started)
                if data != payload:         # compared off the clock
                    mismatched += 1
        read_wall = sum(read_s)
        rss = procstat.tree_peak_rss_mib()

        outcome.attempted = files + expected_repairs + files
        outcome.failed = (failed_writes + repair["failed"]
                          + len(repair["status"]["repair"]["lost"])
                          + mismatched)
        outcome.checks["repair settled before the timeout"] = (
            repair["settled"])
        outcome.checks[
            f"every stripe on the dead node repaired ({done} of "
            f"{expected_repairs})"] = done == expected_repairs
        outcome.checks[
            f"stored bytes / user bytes is {code.storage_overhead:.4f}"] = (
            abs(overhead - code.storage_overhead) < 1e-9)

        window_p50 = [statistics.median(
            latencies[start:start + per_window]) * 1e3
            for start in range(0, files - per_window + 1, per_window)]
        window_cpu = [(b - a) * 1e3 / per_window
                      for a, b in zip(cpu_marks, cpu_marks[1:])]
        window_reads = [per_window / sum(read_s[start:start + per_window])
                        for start in range(0, files - per_window + 1,
                                           per_window)]
        mib = files * size / 2**20
        outcome.put("setup_s", setup_s, n=reps)
        outcome.put_best("op_p50_ms", window_p50, min)
        outcome.put_best("cpu_ms_per_op", window_cpu, min)
        outcome.put_best("ops_per_s", window_reads, max)
        outcome.put("peak_rss_mb", rss)
        if ctx.trace:
            outcome.put("write_mb_per_s", mib / write_wall)
            outcome.put("repair_stripes_per_s",
                        (done - polls[0][1]) / work_s if work_s > 0 else 0.0,
                        n=done)
            outcome.put("storage_overhead", overhead)
            outcome.put("repair.detect_s", repair["detect_s"] or 0.0)
            outcome.put("repair.first_done_s", repair["first_done_s"] or 0.0)
            outcome.put("repair.work_s", work_s)
            outcome.put("repair.stripes_done", done)
            outcome.put("repair.failed", repair["failed"])
            outcome.put("verify.read_mb_per_s", mib / read_wall, n=files)
            _traced_metrics(outcome, recorder, probes, latencies,
                            traced_from, client)
            if ctx.spans_path:
                recorder.dump(ctx.spans_path)
        outcome.config = {
            "code": CODE, "datanodes": DATANODES, "block_bytes": BLOCK_BYTES,
            "files": files, "file_bytes": size, "stripes": status["stripes"],
            "victim": victim, "expected_repairs": expected_repairs,
            "repair_detect_s": repair["detect_s"],
            "repair_first_done_s": repair["first_done_s"],
            "repair_work_s": work_s,
            "window_cpu_ms_per_op": window_cpu,
            "write_mb_per_s": mib / write_wall,
            "read_back_mb_per_s": mib / read_wall,
            "storage_overhead": overhead,
            "window_op_p50_ms": window_p50,
            "window_read_back_per_s": window_reads,
            "setup_builds_s": builds, "import_s": ctx.import_s}
    finally:
        recorder.uninstall()
        client.close()
        cluster.close()
    return outcome


def _traced_metrics(outcome: Outcome, recorder: Recorder, probes: dict,
                    latencies: list[float], traced_from: int,
                    client: StorageClient) -> None:
    view = summarise_spans(recorder.spans, "client.write_file")
    per_op = view["per_op"]
    op_p50 = median_us(view["op_us"])
    # the client's own work: the root's self time plus its encodes
    own = (median_us(view["self_us"]) + per_op.get("core.encode", 0.0)
           * median_us(view["child_self_us"].get("core.encode")))
    outcome.put("client.write_self_us", own, n=view["ops"])
    outcome.put("client.puts_per_stripe",
                per_op.get("rpc.put", 0.0) / STRIPES_PER_FILE, n=view["ops"])
    outcome.put("client.retries", client.counters["retries"])
    for name in ("datanode.put_us", "namenode.place_stripe_us",
                 "namenode.begin_commit_us"):
        outcome.metrics[name] = probes[name]
    total = (own
             + per_op.get("rpc.put", 0.0) * probes["datanode.put_us"].value
             + per_op.get("rpc.place-stripe", 0.0)
             * probes["namenode.place_stripe_us"].value
             + probes["namenode.begin_commit_us"].value)
    outcome.put("budget.write_sum_us", total)
    outcome.put("budget.write_residual_frac", (op_p50 - total) / op_p50)
    plain = statistics.median(latencies[:traced_from])
    traced = statistics.median(latencies[traced_from:])
    outcome.put("trace.overhead_frac", traced / plain - 1.0,
                n=len(latencies) - traced_from)
