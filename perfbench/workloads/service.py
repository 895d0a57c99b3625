"""``svc_read`` and ``svc_degraded``: block reads against a live cluster.

One shape, two operations.  A production-default ``ServiceCluster(6)``
(64 KiB blocks, 5 s silence timeout, 2 s checker period) is prefilled
with a seeded working set under the pentagon code and warmed; then

* an **open loop** sends Poisson arrivals at a fixed rate for half of
  ``--seconds`` (latency from the due time), and
* a **closed loop** of one client performs a fixed number of reads
  sized to take the other half.

One client and one sender thread drive both: the whole process tree is
pinned to one CPU, where a second sender adds no load the first cannot
and makes every figure depend on which thread holds the GIL (open-loop
window medians read 1.28-1.63 ms with two senders and 1.24-1.37 ms with
one, on the same cluster in the same minute).

``svc_read`` calls ``StorageClient.read_block`` (one ``get`` RPC, no GF
arithmetic); ``svc_degraded`` calls ``StorageClient.degraded_read``
(three pipelined ``combine`` RPCs and a client-side combine) — inherent
double replication means one dead node never forces reconstruction, so
it is forced.  Every read is compared with the seeded payload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

import repro.service.client as client_module
from repro.core import SymbolKind, make_code
from repro.service import ServiceCluster, StorageClient
from repro.service.load import file_name, file_payload
from repro.service.namenode import NameNodeServer
from repro.service.protocol import ReadFailedError, ServiceUnavailableError

from .. import layers, procstat
from ..loadgen import (LoadResult, merge, poisson_schedule,
                       run_closed_loop, run_open_loop, window_medians,
                       window_rates)
from ..metrics import Outcome, layer_names
from ..spans import Recorder, median_us
from ..spans import summarise as summarise_spans
from ..stats import tail
from . import set_up

CODE = "pentagon"
DATANODES = 6
BLOCK_BYTES = 65536
FILES, STRIPES = 24, 4

#: Fixed open-loop arrival rate, requests per second.
OPEN_RATE = {"svc_read": 1200.0, "svc_degraded": 300.0}
#: Closed-loop reads per second of ``--seconds`` (about half of what one
#: client sustains on the reference container, so the phase takes about
#: half the run).
CLOSED_PER_SECOND = {"svc_read": 2000, "svc_degraded": 400}

#: Sender threads, each with its own client (module docstring).
SENDERS = 1
#: Measurement rounds per run (an open-loop and a closed-loop slice
#: each); the process tree's CPU is sampled once per round.
ROUNDS = 16
#: Operations per latency / throughput window (README, "Noise").
WINDOW_OPS = 100
#: Cluster set-ups per run (a pinned spawn + prefill + warm-up is ~4.5 s,
#: and the driver's runs share one time budget).
SETUP_REPS = 2
#: A read later than this after its due time misses the latency limit.
LATENCY_LIMIT_S = 0.010

FAILURES = (ReadFailedError, ServiceUnavailableError)

EMITS = {
    "svc_read": layer_names("loadgen", "net") + (
        "client.op_us", "client.self_us", "client.stat_rpc_per_op",
        "client.dn_rpc_per_op", "client.retries", "client.replans",
        "datanode.get_us", "datanode.put_us", "datanode.combine_us",
        "datanode.checksums_ms", "datanode.get_residual_us",
        "blockstore.get_verify_us", "blockstore.put_us",
        "namenode.stat_us", "namenode.status_us",
        "namenode.place_stripe_us", "namenode.begin_commit_us",
        "budget.read_sum_us", "budget.read_residual_frac",
        "trace.overhead_frac", "storage_overhead"),
    "svc_degraded": layer_names("loadgen") + (
        "client.op_us", "client.self_us", "client.stat_rpc_per_op",
        "client.dn_rpc_per_op", "client.retries", "client.replans",
        "datanode.combine_us", "gf.combine_mul_64k_us",
        "core.plan_read.pentagon_us",
        "budget.degraded_sum_us", "budget.degraded_residual_frac",
        "trace.overhead_frac", "storage_overhead"),
}


class Bed:
    """A live cluster holding a seeded, known working set."""

    def __init__(self, seed: int, files: int, stripes: int,
                 warm_reads: int):
        self.code = make_code(CODE)
        self.data_symbols = [s.index for s in self.code.layout.symbols
                             if s.kind is SymbolKind.DATA]
        self.files, self.stripes = files, stripes
        size = stripes * self.code.k * BLOCK_BYTES
        self.payloads = [file_payload(seed, index, size)
                         for index in range(files)]
        self.names = [file_name(index) for index in range(files)]
        self.cluster = ServiceCluster(DATANODES, block_bytes=BLOCK_BYTES,
                                      seed=seed)
        try:
            with self.cluster.client() as writer:
                for name, payload in zip(self.names, self.payloads):
                    writer.write_file(name, payload, CODE)
                # Warm-up: every daemon finishes its lazy imports, loads
                # the native kernel and touches both RPC paths before
                # anything is timed.
                for index in range(warm_reads):
                    name = self.names[index % files]
                    writer.read_file(name)
                    for stripe in range(stripes):
                        writer.degraded_read(
                            name, stripe,
                            self.data_symbols[index % len(self.data_symbols)])
        except BaseException:
            self.close()
            raise

    def expected(self, file: int, stripe: int, position: int) -> bytes:
        # a bytes slice (one 64 KiB copy, ~2 us): comparing bytes with a
        # memoryview goes element by element and costs ~170 us
        offset = (stripe * self.code.k + position) * BLOCK_BYTES
        return self.payloads[file][offset:offset + BLOCK_BYTES]

    def stored_overhead(self) -> float:
        """Bytes the datanodes say they hold per byte of user data."""
        return (layers.stored_bytes(self.cluster.status())
                / sum(len(payload) for payload in self.payloads))

    def close(self) -> None:
        self.cluster.close()


def _picks(seed: int, count: int, bed: Bed):
    rng = np.random.default_rng((seed, 0x0B5))
    return (rng.integers(bed.files, size=count),
            rng.integers(bed.stripes, size=count),
            rng.integers(len(bed.data_symbols), size=count))


def _reader(bed: Bed, workload: str, picks):
    files, stripes, positions = picks
    degraded = workload == "svc_degraded"

    def op(client: StorageClient, index: int) -> bool:
        file, stripe, position = (int(files[index]), int(stripes[index]),
                                  int(positions[index]))
        symbol = bed.data_symbols[position]
        if degraded:
            data = client.degraded_read(bed.names[file], stripe, symbol)
        else:
            data = client.read_block(bed.names[file], stripe, symbol)
        return data == bed.expected(file, stripe, position)

    return op


def _install_spans(recorder: Recorder, code) -> None:
    """Span wrappers at every name the harness can reach from here."""
    recorder.install(StorageClient, "read_block", "client.read_block")
    recorder.install(StorageClient, "degraded_read", "client.degraded_read")
    planner = next(cls for cls in type(code).__mro__
                   if "plan_degraded_read" in vars(cls))
    recorder.install(planner, "plan_degraded_read",
                     "core.plan_degraded_read")
    recorder.install(client_module, "execute_read_plan",
                     "client.execute_read_plan")
    recorder.install(client_module, "call", "rpc.",
                     namer=lambda sock, kind, data: kind)
    recorder.install(client_module, "send_frame", "send.",
                     namer=lambda sock, message: message[0])
    recorder.install(client_module, "recv_frame", "recv")
    for op in ("stat", "status", "locations"):
        recorder.install(NameNodeServer, f"_op_{op}", f"namenode._op_{op}")


def _loadgen_metrics(outcome: Outcome, open_run: LoadResult,
                     closed: LoadResult) -> None:
    """How the generator ran, and the tails the medians hide.  A p90 or
    p99 is the highest percentile the sample count supports when that is
    lower (stats.tail): 1000 samples for a p99, ten beyond it."""
    latency = np.sort(open_run.latency) * 1e3
    lag = np.sort(open_run.send_lag) * 1e3
    took = np.sort(closed.done - closed.sent) * 1e3
    for name, ordered, wanted in (
            ("loadgen.send_lag_p50_ms", lag, 50),
            ("loadgen.send_lag_p99_ms", lag, 99),
            ("loadgen.op_p90_ms", latency, 90),
            ("loadgen.op_p99_ms", latency, 99),
            ("loadgen.closed_p50_ms", took, 50),
            ("loadgen.closed_p99_ms", took, 99)):
        outcome.put(name, tail(ordered, wanted), n=len(ordered))
    outcome.put("loadgen.backlog_end_ms",
                float(np.mean(open_run.send_lag[-100:]) * 1e3), n=100)
    missed = (open_run.latency > LATENCY_LIMIT_S) | ~open_run.ok
    outcome.put("loadgen.miss_10ms_frac", float(missed.mean()),
                n=len(missed))


def _traced_metrics(outcome: Outcome, workload: str, bed: Bed,
                    recorder: Recorder, plain: LoadResult,
                    traced: LoadResult, counters: dict, repeats: int) -> None:
    """Per-layer figures: spans of the traced closed loop + live probes."""
    root = ("client.degraded_read" if workload == "svc_degraded"
            else "client.read_block")
    view = summarise_spans(recorder.spans, root)
    per_op = view["per_op"]
    op_p50 = median_us(view["op_us"])
    self_p50 = median_us(view["self_us"])
    outcome.put("client.op_us", op_p50, n=view["ops"])
    outcome.put("client.self_us", self_p50, n=view["ops"])
    outcome.put("client.stat_rpc_per_op", per_op.get("rpc.stat", 0.0),
                n=view["ops"])
    outcome.put("client.dn_rpc_per_op",
                sum(per_op.get(name, 0.0) for name in
                    ("rpc.get", "rpc.combine", "send.get", "send.combine")),
                n=view["ops"])
    outcome.put("client.retries", counters["retries"])
    outcome.put("client.replans", counters["replans"])
    plain_p50 = float(np.median(plain.done - plain.sent))
    traced_p50 = float(np.median(traced.done - traced.sent))
    outcome.put("trace.overhead_frac", traced_p50 / plain_p50 - 1.0,
                n=traced.attempted)
    outcome.put("storage_overhead", bed.stored_overhead())

    # In-process client work that is not a wire exchange: the root's own
    # time plus the planner and the plan executor's own time.
    local = self_p50 + sum(
        per_op.get(name, 0.0) * median_us(view["child_self_us"][name])
        for name in ("core.plan_degraded_read", "client.execute_read_plan")
        if name in view["child_self_us"])
    address = bed.cluster.address
    dn = layers.datanode_probes(address, bed.names, bed.code, repeats)
    if workload == "svc_read":
        net = layers.net_probes(repeats)
        store = layers.blockstore_probes(repeats)
        nn = layers.namenode_probes(address, bed.names[0], repeats)
        for probes in (net, store, nn, dn):
            outcome.metrics.update(probes)
        outcome.put("datanode.get_residual_us",
                    dn["datanode.get_us"].value
                    - net["net.rpc_echo_64k_us"].value
                    - store["blockstore.get_verify_us"].value)
        total = (local
                 + per_op.get("rpc.get", 0.0) * dn["datanode.get_us"].value
                 + per_op.get("rpc.stat", 0.0) * nn["namenode.stat_us"].value)
        outcome.put("budget.read_sum_us", total)
        outcome.put("budget.read_residual_frac", (op_p50 - total) / op_p50)
        return
    outcome.metrics["datanode.combine_us"] = dn["datanode.combine_us"]
    outcome.metrics["gf.combine_mul_64k_us"] = layers.gf_probes(
        repeats)["gf.combine_mul_64k_us"]
    outcome.put("core.plan_read.pentagon_us",
                median_us(view["child_us"].get("core.plan_degraded_read")),
                n=view["ops"])
    # Sequential equivalents: what the three partial parities cost when
    # asked for one at a time.  The client sends all three before it
    # reads any reply, so a negative residual is what pipelining saves.
    total = local + outcome.metrics["client.dn_rpc_per_op"].value \
        * dn["datanode.combine_us"].value
    outcome.put("budget.degraded_sum_us", total)
    outcome.put("budget.degraded_residual_frac", (op_p50 - total) / op_p50)


@dataclass
class Round:
    """One measurement round: an open-loop slice, then a closed-loop
    slice, with the process tree's CPU sampled around both."""

    open_run: LoadResult
    closed: LoadResult
    cpu_s: float

    @property
    def ops(self) -> int:
        return self.open_run.attempted + self.closed.attempted


def _measure(bed: Bed, clients, workload: str, seed: int, due: np.ndarray,
             horizon: float, closed_count: int, rounds: int) -> list[Round]:
    """``rounds`` back-to-back rounds covering the whole schedule.

    Round ``r`` sends the arrivals due in the ``r``-th slice of the
    Poisson schedule, then its share of the closed-loop reads — so both
    kinds of load sample the whole run, and a slow spell of the host
    lands in some rounds, not in one metric.
    """
    open_op = _reader(bed, workload, _picks(seed, len(due), bed))
    closed_op = _reader(bed, workload, _picks(seed + 1, closed_count, bed))
    edges = np.searchsorted(due, np.linspace(0.0, horizon, rounds + 1))
    share = closed_count // rounds
    daemons = procstat.descendants()
    out = []
    for index in range(rounds):
        lo, hi = int(edges[index]), int(edges[index + 1])
        cpu_before = procstat.cpu_seconds(daemons)
        open_run = run_open_loop(
            clients, lambda client, i, lo=lo: open_op(client, lo + i),
            due[lo:hi] - index * horizon / rounds, FAILURES)
        closed = run_closed_loop(
            clients,
            lambda client, i, base=index * share: closed_op(client, base + i),
            share, FAILURES)
        out.append(Round(open_run, closed,
                         procstat.cpu_seconds(daemons) - cpu_before))
    return out


def run(workload: str, ctx) -> Outcome:
    outcome = Outcome()
    smoke = ctx.smoke
    files, stripes = (2, 2) if smoke else (FILES, STRIPES)
    reps = 1 if smoke else SETUP_REPS
    rounds = 2 if smoke else ROUNDS
    seconds = 0.4 if smoke else ctx.seconds
    window = 10 if smoke else WINDOW_OPS
    closed_count = max(rounds * window,
                       int(CLOSED_PER_SECOND[workload] * seconds))
    if ctx.trace:
        closed_count //= 3
    rate = OPEN_RATE[workload]
    horizon = seconds / 2.0
    due = poisson_schedule(ctx.seed, rate, horizon)

    # Set-up, more than once: the last bed is the one measured.
    bed, builds = set_up(
        lambda: Bed(ctx.seed, files, stripes, warm_reads=2 if smoke else 6),
        reps, close=Bed.close)
    setup_s = ctx.import_s + statistics.median(builds)
    clients = [bed.cluster.client() for _ in range(SENDERS)]
    recorder = Recorder()
    try:
        measured = _measure(bed, clients, workload, ctx.seed, due, horizon,
                            closed_count, rounds)
        open_run = merge([r.open_run for r in measured])
        closed = merge([r.closed for r in measured])
        phases = [open_run, closed]
        if ctx.trace:
            # First without spans, then with — the difference is what
            # tracing costs.
            solo = _reader(bed, workload,
                           _picks(ctx.seed + 2, closed_count, bed))
            half = closed_count // 2
            plain = run_closed_loop(clients, solo, half, FAILURES)
            _install_spans(recorder, bed.code)
            traced = run_closed_loop(
                clients, lambda client, i: solo(client, half + i),
                half, FAILURES)
            recorder.uninstall()
            phases += [plain, traced]
        rss = procstat.tree_peak_rss_mib()

        outcome.attempted = sum(phase.attempted for phase in phases)
        outcome.failed = sum(phase.failed for phase in phases)
        # Headline values are those of the quietest window: on a shared
        # host interference only ever adds time (README, "Noise").
        p50s = [p50 * 1e3 for p50 in
                window_medians(open_run.latency, window)]
        rates = [rate for r in measured
                 for rate in window_rates(r.closed, window)]
        cpus = [r.cpu_s * 1e3 / r.ops for r in measured]
        outcome.put("setup_s", setup_s, n=reps)
        outcome.put_best("op_p50_ms", p50s, min)
        outcome.put_best("ops_per_s", rates, max)
        outcome.put_best("cpu_ms_per_op", cpus, min)
        outcome.put("peak_rss_mb", rss)
        _loadgen_metrics(outcome, open_run, closed)
        # A generator that cannot keep its schedule falls further and
        # further behind; one stall near the end (the mean of the last
        # 100 sends, loadgen.backlog_end_ms) does not make a backlog.
        outcome.checks["no growing backlog"] = float(np.median(
            open_run.send_lag[-len(open_run.send_lag) // 4:])) < 0.050
        if ctx.trace:
            counters = {key: sum(c.counters[key] for c in clients)
                        for key in ("retries", "replans")}
            _traced_metrics(outcome, workload, bed, recorder, plain,
                            traced, counters, 40 if smoke else 400)
            if ctx.spans_path:
                recorder.dump(ctx.spans_path)
        outcome.config = {
            "code": CODE, "datanodes": DATANODES, "block_bytes": BLOCK_BYTES,
            "files": files, "stripes_per_file": stripes,
            "open_rate_per_s": rate, "open_ops": int(len(due)),
            "closed_ops": closed_count, "senders": SENDERS,
            "rounds": rounds, "window_ops": window,
            "window_op_p50_ms": p50s, "window_ops_per_s": rates,
            "round_cpu_ms_per_op": cpus,
            "setup_builds_s": builds, "import_s": ctx.import_s}
    finally:
        recorder.uninstall()
        for client in clients:
            client.close()
        bed.close()
    return outcome
