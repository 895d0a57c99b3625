"""``codec``: the coding layers alone, in process, no sockets.

Pentagon, heptagon-local and rs(14,10) at 1 MiB blocks (kernel-bound)
and 64 KiB blocks (bound by the Python around the kernel).  One *round*
at a block size takes each code through the four things a stripe ever
has done to it:

* ``Code.encode`` of ``k`` seeded data blocks,
* ``Code.decode_data`` with ``fault_tolerance`` slots failed,
* ``plan_node_repair`` + ``core.executor.execute_repair_plan`` for one
  lost node,
* ``plan_degraded_read`` + ``execute_read_plan`` of a data symbol whose
  replicas are all down.

Rounds run in fixed counts, 1 MiB and 64 KiB windows interleaved.  Every
output is compared with the original buffers, and one native-vs-numpy
encode per code must be bit-identical.  ``gf`` and ``core`` do all the
work here, ``net`` and ``service`` none.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

from repro.cluster import ClusterTopology, MiniHDFS, RoundRobinPlacement
from repro.core import SymbolKind, make_code
from repro.core.executor import execute_read_plan, execute_repair_plan
from repro.gf import kernels as gf_kernels

from .. import layers, procstat
from ..metrics import Outcome, layer_names
from ..spans import Recorder, median_us
from . import set_up

CODES = {"pentagon": "pentagon", "heptagon_local": "heptagon-local",
         "rs14_10": "rs(14,10)"}
SIZES = {"1m": 1 << 20, "64k": 1 << 16}
#: Rounds per window, and windows per interleaving step: a step is one
#: 1 MiB window (~0.15 s), then four 64 KiB windows (~0.04 s each).
WINDOW_ROUNDS = {"1m": 5, "64k": 10}
WINDOWS_PER_STEP = {"1m": 1, "64k": 4}
#: Steps per second of ``--seconds`` (each size then gets about half of
#: the run on the reference container).
STEPS_PER_SECOND = 2.4
SETUP_REPS = 3
MASK_CODE = "pentagon-local(3g,2p)"

EMITS = layer_names("gf", "core") + (
    "trace.overhead_frac", "encode_mb_per_s", "decode_mb_per_s",
    "repair_mb_per_s")


class Stripe:
    """One code at one block size: seeded data, the encoded stripe, and
    the failure patterns each operation is run against."""

    def __init__(self, label: str, size_label: str, seed: int):
        self.label, self.size_label = label, size_label
        self.code = code = make_code(CODES[label])
        self.block = SIZES[size_label]
        rng = np.random.default_rng((seed, len(label), self.block))
        self.data = [rng.integers(0, 256, self.block, dtype=np.uint8)
                     for _ in range(code.k)]
        self.encoded = code.encode(self.data)       # also warms the kernel
        failed = set(range(code.fault_tolerance))
        self.available = {i: self.encoded[i]
                          for i in code.layout.surviving_symbols(failed)}
        code.decode_data(self.available)            # warm the decode kernel
        self.lost_slot = 0
        self.lost_symbols = code.layout.symbols_on_slot(self.lost_slot)
        self.read_symbol = next(s for s in code.layout.symbols
                                if s.kind is SymbolKind.DATA)
        self.read_failed = set(self.read_symbol.replicas)
        self.payload_bytes = code.k * self.block
        self.repair_bytes = len(self.lost_symbols) * self.block

    # -- the four operations, each a (run, check) pair: only ``run`` is
    # timed, ``check`` compares its output with the original buffers --
    def encode(self):
        return self.code.encode(self.data)

    def encode_ok(self, out) -> bool:
        return all(np.array_equal(a, b) for a, b in zip(out, self.encoded))

    def decode(self):
        return self.code.decode_data(self.available)

    def decode_ok(self, out) -> bool:
        return all(np.array_equal(a, b) for a, b in zip(out, self.data))

    def plan_repair(self):
        return self.code.plan_node_repair((self.lost_slot,))

    def repair(self):
        return execute_repair_plan(self.code, self.encoded,
                                   self.plan_repair())

    def repair_ok(self, recovered) -> bool:
        return all(np.array_equal(recovered[s], self.encoded[s])
                   for s in self.lost_symbols)

    def plan_read(self):
        return self.code.plan_degraded_read(self.read_symbol.index,
                                            self.read_failed)

    def degraded_read(self):
        return execute_read_plan(self.code, self.encoded, self.plan_read(),
                                 self.read_failed)

    def degraded_read_ok(self, out) -> bool:
        return np.array_equal(out, self.encoded[self.read_symbol.index])

    def operations(self) -> list[tuple[str, object, object]]:
        tag = f"{self.size_label}.{self.label}"
        return [(f"encode_{tag}", self.encode, self.encode_ok),
                (f"decode_{tag}", self.decode, self.decode_ok),
                (f"repair_{tag}", self.repair, self.repair_ok),
                (f"degraded_read_{tag}", self.degraded_read,
                 self.degraded_read_ok)]


def _build(seed: int) -> dict[str, list[Stripe]]:
    return {size: [Stripe(label, size, seed) for label in CODES]
            for size in SIZES}


@contextlib.contextmanager
def _numpy_backend():
    """Run the body on the numpy GF backend, then restore the request."""
    restore = gf_kernels.requested_backend()
    gf_kernels.set_backend("numpy")
    try:
        yield
    finally:
        gf_kernels.set_backend(None if restore == "auto" else restore)


def _backends_agree(stripes: list[Stripe]) -> bool:
    """Native and numpy encodes of the same stripe, bit for bit."""
    with _numpy_backend():
        return all(stripe.encode_ok(stripe.encode()) for stripe in stripes)


def _minihdfs_pass(seed: int, stripes: int) -> tuple[dict[str, float], bool]:
    """MiniHDFS write / read / degraded read / repair_node, MiB/s each."""
    code = make_code("pentagon")
    block = SIZES["64k"]
    fs = MiniHDFS(ClusterTopology.flat(25), block_bytes=block,
                  placement=RoundRobinPlacement(), seed=seed)
    data = np.random.default_rng((seed, 0xF5)).integers(
        0, 256, stripes * code.k * block, dtype=np.uint8).tobytes()
    mib = len(data) / 2**20
    clock = time.perf_counter
    start = clock()
    fs.write_file("f", data, "pentagon")
    write_s = clock() - start
    start = clock()
    intact = fs.read_file("f") == data
    read_s = clock() - start
    victim = fs.namenode.file("f").stripes[0].slot_nodes[0]
    fs.fail_node(victim, permanent=True)
    start = clock()
    intact = fs.read_file("f") == data and intact
    degraded_s = clock() - start
    start = clock()
    moved = fs.repair_node(victim)
    repair_s = clock() - start
    intact = fs.verify_file("f", data) and intact
    return ({"cluster.minihdfs_write_mb_per_s": mib / write_s,
             "cluster.minihdfs_read_mb_per_s": mib / read_s,
             "cluster.minihdfs_degraded_read_mb_per_s": mib / degraded_s,
             "cluster.minihdfs_repair_node_mb_per_s":
                 moved / 2**20 / repair_s}, intact)


def run(ctx) -> Outcome:
    outcome = Outcome()
    smoke = ctx.smoke
    reps = 1 if smoke else SETUP_REPS
    steps = 2 if smoke else max(2, round(STEPS_PER_SECOND * ctx.seconds))
    if ctx.trace and not smoke:
        steps = max(2, steps // 3)
    window_rounds = {size: 2 if smoke else count
                     for size, count in WINDOW_ROUNDS.items()}

    stripes, builds = set_up(lambda: _build(ctx.seed), reps)
    setup_s = ctx.import_s + statistics.median(builds)

    recorder = Recorder()
    ops = {size: [op for stripe in stripes[size]
                  for op in stripe.operations()] for size in SIZES}
    if ctx.trace:
        for stripe in (s for size in SIZES for s in stripes[size]):
            tag = f"{stripe.label}.{stripe.size_label}"
            stripe.plan_read = recorder.wrap(f"plan_read.{tag}",
                                             stripe.plan_read)
            stripe.plan_repair = recorder.wrap(f"plan_repair.{tag}",
                                               stripe.plan_repair)
        ops = {size: [(name, recorder.wrap(name, fn), check)
                      for name, fn, check in triples]
               for size, triples in ops.items()}

    # Measured phase: short windows of rounds, the two sizes interleaved.
    # Only the operation itself is on the clocks; comparing its output
    # with the originals happens between timings.
    round_s = {size: [] for size in SIZES}      # per window: round times
    cpu_ms = []                                  # per 1 MiB window
    wrong = 0
    clock, cpu_clock = time.perf_counter, time.process_time
    for _ in range(steps):
        for size in SIZES:
            for _ in range(WINDOWS_PER_STEP[size]):
                times = []
                cpu_spent = 0.0
                for _ in range(window_rounds[size]):
                    spent = 0.0
                    for _, op, check in ops[size]:
                        cpu_start, start = cpu_clock(), clock()
                        result = op()
                        spent += clock() - start
                        cpu_spent += cpu_clock() - cpu_start
                        if not check(result):
                            wrong += 1
                    times.append(spent)
                if size == "1m":
                    cpu_ms.append(cpu_spent * 1e3 / len(times))
                round_s[size].append(times)
    rss = procstat.tree_peak_rss_mib()

    rounds = sum(len(times) for size in SIZES for times in round_s[size])
    outcome.attempted = rounds * 4 * len(CODES)
    outcome.failed = wrong
    outcome.checks["native and numpy encodes are bit-identical"] = (
        _backends_agree(stripes["64k"]))

    window_p50 = [statistics.median(times) * 1e3 for times in round_s["1m"]]
    window_rate = [len(times) / sum(times) for times in round_s["64k"]]
    outcome.put("setup_s", setup_s, n=reps)
    outcome.put_best("op_p50_ms", window_p50, min)
    outcome.put_best("ops_per_s", window_rate, max)
    outcome.put_best("cpu_ms_per_op", cpu_ms, min)
    outcome.put("peak_rss_mb", rss)
    if ctx.trace:
        _traced_metrics(outcome, ctx, recorder, stripes, smoke)
    outcome.config = {
        "codes": list(CODES.values()), "block_bytes": SIZES,
        "steps": steps, "window_rounds": window_rounds,
        "window_op_p50_ms": window_p50, "window_ops_per_s": window_rate,
        "window_cpu_ms_per_op": cpu_ms,
        "setup_builds_s": builds, "import_s": ctx.import_s}
    return outcome


def _traced_metrics(outcome: Outcome, ctx, recorder: Recorder,
                    stripes: dict[str, list[Stripe]], smoke: bool) -> None:
    took: dict[str, list[float]] = {}
    for span in recorder.spans:
        took.setdefault(span.name, []).append((span.end - span.start) * 1e6)
    totals = {kind: [0.0, 0.0] for kind in ("encode", "decode", "repair")}
    for size, group in stripes.items():
        for stripe in group:
            tag = f"{size}.{stripe.label}"
            for kind, moved in (("encode", stripe.payload_bytes),
                                ("decode", stripe.payload_bytes),
                                ("repair", stripe.repair_bytes)):
                micros = median_us(took[f"{kind}_{tag}"])
                outcome.put(f"core.{kind}_{size}.{stripe.label}_mb_per_s",
                            moved / 2**20 / (micros / 1e6),
                            n=len(took[f"{kind}_{tag}"]))
                if size == "1m":
                    totals[kind][0] += moved / 2**20
                    totals[kind][1] += micros / 1e6
            if size == "64k":
                outcome.put(f"core.degraded_read_64k.{stripe.label}_us",
                            median_us(took[f"degraded_read_{tag}"]),
                            n=len(took[f"degraded_read_{tag}"]))
                for plan in ("plan_read", "plan_repair"):
                    name = f"{plan}.{stripe.label}.{size}"
                    outcome.put(f"core.{plan}.{stripe.label}_us",
                                median_us(took[name]), n=len(took[name]))
    for kind, (mib, seconds) in totals.items():
        outcome.put(f"{kind}_mb_per_s", mib / seconds)

    # Tracing overhead on the cheapest op (worst case): the same call
    # with and without the span wrapper, alternating so drift cancels.
    probe = stripes["64k"][0].encode
    wrapped = Recorder().wrap("probe", probe)
    repeats = 20 if smoke else 300
    plain, traced = [], []
    for _ in range(repeats):
        plain += layers.timed(probe, 1, warmup=0)
        traced += layers.timed(wrapped, 1, warmup=0)
    outcome.put("trace.overhead_frac",
                statistics.median(traced) / statistics.median(plain) - 1.0,
                n=repeats)

    outcome.metrics.update(layers.gf_probes(40 if smoke else 400))
    with _numpy_backend():
        for stripe in stripes["1m"]:
            if stripe.label == "pentagon":
                continue        # XOR-only: the same path on every backend
            times = layers.timed(stripe.encode, 3 if smoke else 7, warmup=1)
            outcome.put(f"gf.numpy_encode_1m.{stripe.label}_mb_per_s",
                        stripe.payload_bytes / 2**20
                        / statistics.median(times), n=len(times))

    # One cold enumeration: a fresh code object has an empty rank memo.
    code = make_code(MASK_CODE)
    masks = 1 << (10 if smoke else 16)
    start = time.perf_counter()
    verdicts = code.mask_range_verdicts(0, masks)
    outcome.put("core.mask_verdicts_per_s",
                masks / (time.perf_counter() - start), n=masks)
    outcome.checks["mask enumeration finds the all-alive mask "
                   "recoverable"] = bool(verdicts[0])

    rates, intact = _minihdfs_pass(ctx.seed, 4 if smoke else 32)
    for name, value in rates.items():
        outcome.put(name, value)
    outcome.checks["MiniHDFS reads and repair are bit-exact"] = intact
    if ctx.spans_path:
        recorder.dump(ctx.spans_path)
