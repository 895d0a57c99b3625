"""Seeded load generator: sustained IOPS + latency percentiles.

``run_load`` drives one running service end to end: prefill a seeded
working set, arm a :class:`~.faults.FaultPlan` (t=0 is load start),
hammer reads from worker threads for a fixed duration, then wait for
the background checker to drain its repair queue.  Every read is
verified bit-exact against the deterministic payload the file was
written with, so a fault that slipped garbage past the code would show
up as a ``mismatched`` count, not a silently-passing benchmark.

Reads that fell back to reconstruction (naturally, because a datanode
was down — plus periodic *forced* degraded probes, so the percentile
has samples even before a fault fires) are timed into a separate
``degraded`` bucket: the report answers both "how fast is the happy
path" and "what does a read cost while the cluster is wounded", the
service-level twin of the paper's degraded-read bandwidth story.

Determinism: file payloads, per-worker op streams, and fault targets
all derive from ``seed``; two runs with the same seed and plan issue
the same ops against the same faults (wall-clock latencies vary, op
outcomes do not).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..core import make_code
from .client import RetryPolicy, StorageClient
from .cluster import _is_settled
from .faults import FaultPlan
from .protocol import ReadFailedError, ServiceUnavailableError

#: One forced degraded probe per this many ordinary reads.
DEGRADED_PROBE_EVERY = 8


def file_payload(seed: int, index: int, size: int) -> bytes:
    """The deterministic contents of prefill file ``index``."""
    rng = np.random.default_rng((seed, index))
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def file_name(index: int) -> str:
    return f"load-{index:04d}"


def _latency_stats(samples: list[float]) -> dict | None:
    if not samples:
        return None
    ms = np.asarray(samples) * 1000.0
    return {"n": len(samples),
            "mean": round(float(ms.mean()), 3),
            "p50": round(float(np.percentile(ms, 50)), 3),
            "p90": round(float(np.percentile(ms, 90)), 3),
            "p99": round(float(np.percentile(ms, 99)), 3)}


def arm_faults(namenode: tuple[str, int],
               plan: FaultPlan) -> dict[int, list[str]]:
    """Resolve ``plan`` against the registered datanodes and arm it."""
    with StorageClient(namenode) as client:
        reply = client._nn_call("locations", {})
        bound = plan.resolve(reply["datanodes"])
        armed: dict[int, list[str]] = {}
        for node_id, faults in sorted(bound.items()):
            client._dn_call(node_id, "fault", {"faults": faults})
            armed[node_id] = [fault.describe() for fault in faults]
        return armed


class _Worker:
    """One read-load thread: own client, own rng, own sample buffers."""

    def __init__(self, worker_id: int, namenode, retry: RetryPolicy,
                 catalog: list[tuple[str, int, bytes]], code_name: str,
                 seed: int, deadline: float):
        self.rng = np.random.default_rng((seed, 1 + worker_id))
        self.client = StorageClient(namenode, retry=retry)
        self.catalog = catalog
        self.deadline = deadline
        code = make_code(code_name)
        self.block_bytes: int | None = None     # learned from stat
        self.data_symbols = [symbol.index
                             for symbol in code.layout.data_symbols()]
        self.k = code.k
        self.normal: list[float] = []
        self.degraded: list[float] = []
        self.failed = 0
        self.mismatched = 0
        self.ops = 0
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _expected(self, payload: bytes, stripe: int, position: int) -> bytes:
        if self.block_bytes is None:
            self.block_bytes = int(self.client.stat(
                self.catalog[0][0])["block_bytes"])
        offset = (stripe * self.k + position) * self.block_bytes
        chunk = payload[offset:offset + self.block_bytes]
        return chunk + b"\x00" * (self.block_bytes - len(chunk))

    def _run(self) -> None:
        while time.monotonic() < self.deadline:
            pick = int(self.rng.integers(len(self.catalog)))
            name, stripe_count, payload = self.catalog[pick]
            stripe = int(self.rng.integers(stripe_count))
            position = int(self.rng.integers(len(self.data_symbols)))
            symbol = self.data_symbols[position]
            forced = (self.ops % DEGRADED_PROBE_EVERY
                      == DEGRADED_PROBE_EVERY - 1)
            self.ops += 1
            before = self.client.counters["degraded_reads"]
            start = time.perf_counter()
            try:
                if forced:
                    data = self.client.degraded_read(name, stripe, symbol)
                else:
                    data = self.client.read_block(name, stripe, symbol)
            except (ReadFailedError, ServiceUnavailableError):
                self.failed += 1
                continue
            elapsed = time.perf_counter() - start
            degraded = (forced
                        or self.client.counters["degraded_reads"] > before)
            (self.degraded if degraded else self.normal).append(elapsed)
            if data != self._expected(payload, stripe, position):
                self.mismatched += 1


def run_load(namenode: tuple[str, int], *, files: int = 4,
             file_bytes: int = 4 * 65536, code_name: str = "pentagon",
             duration: float = 5.0, workers: int = 2, seed: int = 0,
             fault_plan: FaultPlan | None = None,
             retry: RetryPolicy | None = None,
             settle_timeout: float = 60.0, log=None) -> dict:
    """Prefill, arm faults, read-load for ``duration``, settle; report."""
    emit = log if log is not None else (lambda message: None)
    retry = retry if retry is not None else RetryPolicy(
        attempts=3, timeout=2.0, base_delay=0.05, max_delay=0.5, seed=seed)

    # Phase 1: prefill a deterministic working set.
    write_latencies: list[float] = []
    catalog: list[tuple[str, int, bytes]] = []
    with StorageClient(namenode, retry=retry) as writer:
        for index in range(files):
            payload = file_payload(seed, index, file_bytes)
            start = time.perf_counter()
            info = writer.write_file(file_name(index), payload, code_name)
            write_latencies.append(time.perf_counter() - start)
            catalog.append((info["name"], info["stripes"], payload))
        block_bytes = int(writer.stat(catalog[0][0])["block_bytes"])
    emit(f"prefilled {files} x {file_bytes} B under {code_name} "
         f"({catalog[0][1]} stripe(s)/file)")

    # Phase 2: arm the fault plan — its t=0 is the start of the load.
    armed: dict[int, list[str]] = {}
    if fault_plan is not None and fault_plan.faults:
        armed = arm_faults(namenode, fault_plan)
        for node_id, faults in armed.items():
            emit(f"armed on dn{node_id}: {', '.join(faults)}")

    # Phase 3: sustained reads under whatever the plan does to us.
    deadline = time.monotonic() + duration
    pool = [_Worker(wid, namenode, RetryPolicy(
                attempts=retry.attempts, timeout=retry.timeout,
                base_delay=retry.base_delay, max_delay=retry.max_delay,
                jitter=retry.jitter, seed=(seed * 1000 + wid)),
            catalog, code_name, seed, deadline)
            for wid in range(workers)]
    start = time.monotonic()
    for worker in pool:
        worker.thread.start()
    for worker in pool:
        worker.thread.join()
    elapsed = time.monotonic() - start
    for worker in pool:
        worker.client.close()

    ops = sum(w.ops for w in pool)
    failed = sum(w.failed for w in pool)
    mismatched = sum(w.mismatched for w in pool)
    normal = [sample for w in pool for sample in w.normal]
    degraded = [sample for w in pool for sample in w.degraded]
    counters: dict[str, int] = {}
    for worker in pool:
        for key, value in worker.client.counters.items():
            counters[key] = counters.get(key, 0) + value
    emit(f"load done: {ops} ops in {elapsed:.1f}s "
         f"({ops / elapsed:.0f} IOPS), {failed} failed, "
         f"{len(degraded)} degraded")

    # Phase 4: let the checker finish repairing what the plan broke.
    settle_start = time.monotonic()
    # A fault that fired near the end of the load phase is only
    # *detected* once heartbeats age past the namenode's silence
    # timeout plus a checker sweep — until then a wounded cluster
    # still reports itself clean, so don't believe "settled" early.
    min_wait = 0.0
    if armed:
        checker = StorageClient(namenode, retry=retry)
        try:
            timings = checker.status()["checker"]
            min_wait = (timings["silence_timeout_s"]
                        + 2 * timings["period_s"])
        finally:
            checker.close()
    status = _wait_settled(namenode, retry, settle_timeout, min_wait)
    settle_s = time.monotonic() - settle_start
    repair = status["repair"]
    settled = _is_settled(status)
    emit(f"settle: {repair['done']} repair(s) done in {settle_s:.1f}s "
         f"({'drained' if settled else 'NOT drained'})")

    return {
        "config": {"files": files, "file_bytes": file_bytes,
                   "block_bytes": block_bytes, "code": code_name,
                   "duration_s": duration, "workers": workers,
                   "seed": seed,
                   "faults": (fault_plan.describe()
                              if fault_plan is not None else "none"),
                   "armed": {str(k): v for k, v in armed.items()}},
        "writes": {"files": files,
                   "latency_ms": _latency_stats(write_latencies)},
        "reads": {"ops": ops, "failed": failed,
                  "mismatched": mismatched,
                  "iops": round(ops / elapsed, 1) if elapsed else 0.0,
                  "latency_ms": _latency_stats(normal),
                  "degraded_latency_ms": _latency_stats(degraded)},
        "repair": {**{key: repair[key] for key in
                      ("done", "failed", "queued", "damaged_stripes",
                       "degraded_stripes")},
                   "lost": repair["lost"], "settled": settled,
                   "settle_s": round(settle_s, 2)},
        "alive": status["alive"],
        "counters": counters,
    }


def _wait_settled(namenode, retry: RetryPolicy, timeout: float,
                  min_wait: float = 0.0) -> dict:
    start = time.monotonic()
    deadline = start + timeout
    with StorageClient(namenode, retry=retry) as client:
        status = client.status()
        while time.monotonic() < deadline:
            if (time.monotonic() - start >= min_wait
                    and _is_settled(status)):
                break
            time.sleep(0.25)
            status = client.status()
        return status
