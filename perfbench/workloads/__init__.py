"""The five workloads; each module exposes ``run(ctx) -> Outcome``-style
entry points that :mod:`perfbench.run` looks up here by name."""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Context:
    """What a workload is told about the run."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    #: process start to "imports done and GF backend resolved", seconds
    import_s: float
    #: where to write the span dump of a traced run (None: nowhere)
    spans_path: str | None = None


def set_up(build, reps: int, close=None):
    """Build the workload's fixture ``reps`` times over; returns the last
    one and the seconds each build took.  Earlier fixtures are handed to
    ``close`` before the next is built, so only one is ever alive."""
    seconds: list[float] = []
    built = None
    for _ in range(reps):
        if built is not None and close is not None:
            close(built)
        started = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - started)
    return built, seconds


#: workload -> (module under perfbench.workloads, takes workload name)
_MODULES = {
    "svc_read": ("service", True),
    "svc_degraded": ("service", True),
    "svc_write_repair": ("write_repair", False),
    "codec": ("codec", False),
    "paper_suite": ("paper_suite", False),
}

#: Workloads whose whole process tree is pinned to one CPU while they
#: run.  On the 2-vCPU reference container a wake-up that crosses vCPUs
#: goes through the hypervisor, and how much the second vCPU gives
#: swings between 1.0x and 2.0x from minute to minute: the same cluster
#: is as fast on one CPU as on two in a good minute, and 3-5x steadier
#: (README, "Noise").  ``paper_suite`` measures a 2-worker pool, so it
#: keeps every CPU.
PINNED = frozenset({"svc_read", "svc_degraded", "svc_write_repair", "codec"})


def load(workload: str):
    """``(run(ctx) -> Outcome, names of the per-layer metrics it emits)``."""
    module_name, by_name = _MODULES[workload]
    module = importlib.import_module(f"{__name__}.{module_name}")
    if by_name:
        return (lambda ctx: module.run(workload, ctx)), module.EMITS[workload]
    return module.run, module.EMITS
