"""The environment fingerprint written into every result file.

Two result files are only comparable when these agree: commit, CPU
model and count, frequency governor, measured parallel capacity, GF
backend and SIMD flag, interpreter and numpy versions — plus the seed,
op counts and rates the workload itself records under ``config``.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import platform
import subprocess
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _spin(seconds: float) -> int:
    end = time.perf_counter() + seconds
    count = 0
    while time.perf_counter() < end:
        for _ in range(10_000):
            pass
        count += 1
    return count


def cpu_parallel_capacity(procs: int = 2, seconds: float = 0.5) -> float:
    """Aggregate throughput of ``procs`` spinning processes over one.

    The ceiling of any multi-process speedup on this host: containers
    often advertise N CPUs and sustain well under N times one.
    """
    one = _spin(seconds)
    with multiprocessing.get_context("spawn").Pool(procs) as pool:
        pool.map(_spin, [0.05] * procs)         # workers imported and hot
        counts = pool.map(_spin, [seconds] * procs)
    return sum(counts) / one


def _commit() -> str:
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _governor() -> str:
    path = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return "unreadable"


def fingerprint(ctx, backend: str) -> dict:
    from repro.gf import kernels, native

    return {
        "commit": _commit(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "governor": _governor(),
        "cpu_parallel_capacity": round(cpu_parallel_capacity(), 3),
        "gf_backend": {"requested": kernels.requested_backend(),
                       "active": backend,
                       "simd": native.simd_active()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
    }
