"""Ablations and future-work experiments beyond the paper's figures.

The paper's Section 5 lists follow-ups it did not get to; several are
implemented here as first-class experiments:

* :func:`encoding_throughput` — "encoding duration also needs to be
  ascertained": encode/decode MB/s per code on real buffers;
* :func:`degraded_job_sweep` — "MR performance in the presence of node
  failures (with the usage of partial parities)": Terasort with nodes
  down, comparing degraded-read bandwidth across codes;
* :func:`delay_sensitivity` — how the delay scheduler's patience knob
  trades locality for wait time (the design choice behind Fig. 3/4);
* :func:`slots_crossover` — the paper's central thesis quantified: the
  map-slot count where the pentagon's locality pulls within a given gap
  of 2-rep;
* :func:`heptagon_local_equivalence` — the Section 3.2 remark that the
  heptagon-local code's locality equals the plain heptagon's.
"""

from __future__ import annotations

import time

import numpy as np

from ..core import make_code
from ..scheduling import DelayScheduler
from ..workloads import workload_for_load
from .engine import Cell, run_cells
from .runner import CellStats, FigureResult, Series


def delay_locality_trial(rng, code_name: str, load: float, node_count: int,
                         slots_per_node: int,
                         max_skips: int | None = None) -> float:
    """One seeded delay-scheduler locality measurement."""
    scheduler = (DelayScheduler() if max_skips is None
                 else DelayScheduler(max_skips=max_skips))
    tasks = workload_for_load(code_name, load, node_count, slots_per_node, rng)
    return scheduler.assign(tasks, node_count, slots_per_node,
                            rng).locality_percent()


# ----------------------------------------------------------------------
# Encoding / decoding throughput (future-work metric)
# ----------------------------------------------------------------------
def encoding_throughput(code_name: str, block_bytes: int = 1 << 20,
                        repeats: int = 3, seed: int = 0) -> dict[str, float]:
    """Encode and decode throughput in MB/s over the stripe's data bytes.

    One untimed warm-up pass builds the code's packed-table
    encode/decode kernels first, so the reported figure is the
    steady-state throughput a long encoding run sees rather than a mix
    of one-off table builds and hot-path work.
    """
    code = make_code(code_name)
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, block_bytes, dtype=np.uint8)
            for _ in range(code.k)]
    payload_mb = code.k * block_bytes / 2**20

    encoded = code.encode(data)                      # warm the parity kernel
    start = time.perf_counter()
    for _ in range(repeats):
        encoded = code.encode(data)
    encode_seconds = (time.perf_counter() - start) / repeats

    available = {s.index: encoded[s.index] for s in code.layout.symbols}
    code.decode_data(available)                      # warm the decode kernel
    start = time.perf_counter()
    for _ in range(repeats):
        code.decode_data(available)
    decode_seconds = (time.perf_counter() - start) / repeats

    return {
        "code": code_name,
        "encode_mb_s": payload_mb / encode_seconds,
        "decode_mb_s": payload_mb / decode_seconds,
        "parity_symbols": code.symbol_count - code.k,
    }


# ----------------------------------------------------------------------
# Degraded MapReduce (future-work metric)
# ----------------------------------------------------------------------
def degraded_read_cost_per_task(code_name: str) -> int | None:
    """Blocks fetched when a map task's block has all replicas down."""
    from ..core import degraded_read_bandwidth
    return degraded_read_bandwidth(make_code(code_name))


def degraded_job_cell(code_name: str, degraded_tasks: int,
                      block_mb: int) -> dict[str, object] | None:
    """One code's degraded-traffic row (``None``: replica always up)."""
    per_task = degraded_read_cost_per_task(code_name)
    if per_task is None:
        return None
    extra_gb = degraded_tasks * per_task * block_mb / 1024
    return {
        "code": code_name,
        "degraded tasks": degraded_tasks,
        "blocks per rebuild": per_task,
        "extra traffic (GB)": round(extra_gb, 2),
    }


def degraded_job_sweep(codes=("pentagon", "heptagon", "(10,9) RAID+m"),
                       degraded_fraction: float = 0.1,
                       load: float = 75.0, node_count: int = 25,
                       slots_per_node: int = 4,
                       block_mb: int = 128,
                       workers: int | None = None) -> list[dict[str, object]]:
    """Extra network GB a job pays when a fraction of its blocks need
    on-the-fly reconstruction (both replicas transiently down)."""
    from ..scheduling import tasks_for_load
    task_count = tasks_for_load(load, node_count, slots_per_node)
    degraded_tasks = round(task_count * degraded_fraction)
    cells = [Cell(experiment="degraded-mr", key=(code_name,),
                  fn=degraded_job_cell,
                  args=(code_name, degraded_tasks, block_mb))
             for code_name in codes]
    return [row for row in run_cells(cells, workers) if row is not None]


# ----------------------------------------------------------------------
# Scheduler / placement design knobs
# ----------------------------------------------------------------------
def delay_sensitivity(code_name: str = "pentagon", load: float = 100.0,
                      slots_per_node: int = 2, node_count: int = 25,
                      skip_levels=(0, 5, 12, 25, 50, 100),
                      trials: int = 20,
                      workers: int | None = None) -> FigureResult:
    """Locality as a function of the delay scheduler's skip budget."""
    result = FigureResult(
        title=f"Delay-scheduler patience vs locality ({code_name}, "
              f"load {load:.0f}%, mu={slots_per_node})",
        x_label="max skips", y_label="data locality %",
    )
    cells = [
        Cell(experiment="delay-sens", key=(code_name, load, max_skips),
             fn=delay_locality_trial,
             args=(code_name, load, node_count, slots_per_node, max_skips),
             trials=trials)
        for max_skips in skip_levels
    ]
    series = Series(code_name)
    for max_skips, stats in zip(skip_levels, run_cells(cells, workers)):
        series.add(max_skips, stats)
    result.series.append(series)
    return result


def slots_crossover(code_name: str = "pentagon", load: float = 100.0,
                    node_count: int = 25, slot_range=(1, 2, 3, 4, 6, 8),
                    trials: int = 20,
                    workers: int | None = None) -> FigureResult:
    """Locality gap to 2-rep as map slots grow (the paper's main thesis)."""
    result = FigureResult(
        title=f"Locality vs map slots at {load:.0f}% load",
        x_label="map slots per node", y_label="data locality %",
    )
    names = ("2-rep", code_name)
    cells = [
        Cell(experiment="slots-cross", key=(name, load, slots),
             fn=delay_locality_trial,
             args=(name, load, node_count, slots),
             trials=trials)
        for name in names
        for slots in slot_range
    ]
    stats = iter(run_cells(cells, workers))
    for name in names:
        series = Series(name)
        for slots in slot_range:
            series.add(slots, next(stats))
        result.series.append(series)
    return result


def heptagon_local_equivalence(load: float = 100.0, slots_per_node: int = 4,
                               node_count: int = 25,
                               trials: int = 30,
                               workers: int | None = None) -> dict[str, CellStats]:
    """Section 3.2: heptagon-local locality equals plain heptagon's."""
    codes = ("heptagon", "heptagon-local")
    cells = [
        Cell(experiment="hl-equiv", key=(code_name, load, slots_per_node),
             fn=delay_locality_trial,
             args=(code_name, load, node_count, slots_per_node),
             trials=trials)
        for code_name in codes
    ]
    return dict(zip(codes, run_cells(cells, workers)))
