"""Figure 4: Terasort on set-up 1 (25 nodes, 2 map slots, 128 MB blocks).

Regenerates the three panels — job time, network traffic and data
locality vs load — for 3-rep, 2-rep, pentagon and heptagon, using the
discrete-event simulator with the :func:`repro.mapreduce.setup1`
calibration.

Paper observations reproduced (Section 4.1):

  (i)   at moderate loads 2-rep performs very close to 3-rep;
  (ii)  locality curves follow the Fig. 3 simulation trends;
  (iii) excess traffic vs 2-rep tracks the locality loss;
  (iv)  with only 2 map slots the coded schemes lose substantial job
        time against the replicated baselines.
"""

from __future__ import annotations

import statistics

from ..mapreduce import MRSimConfig, run_terasort_once, setup1
from .engine import Cell, run_cells
from .runner import CellStats, FigureResult, Series

#: Load grid of Fig. 4 (the paper plots 50-100 %).
LOADS = (50.0, 75.0, 100.0)

#: Schemes of Fig. 4, in the paper's legend order.
CODES = ("3-rep", "2-rep", "pentagon", "heptagon")


def terasort_trial(rng, code_name: str, load: float,
                   config: MRSimConfig) -> tuple[float, float, float]:
    """One seeded Terasort job: (job time s, locality %, traffic GB)."""
    result = run_terasort_once(code_name, load, config, rng)
    return (result.job_time_s, result.locality_percent, result.traffic_gb)


def terasort_sweep(config: MRSimConfig, codes: tuple[str, ...],
                   loads: tuple[float, ...], runs: int, seed_tag: str,
                   workers: int | None = None) -> dict[str, FigureResult]:
    """Run the Terasort grid once; returns the three figure panels.

    The grid fans out over the engine: one cell per (code, load), each
    averaging ``runs`` independently seeded jobs.  Seeds match the
    retired :func:`~repro.mapreduce.run_terasort` loop exactly —
    ``stable_seed(seed_tag, code, load, trial)`` — so regenerated
    figures are bit-identical to the serial originals.
    """
    cluster = f"{config.node_count} nodes, {config.map_slots} map slots"
    panels = {
        "job_time": FigureResult(f"Terasort job time ({cluster})",
                                 "load %", "job time (s)"),
        "traffic": FigureResult(f"Terasort network traffic ({cluster})",
                                "load %", "traffic (GB)"),
        "locality": FigureResult(f"Terasort data locality ({cluster})",
                                 "load %", "data locality %"),
    }
    cells = [
        Cell(experiment=seed_tag, key=(code_name, load), fn=terasort_trial,
             args=(code_name, load, config), trials=runs, reduce=list,
             shard_trials=max(1, runs // 4))
        for code_name in codes
        for load in loads
    ]
    values = iter(run_cells(cells, workers))
    for code_name in codes:
        time_series = Series(code_name)
        traffic_series = Series(code_name)
        locality_series = Series(code_name)
        for load in loads:
            trials = next(values)
            times = [t for t, _, _ in trials]
            spread = statistics.stdev(times) if runs > 1 else 0.0
            time_series.add(load, CellStats(
                statistics.fmean(times), spread, runs))
            traffic_series.add(load, CellStats(
                statistics.fmean([g for _, _, g in trials]), 0.0, runs))
            locality_series.add(load, CellStats(
                statistics.fmean([p for _, p, _ in trials]), 0.0, runs))
        panels["job_time"].series.append(time_series)
        panels["traffic"].series.append(traffic_series)
        panels["locality"].series.append(locality_series)
    return panels


def figure4(runs: int = 10, config: MRSimConfig | None = None,
            workers: int | None = None) -> dict[str, FigureResult]:
    """All three Fig. 4 panels."""
    return terasort_sweep(config if config is not None else setup1(),
                          CODES, LOADS, runs, seed_tag="fig4",
                          workers=workers)


def shape_checks(panels: dict[str, FigureResult]) -> dict[str, bool]:
    """The paper's Section 4.1 conclusions as boolean checks."""
    job = panels["job_time"]
    locality = panels["locality"]
    traffic = panels["traffic"]
    top_load = max(job.get("3-rep").xs)

    def close(a: float, b: float, tolerance: float) -> bool:
        return abs(a - b) <= tolerance * max(a, b)

    return {
        "(i) 2-rep within 15% of 3-rep job time": all(
            close(job.get("2-rep").y_at(load), job.get("3-rep").y_at(load), 0.15)
            for load in job.get("3-rep").xs
        ),
        "(ii) locality order 2-rep > pentagon > heptagon at full load": (
            locality.get("2-rep").y_at(top_load)
            > locality.get("pentagon").y_at(top_load)
            > locality.get("heptagon").y_at(top_load)
        ),
        "(iii) traffic excess tracks locality loss": all(
            (traffic.get(code).y_at(load) >= traffic.get("2-rep").y_at(load) - 1e-9)
            == (locality.get(code).y_at(load)
                <= locality.get("2-rep").y_at(load) + 1e-9)
            for code in ("pentagon", "heptagon") for load in LOADS
        ),
        # 3-rep at 50% load is essentially fully local, so it is the
        # stable replicated baseline for the "substantial loss" claim.
        "(iv) coded schemes substantially above replication at 2 slots": (
            job.get("pentagon").y_at(50.0) > 1.15 * job.get("3-rep").y_at(50.0)
            and job.get("heptagon").y_at(50.0) > 1.20 * job.get("3-rep").y_at(50.0)
        ),
    }
