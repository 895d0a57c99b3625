"""Transient-failure economics: repair timeouts and per-code repair cost.

The paper's introduction argues that transient node failures "are the
norm in large-scale storage systems, and hence minimizing the number of
repairs carried out to handle transient failures can result in
significant savings in network bandwidth" [3, 4].  HDFS handles this
with a *repair timeout*: a node is only declared dead (and its blocks
re-created) after being unreachable for a grace period.

This experiment quantifies the trade-off for the paper's codes:

* nodes suffer transient outages (Poisson arrivals, exponential
  durations); outages longer than the timeout trigger a full node
  rebuild;
* rebuild cost per node differs by code — the double-replication codes
  rebuild by transfer (1 byte moved per byte lost, like replication)
  while Reed-Solomon reads ``k`` blocks per lost block;
* while a node is out, reads of its blocks degrade: free for codes with
  a surviving replica, ``k``-block reconstructions for RS.

The output reproduces the paper's qualitative point: the pentagon and
heptagon keep replication's cheap repairs *and* cheap degraded reads,
which is what lets them hold hot data, unlike RS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import compute_metrics, make_code
from .engine import Cell, run_cells


@dataclass(frozen=True)
class TransientModel:
    """Outage process for one cluster.

    Attributes:
        node_count: cluster size.
        outage_rate_per_hour: per-node transient failure rate.
        mean_outage_hours: mean outage duration (exponential).
        node_blocks: blocks stored per node (sets rebuild volume).
        horizon_hours: simulated span.
    """

    node_count: int = 25
    outage_rate_per_hour: float = 1.0 / (24 * 7)     # about one per week
    mean_outage_hours: float = 0.5
    node_blocks: int = 1000
    horizon_hours: float = 24 * 365

    def __post_init__(self) -> None:
        if min(self.node_count, self.node_blocks) <= 0:
            raise ValueError("cluster shape must be positive")
        if min(self.outage_rate_per_hour, self.mean_outage_hours,
               self.horizon_hours) <= 0:
            raise ValueError("rates and durations must be positive")


@dataclass(frozen=True)
class RepairCostProfile:
    """Per-code cost multipliers derived from the repair planners."""

    code: str
    rebuild_blocks_per_lost_block: float
    degraded_read_blocks: int | None     # None: replica always available

    @classmethod
    def for_code(cls, code_name: str) -> "RepairCostProfile":
        code = make_code(code_name)
        metrics = compute_metrics(code)
        per_node = code.layout.blocks_per_slot()[0]
        rebuild = (metrics.single_repair_blocks / per_node
                   if metrics.single_repair_blocks else 1.0)
        degraded = metrics.degraded_read_blocks
        if code_name in ("2-rep", "3-rep"):
            degraded = None
        return cls(code_name, rebuild, degraded)


@dataclass(frozen=True)
class TimeoutOutcome:
    """Measured economics of one (code, timeout) cell."""

    code: str
    timeout_hours: float
    outages: int
    repairs_triggered: int
    repair_gb: float
    degraded_read_exposure_hours: float

    def as_list(self) -> list[object]:
        return [self.code, self.timeout_hours, self.outages,
                self.repairs_triggered, round(self.repair_gb, 1),
                round(self.degraded_read_exposure_hours, 1)]


HEADERS = ["code", "timeout (h)", "outages", "repairs", "repair GB",
           "exposure (h)"]


def simulate_timeout_policy(code_name: str, timeout_hours: float,
                            model: TransientModel,
                            rng: np.random.Generator,
                            block_mb: float = 128.0) -> TimeoutOutcome:
    """Simulate the outage stream and the timeout-triggered repairs.

    Outages are independent per node; an outage longer than the timeout
    triggers a full node rebuild at the code's rebuild multiplier.
    ``degraded_read_exposure_hours`` integrates the time during which
    reads of the absent node's blocks would have been degraded (capped
    at the timeout: after that the node is rebuilt elsewhere).
    """
    profile = RepairCostProfile.for_code(code_name)
    expected = model.outage_rate_per_hour * model.horizon_hours
    outages = 0
    repairs = 0
    exposure = 0.0
    for _ in range(model.node_count):
        count = rng.poisson(expected)
        outages += int(count)
        if count == 0:
            continue
        durations = rng.exponential(model.mean_outage_hours, size=count)
        repairs += int(np.count_nonzero(durations > timeout_hours))
        exposure += float(np.minimum(durations, timeout_hours).sum())
    repair_gb = (repairs * model.node_blocks
                 * profile.rebuild_blocks_per_lost_block * block_mb / 1024)
    return TimeoutOutcome(
        code=code_name, timeout_hours=timeout_hours, outages=outages,
        repairs_triggered=repairs, repair_gb=repair_gb,
        degraded_read_exposure_hours=exposure,
    )


def timeout_cell(code_name: str, timeout: float, model: TransientModel,
                 seed: int) -> TimeoutOutcome:
    """One (code, timeout) cell; re-derives its outage stream from the
    seed so the same stream is replayed for every cell (paired
    comparison) in any process."""
    rng = np.random.default_rng(seed)
    return simulate_timeout_policy(code_name, timeout, model, rng)


def timeout_sweep(codes=("2-rep", "pentagon", "heptagon", "rs(14,10)"),
                  timeouts=(0.25, 1.0, 4.0), model: TransientModel | None = None,
                  seed: int = 0,
                  workers: int | None = None) -> list[TimeoutOutcome]:
    """The repair-avoidance table: every (code, timeout) cell.

    The same outage stream (same seed) is replayed for every code so
    differences are purely the codes' cost multipliers.
    """
    model = model if model is not None else TransientModel()
    cells = [
        Cell(experiment="transient", key=(code_name, timeout),
             fn=timeout_cell, args=(code_name, timeout, model, seed))
        for code_name in codes
        for timeout in timeouts
    ]
    return run_cells(cells, workers)


def shape_checks(rows: list[TimeoutOutcome]) -> dict[str, bool]:
    by = {(r.code, r.timeout_hours): r for r in rows}
    timeouts = sorted({r.timeout_hours for r in rows})
    codes = {r.code for r in rows}
    checks = {
        "longer timeouts avoid repairs": all(
            by[(c, timeouts[0])].repairs_triggered
            >= by[(c, timeouts[-1])].repairs_triggered
            for c in codes
        ),
        "double-replication codes rebuild at replication cost": all(
            abs(RepairCostProfile.for_code(c).rebuild_blocks_per_lost_block - 1.0)
            < 1e-9
            for c in ("2-rep", "pentagon", "heptagon") if c in codes
        ),
    }
    if "rs(14,10)" in codes:
        checks["RS repairs cost 10x replication"] = (
            by[("rs(14,10)", timeouts[0])].repair_gb
            == 10 * by[("2-rep", timeouts[0])].repair_gb
        )
    return checks
