"""Polygon-local family sweep: Table-1-style rows for 2- and 3-group codes.

The paper evaluates one locally regenerating code (two heptagons plus a
global node).  With the generalized registry names, the aggregated
pattern chains of :func:`repro.reliability.group_chain` and the
sharded exact-reliability engine behind them, the whole family is
sweepable: this experiment reports, for each member, the static layout
columns (overhead, length, fault tolerance, repair reads) next to the
system MTTDL under the pattern and conservative loss models — and the
pattern MTTDL again with UBER sector errors folded in
(:func:`repro.reliability.system_mttdl_years_with_uber`), the loss mode
that punishes exactly the wide critical rebuilds these codes rely on.

Every row is one single-call engine cell keyed by the registry name,
so the sweep fans out over ``--workers`` / ``--distributed`` like any
other experiment and is bit-identical for any executor (each cell is a
pure function of ``(code_name, params, node_count, uber)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import compute_metrics, make_code
from ..reliability import (
    ReliabilityParams,
    calibrate_mttf,
    critical_read_blocks,
    group_count,
    system_mttdl_years,
    system_mttdl_years_with_uber,
)
from .engine import Cell, Executor, run_cells

#: The default line-up: the paper's heptagon-local plus the 2- and
#: 3-group pentagon variants and the 3-group heptagon variant (22
#: slots — exactly the scale the sharded engine unlocked).
FAMILY_CODES = (
    "pentagon-local",
    "pentagon-local(3g,2p)",
    "heptagon-local",
    "heptagon-local(3g,2p)",
)

NODE_COUNT = 50
CALIBRATION_TARGET_YEARS = 1.20e9
DEFAULT_UBER = 1e-4


@dataclass
class FamilyRow:
    """One polygon-local family member's worth of sweep output."""

    code: str
    groups: int
    global_parities: int
    code_length: int
    storage_overhead: float
    fault_tolerance: int
    single_repair_blocks: int
    critical_repair_blocks: int
    mttdl_pattern_years: float
    mttdl_conservative_years: float
    mttdl_uber_years: float

    def as_list(self) -> list[object]:
        return [
            self.code,
            self.groups,
            self.global_parities,
            self.code_length,
            round(self.storage_overhead, 3),
            self.fault_tolerance,
            self.single_repair_blocks,
            self.critical_repair_blocks,
            self.mttdl_pattern_years,
            self.mttdl_conservative_years,
            self.mttdl_uber_years,
        ]


@dataclass
class FamiliesResult:
    """The family table plus the environment it was computed under."""

    params: ReliabilityParams
    node_count: int
    uber_block_prob: float
    rows: list[FamilyRow] = field(default_factory=list)

    HEADERS = ["code", "groups", "p", "length", "overhead", "tolerance",
               "1-node repair", "critical reads", "MTTDL pattern (y)",
               "MTTDL conservative (y)", "MTTDL + UBER (y)"]

    def row(self, code: str) -> FamilyRow:
        for entry in self.rows:
            if entry.code == code:
                return entry
        raise KeyError(code)

    def as_rows(self) -> list[list[object]]:
        return [row.as_list() for row in self.rows]


def family_row(code_name: str, params: ReliabilityParams, node_count: int,
               uber_block_prob: float) -> FamilyRow:
    """One family member's row (the engine's single-call cell function).

    Rebuilds the code from its registry name inside whichever process
    runs the cell — the round-trip contract the generalized registry
    names restore.
    """
    code = make_code(code_name)
    metrics = compute_metrics(code)
    return FamilyRow(
        code=code_name,
        groups=code.groups,
        global_parities=code.global_parities,
        code_length=metrics.code_length,
        storage_overhead=metrics.storage_overhead,
        fault_tolerance=metrics.fault_tolerance,
        single_repair_blocks=metrics.single_repair_blocks,
        critical_repair_blocks=critical_read_blocks(code_name),
        mttdl_pattern_years=system_mttdl_years(
            code_name, params, node_count, model="pattern"),
        mttdl_conservative_years=system_mttdl_years(
            code_name, params, node_count, model="conservative"),
        mttdl_uber_years=system_mttdl_years_with_uber(
            code_name, params, uber_block_prob, node_count),
    )


def build_families(codes: tuple[str, ...] = FAMILY_CODES,
                   node_count: int = NODE_COUNT,
                   target_years: float = CALIBRATION_TARGET_YEARS,
                   params: ReliabilityParams | None = None,
                   uber_block_prob: float = DEFAULT_UBER,
                   workers: int | Executor | None = None) -> FamiliesResult:
    """Sweep the polygon-local family line-up.

    Pass ``params`` to skip calibration; otherwise the node MTTF is
    calibrated once (3-rep anchored at ``target_years`` on a 25-node
    system, like Table 1) and every family row fans out over the
    engine.
    """
    if not 0.0 <= uber_block_prob <= 1.0:
        raise ValueError("uber_block_prob must be a probability")
    if params is None:
        params = calibrate_mttf(target_years, anchor="3-rep")
    cells = [
        Cell(experiment="families", key=(code_name,), fn=family_row,
             args=(code_name, params, node_count, uber_block_prob))
        for code_name in codes
    ]
    return FamiliesResult(params=params, node_count=node_count,
                          uber_block_prob=uber_block_prob,
                          rows=run_cells(cells, workers))


def shape_checks(result: FamiliesResult) -> dict[str, bool]:
    """Qualitative claims the family sweep asserts.

    1. every member keeps the coded-overhead band (2x-3x, under 3-rep);
    2. adding a third group lowers the per-*group* MTTDL: the same
       fault tolerance spread over more slots means more fatal
       patterns per redundancy group (at the system level the smaller
       group count nearly cancels this, so the group-level comparison
       is the meaningful one);
    3. sector errors only ever hurt;
    4. the conservative model never exceeds the pattern model.
    """
    rows = result.rows
    by = {row.code: row for row in rows}

    def per_group(row: FamilyRow) -> float:
        return (row.mttdl_pattern_years
                * group_count(row.code, result.node_count))

    checks = {
        "overheads in (2, 3)": all(
            2.0 < row.storage_overhead < 3.0 for row in rows),
        "uber <= pattern": all(
            row.mttdl_uber_years <= row.mttdl_pattern_years * (1 + 1e-9)
            for row in rows),
        "conservative <= pattern": all(
            row.mttdl_conservative_years
            <= row.mttdl_pattern_years * (1 + 1e-9)
            for row in rows),
    }
    for two_group, three_group in (
            ("pentagon-local", "pentagon-local(3g,2p)"),
            ("heptagon-local", "heptagon-local(3g,2p)")):
        if two_group in by and three_group in by:
            checks[f"{three_group} group-MTTDL below {two_group}"] = (
                per_group(by[three_group]) < per_group(by[two_group]))
    return checks
