"""Table 1: storage overhead, code length and MTTDL of the six schemes.

The storage-overhead and code-length columns are exact layout facts.
The MTTDL column needs the failure/repair environment of [7], whose
parameters the paper does not publish; following DESIGN.md we calibrate
the node MTTF so that the 3-rep row matches the paper's 1.20e9 years on
a 25-node system, then report every scheme under both loss models
("pattern": exact fatal patterns; "conservative": any tolerance+1
concurrent failures) next to the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import TABLE1_CODES, compute_metrics, make_code
from ..reliability import (
    ReliabilityParams,
    calibrate_mttf,
    group_model,
    relative_error,
    simulate_group_mttd_total,
    system_mttdl_years,
)
from .engine import Cell, run_cells
from .runner import trial_rng

#: The paper's Table 1 MTTDL column (years), used for comparison output.
PAPER_MTTDL_YEARS = {
    "3-rep": 1.20e9,
    "pentagon": 1.05e8,
    "heptagon": 2.68e7,
    "heptagon-local": 8.34e9,
    "(10,9) RAID+m": 2.03e9,
    "(12,11) RAID+m": 6.50e8,
}

#: The paper's storage-overhead column, for the comparison printout.
PAPER_OVERHEAD = {
    "3-rep": 3.0,
    "pentagon": 2.22,
    "heptagon": 2.1,
    "heptagon-local": 2.15,
    "(10,9) RAID+m": 2.22,
    "(12,11) RAID+m": 2.18,
}

NODE_COUNT = 25
CALIBRATION_TARGET_YEARS = PAPER_MTTDL_YEARS["3-rep"]


@dataclass
class Table1Row:
    """One regenerated Table 1 row."""

    code: str
    storage_overhead: float
    code_length: int
    mttdl_pattern_years: float
    mttdl_conservative_years: float
    paper_mttdl_years: float

    def as_list(self) -> list[object]:
        return [
            self.code,
            round(self.storage_overhead, 2),
            self.code_length,
            self.mttdl_pattern_years,
            self.mttdl_conservative_years,
            self.paper_mttdl_years,
        ]


@dataclass
class Table1Result:
    """The regenerated table plus the calibrated environment."""

    params: ReliabilityParams
    rows: list[Table1Row] = field(default_factory=list)

    HEADERS = ["code", "overhead", "length", "MTTDL pattern (y)",
               "MTTDL conservative (y)", "MTTDL paper (y)"]

    def row(self, code: str) -> Table1Row:
        for entry in self.rows:
            if entry.code == code:
                return entry
        raise KeyError(code)

    def as_rows(self) -> list[list[object]]:
        return [row.as_list() for row in self.rows]


def table1_row(code_name: str, params: ReliabilityParams,
               node_count: int) -> Table1Row:
    """One regenerated row (the engine's single-call cell function)."""
    metrics = compute_metrics(make_code(code_name))
    return Table1Row(
        code=code_name,
        storage_overhead=metrics.storage_overhead,
        code_length=metrics.code_length,
        mttdl_pattern_years=system_mttdl_years(
            code_name, params, node_count, model="pattern"),
        mttdl_conservative_years=system_mttdl_years(
            code_name, params, node_count, model="conservative"),
        paper_mttdl_years=PAPER_MTTDL_YEARS[code_name],
    )


def build_table1(node_count: int = NODE_COUNT,
                 target_years: float = CALIBRATION_TARGET_YEARS,
                 params: ReliabilityParams | None = None,
                 workers: int | None = None) -> Table1Result:
    """Regenerate Table 1.

    Pass ``params`` to skip calibration and use explicit rates.
    Calibration runs once up front; the per-code rows (metrics +
    pattern/conservative chains) then fan out over the engine.
    """
    if params is None:
        params = calibrate_mttf(target_years, anchor="3-rep",
                                node_count=node_count)
    cells = [Cell(experiment="table1", key=(code_name,), fn=table1_row,
                  args=(code_name, params, node_count))
             for code_name in TABLE1_CODES]
    return Table1Result(params=params, rows=run_cells(cells, workers))


# ----------------------------------------------------------------------
# Monte-Carlo validation of the MTTDL chains (engine-sharded)
# ----------------------------------------------------------------------

#: Codes validated by default (accelerated rates keep this tractable).
MC_CODES = ("3-rep", "pentagon", "(4,3) RAID+m")

#: Accelerated failure environment used for validation runs.
MC_PARAMS = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0)

MC_HEADERS = ["code", "trials", "chain MTTD (h)", "simulated (h)", "error %"]


@dataclass(frozen=True)
class MCValidationRow:
    """Chain-vs-simulation agreement for one code."""

    code: str
    trials: int
    chain_mttd_hours: float
    simulated_mttd_hours: float
    error: float

    def as_list(self) -> list[object]:
        return [self.code, self.trials, round(self.chain_mttd_hours, 1),
                round(self.simulated_mttd_hours, 1),
                round(100 * self.error, 1)]


def mc_shard_total(code_name: str, params: ReliabilityParams,
                   trials: int, shard: int) -> float:
    """Summed absorption time of one independently seeded trial shard.

    The generator is re-derived from ``(experiment, code, shard)``, so
    shard totals merge exactly regardless of which process ran them.
    """
    rng = trial_rng("table1-mc", code_name, shard)
    return simulate_group_mttd_total(make_code(code_name), params, rng,
                                     trials=trials)


def monte_carlo_validation(codes: tuple[str, ...] = MC_CODES,
                           params: ReliabilityParams = MC_PARAMS,
                           trials: int = 600, shard_trials: int = 150,
                           workers: int | None = None) -> list[MCValidationRow]:
    """Validate each code's analytic chain against sharded simulation.

    Each code's ``trials`` Monte-Carlo trials split into independently
    seeded shards of at most ``shard_trials`` (the last shard takes the
    remainder, so exactly ``trials`` run).  Shard totals merge exactly
    — ``sum(totals) / trials`` — so the reported value is bit-identical
    for any worker count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    sizes = [shard_trials] * (trials // shard_trials)
    if trials % shard_trials:
        sizes.append(trials % shard_trials)
    cells = [
        Cell(experiment="table1-mc", key=(code_name, shard),
             fn=mc_shard_total, args=(code_name, params, count, shard))
        for code_name in codes
        for shard, count in enumerate(sizes)
    ]
    totals = iter(run_cells(cells, workers))
    rows = []
    for code_name in codes:
        total = sum(next(totals) for _ in sizes)
        simulated = total / trials
        analytic = group_model(code_name, params).mttdl_hours()
        rows.append(MCValidationRow(
            code=code_name, trials=trials, chain_mttd_hours=analytic,
            simulated_mttd_hours=simulated,
            error=relative_error(simulated, analytic),
        ))
    return rows


#: How close :func:`mc_shape_checks` holds each simulation to its chain.
MC_TOLERANCE = 0.15

#: The fewest trials the check is run with.  Absorption times are close
#: to exponential, so the relative standard error of their mean is
#: about ``1 / sqrt(trials)``; :data:`MC_TOLERANCE` is three of them
#: from ``(3 / 0.15) ** 2 = 400`` trials on.
MC_MIN_TRIALS = 400


def mc_shape_checks(rows: list[MCValidationRow],
                    tolerance: float = MC_TOLERANCE) -> dict[str, bool]:
    """Chain/simulation agreement within ``tolerance`` for every code."""
    return {
        f"{row.code} simulation within {tolerance:.0%} of chain":
            row.error <= tolerance
        for row in rows
    }


def shape_checks(result: Table1Result) -> dict[str, bool]:
    """The qualitative Table 1 claims this reproduction asserts.

    1. overhead: every coded scheme sits between 2x and 3x, below 3-rep;
    2. code length: pentagon(5) beats (10,9) RAID+m(20) at equal
       overhead, heptagon-local(15) beats (12,11) RAID+m(24);
    3. MTTDL ordering among equal-tolerance codes: heptagon < pentagon
       < 3-rep, and heptagon-local far above all of them.
    """
    by = {row.code: row for row in result.rows}
    return {
        "coded overheads in (2, 3)": all(
            2.0 < by[c].storage_overhead < 3.0
            for c in TABLE1_CODES if c != "3-rep"
        ),
        "pentagon length << raid+m length at equal overhead": (
            by["pentagon"].code_length < by["(10,9) RAID+m"].code_length
            and abs(by["pentagon"].storage_overhead
                    - by["(10,9) RAID+m"].storage_overhead) < 1e-9
        ),
        "heptagon < pentagon < 3-rep": (
            by["heptagon"].mttdl_pattern_years
            < by["pentagon"].mttdl_pattern_years
            < by["3-rep"].mttdl_pattern_years
        ),
        "heptagon-local highest of the proposed codes": (
            by["heptagon-local"].mttdl_pattern_years
            > 10 * by["3-rep"].mttdl_pattern_years
        ),
    }
