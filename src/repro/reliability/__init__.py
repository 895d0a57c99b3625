"""Reliability models: Markov-chain MTTDL plus Monte-Carlo validation.

Implements the "standard node failure and repair models" behind the
paper's Table 1 MTTDL column: per-code redundancy-group CTMCs with
pattern-exact loss conditions, a grouped system model, parameter
calibration against the paper's anchor row, and simulators that
validate the lumped state spaces.
"""

from .markov import HOURS_PER_YEAR, MarkovChain, hours_to_years, years_to_hours
from .mask_enum import (
    AUTO_SERIAL_MASKS,
    MAX_EXACT_LENGTH,
    mask_shard_bits,
    recoverable_mask_table,
    shard_ranges,
)
from .models import (
    DATA_LOSS,
    GroupModel,
    ReliabilityParams,
    brute_force_chain,
    group_chain,
    group_model,
    validate_lumping,
)
from .sector_errors import (
    add_sector_errors,
    critical_read_blocks,
    critical_states,
    group_chain_with_uber,
    system_mttdl_years_with_uber,
    uber_failure_prob,
)
from .simulate import (
    relative_error,
    simulate_chain_mttd,
    simulate_group_mttd,
    simulate_group_mttd_total,
)
from .system import (
    calibrate_mttf,
    group_count,
    group_mttdl_years,
    system_mttdl_years,
)

__all__ = [
    "MarkovChain",
    "hours_to_years",
    "years_to_hours",
    "HOURS_PER_YEAR",
    "DATA_LOSS",
    "ReliabilityParams",
    "brute_force_chain",
    "group_chain",
    "validate_lumping",
    "AUTO_SERIAL_MASKS",
    "MAX_EXACT_LENGTH",
    "recoverable_mask_table",
    "mask_shard_bits",
    "shard_ranges",
    "GroupModel",
    "group_model",
    "group_count",
    "group_mttdl_years",
    "system_mttdl_years",
    "calibrate_mttf",
    "simulate_chain_mttd",
    "simulate_group_mttd",
    "simulate_group_mttd_total",
    "relative_error",
    "uber_failure_prob",
    "critical_states",
    "critical_read_blocks",
    "add_sector_errors",
    "group_chain_with_uber",
    "system_mttdl_years_with_uber",
]
