"""System-level MTTDL: group scaling and parameter calibration.

Following the paper's reference model [7] (Xin et al., MSST 2003), the
``N``-node system is organised into independent *redundancy groups* of
one code length each; a 25-node system holds ``floor(25 / L)`` groups
(at least one).  Data loss anywhere is loss: the system's loss rate is
the sum of the groups' rates, so

    MTTDL_system = MTTDL_group / group_count.

The paper does not publish its failure/repair rates, so
:func:`calibrate_mttf` back-solves the node MTTF that pins a chosen
anchor row (3-rep by default) to the paper's Table 1 value; every other
row is then predicted by the calibrated environment and compared
against the paper in ``results/table1.txt`` (ROADMAP item 6 tracks the
gap).
"""

from __future__ import annotations

from ..core import make_code
from .markov import hours_to_years
from .models import ReliabilityParams, group_model


def group_count(code_name: str, node_count: int) -> int:
    """Redundancy groups a ``node_count`` system can host (at least 1)."""
    length = make_code(code_name).length
    return max(1, node_count // length)


def group_mttdl_years(code_name: str, params: ReliabilityParams,
                      model: str = "pattern") -> float:
    """MTTDL of a single redundancy group, in years."""
    return hours_to_years(group_model(code_name, params, model).mttdl_hours())


def system_mttdl_years(code_name: str, params: ReliabilityParams,
                       node_count: int = 25, model: str = "pattern") -> float:
    """MTTDL of the ``node_count`` system, in years."""
    per_group = group_mttdl_years(code_name, params, model)
    return per_group / group_count(code_name, node_count)


def calibrate_mttf(target_years: float, anchor: str = "3-rep",
                   node_count: int = 25, model: str = "pattern",
                   base: ReliabilityParams | None = None,
                   tolerance: float = 1e-6) -> ReliabilityParams:
    """Find the node MTTF putting ``anchor`` at ``target_years`` MTTDL.

    System MTTDL grows monotonically with node MTTF, so a bisection on
    log-MTTF converges quickly.  The repair time and discipline of
    ``base`` are preserved.
    """
    base = base if base is not None else ReliabilityParams()

    def mttdl_for(mttf_hours: float) -> float:
        params = base.with_mttf(mttf_hours)
        return system_mttdl_years(anchor, params, node_count, model)

    low, high = 1.0, 1e9
    if not mttdl_for(low) <= target_years <= mttdl_for(high):
        raise ValueError(
            f"target {target_years:g} years is outside the calibratable range"
        )
    for _ in range(200):
        mid = (low * high) ** 0.5
        if mttdl_for(mid) < target_years:
            low = mid
        else:
            high = mid
        if high / low < 1 + tolerance:
            break
    return base.with_mttf((low * high) ** 0.5)
