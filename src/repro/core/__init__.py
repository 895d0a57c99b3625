"""Core coding layer: the paper's double-replication codes and baselines.

Public surface:

* :class:`Code` — abstract stripe code (encode / decode / repair plans);
* concrete codes — :class:`ReplicationCode`, :class:`PolygonCode`
  (:func:`pentagon`, :func:`heptagon`), :class:`RaidMirrorCode`,
  :class:`HeptagonLocalCode`, :class:`ReedSolomonCode`;
* :func:`make_code` registry and :func:`compute_metrics` for the static
  Table 1 columns;
* the plan interpreter :func:`run_plan` and its in-memory transport
  in :mod:`repro.core.executor`.
"""

from .code import Code, read_only_view
from .executor import (
    PlanExecutionError,
    execute_read_plan,
    execute_repair_plan,
    run_plan,
    verify_repair_plan,
)
from .heptagon_local import GLOBAL_SLOT, HEPTAGON_A_SLOTS, HEPTAGON_B_SLOTS, HeptagonLocalCode
from .polygon_local import PolygonLocalCode
from .layout import StripeLayout, Symbol, SymbolKind
from .metrics import (
    CodeMetrics,
    compute_metrics,
    degraded_read_bandwidth,
    double_repair_bandwidth,
    inherent_replication,
    single_repair_bandwidth,
)
from .polygon import PolygonCode, heptagon, pentagon
from .raid_mirror import RaidMirrorCode
from .reed_solomon import ReedSolomonCode
from .registry import EVALUATION_CODES, TABLE1_CODES, available_codes, make_code
from .repair import (
    DecodeStep,
    ReadPlan,
    RepairPlan,
    Transfer,
    TransferKind,
    UnrecoverableStripeError,
)
from .replication import ReplicationCode

__all__ = [
    "Code",
    "StripeLayout",
    "Symbol",
    "SymbolKind",
    "ReplicationCode",
    "PolygonCode",
    "pentagon",
    "heptagon",
    "RaidMirrorCode",
    "HeptagonLocalCode",
    "PolygonLocalCode",
    "HEPTAGON_A_SLOTS",
    "HEPTAGON_B_SLOTS",
    "GLOBAL_SLOT",
    "ReedSolomonCode",
    "make_code",
    "available_codes",
    "TABLE1_CODES",
    "EVALUATION_CODES",
    "CodeMetrics",
    "compute_metrics",
    "inherent_replication",
    "single_repair_bandwidth",
    "double_repair_bandwidth",
    "degraded_read_bandwidth",
    "RepairPlan",
    "ReadPlan",
    "Transfer",
    "TransferKind",
    "DecodeStep",
    "UnrecoverableStripeError",
    "run_plan",
    "execute_repair_plan",
    "execute_read_plan",
    "verify_repair_plan",
    "PlanExecutionError",
    "read_only_view",
]
