"""Mini-HDFS substrate: topology, placement, metadata, block storage,
degraded reads, failure injection and byte-accounted repair.

The cluster layer is what the paper built on Facebook's HDFS-RAID: it
stores real encoded bytes, gives the core plan interpreter
(:func:`repro.core.run_plan`) a transport over live DataNodes, and
charges every transfer it lands to a network ledger so the
Section 2.1/3.1 bandwidth numbers can be measured rather than asserted.
"""

from .datanode import (
    BlockNotFoundError,
    CorruptBlockError,
    DataNode,
    block_checksum,
)
from .failure import FailureEvent, FailureInjector, FailureKind
from .filesystem import MiniHDFS
from .namenode import BlockId, FileInfo, NameNode, StripeInfo, choose_targets
from .network import NetworkLedger, TransferRecord
from .placement import (
    PlacementError,
    PlacementPolicy,
    RackAwarePlacement,
    RandomSpreadPlacement,
    RoundRobinPlacement,
    make_placement,
    rack_loss_survivability,
    rack_slot_groups,
)
from .raidnode import RaidNode, RaidPolicy, RaidReport
from .topology import ClusterTopology, NodeInfo

__all__ = [
    "ClusterTopology",
    "NodeInfo",
    "NetworkLedger",
    "TransferRecord",
    "NameNode",
    "BlockId",
    "FileInfo",
    "StripeInfo",
    "choose_targets",
    "DataNode",
    "BlockNotFoundError",
    "CorruptBlockError",
    "block_checksum",
    "PlacementPolicy",
    "RandomSpreadPlacement",
    "RoundRobinPlacement",
    "RackAwarePlacement",
    "PlacementError",
    "make_placement",
    "rack_loss_survivability",
    "rack_slot_groups",
    "MiniHDFS",
    "FailureInjector",
    "FailureKind",
    "FailureEvent",
    "RaidNode",
    "RaidPolicy",
    "RaidReport",
]
