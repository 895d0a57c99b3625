"""Mini-HDFS substrate: topology, placement, metadata, block storage,
degraded reads, failure injection and byte-accounted repair.

The cluster layer is what the paper built on Facebook's HDFS-RAID: it
stores real encoded bytes, fetches each plan's fetch list from live
DataNodes for the core plan interpreter (:func:`repro.core.run_plan`),
and charges every transfer it lands to a network ledger so the
Section 2.1/3.1 bandwidth numbers can be measured rather than asserted.

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so a datanode
daemon, which needs only :mod:`~repro.cluster.blocks` and
:mod:`~repro.cluster.datanode`, never loads the coding stack.
"""

from importlib import import_module

#: Public name -> the module of this package that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("BlockId", "BlockNotFoundError", "CorruptBlockError",
         "PlacementError"), "blocks"),
    **dict.fromkeys(("DataNode", "block_checksum"), "datanode"),
    **dict.fromkeys(("FailureEvent", "FailureInjector", "FailureKind"),
                    "failure"),
    "MiniHDFS": "filesystem",
    **dict.fromkeys(("FileInfo", "NameNode", "StripeInfo", "choose_targets"),
                    "namenode"),
    **dict.fromkeys(("NetworkLedger", "TransferRecord"), "network"),
    **dict.fromkeys(
        ("PlacementPolicy", "RandomSpreadPlacement", "RoundRobinPlacement",
         "RackAwarePlacement", "make_placement", "rack_loss_survivability",
         "rack_slot_groups"), "placement"),
    **dict.fromkeys(("RaidNode", "RaidPolicy", "RaidReport"), "raidnode"),
    **dict.fromkeys(("ClusterTopology", "NodeInfo"), "topology"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
