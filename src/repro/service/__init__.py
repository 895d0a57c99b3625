"""The long-lived storage service: real daemons over real sockets.

The in-memory :mod:`repro.cluster` simulator made the paper's numbers
cheap to check; this package makes its *operational* story checkable —
namenode + datanode processes speaking the :mod:`repro.net` framing, a
client whose reads degrade transparently past dead or corrupt
datanodes, deterministic fault injection, and a background checker
that detects and repairs damage through the same
:meth:`~repro.core.code.Code.plan_node_repair` plans the bandwidth
tables are built on.

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so a datanode
daemon never loads the client, the namenode or the load generator.
"""

from importlib import import_module

#: Public name -> the module of this package that defines it.
_EXPORTS = {
    "RetryPolicy": "client",
    "StorageClient": "client",
    "ServiceCluster": "cluster",
    "DataNodeServer": "datanode",
    "run_datanode": "datanode",
    "Fault": "faults",
    "FaultPlan": "faults",
    "parse_fault": "faults",
    "parse_fault_plan": "faults",
    "run_load": "load",
    "NameNodeServer": "namenode",
    **dict.fromkeys(
        ("SERVICE_VERSION", "ReadFailedError", "ServiceError",
         "ServiceUnavailableError", "WriteFailedError", "WriteRefusedError"),
        "protocol"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
