"""Block identity and the typed errors the storage wire carries.

What a datanode, a client and the wire protocol share with the rest of
the cluster layer, in a module that imports nothing: a
:class:`BlockId` names one coded symbol of one stripe, and the three
errors are the ones :mod:`repro.service.protocol` marshals by code.
:mod:`~repro.cluster.namenode`, :mod:`~repro.cluster.datanode` and
:mod:`~repro.cluster.placement` re-export them where they were defined
before, so a daemon that only stores blocks never loads the coding
stack those modules need.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BlockId:
    """Globally unique identifier of one coded symbol of one stripe."""

    file_name: str
    stripe_index: int
    symbol_index: int

    def __str__(self) -> str:
        return f"{self.file_name}#{self.stripe_index}:{self.symbol_index}"


class BlockNotFoundError(KeyError):
    """Raised when a node is asked for a block it does not hold."""


class CorruptBlockError(RuntimeError):
    """A block's bytes no longer match its write-time checksum."""

    def __init__(self, node_id: int, block: BlockId):
        super().__init__(f"node {node_id}: block {block} failed its "
                         "checksum (stored bytes are corrupt)")
        self.node_id = node_id
        self.block = block


class PlacementError(RuntimeError):
    """Raised when a stripe cannot be placed on the available nodes."""
