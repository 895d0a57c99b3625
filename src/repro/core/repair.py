"""Repair and degraded-read plans with exact bandwidth accounting.

A :class:`RepairPlan` is a declarative list of :class:`Transfer` steps.
Each transfer moves exactly one block-sized payload across the network:
either a verbatim copy of a surviving replica, or a *partial parity*
computed at the source from blocks it holds locally (the "combine
function" optimisation the paper attributes to array codes).  Network
cost is therefore simply the number of transfers, in block units —
matching how the paper counts repair bandwidth ("the overall network
data transfer incurred in repairing the two nodes ... is 10 blocks").

Plans are *pure descriptions*.  One interpreter executes them,
:func:`repro.core.executor.run_plan`, over three transports: in-memory
stripes (the tests verify that the described arithmetic really
reconstructs the lost bytes), MiniHDFS DataNodes with every transfer
charged to the network ledger, and the storage service's datanode
``get``/``combine`` RPCs.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType


class TransferKind(enum.Enum):
    """How the payload of a transfer is produced at its source."""

    COPY = "copy"                    # verbatim replica of one symbol
    PARTIAL_PARITY = "partial"       # XOR / GF-combination computed at source
    DECODED = "decoded"              # produced at the sink by solving equations


@dataclass(frozen=True)
class Transfer:
    """One block-sized network transfer.

    Attributes:
        kind: how the payload is produced.
        source_slot: stripe node-slot sending the payload (``None`` for
            payloads synthesised at the replacement node itself).
        dest_slot: stripe node-slot receiving the payload.
        symbols_read: symbol indices read at the source to build the
            payload (one for a COPY; several for a PARTIAL_PARITY).
        coefficients: GF(2^8) weight applied to each symbol read, aligned
            with ``symbols_read``; all ones for plain XOR combines.
        delivers_symbol: symbol index the payload helps restore, or
            ``None`` when it is an intermediate equation input.
        note: human-readable description for reports.
    """

    kind: TransferKind
    source_slot: int | None
    dest_slot: int
    symbols_read: tuple[int, ...]
    coefficients: tuple[int, ...]
    delivers_symbol: int | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if len(self.symbols_read) != len(self.coefficients):
            raise ValueError("coefficients must align with symbols_read")
        if self.kind is TransferKind.COPY and len(self.symbols_read) != 1:
            raise ValueError("a COPY transfer reads exactly one symbol")

    @property
    def blocks_moved(self) -> int:
        """Network cost of this transfer, in block units (always 1)."""
        return 1

    @property
    def plain_copy(self) -> bool:
        """True when the payload is the stored block itself, so no
        transport needs arithmetic for it: the in-process ones hand on a
        read-only view, the service asks for a ``get``, not a ``combine``."""
        return self.kind is TransferKind.COPY and self.coefficients[0] == 1


@dataclass(frozen=True)
class DecodeStep:
    """A linear solve performed at a replacement node.

    The step consumes payloads already delivered there (referenced by
    their transfer indices) and produces ``produces_symbol``.  The
    ``equation`` maps contribution coefficients so tests can execute the
    arithmetic: recovered = sum_i coeff_i * payload_i in GF(2^8).
    """

    at_slot: int
    produces_symbol: int
    payload_indices: tuple[int, ...]
    coefficients: tuple[int, ...]
    note: str = ""


@dataclass(frozen=True)
class RepairPlan:
    """Complete recovery recipe for a set of failed slots.

    Attributes:
        code_name: owning code, for reports.
        failed_slots: slots being repaired.
        transfers: every network transfer, in execution order.
        decode_steps: solves performed at replacement nodes after their
            input transfers land.
        restored: read-only mapping ``slot -> tuple of symbol indices``
            put back on each replacement node (must equal the layout's
            slot map for a full repair).  Read-only because a code hands
            the same memoised plan to every caller.
    """

    code_name: str
    failed_slots: tuple[int, ...]
    transfers: tuple[Transfer, ...]
    decode_steps: tuple[DecodeStep, ...] = ()
    restored: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "restored",
                           MappingProxyType(dict(self.restored)))

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild from a plain dict.
        return (type(self), (self.code_name, self.failed_slots,
                             self.transfers, self.decode_steps,
                             dict(self.restored)))

    @property
    def network_blocks(self) -> int:
        """Total network traffic of the plan in block units."""
        return sum(transfer.blocks_moved for transfer in self.transfers)

    def summary(self) -> str:
        """One-line human summary used by examples and reports."""
        slots = ",".join(str(slot) for slot in self.failed_slots)
        return (
            f"{self.code_name}: repair slots [{slots}] moves "
            f"{self.network_blocks} blocks in {len(self.transfers)} transfers"
        )


@dataclass(frozen=True)
class ReadPlan:
    """Plan for a (possibly degraded) read of one symbol.

    ``network_blocks`` is 0 when the reader is co-located with a live
    replica, 1 for a plain remote read, and larger when the symbol must
    be reconstructed on the fly (the paper's Section 3.1 scenario: both
    replicas of a block temporarily down while a map task wants it).
    """

    code_name: str
    symbol: int
    reader_slot: int | None
    transfers: tuple[Transfer, ...]
    decode_steps: tuple[DecodeStep, ...] = ()
    note: str = ""

    @property
    def network_blocks(self) -> int:
        return sum(transfer.blocks_moved for transfer in self.transfers)

    @property
    def degraded(self) -> bool:
        """True when the read reconstructs rather than copies.

        Reconstruction shows up either as non-copy transfers (partial
        parities) or as a decode step combining plain copies (the
        RAID+m / Reed-Solomon style full XOR rebuild).
        """
        if self.decode_steps:
            return True
        return any(t.kind is not TransferKind.COPY for t in self.transfers)


class UnrecoverableStripeError(RuntimeError):
    """Raised when a failure pattern destroys data permanently."""

    def __init__(self, code_name: str, failed_slots, lost_symbols=()):
        slots = sorted(failed_slots)
        message = f"{code_name}: failure of slots {slots} is unrecoverable"
        if lost_symbols:
            message += f" (symbols {sorted(lost_symbols)} unresolvable)"
        super().__init__(message)
        self.failed_slots = tuple(slots)
        self.lost_symbols = tuple(lost_symbols)
