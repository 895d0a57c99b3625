"""Plain r-way replication (the paper's 2-rep and 3-rep baselines).

A replication "stripe" is a single data symbol copied onto ``r``
distinct node-slots.  Repair is a one-block copy per lost replica;
degraded reads cost one block whenever any replica survives.
"""

from __future__ import annotations

from .code import Code
from .layout import StripeLayout, Symbol, SymbolKind
from .repair import RepairPlan, Transfer, TransferKind, UnrecoverableStripeError


class ReplicationCode(Code):
    """``r``-way replication of a single block per stripe."""

    def __init__(self, replicas: int):
        if replicas < 1:
            raise ValueError("replication factor must be >= 1")
        self.replicas = replicas
        self.name = f"{replicas}-rep"

    def build_layout(self) -> StripeLayout:
        symbol = Symbol(
            index=0,
            kind=SymbolKind.DATA,
            replicas=tuple(range(self.replicas)),
            coefficients=(1,),
            label="d0",
        )
        return StripeLayout(self.name, k=1, length=self.replicas, symbols=(symbol,))

    def can_recover(self, failed_slots) -> bool:
        """Closed form: the block survives while any replica survives."""
        return self._slot_mask(failed_slots).bit_count() < self.replicas

    #: Every replica is as good as any other.
    symmetry_classes = Code.one_flat_class

    def _plan_repair_uncached(self, failed: tuple[int, ...]) -> RepairPlan:
        """Copy the block from any surviving replica to each lost slot."""
        if not self.can_recover(failed):
            raise UnrecoverableStripeError(self.name, failed, (0,))
        survivors = [slot for slot in range(self.replicas) if slot not in failed]
        transfers = tuple(
            Transfer(
                kind=TransferKind.COPY,
                source_slot=survivors[0],
                dest_slot=slot,
                symbols_read=(0,),
                coefficients=(1,),
                delivers_symbol=0,
                note="re-replicate",
            )
            for slot in failed
        )
        restored = {slot: (0,) for slot in failed}
        return RepairPlan(self.name, failed, transfers, (), restored)
