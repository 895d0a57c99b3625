"""RAID+mirroring: XOR parity plus mirroring, one block per node.

The paper's comparison scheme [7]: given ``k`` data blocks, compute one
XOR parity, then mirror each of the ``k + 1`` blocks, storing the
``2(k + 1)`` copies on ``2(k + 1)`` distinct nodes.  The (10,9) RAID+m
code (k = 9) matches the pentagon's 2.22x overhead but spreads a stripe
over 20 nodes instead of 5 — which is exactly why the paper argues the
pentagon is preferable on small clusters.

Data loss requires two distinct symbols to lose *both* copies (the XOR
parity absorbs one doubly-lost symbol), so the code tolerates any three
node failures but has code length 2(k + 1).
"""

from __future__ import annotations

from .code import Code
from .layout import StripeLayout, Symbol, SymbolKind
from .repair import (
    ReadPlan,
    RepairPlan,
    Transfer,
    TransferKind,
    UnrecoverableStripeError,
)


class RaidMirrorCode(Code):
    """(k+1, k) RAID+m: k data + XOR parity, all mirrored, one block per node."""

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("RAID+m needs at least 2 data blocks")
        self.data_count = k
        self.name = f"({k + 1},{k}) RAID+m"

    def build_layout(self) -> StripeLayout:
        k = self.data_count
        symbols = []
        for index in range(k):
            coefficients = [0] * k
            coefficients[index] = 1
            symbols.append(Symbol(
                index=index, kind=SymbolKind.DATA,
                replicas=(2 * index, 2 * index + 1),
                coefficients=tuple(coefficients), label=f"d{index}",
            ))
        symbols.append(Symbol(
            index=k, kind=SymbolKind.LOCAL_PARITY,
            replicas=(2 * k, 2 * k + 1),
            coefficients=tuple([1] * k), label="P",
        ))
        return StripeLayout(self.name, k=k, length=2 * (k + 1), symbols=tuple(symbols))

    def symbol_of_slot(self, slot: int) -> int:
        """The single symbol stored on ``slot``."""
        return slot // 2

    def mirror_slot(self, slot: int) -> int:
        """The slot holding the other copy of ``slot``'s symbol."""
        return slot ^ 1

    def can_recover(self, failed_slots) -> bool:
        """Closed form: at most one symbol may lose both of its copies."""
        mask = self._slot_mask(failed_slots)
        # Bit 2i of ``mask & mask >> 1``: both copies of symbol i are
        # down; ``4**n // 3`` is the even bits 0b0101...01.
        return (mask & (mask >> 1) & ((1 << self.length) // 3)).bit_count() <= 1

    def symmetry_classes(self):
        """One class of mirror pairs: any pair, and either half of it."""
        return (tuple((slot, slot + 1) for slot in range(0, self.length, 2)),)

    # ------------------------------------------------------------------
    # Structured repair
    # ------------------------------------------------------------------
    def _plan_repair_uncached(self, failed: tuple[int, ...]) -> RepairPlan:
        if not failed:
            return RepairPlan(self.name, (), (), (), {})
        failed_set = set(failed)
        layout = self.layout
        doubly_lost = [
            symbol.index for symbol in layout.symbols
            if all(slot in failed_set for slot in symbol.replicas)
        ]
        if not self.can_recover(failed):
            raise UnrecoverableStripeError(self.name, failed, doubly_lost)
        transfers: list[Transfer] = []
        restored: dict[int, tuple[int, ...]] = {}
        for slot in failed:
            symbol = self.symbol_of_slot(slot)
            restored[slot] = (symbol,)
            mirror = self.mirror_slot(slot)
            if mirror not in failed_set:
                transfers.append(Transfer(
                    kind=TransferKind.COPY, source_slot=mirror, dest_slot=slot,
                    symbols_read=(symbol,), coefficients=(1,), delivers_symbol=symbol,
                    note=f"re-mirror {layout.symbols[symbol].label}",
                ))
        if doubly_lost:
            symbol = doubly_lost[0]
            first, second = layout.symbols[symbol].replicas
            # Read one live copy of every other symbol and XOR at the sink.
            payload_base = len(transfers)
            others = [s.index for s in layout.symbols if s.index != symbol]
            for other in others:
                source = layout.replicas_alive(other, failed_set)[0]
                transfers.append(Transfer(
                    kind=TransferKind.COPY, source_slot=source, dest_slot=first,
                    symbols_read=(other,), coefficients=(1,), delivers_symbol=None,
                    note="XOR reconstruction input",
                ))
            from .repair import DecodeStep
            decode = DecodeStep(
                at_slot=first, produces_symbol=symbol,
                payload_indices=tuple(range(payload_base, payload_base + len(others))),
                coefficients=tuple([1] * len(others)),
                note=f"XOR {len(others)} blocks -> {layout.symbols[symbol].label}",
            )
            transfers.append(Transfer(
                kind=TransferKind.DECODED, source_slot=first, dest_slot=second,
                symbols_read=(symbol,), coefficients=(1,), delivers_symbol=symbol,
                note="forward rebuilt block to second replacement",
            ))
            return RepairPlan(self.name, failed, tuple(transfers), (decode,), restored)
        return RepairPlan(self.name, failed, tuple(transfers), (), restored)

    def _plan_read_uncached(self, symbol_index: int, failed_slots,
                            reader_slot: int | None = None) -> ReadPlan:
        """Degraded read: XOR one copy of each of the other ``k`` symbols.

        This is the paper's 9-block repair bandwidth for the (10,9)
        RAID+m scheme, against the pentagon's 3 partial parities.
        """
        failed = set(failed_slots)
        alive = self.layout.replicas_alive(symbol_index, failed)
        if alive:
            return super()._plan_read_uncached(symbol_index, failed, reader_slot)
        layout = self.layout
        dest = reader_slot if reader_slot is not None else -1
        transfers = []
        for other in layout.symbols:
            if other.index == symbol_index:
                continue
            sources = layout.replicas_alive(other.index, failed)
            if not sources:
                raise UnrecoverableStripeError(self.name, failed, (symbol_index, other.index))
            transfers.append(Transfer(
                kind=TransferKind.COPY, source_slot=sources[0], dest_slot=dest,
                symbols_read=(other.index,), coefficients=(1,), delivers_symbol=None,
                note=f"XOR input {other.label}",
            ))
        from .repair import DecodeStep
        step = DecodeStep(
            at_slot=dest, produces_symbol=symbol_index,
            payload_indices=tuple(range(len(transfers))),
            coefficients=tuple([1] * len(transfers)),
            note="XOR all other symbols",
        )
        label = layout.symbols[symbol_index].label
        return ReadPlan(self.name, symbol_index, reader_slot, tuple(transfers), (step,),
                        note=f"degraded read of {label} via full XOR")
