"""Locally regenerating polygon codes: local polygons + global parities.

The paper's heptagon-local code is one member of the *locally
regenerating* family of [8]: take ``groups`` disjoint polygon codes
(the local codes) and add a node of ``global_parities`` GF(2^8)
Vandermonde parities computed over **all** data symbols.  Failures that
a polygon can absorb repair locally (repair-by-transfer / partial
parities, never leaving the group's rack); heavier damage inside one
group is solved from the local XOR equation plus the global rows.

``PolygonLocalCode(7, groups=2, global_parities=2)`` is exactly the
paper's heptagon-local code (86 blocks / 40 data / 15 nodes, 2.15x);
:class:`~repro.core.heptagon_local.HeptagonLocalCode` keeps that name
and adds the closed-form fatality predicate the reliability models use.
Other members — e.g. ``pentagon-local`` = two pentagons + two globals —
are available through the registry for exploration; their recoverability
is decided by the exact generic rank test.
"""

from __future__ import annotations

from functools import cached_property

from ..gf import gf_pow
from .code import Code
from .layout import StripeLayout, Symbol, SymbolKind
from .polygon import PolygonCode
from .repair import (
    DecodeStep,
    ReadPlan,
    RepairPlan,
    Transfer,
    TransferKind,
    UnrecoverableStripeError,
)


class PolygonLocalCode(Code):
    """``groups`` local polygon(n) codes + one global-parity node."""

    def __init__(self, n: int, groups: int = 2, global_parities: int = 2):
        if groups < 1:
            raise ValueError("need at least one local group")
        if global_parities < 1:
            raise ValueError("need at least one global parity")
        self.n = n
        self.groups = groups
        self.global_parities = global_parities
        self._polygon = PolygonCode(n)
        #: Data symbols per local group.
        self.group_k = self._polygon.k
        #: Distinct symbols per local group (data + local parity).
        self.group_symbols = self._polygon.symbol_count
        if groups * self.group_k + global_parities > 255:
            raise ValueError("GF(256) Vandermonde generators exhausted")
        self.name = self._default_name()

    def _default_name(self) -> str:
        base = {5: "pentagon", 7: "heptagon"}.get(self.n, f"polygon-{self.n}")
        if self.groups == 2 and self.global_parities == 2:
            return f"{base}-local"
        return f"{base}-local({self.groups}g,{self.global_parities}p)"

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def global_slot(self) -> int:
        """Slot index of the global-parity node (the last slot)."""
        return self.groups * self.n

    def build_layout(self) -> StripeLayout:
        k = self.groups * self.group_k
        symbols: list[Symbol] = []
        polygon_layout = self._polygon.layout
        for group in range(self.groups):
            slot_base = group * self.n
            column_base = group * self.group_k
            tag = chr(ord("A") + group)
            for local in polygon_layout.symbols:
                index = len(symbols)
                replicas = tuple(slot_base + slot for slot in local.replicas)
                coefficients = [0] * k
                if local.kind is SymbolKind.DATA:
                    coefficients[column_base + local.index] = 1
                    label = f"d{column_base + local.index}"
                    kind = SymbolKind.DATA
                else:
                    for column in range(column_base, column_base + self.group_k):
                        coefficients[column] = 1
                    label = f"P{tag}"
                    kind = SymbolKind.LOCAL_PARITY
                symbols.append(Symbol(
                    index=index, kind=kind, replicas=replicas,
                    coefficients=tuple(coefficients), label=label,
                ))
        for power in range(1, self.global_parities + 1):
            coefficients = tuple(
                gf_pow(generator, power) for generator in range(1, k + 1)
            )
            symbols.append(Symbol(
                index=len(symbols), kind=SymbolKind.GLOBAL_PARITY,
                replicas=(self.global_slot,), coefficients=coefficients,
                label=f"G{power}",
            ))
        return StripeLayout(
            self.name, k=k, length=self.groups * self.n + 1,
            symbols=tuple(symbols),
        )

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def group_of_slot(self, slot: int) -> int | None:
        """Local-group index of a slot, or None for the global node."""
        if slot == self.global_slot:
            return None
        if not 0 <= slot < self.global_slot:
            raise ValueError(f"slot {slot} out of range")
        return slot // self.n

    def split_failures(self, failed_slots) -> tuple[list[list[int]], bool]:
        """Partition failures into per-group lists plus the global flag."""
        per_group: list[list[int]] = [[] for _ in range(self.groups)]
        global_failed = False
        for slot in sorted(set(failed_slots)):
            group = self.group_of_slot(slot)
            if group is None:
                global_failed = True
            else:
                per_group[group].append(slot)
        return per_group, global_failed

    def symmetry_classes(self):
        """One class per local polygon, then the global node alone."""
        n = self.n
        return (*(tuple((slot,) for slot in range(group * n, (group + 1) * n))
                  for group in range(self.groups)),
                ((self.global_slot,),))

    def local_group_slots(self) -> dict[str, tuple[int, ...]]:
        """Failure domains for rack-aware placement."""
        domains = {
            chr(ord("A") + group): tuple(
                range(group * self.n, (group + 1) * self.n)
            )
            for group in range(self.groups)
        }
        domains["G"] = (self.global_slot,)
        return domains

    def _symbol_base(self, group: int) -> int:
        return group * self.group_symbols

    # Recoverability: the general family keeps the exact rank test of
    # the shared (and now memoised) :meth:`Code.can_recover` engine,
    # because generalized-Vandermonde minors over GF(256) can vanish
    # for some geometries, so counting equations is not sufficient in
    # general.  The heptagon-local subclass overrides the
    # ``_recover_uncached`` hook with its proven closed form.

    # ------------------------------------------------------------------
    # Repair planning
    # ------------------------------------------------------------------
    def _remap_polygon_plan(self, plan: RepairPlan, slot_base: int,
                            symbol_base: int) -> tuple[list[Transfer], list[DecodeStep], dict]:
        """Translate an inner polygon plan into stripe-global indices."""
        transfers = []
        for transfer in plan.transfers:
            transfers.append(Transfer(
                kind=transfer.kind,
                source_slot=None if transfer.source_slot is None
                else transfer.source_slot + slot_base,
                dest_slot=transfer.dest_slot + slot_base,
                symbols_read=tuple(s + symbol_base for s in transfer.symbols_read),
                coefficients=transfer.coefficients,
                delivers_symbol=None if transfer.delivers_symbol is None
                else transfer.delivers_symbol + symbol_base,
                note=transfer.note,
            ))
        decode_steps = [
            DecodeStep(
                at_slot=step.at_slot + slot_base,
                produces_symbol=step.produces_symbol + symbol_base,
                payload_indices=step.payload_indices,   # re-based by caller
                coefficients=step.coefficients,
                note=step.note,
            )
            for step in plan.decode_steps
        ]
        restored = {
            slot + slot_base: tuple(s + symbol_base for s in symbols)
            for slot, symbols in plan.restored.items()
        }
        return transfers, decode_steps, restored

    def _plan_repair_uncached(self, failed: tuple[int, ...]) -> RepairPlan:
        if not failed:
            return RepairPlan(self.name, (), (), (), {})
        if not self.can_recover(failed):
            raise UnrecoverableStripeError(self.name, failed,
                                           self.layout.lost_symbols(set(failed)))
        per_group, global_failed = self.split_failures(failed)
        if any(len(slots) > 2 for slots in per_group):
            # A group lost a triangle (or worse): needs the global
            # equations; the generic GF solver plan handles it exactly.
            return super()._plan_repair_uncached(failed)

        transfers: list[Transfer] = []
        decode_steps: list[DecodeStep] = []
        restored: dict[int, tuple[int, ...]] = {}
        for group, slots in enumerate(per_group):
            if not slots:
                continue
            slot_base = group * self.n
            local_plan = self._polygon.plan_node_repair(
                [slot - slot_base for slot in slots]
            )
            local_transfers, local_steps, local_restored = self._remap_polygon_plan(
                local_plan, slot_base, self._symbol_base(group)
            )
            payload_shift = len(transfers)
            transfers.extend(local_transfers)
            for step in local_steps:
                decode_steps.append(DecodeStep(
                    at_slot=step.at_slot, produces_symbol=step.produces_symbol,
                    payload_indices=tuple(i + payload_shift
                                          for i in step.payload_indices),
                    coefficients=step.coefficients, note=step.note,
                ))
            restored.update(local_restored)
        if global_failed:
            global_transfers, global_steps = self._plan_global_rebuild(
                payload_shift=len(transfers), failed=set(failed)
            )
            transfers.extend(global_transfers)
            decode_steps.extend(global_steps)
            restored[self.global_slot] = self.layout.symbols_on_slot(self.global_slot)
        return RepairPlan(self.name, failed, tuple(transfers),
                          tuple(decode_steps), restored)

    @cached_property
    def _primaries(self) -> dict[int, list[int]]:
        """For each slot, the data symbols it is 'primary' source for."""
        primaries: dict[int, list[int]] = {}
        for symbol in self.layout.symbols:
            if symbol.kind is not SymbolKind.DATA:
                continue
            primaries.setdefault(min(symbol.replicas), []).append(symbol.index)
        return primaries

    def _data_column(self, symbol_index: int) -> int:
        return self.layout.data_column(symbol_index)

    def _plan_global_rebuild(self, payload_shift: int,
                             failed: set[int]) -> tuple[list[Transfer], list[DecodeStep]]:
        """Recompute the global parities via per-node partial combines.

        Every slot owning 'primary' data symbols sends one partial
        GF-combination per parity; doubly-lost symbols (rebuilt by the
        local plans earlier in the same repair) are forwarded once and
        folded into each parity equation with their own weight.
        """
        layout = self.layout
        generator = layout.generator_matrix()
        transfers: list[Transfer] = []
        decode_steps: list[DecodeStep] = []
        global_symbols = [s for s in layout.symbols
                          if s.kind is SymbolKind.GLOBAL_PARITY]
        forwarded: dict[int, int] = {}   # symbol -> payload index
        for parity in global_symbols:
            contributions: list[tuple[int, int]] = []
            for slot in sorted(self._primaries):
                by_source: dict[int | None, list[int]] = {}
                for symbol in self._primaries[slot]:
                    if slot not in failed:
                        by_source.setdefault(slot, []).append(symbol)
                        continue
                    alternates = layout.replicas_alive(symbol, failed)
                    key = alternates[0] if alternates else None
                    by_source.setdefault(key, []).append(symbol)
                for source, symbols in sorted(
                        by_source.items(),
                        key=lambda item: (item[0] is None, item[0])):
                    if source is None:
                        for symbol in symbols:
                            if symbol not in forwarded:
                                forwarded[symbol] = payload_shift + len(transfers)
                                transfers.append(Transfer(
                                    kind=TransferKind.DECODED, source_slot=None,
                                    dest_slot=self.global_slot,
                                    symbols_read=(symbol,), coefficients=(1,),
                                    delivers_symbol=None,
                                    note="forward locally rebuilt block "
                                         "for global parity",
                                ))
                            weight = int(
                                generator[parity.index][self._data_column(symbol)])
                            contributions.append((forwarded[symbol], weight))
                        continue
                    coefficients = tuple(
                        int(generator[parity.index][self._data_column(s)])
                        for s in symbols
                    )
                    contributions.append((payload_shift + len(transfers), 1))
                    transfers.append(Transfer(
                        kind=TransferKind.PARTIAL_PARITY, source_slot=source,
                        dest_slot=self.global_slot, symbols_read=tuple(symbols),
                        coefficients=coefficients, delivers_symbol=None,
                        note=f"partial {parity.label} over "
                             f"{len(symbols)} local blocks",
                    ))
            decode_steps.append(DecodeStep(
                at_slot=self.global_slot, produces_symbol=parity.index,
                payload_indices=tuple(index for index, _ in contributions),
                coefficients=tuple(weight for _, weight in contributions),
                note=f"combine partials -> {parity.label}",
            ))
        return transfers, decode_steps

    def _plan_read_uncached(self, symbol_index: int, failed_slots,
                            reader_slot: int | None = None) -> ReadPlan:
        """Degraded reads of group symbols resolve locally when possible."""
        failed = set(failed_slots)
        layout = self.layout
        if layout.replicas_alive(symbol_index, failed):
            return super()._plan_read_uncached(symbol_index, failed, reader_slot)
        symbol = layout.symbols[symbol_index]
        if symbol.kind is not SymbolKind.GLOBAL_PARITY:
            group = self.group_of_slot(symbol.replicas[0])
            slot_base = group * self.n
            group_slots = set(range(slot_base, slot_base + self.n))
            local_failed = {slot - slot_base for slot in failed & group_slots}
            if len(local_failed) == 2 and not (failed - group_slots):
                local_plan = self._polygon.plan_degraded_read(
                    symbol_index - self._symbol_base(group), local_failed,
                )
                dest = reader_slot if reader_slot is not None else -1
                transfers = tuple(
                    Transfer(
                        kind=t.kind, source_slot=t.source_slot + slot_base,
                        dest_slot=dest,
                        symbols_read=tuple(
                            s + self._symbol_base(group) for s in t.symbols_read),
                        coefficients=t.coefficients, delivers_symbol=None,
                        note=t.note,
                    )
                    for t in local_plan.transfers
                )
                steps = tuple(
                    DecodeStep(
                        at_slot=dest,
                        produces_symbol=(step.produces_symbol
                                         + self._symbol_base(group)),
                        payload_indices=step.payload_indices,
                        coefficients=step.coefficients, note=step.note,
                    )
                    for step in local_plan.decode_steps
                )
                tag = chr(ord("A") + group)
                return ReadPlan(self.name, symbol_index, reader_slot,
                                transfers, steps,
                                note=f"local degraded read in group {tag}")
        return super()._plan_read_uncached(symbol_index, failed, reader_slot)

    # ------------------------------------------------------------------
    # Introspection used by experiments and tests
    # ------------------------------------------------------------------
    def enumerate_fatal_quadruples(self) -> list[frozenset[int]]:
        """All fatal 4-slot patterns (bulk decodability query)."""
        return self.fatal_patterns(4)
