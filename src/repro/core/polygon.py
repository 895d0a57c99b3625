"""Polygon codes: repair-by-transfer MBR codes on a complete graph.

The pentagon code of the paper is the ``n = 5`` member of this family
(the heptagon is ``n = 7``).  A stripe is laid out on the complete graph
``K_n``:

* each of the ``C(n,2)`` edges carries one distinct symbol, stored on
  *both* endpoint nodes (the inherent double replication);
* the first ``C(n,2) - 1`` edge symbols are data; the lexicographically
  last edge carries the XOR parity ``P`` of all data symbols;
* every node therefore stores ``n - 1`` blocks of the stripe — the
  array-code concentration whose MapReduce consequences the paper
  studies.

With nodes numbered ``0..n-1`` and edges enumerated ``(0,1), (0,2), ...,
(n-2,n-1)``, the pentagon layout reproduces Fig. 1(a) exactly: node N1
holds blocks {1,2,3,4}, node N4 holds {3,6,8,P}, and so on (paper labels
are 1-based; ours are 0-based with the parity last).

Repair strategies implemented (all verified bit-exactly by the tests):

* **single node** — repair-by-transfer: each lost symbol is copied from
  the other endpoint of its edge; ``n - 1`` block transfers, no
  computation anywhere.
* **two nodes** — the ``2(n-3)`` singly-lost symbols are copied from
  their surviving endpoints; the doubly-lost symbol (the edge joining
  the failed pair) is rebuilt from ``n - 2`` *partial parities*, one per
  survivor.  Survivor ``s`` XORs its two edges into the failed pair with
  its assigned survivor-internal edges, the assignment being an
  orientation of the survivor clique so every internal edge is counted
  exactly once; the XOR of all partials then telescopes to the missing
  symbol.  For the pentagon this is the paper's ``P3 = 3+6+P`` scheme
  and the total two-node repair traffic is 6 + 3 + 1 = 10 blocks.
* **degraded read** of a doubly-lost symbol — just the ``n - 2`` partial
  parities (3 blocks for the pentagon vs 9 for (10,9) RAID+m, the
  Section 3.1 comparison).
"""

from __future__ import annotations

import itertools

from .code import Code
from .layout import StripeLayout, Symbol, SymbolKind
from .repair import (
    DecodeStep,
    ReadPlan,
    RepairPlan,
    Transfer,
    TransferKind,
    UnrecoverableStripeError,
)


class PolygonCode(Code):
    """Repair-by-transfer MBR code on the complete graph ``K_n``."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("polygon codes need at least 3 nodes")
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(
            itertools.combinations(range(n), 2)
        )
        self.name = {5: "pentagon", 7: "heptagon"}.get(n, f"polygon-{n}")

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def build_layout(self) -> StripeLayout:
        edge_count = len(self.edges)
        k = edge_count - 1
        symbols = []
        for index, edge in enumerate(self.edges[:-1]):
            coefficients = [0] * k
            coefficients[index] = 1
            symbols.append(Symbol(
                index=index, kind=SymbolKind.DATA, replicas=edge,
                coefficients=tuple(coefficients), label=f"d{index}",
            ))
        symbols.append(Symbol(
            index=k, kind=SymbolKind.LOCAL_PARITY, replicas=self.edges[-1],
            coefficients=tuple([1] * k), label="P",
        ))
        return StripeLayout(self.name, k=k, length=self.n, symbols=tuple(symbols))

    def edge_symbol(self, a: int, b: int) -> int:
        """Symbol index stored on the edge joining nodes ``a`` and ``b``."""
        if a == b:
            raise ValueError("an edge joins two distinct nodes")
        return self.edges.index((min(a, b), max(a, b)))

    def can_recover(self, failed_slots) -> bool:
        """Closed form: any two failures survive; three lose a triangle.

        Three failed vertices doubly-lose the three edges among them and
        a single XOR parity cannot resolve them (cross-checked against
        the generic rank test in the suite).
        """
        return self._slot_mask(failed_slots).bit_count() <= 2

    #: The complete graph is vertex-transitive.
    symmetry_classes = Code.one_flat_class

    # ------------------------------------------------------------------
    # Structured repair
    # ------------------------------------------------------------------
    def _plan_repair_uncached(self, failed: tuple[int, ...]) -> RepairPlan:
        if not self.can_recover(failed):
            raise UnrecoverableStripeError(self.name, failed, self.layout.lost_symbols(set(failed)))
        if not failed:
            return RepairPlan(self.name, (), (), (), {})
        if len(failed) == 1:
            return self._plan_single_repair(failed[0])
        return self._plan_double_repair(failed[0], failed[1])

    def _plan_single_repair(self, failed: int) -> RepairPlan:
        """Repair-by-transfer: each edge symbol survives on its other endpoint."""
        transfers = []
        for neighbour in range(self.n):
            if neighbour == failed:
                continue
            symbol = self.edge_symbol(failed, neighbour)
            transfers.append(Transfer(
                kind=TransferKind.COPY, source_slot=neighbour, dest_slot=failed,
                symbols_read=(symbol,), coefficients=(1,), delivers_symbol=symbol,
                note=f"repair-by-transfer of {self.layout.symbols[symbol].label}",
            ))
        restored = {failed: self.layout.symbols_on_slot(failed)}
        return RepairPlan(self.name, (failed,), tuple(transfers), (), restored)

    def _survivor_edge_orientation(self, survivors: list[int]) -> dict[int, list[int]]:
        """Assign each survivor-internal edge to exactly one endpoint.

        Uses the balanced tournament orientation on the survivor cycle:
        the edge between the ``i``-th and ``j``-th survivors goes to the
        endpoint from which the other is at most ``m // 2`` steps ahead.
        For three survivors this is the paper's symmetric triangle
        assignment (one internal edge per partial parity).
        """
        m = len(survivors)
        assignment: dict[int, list[int]] = {s: [] for s in survivors}
        for i, j in itertools.combinations(range(m), 2):
            owner = survivors[i] if (j - i) <= m // 2 else survivors[j]
            assignment[owner].append(self.edge_symbol(survivors[i], survivors[j]))
        return assignment

    def partial_parity_reads(self, f1: int, f2: int) -> dict[int, tuple[int, ...]]:
        """Symbols each survivor XORs into its partial parity for edge (f1,f2).

        The XOR of the returned groups over all survivors covers every
        symbol except the doubly-lost edge exactly once, and therefore
        equals that edge symbol (the stripe-wide XOR is zero).
        """
        survivors = [s for s in range(self.n) if s not in (f1, f2)]
        assignment = self._survivor_edge_orientation(survivors)
        reads: dict[int, tuple[int, ...]] = {}
        for survivor in survivors:
            symbols = [self.edge_symbol(survivor, f1), self.edge_symbol(survivor, f2)]
            symbols.extend(assignment[survivor])
            reads[survivor] = tuple(symbols)
        return reads

    def _plan_double_repair(self, f1: int, f2: int) -> RepairPlan:
        layout = self.layout
        survivors = [s for s in range(self.n) if s not in (f1, f2)]
        transfers: list[Transfer] = []
        # 1. Copy every singly-lost symbol from its surviving endpoint.
        for failed, other in ((f1, f2), (f2, f1)):
            for survivor in survivors:
                symbol = self.edge_symbol(failed, survivor)
                transfers.append(Transfer(
                    kind=TransferKind.COPY, source_slot=survivor, dest_slot=failed,
                    symbols_read=(symbol,), coefficients=(1,), delivers_symbol=symbol,
                    note=f"re-mirror {layout.symbols[symbol].label}",
                ))
        # 2. Rebuild the doubly-lost edge symbol at f1 from partial parities.
        doubly_lost = self.edge_symbol(f1, f2)
        reads = self.partial_parity_reads(f1, f2)
        payload_base = len(transfers)
        for survivor in survivors:
            symbols = reads[survivor]
            transfers.append(Transfer(
                kind=TransferKind.PARTIAL_PARITY, source_slot=survivor, dest_slot=f1,
                symbols_read=symbols, coefficients=tuple([1] * len(symbols)),
                delivers_symbol=None,
                note="partial parity " + "+".join(layout.symbols[s].label for s in symbols),
            ))
        decode = DecodeStep(
            at_slot=f1, produces_symbol=doubly_lost,
            payload_indices=tuple(range(payload_base, payload_base + len(survivors))),
            coefficients=tuple([1] * len(survivors)),
            note=f"XOR partial parities -> {layout.symbols[doubly_lost].label}",
        )
        # 3. Re-mirror the rebuilt symbol onto the second replacement.
        transfers.append(Transfer(
            kind=TransferKind.DECODED, source_slot=f1, dest_slot=f2,
            symbols_read=(doubly_lost,), coefficients=(1,), delivers_symbol=doubly_lost,
            note=f"forward rebuilt {layout.symbols[doubly_lost].label}",
        ))
        restored = {f1: layout.symbols_on_slot(f1), f2: layout.symbols_on_slot(f2)}
        return RepairPlan(self.name, (f1, f2), tuple(transfers), (decode,), restored)

    def _plan_read_uncached(self, symbol_index: int, failed_slots,
                            reader_slot: int | None = None) -> ReadPlan:
        """Partial-parity degraded read when both replicas are down."""
        failed = set(failed_slots)
        alive = self.layout.replicas_alive(symbol_index, failed)
        if alive:
            return super()._plan_read_uncached(symbol_index, failed, reader_slot)
        f1, f2 = self.layout.symbols[symbol_index].replicas
        extra_failures = failed - {f1, f2}
        if extra_failures:
            # Survivor set is damaged too: fall back to the generic solver
            # (which will raise if the pattern is fatal).
            return super()._plan_read_uncached(symbol_index, failed, reader_slot)
        dest = reader_slot if reader_slot is not None else -1
        reads = self.partial_parity_reads(f1, f2)
        transfers = []
        for survivor, symbols in sorted(reads.items()):
            transfers.append(Transfer(
                kind=TransferKind.PARTIAL_PARITY, source_slot=survivor, dest_slot=dest,
                symbols_read=symbols, coefficients=tuple([1] * len(symbols)),
                delivers_symbol=None,
                note="partial parity " + "+".join(
                    self.layout.symbols[s].label for s in symbols),
            ))
        step = DecodeStep(
            at_slot=dest, produces_symbol=symbol_index,
            payload_indices=tuple(range(len(transfers))),
            coefficients=tuple([1] * len(transfers)),
            note="XOR partial parities",
        )
        label = self.layout.symbols[symbol_index].label
        return ReadPlan(self.name, symbol_index, reader_slot, tuple(transfers), (step,),
                        note=f"on-the-fly rebuild of {label} from partial parities")


def pentagon() -> PolygonCode:
    """The paper's pentagon code: 9 data + XOR parity on K5, 20 blocks / 5 nodes."""
    return PolygonCode(5)


def heptagon() -> PolygonCode:
    """The paper's heptagon code: 20 data + XOR parity on K7, 42 blocks / 7 nodes."""
    return PolygonCode(7)
