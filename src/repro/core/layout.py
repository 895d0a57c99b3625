"""Stripe layout model: symbols, replicas and node-slots.

Every code in this library is described by a :class:`StripeLayout` — a
static map saying, for one stripe:

* which *distinct coded symbols* exist (data, local parity, global
  parity), each defined as a GF(2^8)-linear combination of the stripe's
  ``k`` data symbols;
* on which *node-slots* each symbol is replicated.  A node-slot is an
  index ``0..length-1``; the cluster layer later binds slots to physical
  nodes.

This single abstraction is what lets one decoder, one placement engine
and one repair-bandwidth accountant serve replication, polygon
(pentagon/heptagon), RAID+mirror, heptagon-local and Reed-Solomon codes
alike.  The "array code" property the paper highlights — multiple blocks
of one stripe forced onto the same node — is simply a layout whose slots
carry more than one symbol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class SymbolKind(enum.Enum):
    """Role of a coded symbol within its stripe."""

    DATA = "data"
    LOCAL_PARITY = "local_parity"
    GLOBAL_PARITY = "global_parity"

    def is_parity(self) -> bool:
        return self is not SymbolKind.DATA


@dataclass(frozen=True)
class Symbol:
    """One distinct coded symbol of a stripe.

    Attributes:
        index: position of the symbol in the stripe's symbol list.
        kind: data / local parity / global parity.
        replicas: node-slot indices holding a copy of this symbol.
        coefficients: length-``k`` GF(2^8) row expressing the symbol as a
            linear combination of the stripe's data symbols.  A data
            symbol has a unit row.
        label: human-readable name used in repair-plan descriptions
            (e.g. ``"d3"``, ``"P"``, ``"G1"``).
    """

    index: int
    kind: SymbolKind
    replicas: tuple[int, ...]
    coefficients: tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.replicas) != len(set(self.replicas)):
            raise ValueError(f"symbol {self.index} replicated twice on one slot")
        if not self.replicas:
            raise ValueError(f"symbol {self.index} has no replicas")

    @property
    def replica_count(self) -> int:
        return len(self.replicas)


@dataclass(frozen=True)
class StripeLayout:
    """Static description of one coded stripe.

    Attributes:
        code_name: name of the owning code (for diagnostics).
        k: number of data symbols per stripe.
        length: number of node-slots the stripe touches.
        symbols: all distinct symbols, data symbols first by convention.
    """

    code_name: str
    k: int
    length: int
    symbols: tuple[Symbol, ...]
    _slot_map: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False, default=None)
    #: (symbol_count, length) bool: replica incidence, the substrate of
    #: every vectorised failure-reasoning query below.
    _replica_matrix: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _replica_counts: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _data_indices: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _generator: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.length <= 0:
            raise ValueError("length must be positive")
        data = [s for s in self.symbols if s.kind is SymbolKind.DATA]
        if len(data) != self.k:
            raise ValueError(
                f"{self.code_name}: expected {self.k} data symbols, found {len(data)}"
            )
        for position, symbol in enumerate(self.symbols):
            if symbol.index != position:
                raise ValueError("symbol indices must match their positions")
            if len(symbol.coefficients) != self.k:
                raise ValueError(f"symbol {position} has a malformed coefficient row")
            for slot in symbol.replicas:
                if not 0 <= slot < self.length:
                    raise ValueError(f"symbol {position} references slot {slot} out of range")
        # The decodability engine counts surviving data symbols instead
        # of ranking them: that is only sound for a systematic layout.
        carrier: dict[int, int] = {}         # data column -> symbol index
        for symbol in data:
            row = symbol.coefficients
            if sum(1 for value in row if value) != 1 or 1 not in row:
                raise ValueError(
                    f"{self.code_name}: data symbol {symbol.index} must have "
                    f"a unit-vector generator row, got {row}")
            column = row.index(1)
            if column in carrier:
                raise ValueError(
                    f"{self.code_name}: data symbols {carrier[column]} and "
                    f"{symbol.index} both carry data column {column}, so "
                    f"the data symbols do not cover range({self.k})")
            carrier[column] = symbol.index
        slot_map: dict[int, list[int]] = {slot: [] for slot in range(self.length)}
        for symbol in self.symbols:
            for slot in symbol.replicas:
                slot_map[slot].append(symbol.index)
        frozen = {slot: tuple(indices) for slot, indices in slot_map.items()}
        object.__setattr__(self, "_slot_map", frozen)
        replica_matrix = np.zeros((len(self.symbols), self.length), dtype=bool)
        for symbol in self.symbols:
            replica_matrix[symbol.index, list(symbol.replicas)] = True
        object.__setattr__(self, "_replica_matrix", replica_matrix)
        object.__setattr__(
            self, "_replica_counts",
            replica_matrix.sum(axis=1, dtype=np.int64))
        object.__setattr__(
            self, "_data_indices",
            np.array([carrier[column] for column in range(self.k)],
                     dtype=np.intp))
        generator = np.array([s.coefficients for s in self.symbols],
                             dtype=np.uint8)
        generator.setflags(write=False)
        object.__setattr__(self, "_generator", generator)

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    @property
    def symbol_count(self) -> int:
        """Number of distinct coded symbols."""
        return len(self.symbols)

    @property
    def total_blocks(self) -> int:
        """Physical blocks stored per stripe (replicas included)."""
        return sum(symbol.replica_count for symbol in self.symbols)

    @property
    def storage_overhead(self) -> float:
        """Stored blocks per data block (e.g. 3.0 for 3-rep)."""
        return self.total_blocks / self.k

    def symbols_on_slot(self, slot: int) -> tuple[int, ...]:
        """Indices of symbols replicated on ``slot``."""
        return self._slot_map[slot]

    def blocks_per_slot(self) -> tuple[int, ...]:
        """Number of blocks each slot stores."""
        return tuple(len(self._slot_map[slot]) for slot in range(self.length))

    def data_symbols(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self.symbols if s.kind is SymbolKind.DATA)

    def parity_symbols(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self.symbols if s.kind.is_parity())

    def generator_matrix(self) -> np.ndarray:
        """(symbol_count, k) GF(2^8) generator matrix, one row per symbol.

        The array is cached and **read-only**; index it (fancy indexing
        copies) rather than writing into it.
        """
        return self._generator

    def data_symbol_indices(self) -> np.ndarray:
        """Index of the data symbol carrying each data column, in column
        order, as a read-only index array."""
        return self._data_indices

    def data_column(self, symbol_index: int) -> int:
        """Data-buffer column a systematic symbol carries.

        For a data symbol this is the position of the 1 in its unit
        row; parity symbols have no data column.
        """
        symbol = self.symbols[symbol_index]
        if symbol.kind is not SymbolKind.DATA:
            raise ValueError(f"symbol {symbol_index} is not a data symbol")
        return symbol.coefficients.index(1)

    # ------------------------------------------------------------------
    # Failure reasoning
    # ------------------------------------------------------------------
    def surviving_mask(self, failed_slots) -> np.ndarray:
        """(symbol_count,) bool: symbols with a replica off ``failed_slots``."""
        failed = list(set(failed_slots))
        if not failed:
            return np.ones(len(self.symbols), dtype=bool)
        lost_replicas = self._replica_matrix[:, failed].sum(axis=1)
        return lost_replicas < self._replica_counts

    def surviving_masks_many(self, failed_matrix: np.ndarray) -> np.ndarray:
        """Bulk :meth:`surviving_mask` for a (patterns, length) bool matrix.

        One uint8 matmul counts each pattern's dead replicas per symbol;
        a symbol survives while some replica sits on a live slot.
        """
        count_dtype = np.uint8 if self.length < 256 else np.int64
        failed = np.asarray(failed_matrix, dtype=count_dtype)
        dead_replicas = failed @ self._replica_matrix.T.astype(count_dtype)
        return dead_replicas < self._replica_counts[None, :]

    def surviving_symbols(self, failed_slots) -> tuple[int, ...]:
        """Symbols with at least one replica outside ``failed_slots``."""
        mask = self.surviving_mask(failed_slots)
        return tuple(int(i) for i in np.nonzero(mask)[0])

    def lost_symbols(self, failed_slots) -> tuple[int, ...]:
        """Symbols whose every replica sits on a failed slot."""
        mask = self.surviving_mask(failed_slots)
        return tuple(int(i) for i in np.nonzero(~mask)[0])

    def replicas_alive(self, symbol_index: int,
                       failed_slots: set[int] | frozenset[int]) -> tuple[int, ...]:
        """Slots that still hold ``symbol_index`` given failures (every
        read planner asks this first, so a symbol the code does not
        have, or a negative index that would wrap, is refused here)."""
        if not 0 <= symbol_index < self.symbol_count:
            raise ValueError(f"{self.code_name}: no symbol {symbol_index} "
                             f"among its {self.symbol_count}")
        failed = set(failed_slots)
        return tuple(
            slot for slot in self.symbols[symbol_index].replicas if slot not in failed
        )
