"""Abstract base class shared by every coding scheme.

A concrete :class:`Code` supplies a :class:`~repro.core.layout.StripeLayout`
(the static symbol/replica map) and may override the repair planners with
structured, bandwidth-efficient strategies.  Everything else — encoding,
generic rank-based decodability, decoding via GF(2^8) linear solve,
fault-tolerance enumeration, and a correct (if not bandwidth-optimal)
fallback repair plan — is provided here once, for all codes.

Two shared performance engines live here:

* a **decodability engine**: every recoverability question reduces to
  one batched primitive.  Failed-slot bitmasks unpack to
  surviving-symbol masks through the layout's replica matrix; because
  every layout is systematic, a pattern decodes iff its surviving
  parity rows, restricted to the lost data columns, have rank equal to
  the number of lost columns — so a pattern that lost more data than
  it kept parities is decided by counting, and the rest are ranked
  together by :func:`repro.gf.rank_many` as a stack of small
  ``parities x k`` matrices.  Single queries are the batch-of-one case
  behind a per-instance slot-bitmask memo; bulk queries go through
  :meth:`can_recover_many` / :meth:`can_recover_masks`, which the
  fault-tolerance enumerators, Markov-chain builders and Monte-Carlo
  simulators all share.
* a **batched encode/decode path**: the parity rows of the generator
  are compiled once into a :class:`~repro.gf.kernels.BatchedLinearMap`,
  so encoding computes all parity symbols in one native pass instead
  of per-symbol, per-coefficient combines.  Decode compiles a kernel
  over **only the rows that need arithmetic** and returns every data
  symbol that survived as a read-only zero-copy view of the caller's
  buffer, the contract ``encode`` has for its data symbols.  What a
  failure pattern compiles to (that decode, and the two GF
  eliminations behind the generic planners) lives in one bounded
  per-code memo: solved once.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from ..gf import (
    GF256,
    BatchedLinearMap,
    SingularMatrixError,
    independent_rows,
    invert,
    linear_combine,
    rank_many,
    solve,
)
from .layout import StripeLayout, SymbolKind
from .repair import (
    DecodeStep,
    ReadPlan,
    RepairPlan,
    Transfer,
    TransferKind,
    UnrecoverableStripeError,
)

#: Decode kernels the per-code pattern memo keeps (oldest out first): one
#: per surviving-symbol set, ~256 KiB per general column on the numpy
#: backend.
PATTERN_MEMO_ENTRIES = 32

#: The plan memo keeps this many entries per symbol of the code: a read
#: plan and its decode weights for every symbol, under two failure
#: patterns or readers at once, with room for the bases and repair plans.
PLAN_MEMO_PER_SYMBOL = 4


class BoundedMemo(dict):
    """A dict that keeps at most ``bound`` entries, oldest out first.
    Entries are immutable (tuples, frozen plans, read-only arrays,
    kernels that consult the active backend per call), so a hit is as
    good as new; a solve that raises caches nothing."""

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound

    def solve(self, key, solve_pattern):
        value = self.get(key)
        if value is None:
            value = solve_pattern()
            if len(self) >= self.bound:
                self.pop(next(iter(self)))
            self[key] = value
        return value


def read_only_view(buffer) -> np.ndarray:
    """``buffer`` as a uint8 array that shares its memory and refuses
    writes — how a block that needs no arithmetic is handed on.

    A uint8 array that already refuses writes is returned itself, as
    are the read-only views :meth:`GF256.asarray` makes of ``bytes``,
    ``bytearray`` and ``memoryview`` input; only a writable buffer gets
    a new view.  Input of another dtype is converted first, and the
    result then shares memory with that conversion, not the caller.
    """
    array = GF256.asarray(buffer)
    if array.flags.writeable:
        array = array.view()
        array.setflags(write=False)
    return array


class Code(ABC):
    """A stripe-structured storage code.

    Subclasses must implement :meth:`build_layout` and should override
    :meth:`_plan_repair_uncached` / :meth:`_plan_read_uncached` when the code
    admits cheaper repairs than the generic decode-everything fallback.
    """

    #: Registry name; subclasses set a descriptive default.
    name: str = "code"

    # ------------------------------------------------------------------
    # Layout and static metrics
    # ------------------------------------------------------------------
    @abstractmethod
    def build_layout(self) -> StripeLayout:
        """Construct the stripe layout (called once, then cached)."""

    @cached_property
    def layout(self) -> StripeLayout:
        return self.build_layout()

    @property
    def k(self) -> int:
        """Data symbols per stripe."""
        return self.layout.k

    @property
    def length(self) -> int:
        """Distinct node-slots a stripe touches (the paper's code length)."""
        return self.layout.length

    @property
    def symbol_count(self) -> int:
        return self.layout.symbol_count

    @property
    def total_blocks(self) -> int:
        return self.layout.total_blocks

    @property
    def storage_overhead(self) -> float:
        return self.layout.storage_overhead

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name}: k={self.k}, "
            f"length={self.length}, overhead={self.storage_overhead:.2f}x>"
        )

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    @cached_property
    def _symbol_sources(self) -> tuple[int, ...]:
        """Per symbol in layout order, where :meth:`encode` takes it
        from: its data-buffer column, or ``~r`` for parity row ``r``."""
        rows = iter(range(self.symbol_count))
        return tuple(
            self.layout.data_column(symbol.index)
            if symbol.kind is SymbolKind.DATA else ~next(rows)
            for symbol in self.layout.symbols
        )

    @cached_property
    def _parity_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(symbol indices, generator rows) of the parity symbols."""
        indices = np.array([s.index for s in self.layout.symbols
                            if s.kind.is_parity()], dtype=np.intp)
        return indices, self.layout.generator_matrix()[indices]

    @cached_property
    def _parity_kernel(self) -> BatchedLinearMap | None:
        """Packed-table kernel over the generator's parity rows."""
        _, rows = self._parity_rows
        return BatchedLinearMap(rows) if len(rows) else None

    @cached_property
    def _pattern_memo(self) -> BoundedMemo:
        """Decode kernels, one per surviving-symbol set."""
        return BoundedMemo(PATTERN_MEMO_ENTRIES)

    @cached_property
    def _plan_memo(self) -> BoundedMemo:
        """Read and repair plans and what the planners solve for them
        (bases, decode weights), sized to the code: a whole-file read
        plans every symbol, and must neither cycle this memo nor evict
        a decode kernel."""
        return BoundedMemo(max(PATTERN_MEMO_ENTRIES,
                               PLAN_MEMO_PER_SYMBOL * self.symbol_count))

    def _checked_buffers(self, data_blocks) -> tuple[list[np.ndarray], int]:
        """Validate one stripe's ``k`` blocks; returns (buffers, size).

        Each buffer is the block's :func:`read_only_view`, made here
        once: the kernels read these, and :meth:`encode` and
        :meth:`decode_data` hand them back as they are.
        """
        buffers = [read_only_view(block) for block in data_blocks]
        if len(buffers) != self.k:
            raise ValueError(
                f"{self.name}: expected {self.k} data blocks, "
                f"got {len(buffers)}")
        block_size = len(buffers[0])
        if any(len(buffer) != block_size for buffer in buffers):
            raise ValueError("all data blocks must have the same size")
        return buffers, block_size

    def _assemble_symbols(self, buffers: list[np.ndarray],
                          parity) -> list[np.ndarray]:
        """Interleave the checked data buffers and the parity rows in
        symbol order."""
        return [buffers[source] if source >= 0 else parity[~source]
                for source in self._symbol_sources]

    def split_stripes(self, data: bytes, block_bytes: int) -> list[list[memoryview]]:
        """Pad and split file ``data`` into per-stripe data-block lists.

        The tail is zero-padded to a whole stripe of ``k`` blocks of
        ``block_bytes``, as HDFS-RAID does (an empty file is one
        all-zero stripe); callers keep the true length in metadata.
        Blocks are zero-copy views, ready for :meth:`encode` /
        :meth:`encode_stripes`.
        """
        stripe_payload = self.k * block_bytes
        padded = memoryview(data + b"\x00" * (-len(data) % stripe_payload)
                            if data else b"\x00" * stripe_payload)
        return [
            [padded[start + i * block_bytes:start + (i + 1) * block_bytes]
             for i in range(self.k)]
            for start in range(0, len(padded), stripe_payload)
        ]

    def encode(self, data_blocks) -> list[np.ndarray]:
        """Encode ``k`` data buffers into one buffer per distinct symbol.

        All buffers must share one length.  Data symbols are returned
        as **read-only zero-copy views** of the caller's buffers (the
        :meth:`repro.gf.GF256.asarray` contract): with fast parity
        kernels the old defensive copies were the single largest cost
        of a wide stripe's encode, and every storage layer in this repo
        copies on ingest anyway.  Copy before mutating either side.
        All parity symbols are fresh, independently mutable arrays
        produced by one pass through the cached matrix-batched kernel
        (bit-identical to the scalar reference).
        """
        buffers, block_size = self._checked_buffers(data_blocks)
        parity = (self._parity_kernel.apply(buffers, block_size)
                  if self._parity_kernel is not None else None)
        return self._assemble_symbols(buffers, parity)

    def encode_stripes(self, stripes) -> list[list[np.ndarray]]:
        """Encode many stripes through one batched kernel application.

        ``stripes`` is a sequence of per-stripe data-block lists (each
        as :meth:`encode` expects).  Column ``c`` of every stripe is
        stacked into one concatenated buffer, the cached parity kernel
        runs once over the stacked width, and per-stripe outputs are
        sliced back out.  The kernel is byte-wise, so results are
        bit-identical to encoding stripe-by-stripe while amortising the
        per-call overhead across the whole file — the batched
        ``write_file`` path of :class:`~repro.cluster.MiniHDFS`.
        """
        stripes = list(stripes)
        if not stripes:
            return []
        if len(stripes) == 1:
            return [self.encode(stripes[0])]
        per_stripe: list[list[np.ndarray]] = []
        sizes: list[int] = []
        for blocks in stripes:
            buffers, block_size = self._checked_buffers(blocks)
            per_stripe.append(buffers)
            sizes.append(block_size)
        if self._parity_kernel is None:
            return [self._assemble_symbols(buffers, None)
                    for buffers in per_stripe]
        stacked = [
            np.concatenate([buffers[column] for buffers in per_stripe])
            for column in range(self.k)
        ]
        parity = self._parity_kernel.apply(stacked, sum(sizes))
        encoded: list[list[np.ndarray]] = []
        offset = 0
        for buffers, block_size in zip(per_stripe, sizes):
            rows = [parity[row, offset:offset + block_size].copy()
                    for row in range(parity.shape[0])]
            encoded.append(self._assemble_symbols(buffers, rows))
            offset += block_size
        return encoded

    def _compile_decode(self, indices: tuple[int, ...]):
        """(basis, per data row its basis position or None, kernel).

        Picks ``k`` independent rows (data symbols first, so the inverse
        stays sparse for systematic codes) and inverts the k x k system;
        a unit row of the inverse *is* a basis symbol, the rest go into
        the kernel.
        """
        generator = self.layout.generator_matrix()
        positions = independent_rows(generator[list(indices)], limit=self.k)
        if len(positions) < self.k:
            raise SingularMatrixError(
                f"{self.name}: surviving symbols do not span the data space")
        basis = tuple(indices[p] for p in positions)
        weights = invert(generator[list(basis)])   # data = weights @ symbols
        unit = (np.count_nonzero(weights, axis=1) == 1) & (weights.max(axis=1) == 1)
        sources = tuple(int(row.argmax()) if survived else None
                        for row, survived in zip(weights, unit))
        kernel = None if unit.all() else BatchedLinearMap(weights[~unit])
        return basis, sources, kernel

    def decode_data(self, available: dict[int, np.ndarray]) -> list[np.ndarray]:
        """Recover the ``k`` data buffers from surviving symbol buffers.

        ``available`` maps symbol index -> buffer.  Raises
        :class:`~repro.gf.SingularMatrixError` when the surviving symbols
        do not determine the data, ``ValueError`` for an index the code
        does not have.

        Data symbols that survived are returned as **read-only zero-copy
        views** of the caller's buffers, as :meth:`encode` returns its
        data symbols (copy before mutating either side); the rest are
        fresh, independently mutable arrays.  The solve happens on the
        small coefficient matrix, once per surviving-symbol set, and
        only the rows that need arithmetic go through the batched
        kernel.  Eliminating over the megabyte-wide buffers directly
        would be an order of magnitude slower.
        """
        if not available:
            raise SingularMatrixError("no symbols available")
        indices = tuple(sorted(available))
        for index in (indices[0], indices[-1]):
            if not 0 <= index < self.symbol_count:
                raise self._no_such("symbol", index, self.symbol_count)
        basis, sources, kernel = self._pattern_memo.solve(
            ("decode", indices), lambda: self._compile_decode(indices))
        buffers, block_size = self._checked_buffers(available[i] for i in basis)
        solved = iter(kernel.apply(buffers, block_size)
                      if kernel is not None else ())
        return [next(solved) if source is None else buffers[source]
                for source in sources]

    def decode_symbol(self, symbol_index: int, available: dict[int, np.ndarray]) -> np.ndarray:
        """Reconstruct one coded symbol from surviving symbol buffers —
        always a fresh, mutable array, never a view of ``available``."""
        data = self.decode_data(available)
        coefficients = self.layout.symbols[symbol_index].coefficients
        return linear_combine(coefficients, data, length=len(data[0]))

    # ------------------------------------------------------------------
    # Failure analysis (the shared decodability engine)
    # ------------------------------------------------------------------
    @cached_property
    def _recover_cache(self) -> dict[int, bool]:
        """Memo: failed-slot bitmask -> recoverable?  Shared by every code."""
        return {0: True}

    def _survivor_verdicts_many(self, surviving: np.ndarray) -> np.ndarray:
        """Rank verdicts for a (patterns, symbol_count) surviving mask.

        Data symbols are unit rows covering every data column (the
        layout validates it), so ``rank(G[S]) = |S & data| +
        rank(G[S & parity][:, lost columns])``: a pattern decodes iff
        its surviving parity rows, restricted to the data columns it
        lost, have rank equal to the number of lost columns.  Patterns
        that lost no data, or more columns than they kept parities, are
        decided by counting; the rest are ranked in one batched
        elimination (lost parity rows and kept columns zeroed out, so
        every matrix keeps the ``parities x k`` shape).
        """
        parity_indices, parity_rows = self._parity_rows
        lost = ~surviving[:, self.layout.data_symbol_indices()]
        lost_count = lost.sum(axis=1)
        parity_alive = surviving[:, parity_indices]
        verdicts = lost_count == 0
        undecided = np.nonzero(
            ~verdicts & (lost_count <= parity_alive.sum(axis=1)))[0]
        if len(undecided):
            stack = (parity_rows[None]
                     * parity_alive[undecided, :, None]
                     * lost[undecided, None, :])
            verdicts[undecided] = rank_many(stack) == lost_count[undecided]
        return verdicts

    def _decodable_from_survivors(self, surviving: np.ndarray) -> bool:
        """Rank verdict for one (symbol_count,) surviving-symbol mask."""
        return bool(self._survivor_verdicts_many(surviving[None])[0])

    def can_decode_from_symbols(self, symbol_indices) -> bool:
        """True when the listed symbols determine all data symbols."""
        surviving = np.zeros(self.symbol_count, dtype=bool)
        surviving[list(set(symbol_indices))] = True
        return self._decodable_from_survivors(surviving)

    def _recover_uncached(self, mask: int) -> bool:
        """Exact rank-based verdict for one failed-slot bitmask.

        Subclasses with a proven closed form (the heptagon-local code)
        override this single hook; memoisation and the bulk APIs wrap
        it for free.
        """
        failed = [slot for slot in range(self.length) if (mask >> slot) & 1]
        return self._decodable_from_survivors(self.layout.surviving_mask(failed))

    def _no_such(self, kind: str, index, count: int) -> ValueError:
        return ValueError(f"{self.name}: no {kind} {index} among its {count}")

    def _slot_mask(self, failed_slots) -> int:
        """Failed-slot bitmask; ``ValueError`` for a slot the code lacks."""
        mask = 0
        length = self.layout.length
        for slot in failed_slots:
            # int() keeps the shift in arbitrary-precision Python ints
            # even when callers pass numpy integers and slot >= 63.
            slot = int(slot)
            if slot < 0:
                raise self._no_such("slot", slot, length)
            mask |= 1 << slot
        if mask >> length:
            raise self._no_such("slot", mask.bit_length() - 1, length)
        return mask

    def can_recover(self, failed_slots) -> bool:
        """True when the data survives failure of every listed slot."""
        mask = self._slot_mask(failed_slots)
        cache = self._recover_cache
        verdict = cache.get(mask)
        if verdict is None:
            verdict = cache[mask] = self._recover_uncached(mask)
        return verdict

    def can_recover_masks(self, masks) -> np.ndarray:
        """Bulk :meth:`can_recover` over failed-slot bitmask ints.

        Uncached generic patterns are resolved in one vectorised pass
        (bit-unpack -> one matmul for all surviving-symbol masks ->
        one batched rank test); closed-form overrides are consulted
        per mask.  Returns a bool array aligned with ``masks``.
        """
        masks = [int(m) for m in masks]
        cache = self._recover_cache
        unknown = sorted({m for m in masks if m not in cache})
        if unknown:
            if (type(self)._recover_uncached is not Code._recover_uncached
                    or self.length > 63):
                # Closed-form overrides, and masks too wide for the
                # int64 bit-unpack below, resolve one at a time
                # (arbitrary-precision Python ints).
                for mask in unknown:
                    cache[mask] = self._recover_uncached(mask)
            else:
                verdicts = self._mask_array_verdicts(
                    np.array(unknown, dtype=np.int64))
                for mask, verdict in zip(unknown, verdicts):
                    cache[mask] = bool(verdict)
        return np.fromiter((cache[m] for m in masks), dtype=bool,
                           count=len(masks))

    def _mask_array_verdicts(self, mask_array: np.ndarray) -> np.ndarray:
        """Uncached vectorised verdicts for an int64 mask array.

        The one copy of the bit-unpack -> surviving-symbol ->
        rank-verdict pipeline, shared by :meth:`can_recover_masks` and
        :meth:`mask_range_verdicts` so the two can never drift apart
        (their agreement is what makes sharded enumeration
        bit-identical to the bulk query).
        """
        failed_matrix = (
            mask_array[:, None] >> np.arange(self.length)[None, :]
        ) & 1
        surviving = self.layout.surviving_masks_many(failed_matrix)
        return self._survivor_verdicts_many(surviving)

    def mask_range_verdicts(self, lo: int, hi: int, *,
                            chunk_masks: int = 1 << 14) -> np.ndarray:
        """Recoverability verdicts for the contiguous mask range [lo, hi).

        The constant-memory seam under exhaustive enumerations: unlike
        :meth:`can_recover_masks` it never writes the per-mask memo
        (an exhaustive 2**L sweep would otherwise pin 2**L dict entries)
        and it streams the range through fixed-size chunks, so callers
        — in particular the sharded exact-reliability engine in
        :mod:`repro.reliability.mask_enum` — can split one enumeration
        into range work units of bounded footprint.  Closed-form
        overrides (the heptagon-local code) are honoured per mask.
        Verdicts are exact, so any shard layout merges bit-identically.
        """
        total = 1 << self.length
        if not 0 <= lo <= hi <= total:
            raise ValueError(
                f"{self.name}: mask range [{lo}, {hi}) outside "
                f"[0, 2**{self.length})")
        if chunk_masks < 1:
            raise ValueError("chunk_masks must be positive")
        out = np.empty(hi - lo, dtype=bool)
        if (type(self)._recover_uncached is not Code._recover_uncached
                or self.length > 63):
            for offset, mask in enumerate(range(lo, hi)):
                out[offset] = self._recover_uncached(mask)
            return out
        for chunk_lo in range(lo, hi, chunk_masks):
            chunk_hi = min(chunk_lo + chunk_masks, hi)
            out[chunk_lo - lo:chunk_hi - lo] = self._mask_array_verdicts(
                np.arange(chunk_lo, chunk_hi, dtype=np.int64))
        return out

    def can_recover_many(self, patterns) -> np.ndarray:
        """Bulk :meth:`can_recover` over an iterable of slot collections."""
        return self.can_recover_masks(
            self._slot_mask(pattern) for pattern in patterns)

    @cached_property
    def fault_tolerance(self) -> int:
        """Largest ``f`` such that *every* ``f``-slot failure is recoverable.

        Patterns stream through the bulk engine in batches so a fatal
        pattern short-circuits the sweep without first ranking every
        pattern of its size.
        """
        tolerance = 0
        for size in range(1, self.length + 1):
            patterns = itertools.combinations(range(self.length), size)
            all_recoverable = True
            batch_size = 64          # fatal patterns cluster early in
            while all_recoverable:   # lexicographic order; probe small
                batch = list(itertools.islice(patterns, batch_size))
                if not batch:
                    break
                all_recoverable = bool(self.can_recover_many(batch).all())
                batch_size = min(batch_size * 4, 4096)
            if all_recoverable:
                tolerance = size
            else:
                break
        return tolerance

    def fatal_patterns(self, size: int) -> list[frozenset[int]]:
        """All ``size``-slot failure patterns that lose data."""
        patterns = list(itertools.combinations(range(self.length), size))
        verdicts = self.can_recover_many(patterns)
        return [frozenset(pattern)
                for pattern, ok in zip(patterns, verdicts) if not ok]

    def fatal_pattern_fraction(self, size: int) -> float:
        """Fraction of ``size``-slot failure patterns that lose data."""
        total = math.comb(self.length, size)
        if total == 0:
            return 0.0
        return len(self.fatal_patterns(size)) / total

    # ------------------------------------------------------------------
    # Failure symmetry (what the reliability chains lump by)
    # ------------------------------------------------------------------
    def symmetry_classes(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Which slots are interchangeable as far as data loss goes.

        A tuple of *classes*, each a tuple of interchangeable *cells*
        of one size, each a tuple of interchangeable slots: the claim
        is that :meth:`can_recover` depends only on how many cells of
        each class have ``j`` slots down.  The default — every slot its
        own class — claims nothing, so it is exact for any code (and as
        large as the brute force); subclasses declare their structure
        and :func:`repro.reliability.validate_lumping` checks the claim
        against every failure mask.
        """
        return tuple(((slot,),) for slot in range(self.length))

    def one_flat_class(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The declaration "only the number of failed slots matters"."""
        return (tuple((slot,) for slot in range(self.length)),)

    # ------------------------------------------------------------------
    # Repair planning (generic fallbacks; subclasses override)
    # ------------------------------------------------------------------
    def plan_node_repair(self, failed_slots) -> RepairPlan:
        """Plan the repair of ``failed_slots`` (any order, repeats
        ignored).  Plans are frozen, so each is made once per code and
        kept in the plan memo; :meth:`_plan_repair_uncached` is what
        subclasses override.  A pattern past repair raises
        :class:`UnrecoverableStripeError` on every call."""
        failed = tuple(sorted(set(failed_slots)))
        return self._plan_memo.solve(
            ("repair", failed), lambda: self._plan_repair_uncached(failed))

    def _plan_repair_uncached(self, failed: tuple[int, ...]) -> RepairPlan:
        """Generic repair: copy singly-lost symbols, decode the rest.

        The fallback reads ``k`` independent surviving symbols to one
        replacement node, solves for fully-lost symbols there, then
        re-mirrors.  Structured codes override this with their cheaper
        repair-by-transfer / partial-parity plans.
        """
        if not failed:
            return RepairPlan(self.name, (), (), (), {})
        if not self.can_recover(failed):
            raise UnrecoverableStripeError(self.name, failed, self.layout.lost_symbols(failed))
        layout = self.layout
        transfers: list[Transfer] = []
        decode_steps: list[DecodeStep] = []
        restored: dict[int, tuple[int, ...]] = {}
        fully_lost = set(layout.lost_symbols(failed))

        for slot in failed:
            restored[slot] = layout.symbols_on_slot(slot)
            for symbol_index in layout.symbols_on_slot(slot):
                if symbol_index in fully_lost:
                    continue
                source = layout.replicas_alive(symbol_index, set(failed))[0]
                transfers.append(Transfer(
                    kind=TransferKind.COPY,
                    source_slot=source,
                    dest_slot=slot,
                    symbols_read=(symbol_index,),
                    coefficients=(1,),
                    delivers_symbol=symbol_index,
                    note=f"re-mirror {layout.symbols[symbol_index].label or symbol_index}",
                ))

        if fully_lost:
            sink = failed[0]
            basis = self._independent_surviving_symbols(set(failed))
            payload_base = len(transfers)
            for symbol_index in basis:
                source = layout.replicas_alive(symbol_index, set(failed))[0]
                transfers.append(Transfer(
                    kind=TransferKind.COPY,
                    source_slot=source,
                    dest_slot=sink,
                    symbols_read=(symbol_index,),
                    coefficients=(1,),
                    delivers_symbol=None,
                    note="decode input",
                ))
            payload_indices = tuple(range(payload_base, payload_base + len(basis)))
            decode_matrix = self._decode_weights(basis, sorted(fully_lost))
            for row, symbol_index in enumerate(sorted(fully_lost)):
                decode_steps.append(DecodeStep(
                    at_slot=sink,
                    produces_symbol=symbol_index,
                    payload_indices=payload_indices,
                    coefficients=tuple(decode_matrix[row].tolist()),
                    note=f"solve {layout.symbols[symbol_index].label or symbol_index}",
                ))
                # Forward the reconstructed symbol to its other replicas.
                for slot in layout.symbols[symbol_index].replicas:
                    if slot != sink and slot in failed:
                        transfers.append(Transfer(
                            kind=TransferKind.DECODED,
                            source_slot=sink,
                            dest_slot=slot,
                            symbols_read=(symbol_index,),
                            coefficients=(1,),
                            delivers_symbol=symbol_index,
                            note="forward decoded symbol",
                        ))
        return RepairPlan(self.name, failed, tuple(transfers), tuple(decode_steps), restored)

    def plan_degraded_read(self, symbol_index: int, failed_slots,
                           reader_slot: int | None = None) -> ReadPlan:
        """Plan a read of one symbol under the given slot failures.

        Returns a zero-transfer plan when the reader holds a live
        replica, a one-copy plan when any replica survives, and a
        reconstruction plan otherwise.  Plans are frozen, so each is
        made once per code and kept in the plan memo;
        :meth:`_plan_read_uncached` is what subclasses override.
        """
        failed = tuple(sorted(failed_slots))
        return self._plan_memo.solve(
            ("read", symbol_index, failed, reader_slot),
            lambda: self._plan_read_uncached(symbol_index, failed, reader_slot))

    def _plan_read_uncached(self, symbol_index: int, failed_slots,
                            reader_slot: int | None = None) -> ReadPlan:
        """Generic: a live replica, else decode ``k`` survivors."""
        failed = set(failed_slots)
        layout = self.layout
        alive = layout.replicas_alive(symbol_index, failed)
        label = layout.symbols[symbol_index].label or str(symbol_index)
        if reader_slot is not None and reader_slot in alive:
            return ReadPlan(self.name, symbol_index, reader_slot, (), note=f"local read of {label}")
        dest = reader_slot if reader_slot is not None else -1
        if alive:
            transfer = Transfer(
                kind=TransferKind.COPY, source_slot=alive[0], dest_slot=dest,
                symbols_read=(symbol_index,), coefficients=(1,),
                delivers_symbol=symbol_index, note=f"remote read of {label}",
            )
            return ReadPlan(self.name, symbol_index, reader_slot, (transfer,))
        if not self.can_recover(failed):
            raise UnrecoverableStripeError(self.name, failed, (symbol_index,))
        basis = self._independent_surviving_symbols(failed)
        transfers = []
        for basis_symbol in basis:
            source = layout.replicas_alive(basis_symbol, failed)[0]
            transfers.append(Transfer(
                kind=TransferKind.COPY, source_slot=source, dest_slot=dest,
                symbols_read=(basis_symbol,), coefficients=(1,),
                delivers_symbol=None, note="decode input",
            ))
        weights = self._decode_weights(basis, [symbol_index])
        step = DecodeStep(
            at_slot=dest, produces_symbol=symbol_index,
            payload_indices=tuple(range(len(basis))),
            coefficients=tuple(weights[0].tolist()),
            note=f"reconstruct {label}",
        )
        return ReadPlan(self.name, symbol_index, reader_slot, tuple(transfers), (step,),
                        note=f"degraded read of {label}")

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _independent_surviving_symbols(self, failed: set[int]) -> list[int]:
        """A minimal set of surviving symbols spanning the data space."""
        def eliminate() -> tuple[int, ...]:
            surviving = self.layout.surviving_symbols(failed)
            generator = self.layout.generator_matrix()
            positions = independent_rows(generator[list(surviving)], limit=self.k)
            if len(positions) < self.k:
                raise UnrecoverableStripeError(self.name, failed)
            return tuple(surviving[p] for p in positions)

        return list(self._plan_memo.solve(("basis", tuple(sorted(failed))),
                                          eliminate))

    def _decode_weights(self, basis: list[int], targets: list[int]) -> np.ndarray:
        """Rows expressing each target symbol as a combination of basis symbols.

        Solving ``G_basis^T w = G_target^T`` yields, for every target, the
        weight vector ``w`` with ``target = sum_i w_i * basis_i``
        (read-only: the array is the memo's own).
        """
        def eliminate() -> np.ndarray:
            generator = self.layout.generator_matrix()
            weights = solve(generator[basis].T, generator[targets].T).T   # (t, b)
            weights.flags.writeable = False
            return weights

        return self._plan_memo.solve(("weights", tuple(basis), tuple(targets)),
                                     eliminate)
