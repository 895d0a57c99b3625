"""Batched GF(2^8) linear maps via packed lookup tables.

Applying an ``(m, k)`` coefficient matrix to ``k`` byte-buffers is the
encode/decode hot path: every parity symbol is one output row, every
data block one input column.  The scalar reference
(:meth:`repro.gf.GF256.combine`) performs one 256-entry table gather per
(row, column) pair — ``m * k`` gathers across the whole block, each a
bounds-checked numpy fancy-index.

:class:`BatchedLinearMap` compiles the matrix once into a faster
execution plan:

* columns whose coefficients are all 0/1 never touch a multiplication
  table — they fold into the output with raw XORs;
* the remaining output rows are processed in *groups* of up to four:
  for each column a 65536-entry table maps two adjacent input bytes to
  the packed product bytes of every row in the group (``uint32`` for
  one or two rows, ``uint64`` for three or four), dividing the gather
  count by up to eight;
* gathers use ``np.take(..., mode="clip")`` — a 16-bit index can never
  exceed the 65536-entry table, so the bounds-check branch is dead and
  numpy's cheaper clipped path is safe.

Three execution **backends** implement the same map:

``native``
    A small C library (:mod:`repro.gf.native`, built lazily with the
    host compiler, loaded through cffi) that takes the whole matrix as
    a per-(row, column) op table — skip, XOR or multiply — and makes
    one pass per group of four output rows: each input chunk is loaded
    once, folded into every row's register accumulator, and each
    output byte is stored once.  Coefficient-1 columns ride the same
    loads as the multiplies, so there is no separate XOR stage or
    zero fill.  The multiply is one ``vgf2p8affineqb`` per 64 bytes on
    GFNI + AVX-512BW hosts, two ``vpshufb`` nibble lookups per 32 bytes
    on AVX2 hosts, and a ``MUL_TABLE`` byte gather elsewhere (see
    :mod:`repro.gf.native` for the tiers and their rates).  The default
    whenever it builds, and the only packed path for odd-sized blocks.
``numpy``
    The vectorised ``np.take`` + XOR passes over the 64K-entry tables
    through shared scratch buffers.  The automatic fallback when no
    compiler is available.
``scalar``
    The per-row :meth:`repro.gf.GF256.combine` reference.

Selection: ``REPRO_GF_BACKEND`` (``auto``/``native``/``numpy``/
``scalar``) or :func:`set_backend`; :func:`active_backend` reports the
resolved choice.  All three are **bit-identical**: every table —
64K-entry, per-byte, nibble, GFNI bit matrix — holds the
:data:`repro.gf.tables.MUL_TABLE` products (the C library builds its
own from the field polynomial, pinned equal), so each output byte is the
same XOR of the same product bytes on every path (asserted
exhaustively by ``tests/test_perf_paths.py`` and fuzzed by
``tests/test_gf_native.py``).  Blocks too small for their backend's
packed path — or any even-size gate the numpy path fails — fall back
to the scalar reference transparently, whatever the backend.

The block checksum rides the same seam: :func:`crc32` is the library's
carry-less-multiply kernel on ``native``, else zlib's — the same 32 bits.
It and the backend choice live in :mod:`repro.gf.native`, which imports
no numpy (a datanode runs on them alone), and are re-exported here.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from . import native as _native
from .field import GF256
from .native import (
    BACKEND_ENV,
    BACKEND_NAMES,
    active_backend,
    crc32,
    requested_backend,
    set_backend,
)
from .tables import MUL_TABLE

#: Blocks smaller than this take the scalar path on the numpy backend:
#: a 64K-entry packed table costs ~0.5 ms per (row-group, column) to
#: build, which only amortises over large or repeated applications.
PACKED_MIN_BYTES = 1 << 16

#: Blocks at least this large take the fused C path on the native
#: backend.  It builds no per-matrix tables, so the floor is only the
#: per-call cffi overhead (a few µs), far below the numpy gate — 4 KiB
#: service blocks ride the C loop.
NATIVE_MIN_BYTES = 1 << 11

#: Output rows packed per numpy lookup table (two input bytes each).
_GROUP_ROWS = 4

_LITTLE_ENDIAN = sys.byteorder == "little"


def packed_threshold() -> int:
    """Smallest block size the active backend's packed path accepts.

    ``NATIVE_MIN_BYTES`` when the native library is in play (it builds
    no tables, so only the call is left to amortise), else
    ``PACKED_MIN_BYTES``.  Callers that gate a kernel route on block
    width (:func:`repro.gf.linalg.matmul`) use this so the native
    backend also accelerates mid-sized products.
    """
    return (NATIVE_MIN_BYTES if active_backend() == "native"
            else PACKED_MIN_BYTES)


def native_available() -> bool:
    """True when the native extension built and loaded (may build)."""
    return _native.load() is not None


def native_error() -> str | None:
    """Why the native extension is unavailable (``None`` when loaded)."""
    return _native.error()


class _ScratchCache(threading.local):
    """Per-thread gather/accumulate scratch for the numpy backend.

    The storage service's thread-pool request loops apply kernels
    concurrently; thread-local pairs keep them from scribbling over
    each other's scratch without a lock on the hot path.  Each
    thread's dict is bounded to a handful of live (dtype, words) keys
    so cached decode kernels don't pin ~MiB pairs per block size.
    """

    def __init__(self) -> None:
        self.pairs: dict[tuple[type, int], tuple[np.ndarray, np.ndarray]] = {}


_SCRATCH = _ScratchCache()

#: Max live (dtype, words) scratch pairs per thread.
_SCRATCH_LIMIT = 4

#: Low/high byte of every 16-bit word, built once on first table build.
_PAIR_HALVES: tuple[np.ndarray, np.ndarray] | None = None


def _scratch_pair(dtype, words: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = _SCRATCH.pairs
    pair = pairs.get((dtype, words))
    if pair is None:
        if len(pairs) >= _SCRATCH_LIMIT:
            pairs.clear()
        pair = pairs[(dtype, words)] = (np.empty(words, dtype=dtype),
                                        np.empty(words, dtype=dtype))
    return pair


def _pair_halves() -> tuple[np.ndarray, np.ndarray]:
    global _PAIR_HALVES
    if _PAIR_HALVES is None:
        word = np.arange(1 << 16, dtype=np.uint32)
        _PAIR_HALVES = ((word & 0xFF).astype(np.uint8),
                        (word >> 8).astype(np.uint8))
    return _PAIR_HALVES


def _packed_table(coefficients: list[int], dtype) -> np.ndarray:
    """65536-entry table: 2 input bytes -> packed products per group row.

    Little-endian entry layout: bytes ``2r``/``2r + 1`` hold group row
    ``r``'s products of the low/high input byte.
    """
    lo, hi = _pair_halves()
    table = np.zeros(1 << 16, dtype=dtype)
    for row, coefficient in enumerate(coefficients):
        if coefficient == 0:
            continue
        products = MUL_TABLE[coefficient]
        table |= products[lo].astype(dtype) << dtype(16 * row)
        table |= products[hi].astype(dtype) << dtype(16 * row + 8)
    return table


def _u16_view(buffer: np.ndarray) -> np.ndarray:
    """Reinterpret an even-length uint8 buffer as uint16 words."""
    if not buffer.flags.c_contiguous or buffer.__array_interface__["data"][0] % 2:
        buffer = np.ascontiguousarray(buffer)
    return buffer.view(np.uint16)


def linear_combine(coefficients, buffers, length: int | None = None) -> np.ndarray:
    """Backend-routed drop-in for :meth:`repro.gf.GF256.combine`.

    Returns ``sum_i c_i * buf_i`` over GF(2^8) as a fresh uint8 array
    (a lone buffer is copied, never aliased).  An all-ones vector —
    every polygon partial parity, local-parity repair and "XOR partial
    parities" step — is XORed into one new array by numpy on any
    backend.  Any other vector, on the native backend, is one pass of
    the kernel :class:`BatchedLinearMap` runs, with the coefficients as
    its one-row op table; elsewhere it goes to :meth:`GF256.combine`.
    Results are bit-identical on every route, for any length.

    The XOR stays in numpy because its callers combine 2–4 blocks of
    64 KiB, where one C pass saves less than the cffi call costs a
    daemon that runs it cold between requests: routed native, the
    ``svc_degraded`` benchmark spent ~10 % more CPU per read.
    """
    coefficients = [int(c) for c in coefficients]
    buffers = [GF256.asarray(b) for b in buffers]
    if len(coefficients) != len(buffers):
        raise ValueError("coefficient/buffer count mismatch")
    if length is None:
        if not buffers:
            raise ValueError("cannot infer output length from empty input")
        length = len(buffers[0])
    for buffer in buffers:
        if len(buffer) != length:
            raise ValueError("buffers must share a common length")
    try:
        ops = bytes(coefficients)
    except ValueError:
        bad = next(c for c in coefficients if not 0 <= c < 256)
        raise ValueError(f"{bad!r} is not an element of GF(256)") from None
    if buffers and coefficients.count(1) == len(coefficients):
        return GF256.xor_reduce(buffers)
    if length and active_backend() == "native":
        return _apply_native(_native.load(), ops, 1, buffers, length)[0]
    return GF256.combine(coefficients, buffers, length=length)


def _apply_native(kernels, ops: bytes, nrows: int, buffers,
                  length: int) -> np.ndarray:
    """``ops @ stack(buffers)`` in one native call; ``ops`` is the
    ``(nrows, len(buffers))`` op table, row-major."""
    out = np.empty((nrows, length), dtype=np.uint8)
    kernels.apply(ops, [buffer if buffer.flags.c_contiguous
                        else np.ascontiguousarray(buffer)
                        for buffer in buffers], length, out, nrows)
    return out


class BatchedLinearMap:
    """A compiled ``(m, k)`` GF(2^8) matrix applied to byte-buffer stacks.

    Build once per coefficient matrix (the constructor classifies
    columns and groups rows; multiplication tables are materialised
    lazily on the first packed application) and call :meth:`apply`
    repeatedly.  ``apply`` returns an ``(m, block_size)`` uint8 array —
    rows are disjoint, independently mutable buffers.

    ``backend`` pins this kernel to one backend (tests compare all
    three); by default every call consults :func:`active_backend`.
    """

    def __init__(self, rows, backend: str | None = None) -> None:
        matrix = np.array(rows, dtype=np.uint8)
        if matrix.ndim != 2:
            raise ValueError("expected a 2-D coefficient matrix")
        if backend is not None and backend != "auto":
            _native._check_backend_name(backend)
        self._backend = None if backend == "auto" else backend
        self.rows = matrix
        self.m, self.k = matrix.shape
        general = [r for r in range(self.m) if np.any(matrix[r] > 1)]
        #: Row groups sharing packed tables: (rows, packed columns, dtype).
        self._groups: list[tuple[tuple[int, ...], np.ndarray, type]] = []
        packed_by_row: dict[int, np.ndarray] = {}
        for start in range(0, len(general), _GROUP_ROWS):
            members = tuple(general[start:start + _GROUP_ROWS])
            coeffs = matrix[list(members)].max(axis=0)
            columns = np.nonzero(coeffs > 1)[0]
            dtype = np.uint32 if len(members) <= 2 else np.uint64
            self._groups.append((members, columns, dtype))
            for r in members:
                packed_by_row[r] = columns
        #: Per row: columns folded in with plain XOR (coefficient 1 and
        #: not already covered by that row's packed tables).
        self._xor_columns: list[np.ndarray] = []
        for r in range(self.m):
            ones = np.nonzero(matrix[r] == 1)[0]
            packed = packed_by_row.get(r)
            if packed is not None and packed.size:
                ones = np.setdiff1d(ones, packed, assume_unique=True)
            self._xor_columns.append(ones)
        self._tables: dict[int, list[tuple[int, np.ndarray]]] = {}
        #: The native op table: the matrix over its live columns only.
        self._live_columns = np.nonzero(matrix.any(axis=0))[0].tolist()
        self._native_ops = matrix[:, self._live_columns].tobytes()

    # ------------------------------------------------------------------
    def _tables_for(self, group_index: int) -> list[tuple[int, np.ndarray]]:
        cached = self._tables.get(group_index)
        if cached is None:
            members, columns, dtype = self._groups[group_index]
            cached = [
                (int(j),
                 _packed_table([int(self.rows[r, j]) for r in members], dtype))
                for j in columns
            ]
            self._tables[group_index] = cached
        return cached

    def _apply_scalar(self, buffers: list[np.ndarray], block_size: int) -> np.ndarray:
        out = np.empty((self.m, block_size), dtype=np.uint8)
        for r in range(self.m):
            out[r] = GF256.combine(
                (int(c) for c in self.rows[r]), buffers, length=block_size)
        return out

    def _apply_groups_numpy(self, buffers: list[np.ndarray], out: np.ndarray,
                            filled: list[bool], block_size: int) -> None:
        words = block_size // 2
        views: dict[int, np.ndarray] = {}
        for group_index, (members, _, dtype) in enumerate(self._groups):
            tables = self._tables_for(group_index)
            if not tables:
                continue
            accumulator, gathered = _scratch_pair(dtype, words)
            for position, (j, table) in enumerate(tables):
                view = views.get(j)
                if view is None:
                    view = views[j] = _u16_view(buffers[j])
                if position == 0:
                    np.take(table, view, out=accumulator, mode="clip")
                    continue
                np.take(table, view, out=gathered, mode="clip")
                np.bitwise_xor(accumulator, gathered, out=accumulator)
            # Unpack each member row's 16-bit lane of the accumulator
            # (shifting in place; the scratch buffer is disposable).
            for position, r in enumerate(members):
                if position:
                    np.right_shift(accumulator, dtype(16), out=accumulator)
                halves = accumulator.astype(np.uint16)
                row = out[r].view(np.uint16)
                if filled[r]:
                    np.bitwise_xor(row, halves, out=row)
                else:
                    np.copyto(row, halves)
                    filled[r] = True

    def apply(self, buffers, block_size: int | None = None) -> np.ndarray:
        """Return ``rows @ stack(buffers)`` as an ``(m, block_size)`` array."""
        buffers = [GF256.asarray(b) for b in buffers]
        if len(buffers) != self.k:
            raise ValueError(
                f"expected {self.k} input buffers, got {len(buffers)}")
        if block_size is None:
            if not buffers:
                raise ValueError("cannot infer block size from empty input")
            block_size = len(buffers[0])
        if any(len(b) != block_size for b in buffers):
            raise ValueError("buffers must share a common length")
        backend = self._backend if self._backend is not None else active_backend()
        kernels = _native.load() if backend == "native" else None
        if kernels is not None and block_size >= NATIVE_MIN_BYTES:
            return _apply_native(kernels, self._native_ops, self.m,
                                 [buffers[j] for j in self._live_columns],
                                 block_size)
        if (backend == "scalar" or not _LITTLE_ENDIAN or block_size % 2
                or block_size < PACKED_MIN_BYTES):
            return self._apply_scalar(buffers, block_size)

        out = np.empty((self.m, block_size), dtype=np.uint8)
        filled = [False] * self.m
        for r, columns in enumerate(self._xor_columns):
            row = out[r]
            for j in columns:
                if filled[r]:
                    np.bitwise_xor(row, buffers[j], out=row)
                else:
                    np.copyto(row, buffers[j])
                    filled[r] = True
        self._apply_groups_numpy(buffers, out, filled, block_size)
        for r, done in enumerate(filled):
            if not done:
                out[r] = 0
        return out

    __call__ = apply
