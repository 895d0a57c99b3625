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
    host compiler, loaded through cffi) that fuses the gather, the XOR
    accumulation and the per-row lane scatter into one pass per row
    group — no scratch buffers, no per-pass numpy dispatch.  Instead
    of the 64K-entry tables (several MiB per kernel — fine for numpy,
    whose per-gather dispatch cost dominates, but cache-hostile for a
    C loop) it uses L1-resident 256-entry per-byte tables, plus
    16-entry nibble tables feeding an AVX2 ``vpshufb`` path on x86-64
    (see :mod:`repro.gf.native` for the measurements).  The default
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
64K-entry, per-byte, nibble — is gathered from the same
:data:`repro.gf.tables.MUL_TABLE` products, so each output byte is the
same XOR of the same product bytes on every path (asserted
exhaustively by ``tests/test_perf_paths.py`` and fuzzed by
``tests/test_gf_native.py``).  Blocks too small for their backend's
packed path — or any even-size gate the numpy path fails — fall back
to the scalar reference transparently, whatever the backend.

The block checksum rides the same seam: :func:`crc32` is the library's
carry-less-multiply kernel on ``native``, else zlib's — the same 32 bits.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
import zlib

import numpy as np

from . import native as _native
from .field import GF256
from .tables import MUL_TABLE

#: Blocks smaller than this take the scalar path on the numpy backend:
#: a 64K-entry packed table costs ~0.5 ms per (row-group, column) to
#: build, which only amortises over large or repeated applications.
PACKED_MIN_BYTES = 1 << 16

#: Blocks at least this large take the fused C path on the native
#: backend.  Its per-group tables are tiny (1 KiB + 128 B per column)
#: so the floor is only the per-call cffi overhead (a few µs), far
#: below the numpy gate — 4 KiB service blocks ride the C loop.
NATIVE_MIN_BYTES = 1 << 11

#: Output rows packed per lookup table (two input bytes each).
_GROUP_ROWS = 4

#: One-row :class:`BatchedLinearMap` per coefficient tuple, reused by
#: :func:`linear_combine` so repeated combines (the datanode ``combine``
#: RPC, repair partial parities) pay the nibble-table build once.  The
#: cap only guards against a pathological caller cycling through
#: unbounded coefficient vectors; real codes use a few dozen.
_COMBINE_MAPS: dict[tuple[int, ...], "BatchedLinearMap"] = {}
_COMBINE_MAP_LIMIT = 256

_LITTLE_ENDIAN = sys.byteorder == "little"

#: Environment variable selecting the execution backend.
BACKEND_ENV = "REPRO_GF_BACKEND"

#: Valid backend names (``auto`` resolves to the best available).
BACKEND_NAMES = ("auto", "native", "numpy", "scalar")

#: Process-wide override installed by :func:`set_backend` (takes
#: precedence over the environment).
_FORCED_BACKEND: str | None = None

_FALLBACK_WARNED = False


def _check_backend_name(name: str) -> str:
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown GF backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}")
    return name


def set_backend(name: str | None) -> None:
    """Force the kernel backend for this process.

    ``None`` (or ``"auto"``) restores the default resolution order:
    ``$REPRO_GF_BACKEND``, else ``native`` when the extension builds,
    else ``numpy``.  Used by tests and ``perf_snapshot.py --backend``;
    takes effect on the next :meth:`BatchedLinearMap.apply` (dispatch
    is per call, never baked into a kernel) and :func:`crc32` (re-bound).
    """
    global _FORCED_BACKEND
    if name is None or name == "auto":
        _FORCED_BACKEND = None
    else:
        _FORCED_BACKEND = _check_backend_name(name)
    _native.crc32_binding = None     # the checksum follows the backend


def requested_backend() -> str:
    """The configured backend before availability resolution."""
    if _FORCED_BACKEND is not None:
        return _FORCED_BACKEND
    env = os.environ.get(BACKEND_ENV, "").strip().lower()
    if env:
        return _check_backend_name(env)
    return "auto"


def active_backend() -> str:
    """The backend new kernel applications will actually run on.

    ``native``/``auto`` requests degrade to ``numpy`` when the
    extension cannot be built (one warning when native was explicitly
    requested; silent for ``auto``).  The first call may trigger the
    lazy native build.
    """
    global _FALLBACK_WARNED
    requested = requested_backend()
    if requested in ("numpy", "scalar"):
        return requested
    if _native.load() is not None:
        return "native"
    if requested == "native" and not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        warnings.warn(
            f"{BACKEND_ENV}=native requested but the native GF kernels "
            f"are unavailable ({_native.error()}); falling back to the "
            f"numpy backend", RuntimeWarning, stacklevel=2)
    return "numpy"


def packed_threshold() -> int:
    """Smallest block size the active backend's packed path accepts.

    ``NATIVE_MIN_BYTES`` when the native library is in play (its tiny
    per-group tables amortise almost immediately), else
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


def _bind_crc32():
    """The native kernel closed over ``ffi.from_buffer``, or zlib's."""
    kernels = _native.load() if active_backend() == "native" else None
    if kernels is None:
        bound = zlib.crc32
    else:
        from_buffer, native_crc32 = kernels.ffi.from_buffer, kernels.lib.repro_crc32

        def bound(data, value=0):
            raw = from_buffer(data)
            return native_crc32(raw, len(raw), value)

    _native.crc32_binding = bound
    return bound


def crc32(data, value: int = 0) -> int:
    """``zlib.crc32(data, value)`` for any buffer, bit for bit on every
    backend: CRCs travel in ``put`` replies, ``commit-write`` and the
    scrub, and a daemon with no compiler must agree with one that has.
    Bound on first use, dropped only by :func:`set_backend` /
    :func:`repro.gf.native.reset`: per block, an environment read, a
    lock or a ``load()`` cost more than the hashing they select.  What
    C cannot read in place (a strided array, a list) is gathered."""
    bound = _native.crc32_binding or _bind_crc32()
    try:
        return bound(data, value)
    except (TypeError, ValueError, BufferError):
        return bound(np.ascontiguousarray(GF256.asarray(data)), value)


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

    Returns ``sum_i c_i * buf_i`` over GF(2^8) as a fresh uint8 array.
    An all-ones vector — every polygon partial parity, local-parity
    repair and "XOR partial parities" step — is XORed straight into
    one new array on any backend (a lone buffer is copied, never
    aliased).  Otherwise, on the native backend, blocks of
    :data:`NATIVE_MIN_BYTES` and up run through a cached one-row
    :class:`BatchedLinearMap` — the same fused group kernel the
    encoder uses, 32 bytes per ``vpshufb`` on AVX2 hosts — keyed by
    the coefficient tuple (the datanode ``combine`` RPC and the repair
    plans cycle through a handful of coefficient vectors, so the
    nibble tables are built once each).
    Smaller native blocks take one fused C pass (per output byte:
    gather each part's product from its L1-resident 256-byte
    ``MUL_TABLE`` row and XOR — there the per-call table setup of the
    batched route costs more than it saves); other backends delegate
    to :meth:`GF256.combine` unchanged.  Results are bit-identical on
    every route, for any length.
    """
    coefficients = [int(c) for c in coefficients]
    buffers = [GF256.asarray(b) for b in buffers]
    if len(coefficients) != len(buffers):
        raise ValueError("coefficient/buffer count mismatch")
    if length is None:
        if not buffers:
            raise ValueError("cannot infer output length from empty input")
        length = len(buffers[0])
    if any(len(b) != length for b in buffers):
        raise ValueError("buffers must share a common length")
    for coefficient in coefficients:
        if not 0 <= coefficient < 256:
            raise ValueError(f"{coefficient!r} is not an element of GF(256)")
    if buffers and coefficients.count(1) == len(coefficients):
        return GF256.xor_reduce(buffers)
    kernels = _native.load() if active_backend() == "native" else None
    if kernels is None or length == 0:
        return GF256.combine(coefficients, buffers, length=length)
    if length >= NATIVE_MIN_BYTES:
        key = tuple(coefficients)
        combine_map = _COMBINE_MAPS.get(key)
        if combine_map is None:
            if len(_COMBINE_MAPS) >= _COMBINE_MAP_LIMIT:
                _COMBINE_MAPS.clear()
            combine_map = _COMBINE_MAPS[key] = BatchedLinearMap([list(key)])
        return combine_map.apply(buffers, block_size=length)[0]
    parts = [(c, np.ascontiguousarray(b))
             for c, b in zip(coefficients, buffers) if c != 0]
    if not parts:
        return np.zeros(length, dtype=np.uint8)
    ffi, lib = kernels.ffi, kernels.lib
    out = np.empty(length, dtype=np.uint8)
    keepalive = [ffi.from_buffer(buffer) for _, buffer in parts]
    row_ptrs = ffi.new("const uint8_t *[]", [
        ffi.cast("const uint8_t *", ffi.from_buffer(MUL_TABLE[c]))
        for c, _ in parts])
    input_ptrs = ffi.new("const uint8_t *[]", [
        ffi.cast("const uint8_t *", raw) for raw in keepalive])
    lib.repro_gf_combine_u8(row_ptrs, input_ptrs, len(parts), length,
                            ffi.cast("uint8_t *", ffi.from_buffer(out)), 0)
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
            _check_backend_name(backend)
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
        #: Per group: cffi pointers to the byte/nibble tables the C
        #: loops consume (+ keepalives pinning the backing arrays).
        self._native_plans: dict[int, tuple[object, object, list]] = {}

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

    def _native_plan_for(self, group_index: int,
                         ffi) -> tuple[object, object, list]:
        """Byte + nibble tables for one row group, as cffi pointers.

        Per packed column: a 256-entry ``uint32`` table whose byte
        lanes are the group rows' products of one input byte, and per
        (column, row) the 16 low-/high-nibble products for the SIMD
        path.  All entries are gathers from ``MUL_TABLE`` — the same
        products the 64K-entry numpy tables pack — so the C loops
        XOR exactly the bytes the other backends do.
        """
        cached = self._native_plans.get(group_index)
        if cached is None:
            members, columns, _ = self._groups[group_index]
            byte_tables: list[np.ndarray] = []
            nib = np.empty((len(columns), len(members), 2, 16),
                           dtype=np.uint8)
            for position, j in enumerate(columns):
                table = np.zeros(256, dtype=np.uint32)
                for lane, r in enumerate(members):
                    products = MUL_TABLE[int(self.rows[r, j])]
                    table |= products.astype(np.uint32) << np.uint32(8 * lane)
                    nib[position, lane, 0] = products[:16]
                    nib[position, lane, 1] = products[::16]
                byte_tables.append(table)
            keepalive: list = [ffi.from_buffer(t) for t in byte_tables]
            keepalive.append(ffi.from_buffer(nib))
            keepalive.extend((byte_tables, nib))
            table_ptrs = ffi.new("const uint32_t *[]", [
                ffi.cast("const uint32_t *", raw)
                for raw in keepalive[:len(byte_tables)]])
            nib_ptr = ffi.cast("const uint8_t *",
                               keepalive[len(byte_tables)])
            cached = self._native_plans[group_index] = (
                table_ptrs, nib_ptr, keepalive)
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

    def _apply_groups_native(self, kernels, buffers: list[np.ndarray],
                             out: np.ndarray, filled: list[bool],
                             block_size: int) -> None:
        """One fused C call per row group: gather + XOR + lane scatter.

        The C loop reads each input byte once, accumulates every group
        row's product in registers and XORs straight into the output
        rows — the scratch-buffer traffic and repeated full-array
        passes of the numpy path disappear (and on AVX2 hosts the bulk
        runs 32 bytes per ``vpshufb``).  Rows the XOR stage has not
        touched are zero-filled first so the C side can accumulate
        unconditionally.
        """
        ffi, lib = kernels.ffi, kernels.lib
        contiguous: dict[int, object] = {}
        for group_index, (members, columns, _) in enumerate(self._groups):
            if columns.size == 0:
                continue
            table_ptrs, nib_ptr, _keep = self._native_plan_for(
                group_index, ffi)
            input_raws = []
            for j in columns:
                raw = contiguous.get(int(j))
                if raw is None:
                    buffer = buffers[j]
                    if not buffer.flags.c_contiguous:
                        buffer = np.ascontiguousarray(buffer)
                    raw = contiguous[int(j)] = ffi.from_buffer(buffer)
                input_raws.append(raw)
            input_ptrs = ffi.new("const uint8_t *[]", [
                ffi.cast("const uint8_t *", raw) for raw in input_raws])
            for r in members:
                if not filled[r]:
                    out[r] = 0
                    filled[r] = True
            out_raws = [ffi.from_buffer(out[r]) for r in members]
            out_ptrs = ffi.new("uint8_t *[]", [
                ffi.cast("uint8_t *", raw) for raw in out_raws])
            lib.repro_gf_apply_group(table_ptrs, nib_ptr, input_ptrs,
                                     len(input_raws), block_size,
                                     out_ptrs, len(members))

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
        native_ok = kernels is not None and block_size >= NATIVE_MIN_BYTES
        if not native_ok and (
                backend == "scalar" or not _LITTLE_ENDIAN or block_size % 2
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
        if self._groups:
            if native_ok:
                self._apply_groups_native(kernels, buffers, out, filled,
                                          block_size)
            else:
                self._apply_groups_numpy(buffers, out, filled, block_size)
        for r, done in enumerate(filled):
            if not done:
                out[r] = 0
        return out

    __call__ = apply
