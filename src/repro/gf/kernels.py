"""Batched GF(2^8) linear maps on the native kernels or the reference.

Applying an ``(m, k)`` coefficient matrix to ``k`` byte-buffers is the
encode/decode hot path: every parity symbol is one output row, every
data block one input column.  :class:`BatchedLinearMap` compiles the
matrix once and applies it on one of two execution **backends**:

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
    whenever it builds; it runs every block size, odd ones included.
``numpy``
    The per-row :meth:`repro.gf.GF256.combine` reference: one 256-entry
    table gather per (row, column) pair.  What a host without a C
    compiler runs, and what the native kernels are checked against.

Selection: ``REPRO_GF_BACKEND`` (``auto``/``native``/``numpy``) or
:func:`set_backend`; :func:`active_backend` reports the resolved
choice.  The two are **bit-identical**: the C library builds its
per-byte, nibble and GFNI bit-matrix tables from the field polynomial,
pinned equal to :data:`repro.gf.tables.MUL_TABLE`, so each output byte
is the same XOR of the same product bytes on either path (fuzzed by
``tests/test_gf_native.py``).

The block checksum rides the same seam: :func:`crc32` is the library's
carry-less-multiply kernel on ``native``, else zlib's — the same 32 bits.
It and the backend choice live in :mod:`repro.gf.native`, which imports
no numpy (a datanode runs on them alone), and are re-exported here.
"""

from __future__ import annotations

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


def native_available() -> bool:
    """True when the native extension built and loaded (may build)."""
    return _native.load() is not None


def native_error() -> str | None:
    """Why the native extension is unavailable (``None`` when loaded)."""
    return _native.error()


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
    buffers, length = _checked(buffers, length)
    if len(coefficients) != len(buffers):
        raise ValueError("coefficient/buffer count mismatch")
    if length is None:
        raise ValueError("cannot infer output length from empty input")
    try:
        ops = bytes(coefficients)
    except ValueError:
        bad = next(c for c in coefficients if not 0 <= c < 256)
        raise ValueError(f"{bad!r} is not an element of GF(256)") from None
    if buffers and ops.count(1) == len(ops):
        return GF256.xor_reduce(buffers)
    if active_backend() == "native":
        return _apply_native(_native.load(), ops, 1, buffers, length)[0]
    return GF256.combine(coefficients, buffers, length=length)


def _checked(buffers, length: int | None) -> tuple[list[np.ndarray], int | None]:
    """``buffers`` as uint8 arrays of one common length, in one walk.

    Each goes through :meth:`GF256.asarray` (the buffer itself, in
    O(1), when it is a uint8 array already) and is held to ``length``,
    or to the first buffer's length when that is ``None``.  Returns the
    arrays and the length (still ``None`` for no buffers).
    """
    asarray = GF256.asarray
    arrays: list[np.ndarray] = []
    for buffer in buffers:
        array = asarray(buffer)
        if length is None:
            length = len(array)
        elif len(array) != length:
            raise ValueError("buffers must share a common length")
        arrays.append(array)
    return arrays, length


def _apply_native(kernels, ops: bytes, nrows: int, buffers,
                  length: int) -> np.ndarray:
    """``ops @ stack(buffers)`` in one native call; ``ops`` is the
    ``(nrows, len(buffers))`` op table, row-major, and ``buffers`` are
    uint8 arrays of ``length`` bytes.  C reads contiguous memory only:
    when a strided array makes the call refuse its inputs
    (``ValueError``, before any byte is written), it runs again on
    contiguous copies."""
    out = np.empty((nrows, length), dtype=np.uint8)
    try:
        kernels.apply(ops, buffers, length, out, nrows)
    except ValueError:
        kernels.apply(ops, [np.ascontiguousarray(buffer)
                            for buffer in buffers], length, out, nrows)
    return out


class BatchedLinearMap:
    """A compiled ``(m, k)`` GF(2^8) matrix applied to byte-buffer stacks.

    Build once per coefficient matrix and call :meth:`apply`
    repeatedly; every call runs on :func:`active_backend`.  ``apply``
    returns an ``(m, block_size)`` uint8 array — rows are disjoint,
    independently mutable buffers.
    """

    def __init__(self, rows) -> None:
        matrix = np.array(rows, dtype=np.uint8)
        if matrix.ndim != 2:
            raise ValueError("expected a 2-D coefficient matrix")
        self.rows = matrix
        self.m, self.k = matrix.shape
        #: The native op table: the matrix over its live columns only;
        #: ``_live_columns`` is ``None`` when every column is live.
        live = np.nonzero(matrix.any(axis=0))[0].tolist()
        self._live_columns = None if len(live) == self.k else live
        self._native_ops = matrix[:, live].tobytes()

    def apply(self, buffers, block_size: int | None = None) -> np.ndarray:
        """Return ``rows @ stack(buffers)`` as an ``(m, block_size)`` array."""
        buffers, block_size = _checked(buffers, block_size)
        if len(buffers) != self.k:
            raise ValueError(
                f"expected {self.k} input buffers, got {len(buffers)}")
        if block_size is None:
            raise ValueError("cannot infer block size from empty input")
        if active_backend() == "native":
            live = self._live_columns
            return _apply_native(_native.load(), self._native_ops, self.m,
                                 buffers if live is None
                                 else [buffers[j] for j in live],
                                 block_size)
        out = np.empty((self.m, block_size), dtype=np.uint8)
        for r, coefficients in enumerate(self.rows.tolist()):
            out[r] = GF256.combine(coefficients, buffers, length=block_size)
        return out

    __call__ = apply
