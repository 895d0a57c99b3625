"""Scalar and vectorised arithmetic in GF(2^8).

Two interfaces are provided:

* module-level scalar helpers (``gf_add``, ``gf_mul``, ...) operating on
  Python ints in ``[0, 256)``;
* the :class:`GF256` namespace with numpy-vectorised operations on
  ``uint8`` arrays, used by the block encoders where a "symbol" is a
  multi-megabyte byte buffer.

Addition in a characteristic-2 field is XOR, which numpy performs
natively; multiplication of a buffer by a scalar coefficient is a single
table lookup through :data:`repro.gf.tables.MUL_TABLE`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .tables import EXP, FIELD_SIZE, GROUP_ORDER, INV_TABLE, LOG, MUL_TABLE


#: The dtype of every block buffer: numpy keeps one instance of it, so
#: an ``is`` test recognises a uint8 array in O(1).
_UINT8 = np.dtype(np.uint8)


def _check_element(value: int) -> None:
    if not 0 <= value < FIELD_SIZE:
        raise ValueError(f"{value!r} is not an element of GF(256)")


def gf_add(a: int, b: int) -> int:
    """Return ``a + b`` in GF(2^8) (bitwise XOR)."""
    _check_element(a)
    _check_element(b)
    return a ^ b


def gf_sub(a: int, b: int) -> int:
    """Return ``a - b``; identical to addition in characteristic 2."""
    return gf_add(a, b)


def gf_mul(a: int, b: int) -> int:
    """Return the product ``a * b`` in GF(2^8)."""
    _check_element(a)
    _check_element(b)
    if a == 0 or b == 0:
        return 0
    return int(EXP[int(LOG[a]) + int(LOG[b])])


def gf_inv(a: int) -> int:
    """Return the multiplicative inverse of ``a``.

    Raises :class:`ZeroDivisionError` for ``a == 0``.
    """
    _check_element(a)
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(INV_TABLE[a])


def gf_div(a: int, b: int) -> int:
    """Return ``a / b`` in GF(2^8)."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(EXP[int(LOG[a]) - int(LOG[b]) + GROUP_ORDER])


def gf_pow(a: int, exponent: int) -> int:
    """Return ``a ** exponent`` (exponent may be any integer)."""
    _check_element(a)
    if a == 0:
        if exponent == 0:
            return 1
        if exponent < 0:
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        return 0
    reduced = (int(LOG[a]) * exponent) % GROUP_ORDER
    return int(EXP[reduced])


class GF256:
    """Vectorised GF(2^8) operations over numpy ``uint8`` arrays.

    All methods are static; the class is a namespace.  Inputs are accepted
    as anything ``np.asarray`` understands and are treated element-wise.
    """

    dtype = np.uint8

    @staticmethod
    def asarray(data, *, writable: bool = False) -> np.ndarray:
        """Coerce ``data`` (bytes, list, array) into a uint8 array.

        Mutation contract: by default the result may be a **read-only
        zero-copy view** of the caller's buffer (always the case for
        ``bytes``/``bytearray``/``memoryview`` input).  A uint8
        ``ndarray`` is returned itself, writable or not, in O(1): every
        layer a block crosses may call this and pay nothing.  Read
        paths — encode, decode, rank checks — never write through the
        result.  Any other dtype is converted (a new array).  Pass
        ``writable=True`` when the caller needs a private buffer it may
        mutate; then a copy is always made, of any input.
        """
        if not writable and type(data) is np.ndarray and data.dtype is _UINT8:
            return data
        if isinstance(data, (bytes, bytearray, memoryview)):
            try:
                array = np.frombuffer(data, dtype=np.uint8)
            except (ValueError, BufferError):
                # Non-contiguous / exotic memoryview: fall back to a copy.
                array = np.frombuffer(bytes(data), dtype=np.uint8)
            if writable:
                return array.copy()
            if array.flags.writeable:
                # bytearray/memoryview views alias caller memory; expose
                # them read-only so accidental in-place ops cannot
                # corrupt the source.
                array = array.view()
                array.flags.writeable = False
            return array
        if writable:
            return np.array(data, dtype=np.uint8)
        return np.asarray(data, dtype=np.uint8)

    @staticmethod
    def add(a, b) -> np.ndarray:
        """Element-wise sum (XOR) of two buffers."""
        return np.bitwise_xor(GF256.asarray(a), GF256.asarray(b))

    @staticmethod
    def scale(buffer, coefficient: int) -> np.ndarray:
        """Multiply every byte of ``buffer`` by the scalar ``coefficient``."""
        _check_element(coefficient)
        array = GF256.asarray(buffer)
        if coefficient == 0:
            return np.zeros_like(array)
        if coefficient == 1:
            return array.copy()
        return MUL_TABLE[coefficient][array]

    @staticmethod
    def axpy(accumulator: np.ndarray, coefficient: int, buffer) -> None:
        """In-place ``accumulator ^= coefficient * buffer``.

        The fused update is the hot loop of every encoder; doing it in
        place avoids one temporary per symbol.
        """
        _check_element(coefficient)
        if coefficient == 0:
            return
        array = GF256.asarray(buffer)
        if coefficient == 1:
            np.bitwise_xor(accumulator, array, out=accumulator)
        else:
            np.bitwise_xor(accumulator, MUL_TABLE[coefficient][array], out=accumulator)

    @staticmethod
    def combine(coefficients: Iterable[int], buffers: Iterable[np.ndarray],
                length: int | None = None) -> np.ndarray:
        """Return the GF-linear combination ``sum_i c_i * buf_i``.

        ``length`` may be supplied when all coefficients could be zero and
        the output size cannot be inferred from the buffers.
        """
        coefficients = list(coefficients)
        buffers = [GF256.asarray(b) for b in buffers]
        if len(coefficients) != len(buffers):
            raise ValueError("coefficient/buffer count mismatch")
        if length is None:
            if not buffers:
                raise ValueError("cannot infer output length from empty input")
            length = len(buffers[0])
        out = np.zeros(length, dtype=np.uint8)
        for coefficient, buffer in zip(coefficients, buffers):
            if len(buffer) != length:
                raise ValueError("buffers must share a common length")
            GF256.axpy(out, coefficient, buffer)
        return out

    @staticmethod
    def xor_reduce(buffers: Iterable[np.ndarray]) -> np.ndarray:
        """XOR together an iterable of equal-length buffers into one
        fresh writeable array (a lone buffer is copied, never aliased)."""
        iterator = iter(buffers)
        try:
            first = GF256.asarray(next(iterator))
        except StopIteration:
            raise ValueError("xor_reduce needs at least one buffer") from None
        second = next(iterator, None)
        if second is None:
            return first.copy()
        out = np.bitwise_xor(first, GF256.asarray(second))   # no copy pass
        for buffer in iterator:
            np.bitwise_xor(out, GF256.asarray(buffer), out=out)
        return out
