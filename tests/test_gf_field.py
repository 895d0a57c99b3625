"""Unit and property tests for GF(2^8) scalar/vector arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf import (
    EXP,
    FIELD_SIZE,
    GF256,
    GROUP_ORDER,
    LOG,
    MUL_TABLE,
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_pow,
    gf_sub,
)
from repro.core import read_only_view

elements = st.integers(min_value=0, max_value=255)

#: Per kind of input to ``GF256.asarray``: (``asarray`` returns the
#: input itself, the result shares the input's memory, it is writable).
ASARRAY_INPUTS = {
    "writable uint8": (True, True, True),
    "read-only uint8": (True, True, False),
    "bytes": (False, True, False),
    "bytearray": (False, True, False),
    "memoryview": (False, True, False),
    "int64": (False, False, True),
    "strided uint8": (True, True, True),
}


def make_input(kind):
    """A 16-byte input of ``kind``, and the byte values it holds."""
    values = np.arange(16, dtype=np.uint8) * 3
    if kind == "writable uint8":
        return values.copy(), values
    if kind == "read-only uint8":
        source = values.copy()
        source.flags.writeable = False
        return source, values
    if kind == "bytes":
        return values.tobytes(), values
    if kind == "bytearray":
        return bytearray(values.tobytes()), values
    if kind == "memoryview":
        return memoryview(bytearray(values.tobytes())), values
    if kind == "int64":
        return values.astype(np.int64), values
    assert kind == "strided uint8"
    source = np.repeat(values, 2)[::2]
    assert not source.flags.c_contiguous
    return source, values


def memory_of(source):
    """What a result sharing ``source``'s memory overlaps."""
    if isinstance(source, np.ndarray):
        return source
    return np.frombuffer(source, dtype=np.uint8)
nonzero = st.integers(min_value=1, max_value=255)


class TestTables:
    def test_exp_log_roundtrip(self):
        for value in range(1, FIELD_SIZE):
            assert EXP[LOG[value]] == value

    def test_exp_is_periodic(self):
        for power in range(GROUP_ORDER):
            assert EXP[power] == EXP[power + GROUP_ORDER]

    def test_exp_values_cover_group(self):
        assert len({int(EXP[p]) for p in range(GROUP_ORDER)}) == GROUP_ORDER

    def test_mul_table_against_scalar(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = int(rng.integers(256)), int(rng.integers(256))
            assert MUL_TABLE[a, b] == gf_mul(a, b)


class TestScalarOps:
    def test_add_is_xor(self):
        assert gf_add(0b1010, 0b0110) == 0b1100

    def test_sub_equals_add(self):
        assert gf_sub(200, 77) == gf_add(200, 77)

    def test_mul_identity(self):
        for value in range(256):
            assert gf_mul(value, 1) == value

    def test_mul_zero_annihilates(self):
        for value in range(256):
            assert gf_mul(value, 0) == 0

    def test_known_product(self):
        # 2 * 2 = x * x = x^2 = 4 under 0x11d.
        assert gf_mul(2, 2) == 4
        # 0x80 * 2 = x^8 = 0x11d ^ 0x100 = 0x1d.
        assert gf_mul(0x80, 2) == 0x1D

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gf_mul(256, 1)
        with pytest.raises(ValueError):
            gf_add(-1, 0)

    def test_pow_matches_repeated_mul(self):
        value = 1
        for exponent in range(10):
            assert gf_pow(3, exponent) == value
            value = gf_mul(value, 3)

    def test_pow_negative_exponent(self):
        assert gf_mul(gf_pow(7, -1), 7) == 1

    def test_pow_zero_base(self):
        assert gf_pow(0, 0) == 1
        assert gf_pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            gf_pow(0, -1)


class TestFieldAxioms:
    @given(elements, elements)
    def test_add_commutative(self, a, b):
        assert gf_add(a, b) == gf_add(b, a)

    @given(elements, elements)
    def test_mul_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(elements, elements, elements)
    def test_mul_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(elements, elements, elements)
    def test_distributive(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(elements)
    def test_additive_inverse_is_self(self, a):
        assert gf_add(a, a) == 0

    @given(nonzero)
    def test_multiplicative_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(nonzero, nonzero)
    def test_div_mul_roundtrip(self, a, b):
        assert gf_mul(gf_div(a, b), b) == a


class TestPassThroughContract:
    """When ``GF256.asarray`` and ``read_only_view`` hand back their
    input, share its memory, or copy it."""

    @pytest.mark.parametrize("kind", ASARRAY_INPUTS)
    def test_asarray(self, kind):
        itself, shares, writable = ASARRAY_INPUTS[kind]
        source, values = make_input(kind)
        array = GF256.asarray(source)
        assert array.dtype == np.uint8
        assert np.array_equal(array, values)
        assert (array is source) == itself
        assert np.shares_memory(array, memory_of(source)) == shares
        assert array.flags.writeable == writable

    @pytest.mark.parametrize("kind", ASARRAY_INPUTS)
    def test_writable_is_always_a_private_copy(self, kind):
        source, values = make_input(kind)
        array = GF256.asarray(source, writable=True)
        assert array.dtype == np.uint8
        assert np.array_equal(array, values)
        assert array is not source
        assert array.flags.writeable
        assert not np.shares_memory(array, memory_of(source))
        array[0] ^= 0xFF
        assert np.array_equal(GF256.asarray(source), values)

    @pytest.mark.parametrize("kind", ASARRAY_INPUTS)
    def test_read_only_view(self, kind):
        _, shares, _ = ASARRAY_INPUTS[kind]
        source, values = make_input(kind)
        view = read_only_view(source)
        assert view.dtype == np.uint8
        assert np.array_equal(view, values)
        assert not view.flags.writeable
        assert np.shares_memory(view, memory_of(source)) == shares
        # Only a uint8 array that already refuses writes comes back as
        # itself; a writable one still takes writes through its own
        # name, and the view sees them.
        assert (view is source) == (kind == "read-only uint8")
        if shares and isinstance(source, np.ndarray) and source.flags.writeable:
            source[0] ^= 0xFF
            assert view[0] == source[0]
        with pytest.raises(ValueError):
            view[0] = 1


class TestVectorOps:
    def test_asarray_from_bytes(self):
        array = GF256.asarray(b"\x01\x02\x03")
        assert array.dtype == np.uint8
        assert list(array) == [1, 2, 3]

    def test_add_buffers(self):
        out = GF256.add(b"\x0f\xf0", b"\xff\xff")
        assert list(out) == [0xF0, 0x0F]

    def test_scale_by_zero_and_one(self):
        buffer = GF256.asarray(b"\x07\x09")
        assert list(GF256.scale(buffer, 0)) == [0, 0]
        assert list(GF256.scale(buffer, 1)) == [7, 9]

    def test_scale_matches_scalar_mul(self):
        rng = np.random.default_rng(1)
        buffer = rng.integers(0, 256, size=64, dtype=np.uint8)
        for coefficient in (2, 3, 0x1D, 255):
            scaled = GF256.scale(buffer, coefficient)
            expected = [gf_mul(int(v), coefficient) for v in buffer]
            assert list(scaled) == expected

    def test_axpy_accumulates(self):
        acc = np.zeros(4, dtype=np.uint8)
        GF256.axpy(acc, 3, b"\x01\x01\x01\x01")
        GF256.axpy(acc, 3, b"\x01\x01\x01\x01")
        assert list(acc) == [0, 0, 0, 0]  # char-2: same term twice cancels

    def test_combine_matches_manual(self):
        rng = np.random.default_rng(2)
        buffers = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(3)]
        coefficients = [5, 7, 11]
        out = GF256.combine(coefficients, buffers)
        manual = np.zeros(32, dtype=np.uint8)
        for c, buf in zip(coefficients, buffers):
            manual ^= MUL_TABLE[c][buf]
        assert np.array_equal(out, manual)

    def test_combine_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            GF256.combine([1, 1], [b"\x00", b"\x00\x00"])

    def test_combine_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            GF256.combine([1], [b"\x00", b"\x00"])

    def test_combine_empty_needs_length(self):
        out = GF256.combine([], [], length=5)
        assert list(out) == [0] * 5
        with pytest.raises(ValueError):
            GF256.combine([], [])

    def test_xor_reduce(self):
        out = GF256.xor_reduce([b"\x01", b"\x02", b"\x04"])
        assert list(out) == [7]
        with pytest.raises(ValueError):
            GF256.xor_reduce([])

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=16),
           st.integers(0, 255), st.integers(0, 255))
    def test_scale_distributes_over_add(self, data, c1, c2):
        buffer = GF256.asarray(data)
        left = GF256.scale(buffer, c1 ^ c2)
        right = GF256.add(GF256.scale(buffer, c1), GF256.scale(buffer, c2))
        assert np.array_equal(left, right)
