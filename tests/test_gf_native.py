"""Native GF(2^8) backend: selection seam, bit-identity, fallback.

The native C kernels must change *nothing* observable except wall
time.  This suite fuzzes bit-identity between the ``native`` kernels
and the ``numpy`` per-row reference across block sizes from one byte
up, unaligned and non-contiguous buffers, and every
registry-constructible code; pins down the backend-selection contract
(``REPRO_GF_BACKEND``, :func:`set_backend`, warn-once degradation when
native is requested but unavailable); and covers the fused
:func:`linear_combine` drop-in, its multiply-free all-ones route and
the datanode's :func:`repro.gf.native.combine`.  The block checksum
lives in the same library, so it is held here too — and so runs under
the sanitizers: :func:`repro.gf.crc32` against ``zlib.crc32`` bit for
bit, which of the two a process has bound, and that no verify was lost
on the way from the store to the kernel.

Everything here passes on a host with no C compiler: tests that need
the built library are skipped, and the rest exercise exactly the
degraded path such a host runs.
"""

import socket
import threading
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BlockId, CorruptBlockError, DataNode
from repro.core import make_code
from repro.core.registry import available_codes
from repro.gf import (
    BACKEND_ENV,
    BACKEND_NAMES,
    GF256,
    BatchedLinearMap,
    crc32,
    linear_combine,
)
from repro.gf import kernels, native
from repro.service.datanode import DataNodeServer, call
from repro.service.namenode import NameNodeServer

NATIVE = native.load() is not None
needs_native = pytest.mark.skipif(
    not NATIVE, reason=f"native GF kernels unavailable: {native.error()}")


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    kernels.set_backend(None)


#: Every backend this host can run (native only where it built).
BACKENDS = ["native", "numpy"] if NATIVE else ["numpy"]


def random_case(seed, m, k, size):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 256, (m, k), dtype=np.uint8)
    buffers = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(k)]
    return rows, buffers


def apply_on(backend, rows, buffers, block_size=None):
    """``rows @ stack(buffers)`` with ``backend`` forced for the call."""
    kernels.set_backend(backend)
    return BatchedLinearMap(rows).apply(buffers, block_size)


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            kernels.set_backend("bogus")

    def test_the_names(self, monkeypatch):
        assert BACKEND_NAMES == ("auto", "native", "numpy")
        monkeypatch.setenv(BACKEND_ENV, "scalar")
        with pytest.raises(ValueError, match="auto, native, numpy"):
            kernels.requested_backend()
        with pytest.raises(ValueError, match="auto, native, numpy"):
            kernels.set_backend("scalar")

    def test_a_kernel_takes_no_backend(self):
        with pytest.raises(TypeError):
            BatchedLinearMap([[1]], backend="numpy")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert kernels.requested_backend() == "numpy"
        assert kernels.active_backend() == "numpy"
        monkeypatch.setenv(BACKEND_ENV, "auto")
        assert kernels.requested_backend() == "auto"

    def test_invalid_env_var_is_loud(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "turbo")
        with pytest.raises(ValueError, match="turbo"):
            kernels.requested_backend()

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        kernels.set_backend("numpy")
        assert kernels.active_backend() == "numpy"
        kernels.set_backend(None)
        assert kernels.requested_backend() == "native"

    @needs_native
    def test_auto_resolves_to_native_when_available(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert kernels.requested_backend() == "auto"
        assert kernels.active_backend() == "native"


class TestFallback:
    def test_native_request_degrades_with_one_warning(self, monkeypatch):
        monkeypatch.setattr(native, "_load_uncached",
                            lambda: (None, "no compiler (simulated)"))
        native.reset()
        monkeypatch.setattr(native, "_FALLBACK_WARNED", False)
        try:
            kernels.set_backend("native")
            with pytest.warns(RuntimeWarning, match="no compiler"):
                assert kernels.active_backend() == "numpy"
            with warnings.catch_warnings():
                warnings.simplefilter("error")       # second call: silent
                assert kernels.active_backend() == "numpy"
            assert kernels.native_available() is False
            assert "simulated" in kernels.native_error()
        finally:
            native.reset()

    def test_auto_degrades_silently(self, monkeypatch):
        monkeypatch.setattr(native, "_load_uncached",
                            lambda: (None, "no compiler (simulated)"))
        native.reset()
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert kernels.active_backend() == "numpy"
        finally:
            native.reset()

    def test_kernels_stay_correct_without_native(self, monkeypatch):
        """A native request on a compilerless host still computes."""
        monkeypatch.setattr(native, "_load_uncached",
                            lambda: (None, "no compiler (simulated)"))
        native.reset()
        try:
            rows, buffers = random_case(1, 3, 4, 2049)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                degraded = apply_on("native", rows, buffers)
            for row, out in zip(rows, degraded):
                assert np.array_equal(out, GF256.combine(row, buffers))
            combined = linear_combine(rows[0], buffers)
            assert np.array_equal(combined,
                                  GF256.combine(rows[0], buffers))
        finally:
            native.reset()

    @needs_native
    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native.reset()
        try:
            assert native.load() is not None
            assert list(tmp_path.glob("repro_gf_native_*.so"))
        finally:
            monkeypatch.delenv("REPRO_NATIVE_CACHE")
            native.reset()


@needs_native
class TestBitIdentityFuzz:
    """native == numpy, byte for byte, on adversarial shapes."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           m=st.integers(1, 6), k=st.integers(1, 6),
           size=st.integers(1, 2048 + 66))
    def test_backends_agree_around_native_floor(self, seed, m, k, size):
        rows, buffers = random_case(seed, m, k, size)
        assert np.array_equal(apply_on("native", rows, buffers),
                              apply_on("numpy", rows, buffers))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           size=st.integers(1 << 16, (1 << 16) + 3))
    def test_backends_agree_on_large_blocks(self, seed, size):
        rows, buffers = random_case(seed, 5, 4, size)
        assert np.array_equal(apply_on("native", rows, buffers),
                              apply_on("numpy", rows, buffers))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), offset=st.integers(0, 3),
           stride=st.integers(2, 3))
    def test_unaligned_and_noncontiguous_buffers(self, seed, offset, stride):
        size = 2048 + 7
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 256, (3, 3), dtype=np.uint8)
        backing = rng.integers(0, 256, (3, stride * size + offset),
                               dtype=np.uint8)
        buffers = [backing[i, offset:offset + stride * size:stride]
                   for i in range(3)]
        assert not buffers[0].flags.c_contiguous
        assert np.array_equal(apply_on("native", rows, buffers),
                              apply_on("numpy", rows, buffers))

    def test_read_only_input_views(self):
        rows, buffers = random_case(3, 2, 3, 2048)
        frozen = [GF256.asarray(buffer.tobytes()) for buffer in buffers]
        assert not frozen[0].flags.writeable
        assert np.array_equal(apply_on("native", rows, frozen),
                              apply_on("numpy", rows, buffers))


class TestRegistryCodesAcrossBackends:
    @pytest.mark.parametrize("size", [1, 23, 511, 2047, 2049])
    @pytest.mark.parametrize("code_name", available_codes())
    def test_encode_decode_bit_identical(self, code_name, size):
        code = make_code(code_name)
        rng = np.random.default_rng(17)
        data = [rng.integers(0, 256, size, dtype=np.uint8)
                for _ in range(code.k)]
        encoded_by = {}
        decoded_by = {}
        for backend in BACKENDS:
            kernels.set_backend(backend)
            encoded = code.encode(data)
            failed = set(range(code.fault_tolerance))
            available = {i: encoded[i]
                         for i in code.layout.surviving_symbols(failed)}
            encoded_by[backend] = encoded
            decoded_by[backend] = code.decode_data(available)
        for backend in BACKENDS:
            for a, b in zip(encoded_by[backend], encoded_by["numpy"]):
                assert np.array_equal(a, b), f"{code_name} encode {backend}"
            for a, b in zip(decoded_by[backend], decoded_by["numpy"]):
                assert np.array_equal(a, b), f"{code_name} decode {backend}"
        for expected, actual in zip(data, decoded_by["numpy"]):
            assert np.array_equal(expected, actual)


class TestLinearCombine:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nparts=st.integers(1, 6),
           length=st.integers(0, 300))
    def test_matches_gf256_combine(self, seed, nparts, length):
        rng = np.random.default_rng(seed)
        coefficients = [int(c) for c in rng.integers(0, 256, nparts)]
        buffers = [rng.integers(0, 256, length, dtype=np.uint8)
                   for _ in range(nparts)]
        got = linear_combine(coefficients, buffers)
        want = GF256.combine(coefficients, buffers, length=length)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    @needs_native
    def test_large_blocks_on_native_backend(self):
        kernels.set_backend("native")
        rng = np.random.default_rng(23)
        coefficients = [0, 1, 37, 255]
        buffers = [rng.integers(0, 256, 1 << 17, dtype=np.uint8)
                   for _ in range(4)]
        assert np.array_equal(
            linear_combine(coefficients, buffers),
            GF256.combine(coefficients, buffers))

    def test_all_zero_coefficients(self):
        buffers = [np.ones(64, dtype=np.uint8)] * 2
        assert not linear_combine([0, 0], buffers).any()

    def test_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            linear_combine([1], [])
        with pytest.raises(ValueError, match="length"):
            linear_combine([1, 1], [np.zeros(4, np.uint8),
                                    np.zeros(5, np.uint8)])
        with pytest.raises(ValueError, match="empty"):
            linear_combine([], [])
        with pytest.raises(ValueError, match="element"):
            linear_combine([256], [np.zeros(4, np.uint8)])
        assert len(linear_combine([], [], length=9)) == 9
        for backend in BACKENDS:            # the datanode's combine
            kernels.set_backend(backend)
            with pytest.raises(ValueError, match="empty"):
                native.combine(b"", [])
            with pytest.raises(ValueError, match="mismatch"):
                native.combine(b"\x01", [])
            with pytest.raises(ValueError, match="length"):
                native.combine(b"\x01\x01", [b"ab", b"abc"])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("length", [0, 1, 31, 2047, 2048, 65536, 65537])
    def test_all_ones_is_an_xor(self, backend, length):
        kernels.set_backend(backend)
        rng = np.random.default_rng(length)
        pool = [rng.integers(0, 256, length, dtype=np.uint8)
                for _ in range(6)]
        for buffer in pool[::2]:            # PR 21's read-only views
            buffer.flags.writeable = False
        for nparts in range(1, 7):
            buffers = pool[:nparts]
            got = linear_combine([1] * nparts, buffers)
            assert np.array_equal(
                got, GF256.combine([1] * nparts, buffers, length=length))
            assert got.dtype == np.uint8 and got.flags.writeable
            assert not any(np.shares_memory(got, b) for b in buffers)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_ones_passes_the_same_validation(self, backend):
        kernels.set_backend(backend)
        four, five = np.zeros(4, np.uint8), np.zeros(5, np.uint8)
        with pytest.raises(ValueError, match="mismatch"):
            linear_combine([1, 1], [four])
        with pytest.raises(ValueError, match="length"):
            linear_combine([1, 1], [four, five])
        with pytest.raises(ValueError, match="length"):
            linear_combine([1], [four], length=5)
        with pytest.raises(ValueError, match="element"):
            linear_combine([1, 1, 256], [four] * 3)
        assert not linear_combine([], [], length=9).any()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("coefficients", [[1, 1, 2], [0, 1, 1], [1, 0],
                                              [True, 1.0, 1]])
    def test_any_other_vector_takes_the_old_route(self, backend,
                                                  coefficients):
        kernels.set_backend(backend)
        rng = np.random.default_rng(7)
        buffers = [rng.integers(0, 256, 2048 + 3, dtype=np.uint8)
                   for _ in coefficients]
        assert np.array_equal(
            linear_combine(coefficients, buffers),
            GF256.combine([int(c) for c in coefficients], buffers))


#: One pool of random bytes every checksum case slices from.
CRC_POOL = np.random.default_rng(32).integers(
    0, 256, (1 << 20) + 64, dtype=np.uint8)
CRC_LENGTHS = st.one_of(
    st.integers(0, 300),
    st.sampled_from([4095, 4096, 4097, 65535, 65536, 65537, 1 << 20]))


class TestCrc32:
    """``crc32`` is ``zlib.crc32``, bit for bit, whatever it is bound to."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=120, deadline=None)
    @given(length=CRC_LENGTHS, offset=st.integers(0, 15),
           start=st.sampled_from([0, 1, 0xDEADBEEF, 0xFFFFFFFF]),
           split=st.floats(0, 1))
    def test_matches_zlib(self, backend, length, offset, start, split):
        kernels.set_backend(backend)
        window = CRC_POOL[offset:offset + length]    # unaligned loads
        want = zlib.crc32(window, start)
        assert crc32(window, start) == want
        cut = int(split * length)                    # chaining
        assert crc32(window[cut:], crc32(window[:cut], start)) == want

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_any_buffer(self, backend):
        kernels.set_backend(backend)
        window = CRC_POOL[3:3 + 4099]
        want = zlib.crc32(window.tobytes())
        read_only = window.view()
        read_only.flags.writeable = False
        strided = CRC_POOL[3:3 + 2 * 4099:2]
        for data in (window.tobytes(), bytearray(window),
                     memoryview(window.tobytes()), window, read_only):
            assert crc32(data) == want
        assert not strided.flags.c_contiguous
        assert crc32(strided) == zlib.crc32(strided.tobytes())
        assert crc32(list(window[:70])) == zlib.crc32(window[:70])
        assert crc32(b"") == 0 and crc32(b"", 7) == 7
        with pytest.raises(TypeError):
            crc32(None)

    @needs_native
    def test_binding_follows_the_backend(self):
        kernels.set_backend("native")
        crc32(b"x")
        assert native.crc32_binding is not zlib.crc32
        kernels.set_backend("numpy")
        assert native.crc32_binding is None          # dropped ...
        assert crc32(b"x") == zlib.crc32(b"x")
        assert native.crc32_binding is zlib.crc32    # ... and re-bound
        kernels.set_backend(None)
        crc32(b"x")
        assert (native.crc32_binding is zlib.crc32) == (
            kernels.active_backend() != "native")

    def test_without_the_native_library_it_is_zlib(self, monkeypatch):
        window = CRC_POOL[1:1 + 65537]
        before = crc32(window, 9)
        monkeypatch.setattr(native, "_load_uncached",
                            lambda: (None, "no compiler (simulated)"))
        native.reset()
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        try:
            assert native.crc32_binding is None
            assert crc32(window, 9) == before == zlib.crc32(window, 9)
            assert native.crc32_binding is zlib.crc32
        finally:
            native.reset()

    def test_a_call_is_bound_not_resolved(self, monkeypatch):
        """The per-block path: no environment read, no ``load()``."""
        kernels.set_backend(None)
        crc32(b"warm")

        def refuse(*args, **kwargs):
            raise AssertionError("crc32 resolved its backend per call")

        monkeypatch.setattr(kernels, "active_backend", refuse)
        monkeypatch.setattr(native, "load", refuse)
        node = DataNode(0)
        block = BlockId("f", 0, 0)
        assert node.put(block, CRC_POOL[:4096]) == zlib.crc32(CRC_POOL[:4096])
        node.get(block)
        assert node.current_checksum(block) == node.checksum(block)


class TestNoVerifyWasDropped:
    """A flipped byte anywhere — first lane, the 64-byte fold boundary,
    the 16-byte steps, the table tail — is seen by every verify."""

    LENGTH = 4096 + 21
    OFFSETS = [0, 63, 64, LENGTH - 17, LENGTH - 1]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("offset", OFFSETS)
    def test_store(self, backend, offset):
        kernels.set_backend(backend)
        node = DataNode(3)
        block = BlockId("f", 0, 0)
        stamp = node.put(block, CRC_POOL[:self.LENGTH])
        assert stamp == zlib.crc32(CRC_POOL[:self.LENGTH])
        assert node.current_checksum(block) == stamp
        node.corrupt(block, offset)
        with pytest.raises(CorruptBlockError):
            node.get(block)
        assert node.current_checksum(block) != stamp == node.checksum(block)
        assert node.get(block, verify=False)[offset] \
            == CRC_POOL[offset] ^ 0xFF

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_live_datanode(self, offset):
        with NameNodeServer(check_period=30.0) as namenode, \
                DataNodeServer(0, namenode.address) as datanode, \
                socket.create_connection(datanode.address) as sock:
            payload = CRC_POOL[:self.LENGTH].tobytes()
            for symbol in (0, 1):
                reply = call(sock, "put", {"block": ("f", 0, symbol),
                                           "data": payload})
                assert reply["crc"] == zlib.crc32(payload)
            parts = [(("f", 0, 0), 1), (("f", 0, 1), 1)]
            assert not any(call(sock, "combine", {"parts": parts})["data"])
            datanode.store.corrupt(BlockId("f", 0, 1), offset)
            assert call(sock, "get", {"block": ("f", 0, 0)})["data"] == payload
            for kind, data in (("get", {"block": ("f", 0, 1)}),
                               ("combine", {"parts": parts}),
                               ("combine", {"parts": [(("f", 0, 1), 7)]})):
                with pytest.raises(CorruptBlockError) as caught:
                    call(sock, kind, data)
                assert caught.value.code == "corrupt"
            scrub = call(sock, "checksums", {"blocks": [("f", 0, 1)]})
            assert scrub["checksums"][("f", 0, 1)] != zlib.crc32(payload)


class TestConcurrentApply:
    @pytest.mark.parametrize("backend", ["numpy", "native"])
    def test_concurrent_apply_bit_identical(self, backend):
        if backend == "native" and not NATIVE:
            pytest.skip("native GF kernels unavailable")
        rows, buffers = random_case(29, 4, 5, 1 << 16)
        expected = apply_on("numpy", rows, buffers)
        kernels.set_backend(backend)
        kernel = BatchedLinearMap(rows)
        results = [None] * 8

        def worker(slot):
            results[slot] = kernel.apply(buffers)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in results:
            assert np.array_equal(result, expected)


#: Each kernel tier's own entry point in the library, next to the
#: dispatcher (``repro_gf_apply``) that picks the best one the CPU runs.
TIER_ENTRY_POINTS = {"portable": "repro_gf_apply_portable",
                     "avx2": "repro_gf_apply_avx2",
                     "gfni-avx512": "repro_gf_apply_gfni"}


def tier_param(tier):
    """``tier``, skipped with the reason where this host cannot run it."""
    host = native.simd_tier() if NATIVE else None
    runs = host is not None and (
        native.TIERS.index(host) >= native.TIERS.index(tier))
    reason = (f"the {tier} tier needs a CPU (and compiler) this host lacks: "
              f"it runs {host}" if host else
              f"native GF kernels unavailable: {native.error()}")
    return pytest.param(tier, marks=pytest.mark.skipif(not runs,
                                                        reason=reason))


TIER_PARAMS = [tier_param(tier) for tier in native.TIERS]

#: Lengths around every step and tail of every tier: 8-byte words, 32-
#: and 64-byte vectors, 256-byte GFNI steps, odd sizes.
TIER_LENGTHS = [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 129, 191,
                192, 255, 256, 257, 383, 511, 512, 513, 1000, 4096 + 67]


def run_tier(tier, rows, buffers, offset=0):
    """``rows @ stack(buffers)`` through one tier's entry point, every
    input ``offset`` bytes past a fresh allocation."""
    kernels_ = native.load()
    ffi = kernels_.ffi
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    length = len(buffers[0]) if buffers else 0
    shifted = []
    for buffer in buffers:
        backing = np.empty(length + offset, dtype=np.uint8)
        backing[offset:] = buffer
        shifted.append(backing[offset:])
    inputs = [ffi.from_buffer("uint8_t[]", buffer) for buffer in shifted]
    out = np.empty((len(rows), length), dtype=np.uint8)
    getattr(kernels_.lib, TIER_ENTRY_POINTS[tier])(
        rows.tobytes(), ffi.new("const uint8_t *[]", inputs), len(inputs),
        length, ffi.from_buffer("uint8_t[]", out), len(rows))
    return out


def mixed_rows(rng, m, k):
    """A matrix of 0s, 1s and general coefficients, about a third each."""
    kinds = rng.integers(0, 3, (m, k))
    general = rng.integers(2, 256, (m, k))
    return np.where(kinds == 2, general, kinds).astype(np.uint8)


def reference(rows, buffers, length):
    """``rows @ stack(buffers)`` on the numpy per-row reference."""
    return apply_on("numpy", rows, buffers, block_size=length)


class TestEveryTier:
    """Each kernel tier, called directly, against the numpy reference."""

    @pytest.mark.parametrize("tier", TIER_PARAMS)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9),
           k=st.integers(1, 12), length=st.sampled_from(TIER_LENGTHS),
           offset=st.integers(0, 63))
    def test_mixed_matrices(self, tier, seed, m, k, length, offset):
        rng = np.random.default_rng(seed)
        rows = mixed_rows(rng, m, k)
        buffers = [rng.integers(0, 256, length, dtype=np.uint8)
                   for _ in range(k)]
        assert np.array_equal(run_tier(tier, rows, buffers, offset),
                              reference(rows, buffers, length))

    @pytest.mark.parametrize("tier", TIER_PARAMS)
    @pytest.mark.parametrize("code_name", available_codes())
    def test_registry_parity_rows_and_decode_kernels(self, tier, code_name):
        code = make_code(code_name)
        _, parity = code._parity_rows
        failed = set(range(code.fault_tolerance))
        indices = tuple(code.layout.surviving_symbols(failed))
        _, _, kernel = code._compile_decode(indices)
        matrices = [rows for rows in (parity, kernel and kernel.rows)
                    if rows is not None and len(rows)]
        rng = np.random.default_rng(len(code_name))
        length = 4096 + 67
        for rows in matrices:
            buffers = [rng.integers(0, 256, length, dtype=np.uint8)
                       for _ in range(rows.shape[1])]
            assert np.array_equal(run_tier(tier, rows, buffers, offset=5),
                                  reference(rows, buffers, length))

    @pytest.mark.parametrize("tier", TIER_PARAMS)
    def test_more_rows_than_one_pass_holds(self, tier):
        rng = np.random.default_rng(11)
        rows = mixed_rows(rng, 13, 6)
        rows[5] = 0                          # a row that reads nothing
        rows[:, 2] = 0                       # a column no row reads
        buffers = [rng.integers(0, 256, 300, dtype=np.uint8)
                   for _ in range(6)]
        out = run_tier(tier, rows, buffers)
        assert np.array_equal(out, reference(rows, buffers, 300))
        assert not out[5].any()

    @pytest.mark.parametrize("tier", TIER_PARAMS)
    @pytest.mark.parametrize("repeat", [1, 9])      # word loop; packed
    def test_the_library_builds_mul_table(self, tier, repeat):
        """The library seeds its products from the field polynomial, not
        from numpy's table: row ``c`` of a one-column map is ``c * x``
        for every byte ``x``, exactly ``MUL_TABLE[c]``."""
        from repro.gf import MUL_TABLE
        column = np.tile(np.arange(256, dtype=np.uint8), repeat)
        out = run_tier(tier, np.arange(256, dtype=np.uint8)[:, None],
                       [column])
        assert np.array_equal(out, np.tile(MUL_TABLE, repeat))

    @pytest.mark.parametrize("tier", TIER_PARAMS)
    def test_no_columns_is_all_zeros(self, tier):
        kernels_ = native.load()
        ffi = kernels_.ffi
        out = np.full((2, 77), 0xAB, dtype=np.uint8)
        getattr(kernels_.lib, TIER_ENTRY_POINTS[tier])(
            b"", ffi.new("const uint8_t *[]", 0), 0, 77,
            ffi.from_buffer("uint8_t[]", out), 2)
        assert not out.any()


@needs_native
class TestNativeDiagnostics:
    def test_simd_flag_is_bool(self):
        assert isinstance(native.simd_active(), bool)

    def test_tier_is_named_and_agrees_with_the_flag(self):
        tier = native.simd_tier()
        assert tier in native.TIERS
        assert native.simd_active() == (tier != "portable")

    def test_abi_version_checked(self):
        assert native.load().lib.repro_gf_native_abi() == native.ABI_VERSION

    def test_error_is_none_when_loaded(self):
        assert native.error() is None
        assert kernels.native_error() is None


class TestSanitizeProfile:
    """$REPRO_NATIVE_SANITIZE builds instrumented kernels (CI runs this
    suite under address,undefined with the ASan runtime preloaded)."""

    def test_empty_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        assert native.sanitize_profile() == ()

    def test_parsing_sorts_strips_and_dedups(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE",
                           " undefined, address ,undefined,")
        assert native.sanitize_profile() == ("address", "undefined")

    def test_profile_is_part_of_the_cache_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        plain = native._source_digest()
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "address,undefined")
        sanitized = native._source_digest()
        assert plain != sanitized

    @needs_native
    def test_sanitized_build_is_instrumented(self, monkeypatch, tmp_path):
        # compile (not load: dlopen'ing an ASan library needs the
        # runtime preloaded in the host process) and check that the
        # binary references the sanitizer runtimes
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "address,undefined")
        so_path = tmp_path / f"repro_gf_native_{native._source_digest()}.so"
        assert native._build_library(so_path) is None
        blob = so_path.read_bytes()
        assert b"__asan" in blob
        assert b"__ubsan" in blob
