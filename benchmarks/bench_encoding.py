"""Encoding/decoding throughput — the paper's Section 5 future-work
metric ("encoding duration ... also need[s] to be ascertained").

These are true pytest-benchmark microbenchmarks: the encode path of
every scheme over one stripe of 1 MiB blocks, plus the GF(2^8) kernels
underneath and the block checksum every stored block pays.
"""

import zlib

import numpy as np
import pytest

from repro.core import make_code
from repro.gf import GF256, crc32

BLOCK_BYTES = 1 << 20

CODES = ["2-rep", "3-rep", "pentagon", "heptagon", "heptagon-local",
         "(10,9) RAID+m", "rs(14,10)"]


def stripe_data(code, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, BLOCK_BYTES, dtype=np.uint8)
            for _ in range(code.k)]


@pytest.mark.benchmark(group="encode")
@pytest.mark.parametrize("code_name", CODES)
def test_encode_throughput(benchmark, code_name):
    code = make_code(code_name)
    data = stripe_data(code)
    code.encode(data)   # compile the kernel outside the timer
    encoded = benchmark(code.encode, data)
    assert len(encoded) == code.symbol_count
    benchmark.extra_info["stripe_mb"] = code.k * BLOCK_BYTES / 2**20
    if benchmark.stats:         # None under --benchmark-disable
        benchmark.extra_info["mb_per_s"] = (
            code.k * BLOCK_BYTES / 2**20 / benchmark.stats["mean"])


@pytest.mark.benchmark(group="decode")
@pytest.mark.parametrize("code_name", ["pentagon", "heptagon-local", "rs(14,10)"])
def test_decode_after_worst_tolerated_failure(benchmark, code_name):
    """Decode all data with a maximal tolerated failure pattern applied."""
    code = make_code(code_name)
    data = stripe_data(code, seed=1)
    encoded = code.encode(data)
    failed = set(range(code.fault_tolerance))
    available = {
        index: encoded[index]
        for index in code.layout.surviving_symbols(failed)
    }
    code.decode_data(available)   # warm the cached decode kernel
    decoded = benchmark(code.decode_data, available)
    assert all(np.array_equal(a, b) for a, b in zip(decoded, data))


@pytest.mark.benchmark(group="gf-kernels")
def test_gf_axpy_kernel(benchmark):
    rng = np.random.default_rng(0)
    accumulator = np.zeros(BLOCK_BYTES, dtype=np.uint8)
    buffer = rng.integers(0, 256, BLOCK_BYTES, dtype=np.uint8)
    benchmark(GF256.axpy, accumulator, 0x1D, buffer)


@pytest.mark.benchmark(group="gf-kernels")
def test_gf_xor_kernel(benchmark):
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, BLOCK_BYTES, dtype=np.uint8)
    b = rng.integers(0, 256, BLOCK_BYTES, dtype=np.uint8)
    out = benchmark(GF256.add, a, b)
    assert out.shape == a.shape


@pytest.mark.benchmark(group="gf-kernels")
def test_partial_parity_computation(benchmark):
    """The per-survivor combine of a pentagon double repair."""
    code = make_code("pentagon")
    data = stripe_data(code, seed=2)
    encoded = code.encode(data)
    reads = code.partial_parity_reads(0, 1)
    symbols = reads[2]

    def combine():
        return GF256.xor_reduce([encoded[s] for s in symbols])

    result = benchmark(combine)
    assert len(result) == BLOCK_BYTES


@pytest.mark.benchmark(group="crc32")
@pytest.mark.parametrize("block_bytes", [1 << 16, 1 << 20])
@pytest.mark.parametrize("checksum", [zlib.crc32, crc32],
                         ids=["zlib", "repro.gf"])
def test_crc32_of_a_block(benchmark, checksum, block_bytes):
    """``repro.gf.crc32`` (the native carry-less-multiply kernel on the
    native gf-backend, zlib itself on the others) against ``zlib.crc32``
    on one service block and one 1 MiB block: same number, always."""
    block = np.random.default_rng(3).integers(0, 256, block_bytes,
                                              dtype=np.uint8)
    assert benchmark(checksum, block) == zlib.crc32(block)
    if benchmark.stats:
        benchmark.extra_info["gb_per_s"] = (
            block_bytes / 1e9 / benchmark.stats["mean"])
