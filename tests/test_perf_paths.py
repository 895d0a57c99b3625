"""Equivalence tests for the performance subsystem.

The perf overhaul must change *nothing* observable except wall time:

1. the batched encode path is byte-identical to the per-symbol
   ``GF256.combine`` loop it replaced, for every registered code;
2. the vectorised ``matmul`` agrees with a scalar ``gf_mul`` reference;
3. ``can_recover_many`` / ``can_recover_masks`` agree with per-pattern
   ``can_recover`` and with a from-scratch rank-test reference on
   exhaustive small patterns;
4. ``GF256.asarray`` keeps its zero-copy/read-only and writable-copy
   contracts;
5. the vectorised Monte-Carlo simulators still agree with the analytic
   chains (seeded, within the suite's statistical tolerance).
"""

import itertools

import numpy as np
import pytest

from repro.core import make_code
from repro.gf import (
    GF256,
    BatchedLinearMap,
    gf_mul,
    matmul,
    row_echelon,
)
from repro.reliability import (
    ReliabilityParams,
    group_model,
    relative_error,
    simulate_chain_mttd,
    simulate_group_mttd,
    simulate_group_mttd_total,
)

ALL_CODES = [
    "2-rep", "3-rep",
    "pentagon", "heptagon",
    "(4,3) RAID+m", "(10,9) RAID+m", "(12,11) RAID+m",
    "rs(6,4)", "rs(14,10)",
    "pentagon-local", "heptagon-local",
]

#: Block size of the large-block cases.
BLOCK = 1 << 16

#: Codes small enough for exhaustive failure-pattern sweeps.
SMALL_CODES = ["3-rep", "pentagon", "(4,3) RAID+m", "rs(6,4)", "heptagon-local"]


def scalar_reference_encode(code, data):
    """The retired per-symbol, per-coefficient encode loop."""
    from repro.core.layout import SymbolKind

    buffers = [GF256.asarray(b) for b in data]
    size = len(buffers[0])
    out = []
    for symbol in code.layout.symbols:
        if symbol.kind is SymbolKind.DATA:
            column = int(np.argmax(np.asarray(symbol.coefficients) != 0))
            out.append(buffers[column].copy())
        else:
            out.append(GF256.combine(symbol.coefficients, buffers, length=size))
    return out


class TestBatchedEncodeBitIdentical:
    @pytest.mark.parametrize("code_name", ALL_CODES)
    def test_batched_path_matches_scalar_reference(self, code_name):
        """A 64 KiB stripe through the batched kernel; compare bytes."""
        code = make_code(code_name)
        rng = np.random.default_rng(7)
        size = BLOCK
        data = [rng.integers(0, 256, size, dtype=np.uint8)
                for _ in range(code.k)]
        expected = scalar_reference_encode(code, data)
        actual = code.encode(data)
        assert len(actual) == len(expected)
        for index, (a, b) in enumerate(zip(actual, expected)):
            assert np.array_equal(a, b), f"{code_name} symbol {index}"

    @pytest.mark.parametrize("code_name", ["heptagon-local", "rs(14,10)"])
    def test_odd_and_small_blocks_are_identical(self, code_name):
        code = make_code(code_name)
        rng = np.random.default_rng(8)
        for size in (24, 1023, BLOCK + 1):
            data = [rng.integers(0, 256, size, dtype=np.uint8)
                    for _ in range(code.k)]
            expected = scalar_reference_encode(code, data)
            for a, b in zip(code.encode(data), expected):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("code_name", ["pentagon", "heptagon-local", "rs(14,10)"])
    def test_decode_roundtrip_through_batched_kernels(self, code_name):
        code = make_code(code_name)
        rng = np.random.default_rng(9)
        data = [rng.integers(0, 256, BLOCK, dtype=np.uint8)
                for _ in range(code.k)]
        blocks = code.encode(data)
        failed = set(range(code.fault_tolerance))
        available = {i: blocks[i]
                     for i in code.layout.surviving_symbols(failed)}
        for expected, actual in zip(data, code.decode_data(available)):
            assert np.array_equal(expected, actual)

    def test_kernel_handles_unaligned_views(self):
        kernel = BatchedLinearMap([[3, 7], [29, 1]])
        rng = np.random.default_rng(10)
        backing = rng.integers(0, 256, 2 * BLOCK + 1, dtype=np.uint8)
        buffers = [backing[1:BLOCK + 1],        # odd start offset
                   backing[BLOCK + 1:]]
        out = kernel.apply(buffers)
        for r, row in enumerate([[3, 7], [29, 1]]):
            assert np.array_equal(out[r], GF256.combine(row, buffers))


class TestVectorisedMatmul:
    def test_matches_scalar_product(self):
        rng = np.random.default_rng(11)
        left = rng.integers(0, 256, (5, 7), dtype=np.uint8)
        right = rng.integers(0, 256, (7, 9), dtype=np.uint8)
        product = matmul(left, right)
        for i in range(5):
            for j in range(9):
                expected = 0
                for t in range(7):
                    expected ^= gf_mul(int(left[i, t]), int(right[t, j]))
                assert product[i, j] == expected


class TestDecodabilityEngine:
    @pytest.mark.parametrize("code_name", SMALL_CODES)
    def test_bulk_agrees_with_rank_reference_exhaustively(self, code_name):
        """Every pattern up to tolerance + 2: bulk == cached == rank test."""
        code = make_code(code_name)
        reference = make_code(code_name)   # fresh instance, per-pattern path
        generator = code.layout.generator_matrix()
        top = min(code.length, code.fault_tolerance + 2)
        patterns = [
            subset
            for size in range(top + 1)
            for subset in itertools.combinations(range(code.length), size)
        ]
        bulk = code.can_recover_many(patterns)
        for pattern, verdict in zip(patterns, bulk):
            surviving = [
                s.index for s in code.layout.symbols
                if any(slot not in pattern for slot in s.replicas)
            ]
            exact = (len(surviving) >= code.k
                     and len(row_echelon(generator[surviving])[1]) == code.k)
            assert verdict == exact, f"{code_name} bulk {pattern}"
            assert reference.can_recover(pattern) == exact, \
                f"{code_name} scalar {pattern}"

    def test_masks_and_patterns_agree(self):
        code = make_code("pentagon-local")
        patterns = list(itertools.combinations(range(code.length), 3))
        masks = [sum(1 << s for s in p) for p in patterns]
        assert np.array_equal(code.can_recover_many(patterns),
                              code.can_recover_masks(masks))

    def test_cache_is_shared_across_query_styles(self):
        code = make_code("heptagon-local")
        assert code.can_recover({0, 1, 2, 3}) is False
        assert not code.can_recover_many([(0, 1, 2, 3)])[0]
        assert code._recover_cache[0b1111] is False

    def test_codes_wider_than_int64_masks(self):
        """Lengths > 63 slots must not overflow the bitmask plumbing."""
        code = make_code("rs(70,60)")
        assert code.length == 70
        assert code.can_recover([0, 65, 69])
        verdicts = code.can_recover_many([(), (0, 65), tuple(range(11))])
        assert verdicts.tolist() == [True, True, False]
        # Failure-dominated rates so 11 concurrent failures (loss)
        # arrive within a few dozen events per trial.
        measured = simulate_group_mttd(
            code, ReliabilityParams(node_mttf_hours=1.0,
                                    node_mttr_hours=100.0),
            np.random.default_rng(2), trials=40)
        assert measured > 0

    @pytest.mark.parametrize("code_name", ["pentagon", "heptagon-local"])
    def test_fatal_patterns_match_filtered_enumeration(self, code_name):
        code = make_code(code_name)
        size = code.fault_tolerance + 1
        expected = [
            frozenset(subset)
            for subset in itertools.combinations(range(code.length), size)
            if not make_code(code_name).can_recover(subset)
        ]
        assert code.fatal_patterns(size) == expected


class TestAsarrayContract:
    def test_bytes_input_is_zero_copy_and_read_only(self):
        raw = b"\x01\x02\x03\x04"
        array = GF256.asarray(raw)
        assert not array.flags.writeable
        assert not array.flags.owndata          # view over the caller's bytes
        with pytest.raises(ValueError):
            array[0] = 9

    def test_writable_requests_a_private_copy(self):
        raw = bytearray(b"\x01\x02\x03")
        array = GF256.asarray(raw, writable=True)
        array[0] = 77
        assert raw[0] == 1

    def test_ndarray_passthrough(self):
        source = np.arange(8, dtype=np.uint8)
        assert GF256.asarray(source) is source
        private = GF256.asarray(source, writable=True)
        private[0] = 55
        assert source[0] == 0


class TestSimulatorsStillAgree:
    FAST = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0)

    @pytest.mark.parametrize("code_name,trials", [
        ("3-rep", 600), ("heptagon-local", 400),
    ])
    def test_group_simulation_tracks_analytic_chain(self, code_name, trials):
        expected = group_model(code_name, self.FAST).mttdl_hours()
        measured = simulate_group_mttd(
            make_code(code_name), self.FAST, np.random.default_rng(3),
            trials=trials)
        assert relative_error(measured, expected) < 0.15

    def test_serial_repair_simulation(self):
        params = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0,
                                   repair="serial")
        expected = group_model("3-rep", params).mttdl_hours()
        measured = simulate_group_mttd(
            make_code("3-rep"), params, np.random.default_rng(4), trials=800)
        assert relative_error(measured, expected) < 0.15

    def test_chain_simulation_tracks_solver(self):
        model = group_model("pentagon", self.FAST)
        measured = simulate_chain_mttd(
            model.chain, model.start, np.random.default_rng(5), trials=2000)
        expected = model.mttdl_hours()
        assert relative_error(measured, expected) < 0.1

    def test_event_budget_still_enforced(self):
        with pytest.raises(RuntimeError):
            simulate_group_mttd(
                make_code("heptagon-local"),
                ReliabilityParams(node_mttf_hours=1e9, node_mttr_hours=1.0),
                np.random.default_rng(6), trials=50, max_events=1000)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_mean_entry_points_reject_empty_trial_counts(self, trials):
        model = group_model("pentagon", self.FAST)
        with pytest.raises(ValueError):
            simulate_group_mttd(make_code("pentagon"), self.FAST,
                                np.random.default_rng(7), trials=trials)
        with pytest.raises(ValueError):
            simulate_chain_mttd(model.chain, model.start,
                                np.random.default_rng(7), trials=trials)

    def test_shard_entry_point_sums_an_empty_shard_to_zero(self):
        code = make_code("pentagon")
        assert simulate_group_mttd_total(
            code, self.FAST, np.random.default_rng(8), trials=0) == 0.0
        with pytest.raises(ValueError):
            simulate_group_mttd_total(
                code, self.FAST, np.random.default_rng(8), trials=-3)
