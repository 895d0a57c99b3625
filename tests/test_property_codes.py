"""Cross-code property tests (hypothesis): invariants every scheme obeys.

These treat the whole code zoo uniformly: random data, random tolerated
failure patterns, and the four contracts the library is built on —

1. decode inverts encode under any tolerated failure;
2. repair plans restore failed slots bit-exactly and never read failed
   slots (enforced by the executor);
3. ``can_recover`` agrees with actual decodability;
4. degraded reads return the exact stored bytes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    Code,
    execute_read_plan,
    execute_repair_plan,
    make_code,
    verify_repair_plan,
)
from repro.gf import SingularMatrixError

#: Representative members of every family (small enough for fast plans).
CODE_NAMES = [
    "2-rep", "3-rep", "4-rep",
    "polygon-4", "pentagon", "polygon-6", "heptagon",
    "(4,3) RAID+m", "(6,5) RAID+m", "(10,9) RAID+m",
    "rs(6,4)", "rs(9,6)",
    "pentagon-local",
]

code_names = st.sampled_from(CODE_NAMES)
seeds = st.integers(0, 2**31 - 1)


def make_data(code: Code, seed: int, size: int = 24):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(code.k)]


#: (code, failure set) -> (structured, generic) repair blocks: every
#: tolerated pattern of CODE_NAMES (searched exhaustively) where the
#: structured planner loses to the decode fallback by more than the
#: slack — all pentagon-local with the global slot down.  Fixing the
#: planner is ROADMAP item 7.
KNOWN_COSTLIER_THAN_GENERIC = {
    ("pentagon-local", frozenset(failed)): blocks for failed, blocks in [
        ((0, 2, 10), (29, 27)), ((0, 1, 10), (31, 27)),
        ((0, 5, 10), (32, 28)), ((0, 6, 10), (30, 28)),
        ((1, 5, 10), (30, 28)), ((5, 6, 10), (31, 27)),
        ((5, 7, 10), (29, 27)),
    ]
}


def assert_repair_bandwidth_at_most_generic(code: Code, failed) -> None:
    structured = code.plan_node_repair(failed).network_blocks
    generic = Code.plan_node_repair(code, failed).network_blocks
    assert structured <= generic + 1   # +1: re-mirror forwarding slack


def random_tolerated_failure(code: Code, seed: int) -> set[int]:
    """A uniformly random recoverable failure pattern (maybe empty)."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, code.fault_tolerance + 1))
    while True:
        slots = set(rng.choice(code.length, size=count, replace=False).tolist())
        if code.can_recover(slots):
            return slots
        # Patterns within tolerance are always recoverable; this loop
        # only re-rolls if count exceeded tolerance (it cannot).


class TestEncodeDecodeRoundtrip:
    @settings(max_examples=60, deadline=None)
    @given(code_names, seeds)
    def test_decode_inverts_encode_under_failures(self, name, seed):
        code = make_code(name)
        data = make_data(code, seed)
        blocks = code.encode(data)
        failed = random_tolerated_failure(code, seed ^ 0x5EED)
        available = {
            index: blocks[index]
            for index in code.layout.surviving_symbols(failed)
        }
        decoded = code.decode_data(available)
        for expected, actual in zip(data, decoded):
            assert np.array_equal(expected, actual)

    @settings(max_examples=40, deadline=None)
    @given(code_names, seeds)
    def test_every_symbol_reconstructible(self, name, seed):
        code = make_code(name)
        if code.symbol_count < 2:
            return   # replication's single symbol has nothing to rebuild from
        data = make_data(code, seed)
        blocks = code.encode(data)
        rng = np.random.default_rng(seed)
        symbol = int(rng.integers(code.symbol_count))
        available = {i: blocks[i] for i in range(code.symbol_count) if i != symbol}
        value = code.decode_symbol(symbol, available)
        assert np.array_equal(value, blocks[symbol])


class TestRepairContracts:
    @settings(max_examples=60, deadline=None)
    @given(code_names, seeds)
    def test_repair_plan_restores_bits(self, name, seed):
        code = make_code(name)
        failed = random_tolerated_failure(code, seed)
        if not failed:
            return
        blocks = code.encode(make_data(code, seed))
        plan = code.plan_node_repair(failed)
        assert verify_repair_plan(code, blocks, plan)

    @settings(max_examples=60, deadline=None)
    @given(code_names, seeds)
    def test_repair_never_reads_failed_slots(self, name, seed):
        code = make_code(name)
        failed = random_tolerated_failure(code, seed)
        if not failed:
            return
        plan = code.plan_node_repair(failed)
        for transfer in plan.transfers:
            if transfer.kind.value != "decoded":
                assert transfer.source_slot not in failed

    @settings(max_examples=60, deadline=None)
    @given(code_names, seeds)
    def test_repair_restores_every_failed_slot(self, name, seed):
        code = make_code(name)
        failed = random_tolerated_failure(code, seed)
        if not failed:
            return
        blocks = code.encode(make_data(code, seed))
        plan = code.plan_node_repair(failed)
        recovered = execute_repair_plan(code, blocks, plan)
        for slot in failed:
            for symbol in code.layout.symbols_on_slot(slot):
                assert symbol in recovered

    @settings(max_examples=40, deadline=None)
    @given(code_names, seeds)
    def test_repair_bandwidth_at_most_generic(self, name, seed):
        """Structured plans never move more than the decode fallback."""
        code = make_code(name)
        failed = random_tolerated_failure(code, seed)
        if not failed:
            return
        # The known counterexamples are pinned below; without this the
        # suite is green only when hypothesis does not draw one.
        assume((name, frozenset(failed))
               not in KNOWN_COSTLIER_THAN_GENERIC)
        assert_repair_bandwidth_at_most_generic(code, failed)

    @pytest.mark.parametrize("name, failed", [
        pytest.param(name, failed, id=f"{name}-{sorted(failed)}",
                     marks=pytest.mark.xfail(
                         strict=True, raises=AssertionError,
                         reason=f"ROADMAP item 7: structured repair moves "
                                f"{structured} blocks, generic {generic}"))
        for (name, failed), (structured, generic)
        in KNOWN_COSTLIER_THAN_GENERIC.items()])
    def test_known_plans_costlier_than_generic(self, name, failed):
        assert_repair_bandwidth_at_most_generic(make_code(name), failed)


class TestRecoverabilityConsistency:
    @settings(max_examples=60, deadline=None)
    @given(code_names, seeds)
    def test_can_recover_matches_decodability(self, name, seed):
        code = make_code(name)
        rng = np.random.default_rng(seed)
        count = int(rng.integers(0, min(code.length, code.fault_tolerance + 2) + 1))
        failed = set(rng.choice(code.length, size=count, replace=False).tolist())
        blocks = code.encode(make_data(code, seed))
        available = {
            index: blocks[index]
            for index in code.layout.surviving_symbols(failed)
        }
        if code.can_recover(failed):
            code.decode_data(available)   # must not raise
        else:
            with pytest.raises(SingularMatrixError):
                code.decode_data(available)

    @settings(max_examples=30, deadline=None)
    @given(code_names)
    def test_tolerance_boundary(self, name):
        """Every pattern of size <= tolerance recovers; some pattern of
        size tolerance+1 does not."""
        code = make_code(name)
        tolerance = code.fault_tolerance
        if tolerance + 1 <= code.length:
            assert any(
                not code.can_recover(set(subset))
                for subset in itertools.combinations(range(code.length),
                                                     tolerance + 1)
            )


class TestDegradedReads:
    @settings(max_examples=60, deadline=None)
    @given(code_names, seeds)
    def test_degraded_read_returns_exact_bytes(self, name, seed):
        code = make_code(name)
        rng = np.random.default_rng(seed)
        symbol = code.layout.data_symbols()[
            int(rng.integers(code.k))
        ]
        failed = set(symbol.replicas)
        if not code.can_recover(failed):
            return
        blocks = code.encode(make_data(code, seed))
        plan = code.plan_degraded_read(symbol.index, failed)
        value = execute_read_plan(code, blocks, plan, failed)
        assert np.array_equal(value, blocks[symbol.index])

    @settings(max_examples=40, deadline=None)
    @given(code_names, seeds)
    def test_read_with_live_replica_costs_at_most_one(self, name, seed):
        code = make_code(name)
        rng = np.random.default_rng(seed)
        symbol = code.layout.symbols[int(rng.integers(code.symbol_count))]
        alive = symbol.replicas[0]
        failed = set(symbol.replicas[1:])
        plan = code.plan_degraded_read(symbol.index, failed)
        assert plan.network_blocks <= 1
        local = code.plan_degraded_read(symbol.index, failed, reader_slot=alive)
        assert local.network_blocks == 0


class TestMetricsInvariants:
    @settings(max_examples=30, deadline=None)
    @given(code_names)
    def test_overhead_is_blocks_over_k(self, name):
        code = make_code(name)
        assert code.storage_overhead == pytest.approx(code.total_blocks / code.k)

    @settings(max_examples=30, deadline=None)
    @given(code_names)
    def test_slot_map_partitions_replicas(self, name):
        layout = make_code(name).layout
        total = sum(len(layout.symbols_on_slot(s)) for s in range(layout.length))
        assert total == layout.total_blocks

    @settings(max_examples=30, deadline=None)
    @given(code_names)
    def test_generator_has_full_rank(self, name):
        from repro.gf import matrix_rank
        code = make_code(name)
        assert matrix_rank(code.layout.generator_matrix()) == code.k


class TestRegistryRoundTrip:
    """``make_code(code.name)`` must succeed for every constructible name.

    The generalized polygon-local family used to emit names
    (``pentagon-local(3g,2p)``) the registry could not parse, so codes
    could not travel by name — which the sharded enumeration cells, the
    sweep engine and the CLI all rely on."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 9), st.integers(1, 4), st.integers(1, 3))
    def test_polygon_local_family(self, n, groups, parities):
        from repro.core import PolygonLocalCode
        code = PolygonLocalCode(n, groups=groups, global_parities=parities)
        rebuilt = make_code(code.name)
        assert isinstance(rebuilt, PolygonLocalCode)
        assert (rebuilt.n, rebuilt.groups, rebuilt.global_parities) \
            == (n, groups, parities)
        assert make_code(rebuilt.name).name == rebuilt.name

    @settings(max_examples=60, deadline=None)
    @given(code_names, seeds)
    def test_every_code_zoo_member(self, name, seed):
        del seed
        code = make_code(name)
        rebuilt = make_code(code.name)
        assert rebuilt.name == code.name
        assert rebuilt.length == code.length
        assert rebuilt.k == code.k

    @pytest.mark.parametrize("name", [
        "pentagon-local(3g,2p)", "heptagon-local(3g,2p)",
        "polygon-local-5(3g,2p)", "polygon-4-local", "polygon-9-local(4g,3p)",
        "heptagon-local", "pentagon-local",
    ])
    def test_generalized_spellings_parse(self, name):
        code = make_code(name)
        assert make_code(code.name).name == code.name
