"""Blocks that survived are handed on, not copied; patterns are solved once.

Three contracts, each checked against what the code did before it had
them (the *reference* functions below are the old algorithms, kept
here as the arbiter):

* ``Code.decode_data`` returns every data symbol that survived as a
  read-only view of the caller's buffer and solves only the rest —
  same bytes as pushing the whole inverse through one kernel, on the
  native, numpy and scalar backends, for every registry code and every
  failure set up to its tolerance (a seeded sample for the large ones);
* the per-code memos — decode kernels in one, read and repair plans in
  another sized to the code — are bounded, evict, and never let one
  caller's mutation reach the next (planners stay pure functions); a
  plan answered from them equals the one the planner would make, and a
  whole-file read plans each symbol once;
* a plain-copy transfer is a read-only view on the in-memory and
  MiniHDFS transports: identical recovered bytes, and nothing a plan
  returns lets the caller write into the stripe or a DataNode's store.

Plus the indices that do not exist, which the memo must never cache.
"""

import pickle
from itertools import combinations

import numpy as np
import pytest

from repro.cluster import ClusterTopology, MiniHDFS, RoundRobinPlacement
from repro.core import (
    Code,
    UnrecoverableStripeError,
    available_codes,
    execute_read_plan,
    execute_repair_plan,
    make_code,
    run_plan,
)
from repro.core.code import PATTERN_MEMO_ENTRIES
from repro.gf import (
    NATIVE_MIN_BYTES,
    PACKED_MIN_BYTES,
    BatchedLinearMap,
    independent_rows,
    invert,
    kernels,
    linear_combine,
)

#: Block size that takes each backend through its packed route (the
#: scalar one has none); odd where the backend allows it.
BLOCK_BYTES = {"scalar": 23, "numpy": PACKED_MIN_BYTES,
               "native": NATIVE_MIN_BYTES + 1}
#: Failure sets per (code, backend): all of them up to this many, a
#: seeded sample of this many beyond (64 KiB numpy decodes are slow).
PATTERNS = {"scalar": 64, "numpy": 12, "native": 64}


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    kernels.set_backend(None)


def failure_sets(code, limit):
    """Every failure set up to the tolerance, or a seeded ``limit`` of
    them (the worst tolerated one, ``range(tolerance)``, always in)."""
    every = [failed for size in range(code.fault_tolerance + 1)
             for failed in combinations(range(code.length), size)]
    if len(every) <= limit:
        return every
    rng = np.random.default_rng(len(every))
    picks = rng.choice(len(every), size=limit - 1, replace=False)
    return [tuple(range(code.fault_tolerance))] + [every[i] for i in picks]


def stripe(code, size, seed=5):
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, size, dtype=np.uint8)
            for _ in range(code.k)]
    return data, code.encode(data)


def reference_decode(code, available):
    """The old ``decode_data``: the whole inverse through one kernel."""
    indices = sorted(available)
    generator = code.layout.generator_matrix()
    positions = independent_rows(generator[indices], limit=code.k)
    basis = [indices[p] for p in positions]
    return list(BatchedLinearMap(invert(generator[basis])).apply(
        [available[i] for i in basis]))


def reference_fetch(blocks):
    """The old in-memory transport: every payload through a combine."""
    return lambda transfer: linear_combine(
        transfer.coefficients, [blocks[s] for s in transfer.symbols_read])


class TestDecodeHandsOutWhatSurvived:
    @pytest.mark.parametrize("backend", ["scalar", "numpy", "native"])
    @pytest.mark.parametrize("code_name", available_codes())
    def test_views_for_survivors_fresh_rows_for_the_rest(self, code_name,
                                                         backend):
        kernels.set_backend(backend)
        code = make_code(code_name)
        data, encoded = stripe(code, BLOCK_BYTES[backend])
        column_of = {code.layout.data_column(s.index): s.index
                     for s in code.layout.data_symbols()}
        for failed in failure_sets(code, PATTERNS[backend]):
            available = {i: encoded[i]
                         for i in code.layout.surviving_symbols(failed)}
            decoded = code.decode_data(available)
            reference = reference_decode(code, available)
            assert len(decoded) == code.k
            for column, out in enumerate(decoded):
                assert np.array_equal(out, data[column]), (failed, column)
                assert np.array_equal(out, reference[column])
                symbol = column_of[column]
                if symbol in available:
                    assert np.shares_memory(out, available[symbol])
                    assert not out.flags.writeable
                else:
                    assert out.flags.writeable
                    assert not any(np.shares_memory(out, buffer)
                                   for buffer in available.values())
            solved = [out for out in decoded if out.flags.writeable]
            for a, b in combinations(solved, 2):
                assert not np.shares_memory(a, b)

    def test_bytes_input(self):
        code = make_code("pentagon")
        data, encoded = stripe(code, 64)
        available = {i: encoded[i].tobytes()
                     for i in code.layout.surviving_symbols({0, 1})}
        decoded = code.decode_data(available)
        assert [out.tobytes() for out in decoded] == [
            block.tobytes() for block in data]
        survivors = [out for out in decoded if not out.flags.writeable]
        assert len(survivors) == code.k - 1     # one edge lost both ends
        with pytest.raises(ValueError):
            survivors[0][0] = 0

    def test_decode_symbol_is_always_a_private_array(self):
        code = make_code("pentagon")
        _, encoded = stripe(code, 64)
        available = dict(enumerate(encoded))
        for symbol in range(code.symbol_count):
            out = code.decode_symbol(symbol, available)
            assert np.array_equal(out, encoded[symbol])
            assert out.flags.writeable
            assert not np.shares_memory(out, encoded[symbol])

    def test_unequal_survivors_are_refused(self):
        code = make_code("pentagon")
        _, encoded = stripe(code, 64)
        available = dict(enumerate(encoded))
        available[0] = encoded[0][:32]
        with pytest.raises(ValueError, match="same size"):
            code.decode_data(available)


class TestPatternMemo:
    def test_more_patterns_than_the_bound(self):
        code = make_code("rs(14,10)")
        data, encoded = stripe(code, 64)
        patterns = list(combinations(range(code.length), 4))[
            :PATTERN_MEMO_ENTRIES + 9]

        def decode(failed):
            return code.decode_data(
                {i: encoded[i]
                 for i in code.layout.surviving_symbols(failed)})

        first = [out.copy() for out in decode(patterns[0])]
        first_key = next(iter(code._pattern_memo))
        for failed in patterns:
            for out, block in zip(decode(failed), data):
                assert np.array_equal(out, block), failed
            assert len(code._pattern_memo) <= PATTERN_MEMO_ENTRIES
        assert first_key not in code._pattern_memo       # evicted ...
        for out, before in zip(decode(patterns[0]), first):
            assert np.array_equal(out, before)           # ... and re-solved
        assert first_key in code._pattern_memo

    def test_a_pattern_past_decoding_is_not_cached(self):
        code = make_code("pentagon")
        _, encoded = stripe(code, 16)
        with pytest.raises(ValueError):
            code.decode_data({0: encoded[0], 1: encoded[1]})
        assert not code._pattern_memo

    @pytest.mark.parametrize("code_name", available_codes())
    def test_generic_planners_are_pure(self, code_name):
        code = make_code(code_name)
        for failed in failure_sets(code, 12):
            if not failed:
                continue
            assert Code._plan_repair_uncached(code, failed) == \
                Code._plan_repair_uncached(make_code(code_name), failed)
            for symbol in code.layout.lost_symbols(failed):
                read = Code._plan_read_uncached(code, symbol, failed)
                assert read == Code._plan_read_uncached(code, symbol, failed)
                assert read == Code._plan_read_uncached(
                    make_code(code_name), symbol, failed)

    @pytest.mark.parametrize("code_name", available_codes())
    def test_memoised_read_plans_are_the_planners_own(self, code_name):
        code, fresh = make_code(code_name), make_code(code_name)
        for failed in failure_sets(code, 24):
            live = next(slot for slot in range(code.length)
                        if slot not in failed)
            readers = [None, live, *failed[:1]]
            for symbol in range(code.symbol_count):
                for reader in readers:
                    want = fresh._plan_read_uncached(symbol, failed, reader)
                    for _ in range(2):      # a miss, then (usually) a hit
                        assert code.plan_degraded_read(
                            symbol, set(failed), reader) == want
            assert len(code._plan_memo) <= code._plan_memo.bound

    @pytest.mark.parametrize("code_name", available_codes())
    def test_memoised_repair_plans_are_the_planners_own(self, code_name):
        code, fresh = make_code(code_name), make_code(code_name)
        for failed in failure_sets(code, 24):
            want = fresh._plan_repair_uncached(failed)
            plan = code.plan_node_repair(reversed(failed))
            assert plan == want
            assert code.plan_node_repair(list(failed) * 2) is plan
        assert len(code._plan_memo) <= code._plan_memo.bound

    def test_an_unrepairable_pattern_is_refused_on_every_call(self):
        code = make_code("heptagon-local")
        failed = (0, 1, 2, code.global_slot)
        for _ in range(3):
            with pytest.raises(UnrecoverableStripeError):
                code.plan_node_repair(failed)
        assert ("repair", failed) not in code._plan_memo

    def test_an_unreadable_symbol_is_refused_on_every_call(self):
        code = make_code("pentagon")
        failed = {0, 1, 2}                  # one past the tolerance
        lost = code.layout.lost_symbols(failed)[0]
        for _ in range(3):
            with pytest.raises(UnrecoverableStripeError):
                code.plan_degraded_read(lost, failed)
        assert not any(key[0] == "read" for key in code._plan_memo)

    def test_more_read_plans_than_the_bound(self):
        code = make_code("heptagon-local")
        data, encoded = stripe(code, 64)
        available = {i: encoded[i]
                     for i in code.layout.surviving_symbols({0, 1})}
        before = [out.copy() for out in code.decode_data(available)]
        patterns = list(combinations(range(code.length), 2))[:6]
        planned = code.symbol_count * len(patterns)
        assert planned > code._plan_memo.bound
        for _ in range(2):                  # a scan evicts what it planned
            for failed in patterns:
                for symbol in range(code.symbol_count):
                    plan = code.plan_degraded_read(symbol, failed)
                    assert plan == code._plan_read_uncached(symbol, failed)
                    assert execute_read_plan(
                        code, encoded, plan, failed).tobytes() \
                        == encoded[symbol].tobytes()
                assert len(code._plan_memo) <= code._plan_memo.bound
        assert len(code._pattern_memo) == 1      # the kernel stays
        for out, want, block in zip(code.decode_data(available), before,
                                    data):
            assert np.array_equal(out, want)
            assert np.array_equal(out, block)

    def test_a_whole_file_read_plans_each_symbol_once(self, monkeypatch):
        """Every symbol of a > 32-symbol code fits the plan memo, and
        planning it leaves the decode kernels alone."""
        code, fs, data, placed = single_failure_cluster("heptagon-local")
        assert code.symbol_count > PATTERN_MEMO_ENTRIES
        code = placed.code
        fs.fail_node(placed.slot_nodes[0], permanent=True)
        failed = {0}
        _, encoded = stripe(code, 32)
        code.decode_data({i: encoded[i]
                          for i in code.layout.surviving_symbols(failed)})
        kernels_before = list(code._pattern_memo)
        planned = []
        plan_read = code._plan_read_uncached

        def counted(symbol, *args):
            planned.append(symbol)
            return plan_read(symbol, *args)

        monkeypatch.setattr(code, "_plan_read_uncached", counted)
        for _ in range(2):
            assert fs.read_file("f") == data
        assert sorted(planned) == sorted(symbol.index for symbol
                                         in code.layout.data_symbols())
        assert list(code._pattern_memo) == kernels_before

    def test_callers_cannot_reach_the_cached_solutions(self):
        code = make_code("rs(14,10)")
        failed = {0, 1, 2, 3}
        basis = code._independent_surviving_symbols(failed)
        expected = list(basis)
        basis.reverse()
        basis.append(99)
        assert code._independent_surviving_symbols(failed) == expected
        weights = code._decode_weights(expected, [0, 1])
        assert weights is code._decode_weights(expected, [0, 1])
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 7
        with pytest.raises(ValueError, match="read-only"):
            weights[:] = 0

    @pytest.mark.parametrize("code_name", available_codes())
    def test_callers_cannot_reach_the_cached_repair_plans(self, code_name):
        code = make_code(code_name)
        for failed in failure_sets(code, 12):
            if not failed:
                continue
            plan = code.plan_node_repair(failed)
            expected = dict(plan.restored)
            with pytest.raises(TypeError):
                plan.restored[failed[0]] = ()
            with pytest.raises(AttributeError):
                plan.restored.clear()
            again = code.plan_node_repair(failed)
            assert again is plan and dict(again.restored) == expected
            assert pickle.loads(pickle.dumps(plan)) == plan


def single_failure_cluster(code_name, block=32):
    code = make_code(code_name)
    fs = MiniHDFS(ClusterTopology.flat(code.length + 1), block_bytes=block,
                  placement=RoundRobinPlacement())
    rng = np.random.default_rng(29)
    data = bytes(rng.integers(0, 256, code.k * block, dtype=np.uint8))
    info = fs.write_file("f", data, code_name)
    return code, fs, data, info.stripes[0]


def stored_arrays(fs):
    return [array for node in fs.datanodes
            for array in node._blocks.values()]


def assert_no_way_in(payloads, owned):
    """No payload lets its holder write into an ``owned`` array."""
    for payload in payloads:
        if payload.flags.writeable:
            assert not any(np.shares_memory(payload, array)
                           for array in owned)
        else:
            with pytest.raises(ValueError, match="read-only"):
                payload[:1] = 0


class TestPlainCopiesAreViews:
    @pytest.mark.parametrize("code_name", available_codes())
    def test_in_memory_transport(self, code_name):
        code = make_code(code_name)
        _, encoded = stripe(code, 32)
        pristine = [block.copy() for block in encoded]
        for slot in range(code.length):
            plan = code.plan_node_repair((slot,))
            recovered = execute_repair_plan(code, encoded, plan)
            reference = run_plan(plan, reference_fetch(encoded))
            assert recovered.keys() == reference.keys()
            for symbol, payload in recovered.items():
                assert payload.tobytes() == reference[symbol].tobytes()
            assert_no_way_in(recovered.values(), encoded)
            copied = [t for t in plan.transfers
                      if t.plain_copy and t.delivers_symbol is not None]
            for transfer in copied:     # handed on, not copied
                assert np.shares_memory(recovered[transfer.delivers_symbol],
                                        encoded[transfer.symbols_read[0]])
            for symbol in code.layout.data_symbols():
                failed = set(symbol.replicas)
                if not code.can_recover(failed):
                    continue
                read = code.plan_degraded_read(symbol.index, failed)
                payload = execute_read_plan(code, encoded, read, failed)
                assert payload.tobytes() == run_plan(
                    read, reference_fetch(encoded)).tobytes()
                assert_no_way_in([payload], encoded)
        for block, before in zip(encoded, pristine):
            assert np.array_equal(block, before)

    def test_in_memory_transport_over_bytes_and_writable_blocks(self):
        code = make_code("pentagon")
        _, encoded = stripe(code, 32)
        plan = code.plan_node_repair((0,))
        for blocks in ([block.tobytes() for block in encoded],
                       [block.copy() for block in encoded]):
            recovered = execute_repair_plan(code, blocks, plan)
            for symbol, payload in recovered.items():
                assert payload.tobytes() == encoded[symbol].tobytes()
                assert not payload.flags.writeable

    @pytest.mark.parametrize("code_name", available_codes())
    def test_minihdfs_repair_node(self, code_name):
        code, fs, data, placed = single_failure_cluster(code_name)
        spare = code.length
        for slot in range(code.length):
            victim = placed.slot_nodes[slot]
            fs.fail_node(victim, permanent=True)
            plan = placed.plan_repair({slot}, {slot: victim})
            payloads = fs.run_repair_plan(placed, plan, {})
            assert_no_way_in(payloads.values(), stored_arrays(fs))
            reference = run_plan(plan, lambda transfer: linear_combine(
                transfer.coefficients,
                [fs.datanodes[placed.slot_nodes[transfer.source_slot]].get(
                    placed.block_id(s)) for s in transfer.symbols_read]))
            for symbol, payload in payloads.items():
                assert payload.tobytes() == reference[symbol].tobytes()
            fs.ledger.reset()
            # even slots rebuilt in place, odd ones on the spare node
            replacement = None if slot % 2 == 0 else spare
            moved = fs.repair_node(victim, replacement)
            assert moved == fs.ledger.total_bytes("repair") == (
                plan.network_blocks * fs.block_bytes)
            assert fs.verify_file("f", data)
            for stored in stored_arrays(fs):
                assert stored.flags.writeable and stored.base is None
            if replacement is not None:
                fs.restore_node(victim)
                spare = victim

    def test_minihdfs_reads_do_not_expose_the_store(self):
        code, fs, data, placed = single_failure_cluster("pentagon")
        plan = code.plan_degraded_read(0, set())
        payload = fs.run_read_plan(placed, plan, None)
        assert_no_way_in([payload], stored_arrays(fs))
        assert any(np.shares_memory(payload, array)
                   for array in stored_arrays(fs))
        assert fs.read_block(placed.block_id(0)) == payload.tobytes()


class TestIndicesThatDoNotExist:
    """Each was accepted (or died with a bare IndexError) before."""

    @pytest.mark.parametrize("code_name", available_codes())
    @pytest.mark.parametrize("slot", [-1, 99])
    def test_can_recover_and_repair_refuse_a_missing_slot(self, code_name,
                                                          slot):
        code = make_code(code_name)
        with pytest.raises(ValueError, match=f"no slot {slot} "):
            code.can_recover([slot])
        with pytest.raises(ValueError, match=f"no slot {slot} "):
            code.can_recover_many([[0], [slot]])
        with pytest.raises(ValueError, match=f"no slot {slot} "):
            code.plan_node_repair([slot])
        assert code.can_recover([0]) == (code.fault_tolerance >= 1)

    def test_the_message_names_the_code(self):
        with pytest.raises(ValueError, match=r"^pentagon: no slot 99 among"):
            make_code("pentagon").can_recover([99])
        with pytest.raises(ValueError, match=r"^rs\(14,10\): no symbol -1 "):
            make_code("rs(14,10)").plan_degraded_read(-1, set())

    @pytest.mark.parametrize("code_name", available_codes())
    @pytest.mark.parametrize("symbol", [-1, 99])
    def test_degraded_read_refuses_a_missing_symbol(self, code_name, symbol):
        code = make_code(code_name)
        with pytest.raises(ValueError, match=f"no symbol {symbol} "):
            code.plan_degraded_read(symbol, set())
        with pytest.raises(ValueError, match=f"no symbol {symbol} "):
            code.plan_degraded_read(symbol, {0}, reader_slot=1)

    @pytest.mark.parametrize("symbol", [-1, 99])
    def test_decode_refuses_a_missing_symbol(self, symbol):
        code = make_code("pentagon")
        _, encoded = stripe(code, 16)
        available = dict(enumerate(encoded))
        available[symbol] = encoded[-1]
        with pytest.raises(ValueError, match=f"pentagon: no symbol {symbol} "):
            code.decode_data(available)
        assert not code._pattern_memo
        assert len(code.decode_data(dict(enumerate(encoded)))) == code.k
