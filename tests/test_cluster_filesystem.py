"""Integration tests: MiniHDFS write/read/degraded-read/repair paths."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterTopology,
    FailureInjector,
    FailureKind,
    MiniHDFS,
    RoundRobinPlacement,
    TransferRecord,
)
from repro.core import TransferKind, UnrecoverableStripeError


def make_fs(node_count=25, block_bytes=256, seed=0, placement=None):
    topology = ClusterTopology.flat(node_count)
    return MiniHDFS(topology, block_bytes=block_bytes, seed=seed,
                    placement=placement)


def payload(size, seed=1):
    rng = np.random.default_rng(seed)
    return bytes(rng.integers(0, 256, size, dtype=np.uint8))


class TestWriteRead:
    @pytest.mark.parametrize("code_name", [
        "2-rep", "3-rep", "pentagon", "heptagon", "heptagon-local",
        "(10,9) RAID+m", "rs(14,10)",
    ])
    def test_roundtrip(self, code_name):
        fs = make_fs()
        data = payload(3000)
        fs.write_file("f", data, code_name)
        assert fs.read_file("f") == data

    def test_multi_stripe_roundtrip(self):
        fs = make_fs(block_bytes=128)
        data = payload(128 * 9 * 3 + 17)   # 3 full pentagon stripes + tail
        fs.write_file("f", data, "pentagon")
        assert len(fs.namenode.file("f").stripes) == 4
        assert fs.read_file("f") == data

    def test_empty_file(self):
        fs = make_fs()
        fs.write_file("empty", b"", "pentagon")
        assert fs.read_file("empty") == b""

    def test_duplicate_name_rejected(self):
        fs = make_fs()
        fs.write_file("f", b"x", "2-rep")
        with pytest.raises(FileExistsError):
            fs.write_file("f", b"y", "2-rep")

    def test_missing_file_rejected(self):
        fs = make_fs()
        with pytest.raises(FileNotFoundError):
            fs.read_file("ghost")

    def test_storage_overhead_measured(self):
        fs = make_fs()
        fs.write_file("f", payload(256 * 9), "pentagon")
        assert fs.storage_overhead("f") == pytest.approx(20 / 9)

    def test_write_traffic_charged(self):
        fs = make_fs(block_bytes=100)
        fs.write_file("f", payload(100 * 9), "pentagon")
        assert fs.ledger.total_bytes("write") == 20 * 100  # all replicas

    def test_read_block_by_id(self):
        fs = make_fs()
        data = payload(256 * 9)
        fs.write_file("f", data, "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        block = stripe.block_id(0)
        assert fs.read_block(block) == data[:256]


class TestDegradedRead:
    def test_single_failure_reads_other_replica(self):
        fs = make_fs()
        data = payload(256 * 9)
        fs.write_file("f", data, "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        victim = stripe.replica_nodes(0)[0]
        fs.fail_node(victim)
        assert fs.read_file("f") == data

    def test_double_failure_uses_partial_parities(self):
        """Both replicas of a block down: read costs 3 blocks (paper 3.1)."""
        fs = make_fs(block_bytes=512)
        data = payload(512 * 9)
        fs.write_file("f", data, "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        for node in stripe.replica_nodes(0):
            fs.fail_node(node)
        before = fs.ledger.total_bytes("degraded-read")
        block = fs.read_block(stripe.block_id(0))
        assert block == data[:512]
        assert fs.ledger.total_bytes("degraded-read") - before == 3 * 512

    def test_raid_mirror_degraded_read_costs_k_blocks(self):
        fs = make_fs(block_bytes=512)
        data = payload(512 * 9)
        fs.write_file("f", data, "(10,9) RAID+m")
        stripe = fs.namenode.file("f").stripes[0]
        for node in stripe.replica_nodes(0):
            fs.fail_node(node)
        before = fs.ledger.total_bytes("degraded-read")
        assert fs.read_block(stripe.block_id(0)) == data[:512]
        assert fs.ledger.total_bytes("degraded-read") - before == 9 * 512

    def test_heptagon_local_reads_through_triple_failure(self):
        fs = make_fs(block_bytes=64)
        data = payload(64 * 40)
        fs.write_file("f", data, "heptagon-local")
        stripe = fs.namenode.file("f").stripes[0]
        for slot in (0, 1, 2):   # a full triangle of one heptagon
            fs.fail_node(stripe.slot_nodes[slot])
        assert fs.read_file("f") == data

    def test_unrecoverable_read_raises(self):
        fs = make_fs()
        data = payload(256 * 9)
        fs.write_file("f", data, "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        for slot in (0, 1, 2):
            fs.fail_node(stripe.slot_nodes[slot])
        with pytest.raises(UnrecoverableStripeError):
            fs.read_file("f")

    def test_local_read_costs_nothing(self):
        fs = make_fs(block_bytes=256)
        data = payload(256 * 9)
        fs.write_file("f", data, "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        reader = stripe.replica_nodes(0)[0]
        before = fs.ledger.total_bytes("read")
        fs.read_block(stripe.block_id(0), reader_node=reader)
        assert fs.ledger.total_bytes("read") == before


class TestRepair:
    def test_single_node_repair_by_transfer(self):
        """Pentagon single repair moves blocks-per-node blocks per stripe."""
        fs = make_fs(block_bytes=128)
        data = payload(128 * 9)
        fs.write_file("f", data, "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        victim = stripe.slot_nodes[0]
        fs.fail_node(victim, permanent=True)
        moved = fs.repair_node(victim)
        assert moved == 4 * 128
        assert fs.read_file("f") == data
        assert fs.datanodes[victim].block_count == 4

    def test_double_node_repair_costs_ten_blocks(self):
        """The Section 2.1 headline: pentagon two-node repair = 10 blocks."""
        fs = make_fs(block_bytes=128)
        data = payload(128 * 9)
        fs.write_file("f", data, "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        for slot in (0, 1):
            fs.fail_node(stripe.slot_nodes[slot], permanent=True)
        moved = fs.repair_all()
        assert moved == 10 * 128
        assert fs.read_file("f") == data

    def test_repair_onto_replacement_node(self):
        fs = make_fs(node_count=25, block_bytes=128)
        data = payload(128 * 9)
        fs.write_file("f", data, "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        victim = stripe.slot_nodes[2]
        spare = next(n for n in range(25) if n not in stripe.slot_nodes)
        fs.fail_node(victim, permanent=True)
        fs.repair_node(victim, replacement=spare)
        assert spare in stripe.slot_nodes
        assert victim not in stripe.slot_nodes
        assert fs.read_file("f") == data

    @pytest.mark.parametrize("bad", ["in-stripe", "failed"])
    def test_unusable_replacement_rejected_before_a_byte_moves(self, bad):
        """A stand-in that already holds a slot of a stripe under repair
        (two slots on one node), or that is itself failed, is refused
        with ledger, metadata and every disk as they were."""
        fs = make_fs(node_count=12, block_bytes=128,
                     placement=RoundRobinPlacement())
        fs.write_file("f", payload(128 * 9 * 3), "pentagon")
        stripes = fs.namenode.file("f").stripes
        assert [s.slot_nodes for s in stripes] == [
            (0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (10, 11, 0, 1, 2)]
        # node 10 is outside the victim's first stripe but inside its
        # second, so the first alone would accept it; node 5 holds no
        # slot of either
        victim, replacement = 0, 10 if bad == "in-stripe" else 5
        fs.fail_node(victim, permanent=True)
        if bad == "failed":
            fs.fail_node(replacement)
        before = ([s.slot_nodes for s in stripes],
                  [node.block_count for node in fs.datanodes])
        with pytest.raises(ValueError):
            fs.repair_node(victim, replacement=replacement)
        assert fs.ledger.total_bytes("repair") == 0
        assert before == ([s.slot_nodes for s in stripes],
                          [node.block_count for node in fs.datanodes])

    def test_repair_of_healthy_node_rejected(self):
        fs = make_fs()
        fs.write_file("f", payload(256 * 9), "pentagon")
        with pytest.raises(ValueError):
            fs.repair_node(3)

    def test_heptagon_local_global_node_repair(self):
        fs = make_fs(node_count=15, block_bytes=64, placement=RoundRobinPlacement())
        data = payload(64 * 40)
        fs.write_file("f", data, "heptagon-local")
        stripe = fs.namenode.file("f").stripes[0]
        global_node = stripe.slot_nodes[14]
        fs.fail_node(global_node, permanent=True)
        moved = fs.repair_node(global_node)
        assert moved == 20 * 64   # partial aggregation, not 40 reads
        assert fs.read_file("f") == data

    def test_multi_stripe_repair(self):
        fs = make_fs(node_count=5, block_bytes=64, placement=RoundRobinPlacement())
        data = payload(64 * 9 * 4)
        fs.write_file("f", data, "pentagon")
        fs.fail_node(0, permanent=True)
        moved = fs.repair_node(0)
        assert moved == 4 * 4 * 64   # 4 stripes x 4 blocks
        assert fs.read_file("f") == data

    def test_unrecoverable_repair_fails_fast(self):
        """The bulk pre-check raises before any repair bytes move."""
        fs = make_fs(node_count=5, block_bytes=64, placement=RoundRobinPlacement())
        fs.write_file("f", payload(64 * 9 * 3), "pentagon")
        for node in (0, 1, 2):   # a failure triangle loses data
            fs.fail_node(node, permanent=True)
        before = fs.ledger.total_bytes("repair")
        with pytest.raises(UnrecoverableStripeError):
            fs.repair_all()
        assert fs.ledger.total_bytes("repair") == before


class TestRepairAroundCorruptSources:
    """A rotten source replica is planned around, as on the read path."""

    def _wounded(self):
        fs = make_fs(block_bytes=128)
        data = payload(128 * 9)
        fs.write_file("f", data, "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        source = stripe.code.plan_node_repair([0]).transfers[0]
        assert stripe.code.can_recover((0, source.source_slot))
        rotten = stripe.slot_nodes[source.source_slot]
        fs.datanodes[rotten].corrupt(stripe.block_id(source.symbols_read[0]))
        fs.fail_node(stripe.slot_nodes[0], permanent=True)
        return fs, data, stripe, rotten

    def test_repair_node_replans_and_heals_the_corrupt_slot(self):
        fs, data, stripe, rotten = self._wounded()
        victim = stripe.slot_nodes[0]
        fs.repair_node(victim)
        assert fs.topology.is_alive(victim)
        assert fs.read_file("f") == data
        assert fs.ledger.total_bytes("degraded-read") == 0
        # Both the dead slot and the rotten one were rebuilt bit-exactly:
        # every replica of every symbol verifies and matches its twin.
        for symbol in stripe.code.layout.symbols:
            copies = [fs.datanodes[node].get(stripe.block_id(symbol.index))
                      for node in stripe.replica_nodes(symbol.index)]
            assert all(np.array_equal(copies[0], copy) for copy in copies)
        assert fs.datanodes[rotten].block_count == 4

    def test_repair_all_replans_too(self):
        fs, data, stripe, rotten = self._wounded()
        fs.repair_all()
        assert fs.topology.failed_nodes() == []
        fs.datanodes[rotten].get(stripe.block_id(
            stripe.code.layout.symbols_on_slot(
                stripe.slot_of_node(rotten))[0]))       # verifies
        assert fs.read_file("f") == data

    def test_an_aborted_attempt_charges_the_transfers_before_the_rot(self):
        """The ledger charges each transfer as it lands, a DECODED
        hand-off at its place among the fetched ones, so an attempt a
        corrupt source aborts has charged exactly the transfers before
        it; the retried repair then charges its own re-plan in full."""
        block = 64
        fs = make_fs(node_count=15, block_bytes=block,
                     placement=RoundRobinPlacement())
        data = payload(block * 14)
        fs.write_file("f", data, "heptagon-local")
        stripe = fs.namenode.file("f").stripes[0]
        plan = stripe.code.plan_node_repair((0, 1, 7))
        assert plan.transfers[15].kind is TransferKind.DECODED
        rotten = plan.transfers[18]                 # a copy after it
        assert rotten.kind is TransferKind.COPY
        replan = stripe.code.plan_node_repair((0, 1, 7, rotten.source_slot))
        fs.datanodes[stripe.slot_nodes[rotten.source_slot]].corrupt(
            stripe.block_id(rotten.symbols_read[0]))
        for slot in (0, 1, 7):
            fs.fail_node(stripe.slot_nodes[slot], permanent=True)
        fs.ledger.reset()
        fs.repair_all()
        aborted = [TransferRecord(stripe.slot_nodes[t.source_slot],
                                  stripe.slot_nodes[t.dest_slot], block,
                                  "repair")
                   for t in plan.transfers[:18]]
        assert fs.ledger.records[:18] == aborted
        retried = sum(r.byte_count for r in fs.ledger.records[18:])
        assert retried == block * sum(
            t.source_slot != t.dest_slot for t in replan.transfers)
        assert fs.read_file("f") == data

    def test_corruption_past_tolerance_is_unrecoverable(self):
        """Only a pattern the code cannot decode raises."""
        fs = make_fs(block_bytes=128)
        fs.write_file("f", payload(128 * 9), "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        for slot in (0, 1):
            fs.fail_node(stripe.slot_nodes[slot], permanent=True)
        source = stripe.code.plan_node_repair([0, 1]).transfers[0]
        fs.datanodes[stripe.slot_nodes[source.source_slot]].corrupt(
            stripe.block_id(source.symbols_read[0]))
        with pytest.raises(UnrecoverableStripeError):
            fs.repair_all()


class TestBatchedWritePath:
    def test_encode_stripes_bit_identical_to_encode(self):
        from repro.core import make_code

        for code_name in ("pentagon", "heptagon-local", "rs(14,10)", "2-rep"):
            code = make_code(code_name)
            rng = np.random.default_rng(11)
            stripes = [
                [rng.integers(0, 256, 512, dtype=np.uint8)
                 for _ in range(code.k)]
                for _ in range(3)
            ]
            batched = code.encode_stripes(stripes)
            for blocks, encoded in zip(stripes, batched):
                reference = code.encode(blocks)
                assert len(encoded) == len(reference)
                for got, expected in zip(encoded, reference):
                    assert np.array_equal(got, expected)

    def test_encode_stripes_empty_and_single(self):
        from repro.core import make_code

        code = make_code("pentagon")
        assert code.encode_stripes([]) == []
        blocks = [bytes(range(9)) for _ in range(9)]
        [one] = code.encode_stripes([blocks])
        for got, expected in zip(one, code.encode(blocks)):
            assert np.array_equal(got, expected)

    def test_batched_write_matches_ledger_and_roundtrip(self):
        """Many-stripe writes: unchanged per-block charges, exact bytes."""
        fs = make_fs(node_count=5, block_bytes=64, placement=RoundRobinPlacement())
        data = payload(64 * 9 * 5)   # five pentagon stripes
        info = fs.write_file("f", data, "pentagon")
        assert len(info.stripes) == 5
        # 10 symbols x 2 replicas = 20 block puts per pentagon stripe.
        assert fs.ledger.total_bytes("write") == 5 * 20 * 64
        assert fs.read_file("f") == data

    def test_batched_write_blocks_are_independent(self):
        """Sliced parity rows must not alias each other or the stack."""
        fs = make_fs(node_count=5, block_bytes=64, placement=RoundRobinPlacement())
        data = payload(64 * 9 * 2)
        fs.write_file("f", data, "pentagon")
        stripes = fs.namenode.file("f").stripes
        first = fs.read_block(stripes[0].block_id(0))
        assert first == data[:64]


class TestFailureInjector:
    def test_transient_failure_keeps_blocks(self):
        fs = make_fs()
        data = payload(256 * 9)
        fs.write_file("f", data, "pentagon")
        injector = FailureInjector(fs)
        stripe = fs.namenode.file("f").stripes[0]
        victim = stripe.slot_nodes[0]
        injector.fail(victim, FailureKind.TRANSIENT)
        assert fs.datanodes[victim].block_count == 4
        injector.restore(victim)
        assert fs.read_file("f") == data

    def test_permanent_failure_wipes_blocks(self):
        fs = make_fs()
        fs.write_file("f", payload(256 * 9), "pentagon")
        injector = FailureInjector(fs)
        stripe = fs.namenode.file("f").stripes[0]
        victim = stripe.slot_nodes[0]
        injector.fail(victim, FailureKind.PERMANENT)
        assert fs.datanodes[victim].block_count == 0

    def test_random_failures_and_journal(self):
        fs = make_fs()
        injector = FailureInjector(fs)
        rng = np.random.default_rng(0)
        victims = injector.fail_random(rng, count=3)
        assert len(victims) == 3
        assert sorted(injector.failed_nodes()) == sorted(victims)
        assert len(injector.journal) == 3
        assert injector.events_for(victims[0])[0].action == "fail"

    def test_too_many_failures_rejected(self):
        fs = make_fs(node_count=3)
        injector = FailureInjector(fs)
        with pytest.raises(ValueError):
            injector.fail_random(np.random.default_rng(0), count=5)
