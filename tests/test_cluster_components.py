"""Unit tests for cluster substrate components: topology, ledger,
namenode, datanode, placement policies and the plan runtime."""

import numpy as np
import pytest

from repro.cluster import (
    BlockId,
    BlockNotFoundError,
    ClusterTopology,
    DataNode,
    MiniHDFS,
    NameNode,
    NetworkLedger,
    PlacementError,
    RackAwarePlacement,
    RandomSpreadPlacement,
    RoundRobinPlacement,
    StripeInfo,
    make_placement,
)
from repro.core import PlanExecutionError, make_code


class TestTopology:
    def test_flat(self):
        topology = ClusterTopology.flat(5)
        assert len(topology) == 5
        assert topology.rack_count() == 1
        assert topology.alive_nodes() == [0, 1, 2, 3, 4]

    def test_racked(self):
        topology = ClusterTopology.racked([2, 3])
        assert len(topology) == 5
        assert topology.rack_count() == 2
        assert topology.rack_members(1) == [2, 3, 4]
        assert topology.rack_of(4) == 1

    def test_fail_restore(self):
        topology = ClusterTopology.flat(3)
        topology.fail(1)
        assert topology.failed_nodes() == [1]
        assert not topology.is_alive(1)
        topology.restore(1)
        assert topology.failed_nodes() == []

    def test_cross_rack(self):
        topology = ClusterTopology.racked([2, 2])
        assert topology.cross_rack(0, 3)
        assert not topology.cross_rack(0, 1)

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            ClusterTopology.flat(2).node(9)


class TestLedger:
    def test_charge_and_totals(self):
        ledger = NetworkLedger()
        ledger.charge(0, 1, 100, "read")
        ledger.charge(1, 2, 50, "read")
        ledger.charge(0, 2, 25, "repair")
        assert ledger.total_bytes("read") == 150
        assert ledger.total_bytes("repair") == 25
        assert ledger.total_bytes() == 175
        assert ledger.transfer_count("read") == 2

    def test_same_node_transfer_is_free(self):
        ledger = NetworkLedger()
        ledger.charge(3, 3, 1000, "read")
        assert ledger.total_bytes() == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NetworkLedger().charge(0, 1, -1, "x")

    def test_cross_rack_accounting(self):
        ledger = NetworkLedger()
        ledger.charge(0, 1, 10, "repair", cross_rack=True)
        ledger.charge(0, 1, 10, "repair", cross_rack=False)
        assert ledger.cross_rack_bytes() == 10

    def test_reset(self):
        ledger = NetworkLedger()
        ledger.charge(0, 1, 10, "x")
        ledger.reset()
        assert ledger.total_bytes() == 0
        assert not ledger.records


class TestNameNode:
    def make_stripe(self, code_name="pentagon", nodes=(0, 1, 2, 3, 4)):
        return StripeInfo("f", 0, make_code(code_name), tuple(nodes))

    def test_stripe_validation(self):
        with pytest.raises(ValueError):
            StripeInfo("f", 0, make_code("pentagon"), (0, 1, 2))
        with pytest.raises(ValueError):
            StripeInfo("f", 0, make_code("pentagon"), (0, 1, 2, 3, 3))

    def test_replica_nodes(self):
        stripe = self.make_stripe(nodes=(10, 11, 12, 13, 14))
        assert stripe.replica_nodes(0) == (10, 11)   # edge (0,1)
        assert stripe.replica_nodes(9) == (13, 14)   # parity edge (3,4)

    def test_failed_slots(self):
        stripe = self.make_stripe(nodes=(10, 11, 12, 13, 14))
        assert stripe.failed_slots({11, 14, 99}) == {1, 4}

    def test_blocks_on_node(self):
        from repro.cluster import FileInfo
        namenode = NameNode()
        info = FileInfo("f", "pentagon", 9 * 64, 64)
        info.stripes.append(self.make_stripe())
        namenode.create_file(info)
        blocks = namenode.blocks_on_node(0)
        assert len(blocks) == 4   # pentagon node holds 4 blocks
        assert all(isinstance(b, BlockId) for b in blocks)
        assert namenode.blocks_on_node(9) == []

    def test_duplicate_create_rejected(self):
        from repro.cluster import FileInfo
        namenode = NameNode()
        namenode.create_file(FileInfo("f", "2-rep", 1, 1))
        with pytest.raises(FileExistsError):
            namenode.create_file(FileInfo("f", "2-rep", 1, 1))

    def test_delete(self):
        from repro.cluster import FileInfo
        namenode = NameNode()
        namenode.create_file(FileInfo("f", "2-rep", 1, 1))
        namenode.delete_file("f")
        with pytest.raises(FileNotFoundError):
            namenode.file("f")
        with pytest.raises(FileNotFoundError):
            namenode.delete_file("f")


class TestDataNode:
    def test_put_get(self):
        node = DataNode(0)
        block = BlockId("f", 0, 1)
        node.put(block, b"\x01\x02")
        assert list(node.get(block)) == [1, 2]
        assert node.has(block)
        assert node.block_count == 1
        assert node.used_bytes == 2

    def test_missing_block(self):
        with pytest.raises(BlockNotFoundError):
            DataNode(0).get(BlockId("f", 0, 0))

    def test_wipe(self):
        node = DataNode(0)
        node.put(BlockId("f", 0, 0), b"x")
        node.put(BlockId("f", 0, 1), b"y")
        assert node.wipe() == 2
        assert node.block_count == 0

    def test_drop_is_idempotent(self):
        node = DataNode(0)
        block = BlockId("f", 0, 0)
        node.put(block, b"x")
        node.drop(block)
        node.drop(block)
        assert not node.has(block)


class TestPlacementPolicies:
    def test_random_spread_distinct_alive(self):
        topology = ClusterTopology.flat(10)
        topology.fail(0)
        rng = np.random.default_rng(0)
        policy = RandomSpreadPlacement()
        for _ in range(10):
            nodes = policy.place_stripe(make_code("pentagon"), topology, rng)
            assert len(set(nodes)) == 5
            assert 0 not in nodes

    def test_random_spread_insufficient_nodes(self):
        topology = ClusterTopology.flat(4)
        with pytest.raises(PlacementError):
            RandomSpreadPlacement().place_stripe(
                make_code("pentagon"), topology, np.random.default_rng(0))

    def test_round_robin_rotates(self):
        topology = ClusterTopology.flat(10)
        policy = RoundRobinPlacement()
        rng = np.random.default_rng(0)
        first = policy.place_stripe(make_code("pentagon"), topology, rng)
        second = policy.place_stripe(make_code("pentagon"), topology, rng)
        assert first == (0, 1, 2, 3, 4)
        assert second == (5, 6, 7, 8, 9)

    def test_rack_aware_heptagon_local_domains(self):
        topology = ClusterTopology.racked([7, 7, 3])
        policy = RackAwarePlacement()
        code = make_code("heptagon-local")
        nodes = policy.place_stripe(code, topology, np.random.default_rng(1))
        racks_a = {topology.rack_of(nodes[slot]) for slot in range(7)}
        racks_b = {topology.rack_of(nodes[slot]) for slot in range(7, 14)}
        rack_g = topology.rack_of(nodes[14])
        assert len(racks_a) == 1 and len(racks_b) == 1
        assert racks_a != racks_b
        assert rack_g not in racks_a | racks_b

    def test_rack_aware_needs_three_racks(self):
        topology = ClusterTopology.racked([8, 8])
        with pytest.raises(PlacementError):
            RackAwarePlacement().place_stripe(
                make_code("heptagon-local"), topology, np.random.default_rng(0))

    def test_rack_aware_generic_fallback_spreads(self):
        topology = ClusterTopology.racked([3, 3, 3])
        nodes = RackAwarePlacement().place_stripe(
            make_code("pentagon"), topology, np.random.default_rng(2))
        racks = [topology.rack_of(n) for n in nodes]
        assert len(set(racks)) == 3   # spread across all racks

    def test_factory(self):
        assert isinstance(make_placement("random"), RandomSpreadPlacement)
        assert isinstance(make_placement("round-robin"), RoundRobinPlacement)
        assert isinstance(make_placement("rack-aware"), RackAwarePlacement)
        with pytest.raises(KeyError):
            make_placement("gravity")

    def test_rack_loss_survivability_bulk_verdicts(self):
        """One bulk query answers every rack; the heptagon-local contract
        is confinement — only the global-parity rack survives outright."""
        from repro.cluster import rack_loss_survivability, rack_slot_groups

        topology = ClusterTopology.racked([7, 7, 3])
        code = make_code("heptagon-local")
        nodes = RackAwarePlacement().place_stripe(
            code, topology, np.random.default_rng(1))
        groups = rack_slot_groups(nodes, topology)
        assert sorted(sum((list(s) for s in groups.values()), [])) == list(range(15))
        verdicts = rack_loss_survivability(code, nodes, topology)
        global_rack = topology.rack_of(nodes[14])
        for rack, ok in verdicts.items():
            assert ok == (rack == global_rack)

    def test_rack_loss_survivability_replication(self):
        """2-rep spread over three racks survives any single rack loss."""
        from repro.cluster import rack_loss_survivability

        topology = ClusterTopology.racked([1, 1, 1])
        code = make_code("2-rep")
        nodes = RackAwarePlacement().place_stripe(
            code, topology, np.random.default_rng(0))
        assert all(rack_loss_survivability(code, nodes, topology).values())

    def test_rack_aware_validation_can_be_disabled(self):
        topology = ClusterTopology.racked([7, 7, 3])
        code = make_code("heptagon-local")
        nodes = RackAwarePlacement(validate=False).place_stripe(
            code, topology, np.random.default_rng(1))
        assert len(nodes) == 15


class TestPlanRuntimeErrors:
    def test_read_from_failed_node_rejected(self):
        fs = MiniHDFS(ClusterTopology.flat(25), block_bytes=64, seed=0)
        rng = np.random.default_rng(0)
        data = bytes(rng.integers(0, 256, 64 * 9, dtype=np.uint8))
        fs.write_file("f", data, "pentagon")
        stripe = fs.namenode.file("f").stripes[0]
        plan = stripe.code.plan_degraded_read(0, set())
        # Fail the node the plan wants to read from, then execute.
        source = stripe.slot_nodes[plan.transfers[0].source_slot] \
            if plan.transfers else stripe.slot_nodes[plan.reader_slot]
        fs.topology.fail(source)
        with pytest.raises(PlanExecutionError):
            fs.run_read_plan(stripe, plan, None)
