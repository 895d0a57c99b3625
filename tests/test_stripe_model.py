"""The stripe model (`repro.cluster.namenode`): targets, plan, put-back,
re-home.

The put-back half of ``test_plan_interpreter``'s exhaustive twin: for
every registry code and *every* failure set up to its fault tolerance,
the model's decisions driven over bare in-memory ``DataNode`` stores —
in the order the namenode daemon fetches and puts — restore every block
with its write-time CRC onto distinct alive nodes, twice in a row, and
end where ``MiniHDFS.repair_all()`` ends.  Plus the rack contract of
re-homing, which is ``choose_targets``' alone.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.cluster import (
    BlockId,
    ClusterTopology,
    DataNode,
    FileInfo,
    MiniHDFS,
    NameNode,
    RackAwarePlacement,
    RoundRobinPlacement,
    StripeInfo,
    block_checksum,
    choose_targets,
)
from repro.core import available_codes, make_code, run_plan
from repro.gf import linear_combine

BLOCK = 8


def failure_sets(code):
    for size in range(1, code.fault_tolerance + 1):
        yield from combinations(range(code.length), size)


def encoded_stripe(code):
    rng = np.random.default_rng(17)
    data = bytes(rng.integers(0, 256, code.k * BLOCK, dtype=np.uint8))
    return data, code.encode(code.split_stripes(data, BLOCK)[0])


def store(stripe, nodes, blocks):
    for node in nodes:
        node.wipe()
    for node_id, block in stripe.placed_blocks():
        nodes[node_id].put(block, blocks[block.symbol_index])


def repair_in_daemon_order(stripe, failed, alive, nodes):
    """What ``NameNodeServer._repair_stripe`` does, minus the awaits:
    choose, plan, fetch the plan's fetch list, compute, put back in
    ``rebuilt_blocks`` order, re-home last."""
    targets = choose_targets(stripe, failed, alive)
    plan = stripe.plan_repair(failed, targets)

    def fetch(transfer):
        source = nodes[stripe.slot_nodes[transfer.source_slot]]
        assert source.node_id in alive
        return linear_combine(
            transfer.coefficients,
            [source.get(stripe.block_id(symbol))
             for symbol in transfer.symbols_read])

    recovered = run_plan(plan, [fetch(transfer) for transfer in plan.fetches])
    for node_id, block, data in stripe.rebuilt_blocks(targets, recovered):
        nodes[node_id].put(block, data)
    stripe.rehome(targets)


@pytest.mark.parametrize("code_name", available_codes())
def test_put_back_restores_every_block_for_every_failure_set(code_name):
    code = make_code(code_name)
    _, blocks = encoded_stripe(code)
    crcs = [block_checksum(block) for block in blocks]
    nodes = [DataNode(i) for i in range(code.length + code.fault_tolerance)]
    everyone = {node.node_id for node in nodes}

    for failed in failure_sets(code):
        stripe = StripeInfo("f", 0, code, tuple(range(code.length)))
        store(stripe, nodes, blocks)
        # Twice: the second round fails the same slots of the re-homed
        # stripe, with the first round's casualties back as empty spares.
        for _ in range(2):
            dead = {stripe.slot_nodes[slot] for slot in failed}
            for node_id in dead:
                nodes[node_id].wipe()
            alive = everyone - dead
            repair_in_daemon_order(stripe, failed, alive, nodes)
            assert len(set(stripe.slot_nodes)) == code.length
            assert set(stripe.slot_nodes) <= alive
            assert not dead & set(stripe.slot_nodes)
            for node_id, block in stripe.placed_blocks():
                nodes[node_id].get(block)                   # verifies
                assert (nodes[node_id].checksum(block)
                        == crcs[block.symbol_index])


@pytest.mark.parametrize("code_name", available_codes())
def test_minihdfs_and_the_daemon_order_end_in_the_same_state(code_name):
    code = make_code(code_name)
    fs = MiniHDFS(ClusterTopology.flat(code.length), block_bytes=BLOCK,
                  placement=RoundRobinPlacement())
    data, blocks = encoded_stripe(code)
    stripe = fs.write_file("f", data, code_name).stripes[0]
    twin = StripeInfo("f", 0, code, stripe.slot_nodes)
    nodes = [DataNode(i) for i in range(code.length)]
    store(twin, nodes, blocks)
    everyone = set(range(code.length))

    for failed in failure_sets(code):
        for slot in failed:
            fs.fail_node(stripe.slot_nodes[slot], permanent=True)
            nodes[twin.slot_nodes[slot]].wipe()
        fs.repair_all()
        # repair_all rebuilds in place; so does the daemon once the
        # casualties are back (empty) and alive
        repair_in_daemon_order(twin, failed, everyone, nodes)
        assert twin.slot_nodes == stripe.slot_nodes
        for mine, theirs in zip(nodes, fs.datanodes):
            assert set(mine.block_ids()) == set(theirs.block_ids())
            for block in mine.block_ids():
                assert mine.get(block) == theirs.get(block)


class TestStripeOf:
    """Both index checks are half-open at 0: the first stripe and the
    first symbol resolve, -1 of either raises (wire input lands here)."""

    @pytest.fixture
    def namenode(self):
        code = make_code("pentagon")
        info = FileInfo("f", "pentagon", 2 * code.k * BLOCK, BLOCK)
        info.stripes = [StripeInfo("f", index, code, (0, 1, 2, 3, 4))
                        for index in range(2)]
        namenode = NameNode()
        namenode.create_file(info)
        return namenode

    def test_index_zero_of_each_resolves(self, namenode):
        stripe = namenode.stripe_of(BlockId("f", 0, 0))
        assert (stripe.file_name, stripe.stripe_index) == ("f", 0)
        assert namenode.stripe_of(BlockId("f", 1, 0)).stripe_index == 1
        assert namenode.stripe_of(BlockId("f", 0, 9)) is stripe

    @pytest.mark.parametrize("block", [BlockId("f", -1, 0),
                                       BlockId("f", 2, 0),
                                       BlockId("f", 0, -1),
                                       BlockId("f", 0, 10)],
                             ids=["stripe-1", "stripe-past", "symbol-1",
                                  "symbol-past"])
    def test_out_of_range_raises_index_error(self, namenode, block):
        with pytest.raises(IndexError):
            namenode.stripe_of(block)

    def test_unknown_file(self, namenode):
        with pytest.raises(FileNotFoundError):
            namenode.stripe_of(BlockId("g", 0, 0))


class TestChooseTargets:
    def stripe(self, code_name="pentagon", nodes=None):
        code = make_code(code_name)
        return StripeInfo("f", 0, code,
                          tuple(nodes or range(code.length)))

    def test_in_place_when_the_node_is_alive(self):
        assert choose_targets(self.stripe(), {1, 3}, set(range(9))) == {
            1: 1, 3: 3}

    def test_lowest_spare_outside_the_stripe_without_racks(self):
        assert choose_targets(self.stripe(), {1, 3},
                              {0, 2, 4, 5, 7, 8}) == {1: 5, 3: 7}

    def test_none_when_the_spares_run_out(self):
        assert choose_targets(self.stripe(), {1, 3}, {0, 2, 4, 6}) is None

    def test_same_rack_first_then_a_rack_without_another_domain(self):
        topology = ClusterTopology.racked([8, 7, 2, 3])
        # heptagon A on rack 0 (spare: node 7), B fills rack 1, the
        # global parity on rack 2 (spare: node 16), rack 3 is empty
        placed = tuple(range(7)) + tuple(range(8, 15)) + (15,)
        stripe = self.stripe("heptagon-local", placed)
        assert stripe.code.local_group_slots()["B"] == tuple(range(7, 14))
        everyone = set(range(len(topology)))

        def rebuilt_on(slot, gone=()):
            alive = everyone - {placed[slot], *gone}
            return choose_targets(stripe, {slot}, alive,
                                  topology.rack_of)[slot]

        assert rebuilt_on(0) == 7       # its own rack has a spare
        assert rebuilt_on(14) == 16
        # rack 1 is full: the empty rack, not rack 0's lower-numbered spare
        assert rebuilt_on(13) == 17
        # ... and with the empty rack gone too, anywhere beats nowhere
        assert rebuilt_on(13, gone=(17, 18, 19)) == 7


def test_rehoming_keeps_the_rack_contract_placement_was_validated_against():
    """heptagon-local on racks [8, 8, 2]: every rack has exactly one
    spare, so each of the 20 x 15 single-node repairs can — and must —
    stay in its rack.  Targets are chosen as the daemon chooses them
    (``rack_map.get``); the check is the one placement applies at write
    time.  At the parent commit (lowest-id spare, whatever its rack) 160
    of these 300 put two failure domains in one rack."""
    code = make_code("heptagon-local")
    topology = ClusterTopology.racked([8, 8, 2])
    rack_map = {node.node_id: node.rack for node in topology.nodes}
    policy = RackAwarePlacement()
    domains = code.local_group_slots()
    for seed in range(20):
        placed = policy.place_stripe(code, topology,
                                     np.random.default_rng(seed))
        for slot in range(code.length):
            stripe = StripeInfo("f", 0, code, placed)
            targets = choose_targets(stripe, {slot},
                                     set(rack_map) - {placed[slot]},
                                     rack_map.get)
            stripe.rehome(targets)
            assert placed[slot] not in stripe.slot_nodes
            policy.validate_domains(code, domains, stripe.slot_nodes,
                                    topology)
