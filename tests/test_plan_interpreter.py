"""The plan interpreter (`repro.core.run_plan`) and its transports.

Two halves.  The error paths of the interpreter itself, over payloads
a fake ``fetch`` produced for the plan's fetch list; and the
exhaustive twin for the planners: for every
registry code and *every* failure set up to its fault tolerance, the
repair plan and every data symbol's read plan run through the
interpreter on the in-memory transport and on a MiniHDFS transport —
both restore the lost bytes exactly, agree with each other, and the
ledger charges exactly the plan's inter-node transfers.
"""

import pickle
from itertools import combinations

import numpy as np
import pytest

from repro.cluster import ClusterTopology, MiniHDFS, RoundRobinPlacement
from repro.core import (
    DecodeStep,
    PlanExecutionError,
    ReadPlan,
    RepairPlan,
    Transfer,
    TransferKind,
    available_codes,
    execute_read_plan,
    execute_repair_plan,
    make_code,
    run_plan,
)

BLOCK = 8


def copy(symbol, source=1, dest=0, delivers=None):
    return Transfer(TransferKind.COPY, source, dest, (symbol,), (1,),
                    delivers_symbol=delivers)


def fake_fetch(transfer):
    """Symbol ``s`` is the block of all ``s + 1`` bytes."""
    return np.full(BLOCK, transfer.symbols_read[0] + 1, dtype=np.uint8)


def run(plan, fetch=fake_fetch):
    """A transport: fetch the plan's fetch list in order, then compute."""
    return run_plan(plan, [fetch(transfer) for transfer in plan.fetches])


class TestInterpreter:
    def test_decode_runs_once_inputs_land_and_forwards_locally(self):
        forward = Transfer(TransferKind.DECODED, 0, 2, (7,), (1,),
                           delivers_symbol=7)
        plan = RepairPlan("toy", (0, 2),
                          (copy(0), copy(1), forward, copy(2, delivers=2)),
                          (DecodeStep(0, 7, (0, 1), (1, 1)),))
        recovered = run(plan)
        assert set(recovered) == {7, 2}
        assert recovered[7].tolist() == [1 ^ 2] * BLOCK
        assert recovered[2].tolist() == [3] * BLOCK
        # Every transfer lands in plan order, DECODED included; only the
        # others are fetched.
        assert [(transfer.kind, fetched) for transfer, fetched, _
                in plan.schedule] == [
            (TransferKind.COPY, True), (TransferKind.COPY, True),
            (TransferKind.DECODED, False), (TransferKind.COPY, True)]
        assert plan.fetches == (copy(0), copy(1), copy(2, delivers=2))

    def test_decoded_before_its_decode_step(self):
        forward = Transfer(TransferKind.DECODED, 0, 2, (7,), (1,),
                           delivers_symbol=7)
        plan = RepairPlan("toy", (0, 2), (copy(0), forward, copy(1)),
                          (DecodeStep(0, 7, (0, 2), (1, 1)),))
        with pytest.raises(PlanExecutionError, match="before any decode"):
            run(plan)

    def test_starved_decode_step(self):
        plan = RepairPlan("toy", (0,), (copy(0),),
                          (DecodeStep(0, 7, (0, 1), (1, 1)),))
        with pytest.raises(PlanExecutionError, match="never received"):
            run(plan)

    def test_read_plan_that_never_yields_its_symbol(self):
        plan = ReadPlan("toy", 5, None, (copy(0), copy(1, delivers=1)))
        with pytest.raises(PlanExecutionError, match="never produced"):
            run(plan)

    def test_read_plan_without_transfers_reads_at_the_reader(self):
        asked = []

        def fetch(transfer):
            asked.append((transfer.kind, transfer.source_slot,
                          transfer.symbols_read))
            return fake_fetch(transfer)

        plan = ReadPlan("toy", 5, 3, ())
        assert run(plan, fetch).tolist() == [6] * BLOCK
        assert asked == [(TransferKind.COPY, 3, (5,))]
        assert plan.network_blocks == 0     # nothing crossed the network

    def test_read_stops_once_its_symbol_is_in_hand(self):
        fetched = []

        def fetch(transfer):
            fetched.append(transfer.symbols_read[0])
            return fake_fetch(transfer)

        plan = ReadPlan("toy", 1, None,
                        (copy(0), copy(1, delivers=1), copy(2)))
        assert run(plan, fetch).tolist() == [2] * BLOCK
        assert fetched == [0, 1]
        assert plan.fetches == plan.transfers[:2]

    def test_transfer_that_reads_nothing(self):
        empty = Transfer(TransferKind.PARTIAL_PARITY, 1, 0, (), ())
        with pytest.raises(PlanExecutionError, match="reads no symbols"):
            run(RepairPlan("toy", (0,), (empty,)))

    def test_payloads_must_match_the_fetch_list(self):
        plan = ReadPlan("toy", 0, None, (copy(0, delivers=0),))
        with pytest.raises(PlanExecutionError, match="fetches 1 payloads, given 0"):
            run_plan(plan, [])

    def test_fetch_list_is_computed_once_and_never_pickled(self):
        forward = Transfer(TransferKind.DECODED, 0, 2, (7,), (1,),
                           delivers_symbol=7)
        plans = (RepairPlan("toy", (0, 2), (copy(0), copy(1), forward),
                            (DecodeStep(0, 7, (0, 1), (1, 1)),), {2: (7,)}),
                 ReadPlan("toy", 1, None, (copy(0), copy(1, delivers=1))))
        for plan in plans:
            assert plan.fetches is plan.fetches
            assert plan.schedule is plan.schedule
            state = pickle.dumps(plan)
            assert b"fetches" not in state and b"schedule" not in state
            clone = pickle.loads(state)
            assert clone == plan
            assert clone.fetches == plan.fetches
            assert clone.fetches is clone.fetches

    def test_transport_errors_pass_through_untouched(self, monkeypatch):
        code = make_code("pentagon")
        fs = MiniHDFS(ClusterTopology.flat(code.length), block_bytes=BLOCK,
                      placement=RoundRobinPlacement())
        stripe = fs.write_file("f", bytes(code.k * BLOCK), "pentagon").stripes[0]
        gone = ConnectionError("datanode gone")

        def get(block, verify=True):
            raise gone

        plan = code.plan_degraded_read(0, ())
        source = stripe.slot_nodes[plan.fetches[0].source_slot]
        monkeypatch.setattr(fs.datanodes[source], "get", get)
        with pytest.raises(ConnectionError) as raised:
            fs.run_read_plan(stripe, plan, None)
        assert raised.value is gone
        assert fs.ledger.total_bytes("read") == 0


def failure_sets(code):
    for size in range(1, code.fault_tolerance + 1):
        yield from combinations(range(code.length), size)


@pytest.mark.parametrize("code_name", available_codes())
def test_planners_agree_on_both_transports_for_every_failure_set(code_name):
    code = make_code(code_name)
    layout = code.layout
    fs = MiniHDFS(ClusterTopology.flat(code.length), block_bytes=BLOCK,
                  placement=RoundRobinPlacement())
    rng = np.random.default_rng(13)
    data = bytes(rng.integers(0, 256, code.k * BLOCK, dtype=np.uint8))
    stripe = fs.write_file("f", data, code_name).stripes[0]
    blocks = code.encode(code.split_stripes(data, BLOCK)[0])

    for failed in failure_sets(code):
        for slot in failed:
            fs.topology.fail(stripe.slot_nodes[slot])

        plan = code.plan_node_repair(failed)
        fs.ledger.reset()
        in_memory = execute_repair_plan(code, blocks, plan)
        on_cluster = fs.run_repair_plan(stripe, plan, {})
        assert in_memory.keys() == on_cluster.keys()
        for symbol, recovered in in_memory.items():
            assert np.array_equal(recovered, on_cluster[symbol])
            assert np.array_equal(recovered, blocks[symbol])
        for slot in failed:
            assert set(layout.symbols_on_slot(slot)) <= in_memory.keys()
        between_nodes = sum(transfer.source_slot != transfer.dest_slot
                            for transfer in plan.transfers)
        assert fs.ledger.total_bytes("repair") == between_nodes * BLOCK
        assert fs.ledger.total_bytes() == between_nodes * BLOCK

        for symbol in layout.data_symbols():
            plan = code.plan_degraded_read(symbol.index, failed)
            fs.ledger.reset()
            in_memory = execute_read_plan(code, blocks, plan, failed)
            on_cluster = fs.run_read_plan(stripe, plan, None)
            assert np.array_equal(in_memory, blocks[symbol.index])
            assert np.array_equal(on_cluster, blocks[symbol.index])
            # The reader fetches every transfer its plan is charged for,
            # and only fetched ones: none is a local DECODED hand-off.
            assert len(plan.fetches) == plan.network_blocks
            assert all(transfer.kind is not TransferKind.DECODED
                       for transfer in plan.fetches)
            purpose = "degraded-read" if plan.degraded else "read"
            assert (fs.ledger.total_bytes(purpose) == fs.ledger.total_bytes()
                    == plan.network_blocks * BLOCK)

        for slot in failed:
            fs.topology.restore(stripe.slot_nodes[slot])
