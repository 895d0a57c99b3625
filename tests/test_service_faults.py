"""Fault-injection harness: spec grammar, seeded determinism, the
datanode-side arm, and the checksum substrate it leans on
(per-block CRCs + typed ``CorruptBlockError`` on the MiniHDFS read
path)."""

import asyncio
import math
import socket
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.service.client as client_module
from repro.cluster import (
    BlockId,
    ClusterTopology,
    CorruptBlockError,
    DataNode,
    MiniHDFS,
    block_checksum,
)
from repro.cluster.namenode import StripeInfo
from repro.core import UnrecoverableStripeError, make_code
from repro.service import RetryPolicy, ServiceCluster, WriteFailedError
from repro.service.datanode import call
from repro.service.faults import (
    ACTIONS,
    Fault,
    FaultArm,
    FaultPlan,
    parse_fault,
    parse_fault_plan,
)
from repro.service.load import file_payload

#: Every fault the grammar can state: finite, non-negative numbers.
FAULTS = st.builds(
    lambda trigger, **fields: Fault(**trigger, **fields),
    trigger=st.fixed_dictionaries({"at_time": st.floats(0, 1e12)})
    | st.fixed_dictionaries({"on_request": st.integers(1, 10**12)}),
    action=st.sampled_from(ACTIONS),
    target=st.none() | st.integers(0, 10**6),
    delay=st.floats(0, 1e12),
    duration=st.none() | st.floats(0, 1e12))


class TestGrammar:
    def test_kill_at_time(self):
        fault = parse_fault("kill:dn2@t=2")
        assert (fault.action, fault.target, fault.at_time) == ("kill", 2,
                                                               2.0)
        assert fault.on_request is None

    def test_slow_with_options(self):
        fault = parse_fault("slow:dn1@k=3,delay=0.2,duration=5")
        assert fault.action == "slow"
        assert (fault.on_request, fault.delay, fault.duration) == (3, 0.2,
                                                                   5.0)

    def test_random_target(self):
        assert parse_fault("corrupt:random@k=10").target is None

    def test_describe_roundtrips(self):
        for spec in ("kill:dn2@t=2", "hang:dn0@k=5",
                     "slow:dn1@t=1,delay=0.2",
                     "slow:dn1@k=3,delay=0.2,duration=5",
                     "corrupt:random@k=10"):
            assert parse_fault(parse_fault(spec).describe()) == \
                parse_fault(spec)

    @pytest.mark.parametrize("bad", [
        "kill:dn2",                  # no trigger
        "kill@t=2",                  # no target
        "explode:dn1@t=1",           # unknown action
        "kill:node2@t=1",            # malformed target
        "kill:dn1@t=1,k=2",          # two triggers
        "kill:dn1@x=2",              # unknown key
        "kill:dn1@t=soon",           # non-numeric
        "slow:dn1@k=1.5",            # fractional request count
        "kill:dn1@t=nan",            # non-finite numbers
        "kill:dn1@t=inf",
        "kill:dn1@k=inf",
        "slow:dn1@k=1,delay=nan",
        "slow:dn1@k=1,delay=inf",
        "slow:dn1@k=1,duration=nan",
        "slow:dn1@k=1,duration=inf",
        "slow:dn1@k=1,duration=-5",  # negative duration
    ])
    def test_rejected_specs(self, bad):
        with pytest.raises(ValueError):
            parse_fault(bad)

    @given(FAULTS)
    def test_describe_is_exact(self, fault):
        """What goes over the wire is the fault, to the last bit."""
        assert parse_fault(fault.describe()) == fault

    def test_plan_parses_semicolon_list(self):
        plan = parse_fault_plan("kill:dn0@t=1; slow:dn1@k=2,delay=0.1",
                                seed=9)
        assert len(plan.faults) == 2
        assert plan.seed == 9

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault(action="kill", target=0)          # no trigger
        with pytest.raises(ValueError):
            Fault(action="kill", target=0, at_time=-1.0)
        with pytest.raises(ValueError):
            Fault(action="kill", target=0, on_request=0)
        for bad in (math.nan, math.inf, -1.0):
            for key in ("at_time", "delay", "duration"):
                with pytest.raises(ValueError):
                    Fault(**{"action": "slow", "target": 0, "on_request": 1,
                             key: bad})


class TestDeterminism:
    def test_random_targets_reproduce_with_seed(self):
        plan = parse_fault_plan("kill:random@t=1;corrupt:random@k=3",
                                seed=11)
        first = plan.resolve(range(8))
        assert plan.resolve(range(8)) == first
        assert FaultPlan(plan.faults, seed=11).resolve(range(8)) == first

    def test_explicit_target_must_exist(self):
        plan = parse_fault_plan("kill:dn7@t=1")
        with pytest.raises(ValueError, match="dn7"):
            plan.resolve(range(4))

    def test_resolve_groups_by_node(self):
        plan = parse_fault_plan("slow:dn1@t=0,delay=0.1;kill:dn1@t=2")
        bound = plan.resolve(range(3))
        assert set(bound) == {1}
        assert len(bound[1]) == 2


def _loaded_store(blocks=4, size=256):
    store = DataNode(0)
    rng = np.random.default_rng(5)
    for index in range(blocks):
        data = rng.integers(0, 256, size=size, dtype=np.uint8)
        store.put(BlockId("f", 0, index), data)
    return store


async def gate(arm, kind="get", timeout=1.0) -> float:
    """Seconds one request spends in the arm's gate; ``inf`` when the
    gate holds it past ``timeout``."""
    start = time.perf_counter()
    parked = arm.before_request_gate(kind, {})
    if parked is not None:
        try:
            await asyncio.wait_for(parked, timeout)
        except TimeoutError:
            return math.inf
    return time.perf_counter() - start


class TestFaultArm:
    """The gate the daemon runs ahead of every request, on a loop."""

    def test_slow_applies_delay_after_kth_request(self):
        async def go():
            arm = FaultArm(_loaded_store(), seed=0)
            arm.arm([Fault(action="slow", target=0, on_request=2,
                           delay=0.15)])
            assert await gate(arm) < 0.1         # 1st request: free
            assert await gate(arm) >= 0.15       # 2nd: slowed
        asyncio.run(go())

    def test_slow_duration_expires(self):
        async def go():
            arm = FaultArm(_loaded_store(), seed=0)
            arm.arm([Fault(action="slow", target=0, on_request=1,
                           delay=0.05, duration=0.2)])
            await gate(arm)
            await asyncio.sleep(0.3)
            assert await gate(arm) < 0.04        # back to full speed
        asyncio.run(go())

    def test_control_path_requests_never_trigger(self):
        async def go():
            arm = FaultArm(_loaded_store(), seed=0)
            arm.arm([Fault(action="slow", target=0, on_request=1,
                           delay=0.2)])
            assert arm.before_request_gate("status", {}) is None
            assert arm.before_request_gate("fault", {}) is None
            assert arm.snapshot()["pending"]     # still armed
        asyncio.run(go())

    def test_hang_blocks_requests_and_reports(self):
        async def go():
            arm = FaultArm(_loaded_store(), seed=0)
            arm.arm([Fault(action="hang", target=0, on_request=1)])
            assert await gate(arm, timeout=0.5) == math.inf
            assert await gate(arm, timeout=0.2) == math.inf  # never again
            assert arm.hung and arm.snapshot()["hung"]
        asyncio.run(go())

    def test_corrupt_is_deterministic_and_checksum_detectable(self):
        async def go(store):
            arm = FaultArm(store, seed=21)
            arm.arm([Fault(action="corrupt", target=0, on_request=1)])
            await gate(arm)

        damaged = []
        for _ in range(2):
            store = _loaded_store()
            asyncio.run(go(store))
            bad = [block for block in store.block_ids()
                   if store.current_checksum(block)
                   != store.checksum(block)]
            assert len(bad) == 1                     # exactly one block hit
            with pytest.raises(CorruptBlockError):
                store.get(bad[0], verify=True)
            damaged.append(bad[0])
        assert damaged[0] == damaged[1]              # same seed, same block

    def test_a_timed_fault_fires_after_its_delay(self):
        """A ``t=`` fault fires from a loop timer, with no request."""
        async def go():
            arm = FaultArm(_loaded_store(), seed=0)
            started = time.monotonic()
            arm.arm([Fault(action="hang", target=0, at_time=0.2)])
            await asyncio.sleep(0.1)
            assert not arm.hung and arm.snapshot()["pending"]
            while not arm.hung:
                await asyncio.sleep(0.01)
            assert time.monotonic() - started >= 0.2
            assert arm.snapshot()["fired"] == ["hang:dn0@t=0.2"]
            assert arm.snapshot()["pending"] == []
        asyncio.run(go())

    def test_rearming_restarts_a_pending_timers_clock(self):
        """t=0 is the last ``arm``: a fault pending from an earlier one
        waits its whole delay again."""
        async def go():
            arm = FaultArm(_loaded_store(), seed=0)
            arm.arm([Fault(action="hang", target=0, at_time=0.3)])
            await asyncio.sleep(0.2)
            rearmed = time.monotonic()
            assert arm.arm([]) == 1
            await asyncio.sleep(0.2)             # 0.4 s after the first
            assert not arm.hung
            while not arm.hung:
                await asyncio.sleep(0.01)
            assert time.monotonic() - rearmed >= 0.3
        asyncio.run(go())


class TestChecksumSubstrate:
    """Satellite: MiniHDFS verifies per-block CRCs on read and degrades
    past silent corruption instead of serving garbage."""

    def test_block_checksum_matches_store(self):
        store = DataNode(3)
        data = np.arange(64, dtype=np.uint8)
        crc = store.put(BlockId("f", 0, 0), data)
        assert crc == block_checksum(data)
        assert store.checksum(BlockId("f", 0, 0)) == crc
        assert store.current_checksum(BlockId("f", 0, 0)) == crc

    def test_corrupt_keeps_recorded_checksum(self):
        store = DataNode(3)
        block = BlockId("f", 0, 0)
        recorded = store.put(block, np.arange(64, dtype=np.uint8))
        store.corrupt(block, offset=5)
        assert store.checksum(block) == recorded             # lie intact
        assert store.current_checksum(block) != recorded     # rot visible
        with pytest.raises(CorruptBlockError) as excinfo:
            store.get(block, verify=True)
        assert excinfo.value.node_id == 3
        assert excinfo.value.block == block

    def test_minihdfs_read_degrades_past_corruption(self):
        fs = MiniHDFS(ClusterTopology.flat(6), block_bytes=512, seed=4)
        data = bytes(np.random.default_rng(1).integers(
            0, 256, size=9 * 512 * 2, dtype=np.uint8))
        fs.write_file("f", data, "pentagon")
        # Rot one replica of one block on-disk, checksum preserved.
        stripe = fs.namenode.file("f").stripes[0]
        block = stripe.block_id(0)
        victim = stripe.slot_nodes[stripe.code.layout.symbols[0]
                                   .replicas[0]]
        fs.datanodes[victim].corrupt(block, offset=17)
        assert fs.read_file("f") == data                     # degraded, right
        assert fs.read_block(block) == data[:512]

    def test_minihdfs_raises_when_all_copies_corrupt(self):
        fs = MiniHDFS(ClusterTopology.flat(3), block_bytes=256, seed=4)
        data = b"x" * 256
        fs.write_file("f", data, "3-rep")
        stripe = fs.namenode.file("f").stripes[0]
        block = stripe.block_id(0)
        for slot in stripe.code.layout.symbols[0].replicas:
            fs.datanodes[stripe.slot_nodes[slot]].corrupt(block)
        with pytest.raises(UnrecoverableStripeError):
            fs.read_file("f")


# ----------------------------------------------------------------------
# Pipelined writes and whole-stripe reads against a live cluster
# ----------------------------------------------------------------------
#: Tight timings so failure detection fits in test time.
FAST = dict(block_bytes=2048, silence_timeout=1.2, check_period=0.3,
            heartbeat_interval=0.3)
#: A namenode that notices nothing for the length of a test: what the
#: client does about a dead or corrupt replica is then all its own.
BLIND = dict(block_bytes=2048, silence_timeout=120.0, check_period=60.0,
             heartbeat_interval=0.3)
STRIPE = 9 * 2048


def fast_retry(seed=0):
    return RetryPolicy(attempts=2, timeout=1.0, base_delay=0.05,
                       max_delay=0.2, seed=seed)


def _held_blocks(cluster, node_id: int) -> int:
    """How many blocks a datanode says it holds, from its own mouth."""
    namenode = cluster.namenode
    address = namenode.server.on_loop(namenode._addresses)[node_id]
    with socket.create_connection(address, timeout=5.0) as sock:
        return call(sock, "status", {})["blocks"]


def _owed_blocks(client) -> dict[int, int]:
    """How many blocks the committed metadata puts on each datanode."""
    owed: dict[int, int] = {}
    for name in client.list_files():
        info = client.stat(name)
        code = make_code(info["code_name"])
        for index, slot_nodes in enumerate(info["stripes"]):
            stripe = StripeInfo(name, index, code, tuple(slot_nodes))
            for node_id, _ in stripe.placed_blocks():
                owed[node_id] = owed.get(node_id, 0) + 1
    return owed


def _after_a_full_sweep(cluster) -> dict:
    """Status once a checker pass that *started* after now has ended."""
    target = cluster.status()["checker"]["sweeps"] + 2
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        status = cluster.wait_settled(timeout=30.0, min_wait=0)
        if status["checker"]["sweeps"] >= target:
            return status
        time.sleep(0.1)
    raise AssertionError("the checker never completed another sweep")


def _assert_no_orphans(cluster, client, casualties=()) -> None:
    status = _after_a_full_sweep(cluster)
    # Nothing was left for the namenode's GC to find ...
    assert status["checker"]["gc_blocks"] == 0
    # ... and every reachable datanode holds exactly what it is owed.
    owed = _owed_blocks(client)
    for node_id in range(len(status["datanodes"])):
        if node_id not in casualties:
            assert _held_blocks(cluster, node_id) == owed.get(node_id, 0)


class TestPipelinedWrites:
    @pytest.mark.parametrize("action", ["kill", "hang"])
    def test_casualty_after_some_of_its_puts_is_replaced(self, action):
        """The datanode answers two of its four puts of a stripe, then
        dies (or goes silent) with the other two already on the wire."""
        with ServiceCluster(6, seed=5, **FAST) as cluster:
            with cluster.client(retry=fast_retry(5)) as client:
                before = file_payload(5, 0, STRIPE)
                client.write_file("before", before, "pentagon")
                cluster.arm_faults(parse_fault_plan(f"{action}:dn3@k=3",
                                                    seed=5))
                data = file_payload(5, 1, 3 * STRIPE + 9)
                info = client.write_file("mw", data, "pentagon")
                assert info["stripes"] == 4
                assert client.counters["retries"] >= 1     # it did happen
                assert client.read_file("mw") == data
                assert 3 not in {node
                                 for stripe in client.stat("mw")["stripes"]
                                 for node in stripe}
            with cluster.client(retry=fast_retry(6)) as client:
                cluster.wait_settled(timeout=30.0)
                assert client.read_file("mw") == data
                assert client.read_file("before") == before
                _assert_no_orphans(cluster, client, casualties={3})

    def test_exhausted_placements_fail_clean(self, monkeypatch):
        monkeypatch.setattr(client_module, "PLACE_ATTEMPTS", 1)
        with ServiceCluster(6, seed=6, **FAST) as cluster:
            with cluster.client(retry=fast_retry(6)) as client:
                client.write_file("before", file_payload(6, 0, STRIPE),
                                  "pentagon")
                cluster.arm_faults(parse_fault_plan("kill:dn2@k=2", seed=6))
                with pytest.raises(WriteFailedError, match="1 attempts"):
                    client.write_file("doomed",
                                      file_payload(6, 1, 4 * STRIPE),
                                      "pentagon")
                assert client.list_files() == ["before"]
                with pytest.raises(FileNotFoundError):
                    client.stat("doomed")
                cluster.wait_settled(timeout=30.0)
                _assert_no_orphans(cluster, client, casualties={2})

    def test_replicas_disagreeing_on_the_crc_fail_the_write(self,
                                                            monkeypatch):
        """The two replicas of a symbol must report one CRC; if they do
        not, nothing is committed and nothing is left behind."""
        real_recv = client_module.recv_frame
        acks = []

        def one_flipped_crc(sock):
            status, payload = real_recv(sock)
            if status == "ok" and set(payload) == {"crc"}:
                acks.append(payload["crc"])
                if len(acks) == 7:
                    payload = {"crc": payload["crc"] ^ 1}
            return status, payload

        with ServiceCluster(6, seed=8, **FAST) as cluster:
            with cluster.client(retry=fast_retry(8)) as client:
                client.write_file("before", file_payload(8, 0, STRIPE),
                                  "pentagon")
                monkeypatch.setattr(client_module, "recv_frame",
                                    one_flipped_crc)
                with pytest.raises(WriteFailedError, match="CRC"):
                    client.write_file("torn", file_payload(8, 1, 2 * STRIPE),
                                      "pentagon")
                monkeypatch.undo()
                assert len(acks) == 20          # the whole stripe answered
                assert client.list_files() == ["before"]
                _assert_no_orphans(cluster, client)
                # the name is free again
                client.write_file("torn", b"second try", "pentagon")
                assert client.read_file("torn") == b"second try"


class TestWholeStripeReads:
    """``read_file`` fetches a stripe in one exchange; what it counts
    and reports is what reading the symbols one by one did."""

    def _written(self, cluster, seed):
        data = file_payload(seed, 0, 2 * STRIPE)
        with cluster.client(retry=fast_retry(seed)) as client:
            client.write_file("f", data, "pentagon")
            stripes = client.stat("f")["stripes"]
        return data, stripes

    def test_one_datanode_killed(self):
        with ServiceCluster(6, seed=11, **BLIND) as cluster:
            data, stripes = self._written(cluster, 11)
            # Slot 0 is the planned source of four data symbols.
            victim = stripes[0][0]
            cluster.kill_datanode(victim)
            with cluster.client(retry=fast_retry(11)) as client:
                assert client.read_file("f") == data
                # One retry budget and one re-plan per stripe that
                # planned into the dead node before knowing — the first
                # does, and from then on the node is suspect.
                assert client.counters["replans"] == 1
                assert client.counters["retries"] == 1
                assert client.counters["reads"] == 18
                assert client.counters["corrupt_reports"] == 0
                # Suspect now: planned around before the exchange, so
                # nothing is retried, re-planned or waited for.
                started = time.monotonic()
                assert client.read_file("f") == data
                assert time.monotonic() - started < 0.5
                assert client.counters["replans"] == 1
                assert client.counters["retries"] == 1

    def test_hung_datanode_costs_one_timeout_then_none(self):
        with ServiceCluster(6, seed=12, **BLIND) as cluster:
            data, stripes = self._written(cluster, 12)
            victim = stripes[0][0]
            cluster.arm_faults(parse_fault_plan(f"hang:dn{victim}@k=1",
                                                seed=12))
            retry = RetryPolicy(attempts=1, timeout=0.5, base_delay=0.05,
                                max_delay=0.1)
            with cluster.client(retry=retry) as client:
                assert client.read_file("f") == data
                assert client.counters["replans"] == 1
                started = time.monotonic()
                assert client.read_file("f") == data
                assert time.monotonic() - started < 0.4    # no timeout paid
                assert client.counters["replans"] == 1

    def test_one_block_corrupted(self):
        with ServiceCluster(6, seed=13, **BLIND) as cluster:
            data = file_payload(13, 0, STRIPE)
            with cluster.client(retry=fast_retry(13)) as client:
                client.write_file("f", data, "pentagon")
                # Slot 0's node holds four blocks and nothing else, each
                # the planned source of a data symbol: whichever one the
                # seeded fault flips, the read runs into it.
                victim = client.stat("f")["stripes"][0][0]
                cluster.arm_faults(parse_fault_plan(
                    f"corrupt:dn{victim}@k=1", seed=13))
            with cluster.client(retry=fast_retry(13)) as client:
                assert client.read_file("f") == data
                assert client.counters["corrupt_reports"] == 1
                assert client.counters["replans"] == 1
                assert client.counters["retries"] == 0
                assert client.counters["reads"] == 9
