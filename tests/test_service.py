"""The storage service end to end: real namenode + datanode
subprocesses over loopback sockets.  Covers the acceptance scenario
(SIGKILL one datanode mid-load: reads keep succeeding degraded, the
checker repairs and re-homes every lost block) plus the two-phase
write guarantees and the checker's corruption scrub."""

import gc
import socket
import threading
import time

import pytest

from repro.service import (
    SERVICE_VERSION,
    FaultPlan,
    NameNodeServer,
    RetryPolicy,
    ServiceCluster,
    StorageClient,
    WriteRefusedError,
    parse_fault_plan,
)
from repro.service.cluster import _is_settled
from repro.service.datanode import call
from repro.service.load import file_payload, run_load

#: Tight timings so failure detection fits in test time.
FAST = dict(block_bytes=2048, silence_timeout=1.2, check_period=0.3,
            heartbeat_interval=0.3)


def fast_retry(seed=0):
    return RetryPolicy(attempts=2, timeout=1.0, base_delay=0.05,
                       max_delay=0.2, seed=seed)


def namenode_alive(cluster) -> list[int]:
    """The namenode's alive datanodes, read on its loop."""
    return cluster.namenode.server.on_loop(cluster.namenode._alive_ids)


def namenode_addresses(cluster) -> dict[int, tuple[str, int]]:
    """The namenode's datanode addresses, read on its loop."""
    return cluster.namenode.server.on_loop(cluster.namenode._addresses)


@pytest.fixture(scope="module")
def benign_cluster():
    """Shared cluster for tests that do not destroy datanodes."""
    with ServiceCluster(6, seed=2, **FAST) as cluster:
        yield cluster


class TestReadWrite:
    def test_round_trip_and_stat(self, benign_cluster):
        with benign_cluster.client(retry=fast_retry()) as client:
            data = file_payload(2, 0, 9 * 2048 * 2 + 77)
            info = client.write_file("rw-pentagon", data, "pentagon")
            assert info["stripes"] == 3          # padded final stripe
            assert client.read_file("rw-pentagon") == data
            stat = client.stat("rw-pentagon")
            assert stat["code_name"] == "pentagon"
            assert all(len(set(s)) == 5 for s in stat["stripes"])
            assert "rw-pentagon" in client.list_files()

    def test_replication_code_round_trip(self, benign_cluster):
        with benign_cluster.client(retry=fast_retry()) as client:
            data = file_payload(2, 1, 2048 + 5)
            client.write_file("rw-3rep", data, "3-rep")
            assert client.read_file("rw-3rep") == data

    def test_duplicate_name_refused_typed(self, benign_cluster):
        with benign_cluster.client(retry=fast_retry()) as client:
            client.write_file("dup", b"x" * 100, "3-rep")
            with pytest.raises(FileExistsError):
                client.write_file("dup", b"y" * 100, "3-rep")

    def test_missing_file_is_typed(self, benign_cluster):
        with benign_cluster.client(retry=fast_retry()) as client:
            with pytest.raises(FileNotFoundError):
                client.stat("never-written")

    def test_forced_degraded_read_reconstructs(self, benign_cluster):
        with benign_cluster.client(retry=fast_retry()) as client:
            data = file_payload(2, 2, 9 * 2048)
            client.write_file("deg", data, "pentagon")
            assert client.degraded_read("deg", 0) == data[:2048]
            assert client.counters["degraded_reads"] >= 1


class TestCheckerRepairsCorruption:
    def test_corrupt_fault_is_scrubbed_and_repaired(self, benign_cluster):
        cluster = benign_cluster
        with cluster.client(retry=fast_retry()) as client:
            data = file_payload(2, 3, 9 * 2048)
            client.write_file("rot", data, "pentagon")
            victim = client.stat("rot")["stripes"][0][0]
            # k=1: the very next data-path request rots one block.
            cluster.arm_faults(parse_fault_plan(
                f"corrupt:dn{victim}@k=1", seed=2))
            client.read_file("rot")              # trips the trigger
            before = cluster.status()["repair"]["done"]
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                status = cluster.status()
                if (status["repair"]["done"] > before
                        and _is_settled(status)):
                    break
                time.sleep(0.2)
            status = cluster.status()
            assert status["repair"]["done"] > before
            assert not status["repair"]["lost"]
            # Repaired in place: contents bit-exact again everywhere.
            assert client.read_file("rot") == data


class TestKillRecovery:
    def test_kill_one_datanode_reads_degrade_then_repair(self):
        """The tentpole acceptance path, driven through run_load."""
        plan = parse_fault_plan("kill:random@t=0.5", seed=7)
        with ServiceCluster(6, seed=7, **FAST) as cluster:
            report = run_load(
                cluster.address, files=2, file_bytes=4 * 2048,
                code_name="pentagon", duration=2.5, workers=2, seed=7,
                fault_plan=plan, retry=fast_retry(7),
                settle_timeout=30.0)
            assert report["reads"]["ops"] > 0
            assert report["reads"]["failed"] == 0          # 100% success
            assert report["reads"]["mismatched"] == 0      # bit-exact
            assert report["repair"]["settled"]             # queue drained
            assert not report["repair"]["lost"]
            assert report["repair"]["done"] >= 1
            assert len(report["alive"]) == 5               # one casualty
            # Same seed, same victim: the plan resolution is seeded.
            assert plan.resolve(range(6)) == plan.resolve(range(6))

    def test_hung_datanode_goes_silent_and_is_repaired_around(self):
        with ServiceCluster(6, seed=4, **FAST) as cluster:
            with cluster.client(retry=fast_retry(4)) as client:
                data = file_payload(4, 0, 9 * 2048)
                client.write_file("h", data, "pentagon")
                victim = client.stat("h")["stripes"][0][0]
                cluster.arm_faults(parse_fault_plan(
                    f"hang:dn{victim}@k=1", seed=4))
            # A fresh client (no pooled socket) pays the timeout once,
            # then decodes around the hung daemon.
            with cluster.client(retry=RetryPolicy(
                    attempts=1, timeout=0.6, base_delay=0.05,
                    max_delay=0.1)) as client:
                assert client.read_file("h") == data
                status = cluster.wait_settled(timeout=30.0)
                assert _is_settled(status)
                assert victim not in status["alive"]   # heartbeats stopped
                assert client.read_file("h") == data


class TestTwoPhaseWrites:
    def test_kill_mid_write_completes_by_replacement(self):
        """Satellite: a datanode SIGKILLed mid-write_file; with spare
        nodes the client re-places the stripe and the write completes,
        bit-exact."""
        with ServiceCluster(6, seed=5, **FAST) as cluster:
            # Every datanode serves its first request then dies?  No —
            # kill exactly one node on its first data-path request, so
            # the casualty dies mid-put of the very first stripe.
            cluster.arm_faults(parse_fault_plan("kill:dn3@k=1", seed=5))
            with cluster.client(retry=fast_retry(5)) as client:
                data = file_payload(5, 0, 9 * 2048 * 3 + 9)
                info = client.write_file("mw", data, "pentagon")
                assert info["stripes"] == 4
                assert client.read_file("mw") == data
                assert 3 not in {node
                                 for s in client.stat("mw")["stripes"]
                                 for node in s}

    def test_kill_mid_write_fails_clean_when_no_replacement(self):
        """Satellite: same kill, but with zero spare nodes the write
        must fail *cleanly* — typed error, name free again, no partial
        stripes visible."""
        with ServiceCluster(5, seed=6, **FAST) as cluster:
            cluster.arm_faults(parse_fault_plan("kill:dn1@k=1", seed=6))
            with cluster.client(retry=fast_retry(6)) as client:
                data = file_payload(6, 0, 9 * 2048 * 2)
                with pytest.raises(WriteRefusedError):
                    client.write_file("doomed", data, "pentagon")
                assert client.list_files() == []       # nothing visible
                with pytest.raises(FileNotFoundError):
                    client.stat("doomed")
                # The reservation was released: a rewrite is refused
                # for *capacity*, not because the name is stuck taken.
                with pytest.raises(WriteRefusedError, match="alive"):
                    client.write_file("doomed", data, "pentagon")

    def test_writes_refused_below_code_tolerance(self):
        with ServiceCluster(3, seed=8, **FAST) as cluster:
            with cluster.client(retry=fast_retry(8)) as client:
                client.write_file("ok", b"z" * 64, "3-rep")
                cluster.kill_datanode(0)
                deadline = time.monotonic() + 10
                while (time.monotonic() < deadline
                       and 0 in namenode_alive(cluster)):
                    time.sleep(0.1)
                with pytest.raises(WriteRefusedError):
                    client.write_file("nope", b"z" * 64, "3-rep")
                # Reads still fine: the service degrades to read-only.
                assert client.read_file("ok") == b"z" * 64


def _inventory(address) -> dict:
    """A datanode's full block inventory over the raw framed protocol."""
    with socket.create_connection(address) as sock:
        return call(sock, "checksums", {"blocks": None})["checksums"]


class TestOrphanGC:
    """Satellite: the checker sweep reconciles datanode inventories
    against committed stripes and deletes orphaned blocks."""

    def test_injected_orphan_is_swept(self):
        with ServiceCluster(6, seed=9, reservation_timeout=1.0,
                            **FAST) as cluster:
            with cluster.client(retry=fast_retry(9)) as client:
                client.write_file("keep", file_payload(9, 0, 9 * 2048),
                                  "pentagon")
            address = namenode_addresses(cluster)[0]
            ghost = ("ghost", 0, 0)
            with socket.create_connection(address) as sock:
                call(sock, "put", {"block": ghost, "data": b"\xcc" * 64})
                assert ghost in call(
                    sock, "checksums", {"blocks": None})["checksums"]
            deadline = time.monotonic() + 10
            inventory = _inventory(address)
            while ghost in inventory and time.monotonic() < deadline:
                time.sleep(0.1)
                inventory = _inventory(address)
            assert ghost not in inventory
            # committed blocks survive every sweep
            with cluster.client(retry=fast_retry(9)) as client:
                assert (client.read_file("keep")
                        == file_payload(9, 0, 9 * 2048))
            assert cluster.status()["checker"]["gc_blocks"] >= 1

    def test_kill_mid_write_leaves_no_orphans(self):
        """A datanode SIGKILLed mid-write forces a stripe re-placement;
        blocks put for the abandoned attempt are orphans the checker
        must collect — every surviving inventory ends up a subset of
        the committed metadata."""
        with ServiceCluster(6, seed=5, reservation_timeout=1.0,
                            **FAST) as cluster:
            cluster.arm_faults(parse_fault_plan("kill:dn3@k=1", seed=5))
            with cluster.client(retry=fast_retry(5)) as client:
                data = file_payload(5, 0, 9 * 2048 * 3 + 9)
                client.write_file("mw", data, "pentagon")
                assert client.read_file("mw") == data
                cluster.wait_settled(timeout=30.0)
                stat = client.stat("mw")
            status = cluster.status()
            addresses = namenode_addresses(cluster)
            for node_id in status["alive"]:
                for name, stripe_index, _ in _inventory(
                        addresses[node_id]):
                    assert name == "mw"
                    assert node_id in stat["stripes"][stripe_index]

    def test_expired_reservation_is_garbage_collected(self):
        """An abandoned two-phase write (begin + put, never commit)
        expires and its blocks vanish from the datanodes."""
        with ServiceCluster(6, seed=10, reservation_timeout=0.5,
                            **FAST) as cluster:
            with cluster.client(retry=fast_retry(10)) as client:
                # Drive the two-phase protocol by hand and walk away
                # after the puts.
                client._nn_call("begin-write",
                                {"name": "limbo", "code_name": "3-rep"})
                placement = client._nn_call(
                    "place-stripe", {"code_name": "3-rep", "exclude": []})
                node_id = placement["slot_nodes"][0]
                address = placement["datanodes"][node_id]
                limbo = ("limbo", 0, 0)
                with socket.create_connection(address) as sock:
                    call(sock, "put",
                         {"block": limbo, "data": b"\xee" * 2048})
                deadline = time.monotonic() + 10
                inventory = _inventory(address)
                while limbo in inventory and time.monotonic() < deadline:
                    time.sleep(0.1)
                    inventory = _inventory(address)
                assert limbo not in inventory
                # the name is free again: the reservation expired
                with pytest.raises(FileNotFoundError):
                    client.stat("limbo")


class TestRackAwarePlacement:
    """Satellite: a rack map routes placement through
    RackAwarePlacement so one rack loss stays within code tolerance."""

    RACKS = [2, 2, 2]
    RACK_OF = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}

    def test_stripes_span_racks(self):
        with ServiceCluster(6, seed=3, racks=self.RACKS,
                            **FAST) as cluster:
            with cluster.client(retry=fast_retry(3)) as client:
                client.write_file("r3", file_payload(3, 0, 2048), "3-rep")
                for nodes in client.stat("r3")["stripes"]:
                    racks = {self.RACK_OF[n] for n in set(nodes)}
                    assert len(racks) == 3       # one replica per rack
            status = cluster.status()
            for node_id, entry in status["datanodes"].items():
                assert entry["rack"] == self.RACK_OF[node_id]

    def test_single_rack_loss_stays_readable(self):
        with ServiceCluster(6, seed=3, racks=self.RACKS,
                            **FAST) as cluster:
            with cluster.client(retry=fast_retry(3)) as client:
                data = file_payload(3, 1, 9 * 2048)
                client.write_file("rr", data, "pentagon")
                rep = file_payload(3, 2, 2048)
                client.write_file("rrep", rep, "3-rep")
                # Take down all of rack 2 at once.
                for node_id in (4, 5):
                    cluster.kill_datanode(node_id)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    alive = set(namenode_alive(cluster))
                    if not alive & {4, 5}:
                        break
                    time.sleep(0.1)
                assert not set(namenode_alive(cluster)) & {4, 5}
                assert client.read_file("rr") == data
                assert client.read_file("rrep") == rep


class TestNamenodeCloseMidDial:
    """Closing a namenode while its checker dials datanodes that never
    answer leaves nothing behind for the loop's exception handler: the
    RPC timeouts run in the checker's own task, so a cancel cannot
    strand a finished inner task whose exception nobody retrieves."""

    @pytest.mark.parametrize("dead", ["refused", "silent"])
    def test_no_unretrieved_task_exception(self, dead):
        seen: list[dict] = []
        silent = socket.create_server(("127.0.0.1", 0))  # never accepts
        refused = socket.create_server(("127.0.0.1", 0))
        refused_address = refused.getsockname()[:2]
        refused.close()                                  # nothing listens
        address = (silent.getsockname()[:2] if dead == "silent"
                   else refused_address)
        try:
            for _ in range(4):
                namenode = NameNodeServer(check_period=0.01, rpc_timeout=0.2,
                                          silence_timeout=60.0)
                namenode.server.loop.set_exception_handler(
                    lambda loop, context: seen.append(context))
                with socket.create_connection(namenode.address) as sock:
                    for node_id in range(3):
                        call(sock, "dn-register",
                             {"node_id": node_id, "address": address,
                              "version": SERVICE_VERSION})
                time.sleep(0.15)            # the checker is mid-dial
                namenode.close()
                gc.collect()                # unretrieved tasks report here
        finally:
            silent.close()
        assert seen == []


class TestNamenodeLoop:
    """The namenode's state lives on its loop: the harness reads it and
    waits on it through ``AsyncRpcServer.on_loop``."""

    @staticmethod
    def register(namenode, node_id, address=("127.0.0.1", 1)) -> None:
        with socket.create_connection(namenode.address) as sock:
            call(sock, "dn-register", {"node_id": node_id,
                                       "address": address,
                                       "version": SERVICE_VERSION})

    def test_a_registration_wakes_wait_alive(self):
        with NameNodeServer(check_period=30.0) as namenode:
            outcome = []
            waiter = threading.Thread(target=lambda: outcome.append(
                namenode.server.on_loop(namenode.wait_alive, {0, 1},
                                        timeout=10.0)), daemon=True)
            waiter.start()
            self.register(namenode, 0)
            time.sleep(0.05)
            assert waiter.is_alive()            # node 1 is still missing
            self.register(namenode, 1, ("127.0.0.1", 2))
            waiter.join(timeout=5.0)
            assert not waiter.is_alive() and outcome == [None]
            assert namenode.server.on_loop(namenode._alive_ids) == [0, 1]
            assert namenode.server.on_loop(namenode._addresses) == {
                0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}

    def test_wait_alive_returns_at_once_for_registered_nodes(self):
        with NameNodeServer(check_period=30.0) as namenode:
            self.register(namenode, 3)
            namenode.server.on_loop(namenode.wait_alive, {3}, timeout=1.0)
            namenode.server.on_loop(namenode.wait_alive, (), timeout=1.0)

    def test_wait_alive_times_out_while_nobody_registers(self):
        with NameNodeServer(check_period=30.0) as namenode:
            with pytest.raises(TimeoutError):
                namenode.server.on_loop(namenode.wait_alive, {0},
                                        timeout=0.1)
            # the cancelled wait leaves the namenode serving
            assert namenode.server.on_loop(namenode._alive_ids) == []
            with socket.create_connection(namenode.address) as sock:
                assert call(sock, "status", None)["alive"] == []

    def test_close_on_its_own_loop_does_not_wait_for_itself(self):
        namenode = NameNodeServer(check_period=30.0)
        namenode.server.on_loop(namenode.close, timeout=5.0)
        joiner = threading.Thread(target=namenode.server.join, daemon=True)
        joiner.start()
        joiner.join(timeout=10.0)
        assert not joiner.is_alive()
