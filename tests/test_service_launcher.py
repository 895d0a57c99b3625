"""One interpreter, many datanodes: the ``repro datanode`` launcher.

``ServiceCluster`` starts every datanode from one launcher process that
imports the daemon stack once and forks a child per node id.  Each
child is still an OS process of its own: a kill fault or
:meth:`ServiceCluster.kill_datanode` takes down exactly one node, the
launcher reaps it at once, and nothing outlives ``close()``.  A daemon
its namenode refuses, or one that gives up on it, stops and exits
nonzero instead of retrying as if the network had failed.

No plugin enforces test timeouts here: every wait below has its own
deadline (the cluster's start-up timeout, a subprocess timeout or a
polling deadline).
"""

import io
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import build_parser
from repro.net import AsyncRpcServer, ProtocolError
from repro.service import ServiceCluster, ServiceError, parse_fault_plan
from repro.service.datanode import (DataNodeServer, call,
                                    launch_datanodes, print_line)
from repro.service.namenode import NameNodeServer
from repro.service.protocol import marshal_error

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
FAST = dict(block_bytes=2048, silence_timeout=1.2, check_period=0.3,
            heartbeat_interval=0.3, startup_timeout=20.0)


def _live(pid: int) -> bool:
    """True while ``pid`` is a process that has not exited.  A zombie
    counts as gone: an orphan's zombie waits on init, not on us."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read()
    except FileNotFoundError:
        return False
    return text[text.rindex(b")") + 2:].split()[0] != b"Z"


def _group_alive(pgid: int) -> bool:
    """True while any process of group ``pgid`` has not been reaped."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_until(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
    return env


def _repro(*args: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          env=_env(), capture_output=True, text=True,
                          timeout=timeout)


class TestNoDaemonOutlivesClose:
    def _pids(self, cluster) -> dict[int, int]:
        cluster._read_pids()
        assert sorted(cluster._pids) == list(range(cluster.datanode_count))
        return dict(cluster._pids)

    def test_after_a_clean_run(self):
        cluster = ServiceCluster(4, seed=1, **FAST)
        pids = self._pids(cluster)
        assert len(set(pids.values())) == 4     # one process per node
        assert all(_live(pid) for pid in pids.values())
        cluster.close()
        assert [pid for pid in pids.values() if _live(pid)] == []

    def test_after_a_kill_fault(self):
        cluster = ServiceCluster(4, seed=2, **FAST)
        pids = self._pids(cluster)
        cluster.arm_faults(parse_fault_plan("kill:dn1@t=0", seed=2))
        assert _wait_until(lambda: not _live(pids[1]), 5.0)
        cluster.close()
        assert [pid for pid in pids.values() if _live(pid)] == []

    def test_after_the_launcher_was_sigkilled(self):
        cluster = ServiceCluster(4, seed=3, **FAST)
        pids = self._pids(cluster)
        launcher = cluster._launcher
        launcher.kill()
        launcher.wait(timeout=5.0)
        # Orphaned, the datanodes keep serving until close() finds them.
        assert all(_live(pid) for pid in pids.values())
        cluster.close()
        assert [pid for pid in pids.values() if _live(pid)] == []

    def test_after_the_launcher_died_by_another_signal(self):
        """SIGHUP ends the launcher without reaching its children."""
        cluster = ServiceCluster(3, seed=9, **FAST)
        pids = self._pids(cluster)
        launcher = cluster._launcher
        launcher.send_signal(signal.SIGHUP)
        assert launcher.wait(timeout=5.0) == -signal.SIGHUP
        assert all(_live(pid) for pid in pids.values())
        cluster.close()
        assert [pid for pid in pids.values() if _live(pid)] == []

    def test_a_sigterm_to_the_callers_group_reaches_every_datanode(self):
        """The caller dies by a SIGTERM to its process group, as
        ``timeout`` sends it, without running close(): the datanodes
        share its group, so they die with it."""
        script = (
            "import time\n"
            "from repro.service import ServiceCluster\n"
            f"cluster = ServiceCluster(3, seed=8, **{FAST!r})\n"
            "cluster._read_pids()\n"
            "print(*cluster._pids.values(), flush=True)\n"
            "time.sleep(60)\n")
        caller = subprocess.Popen(
            [sys.executable, "-c", script], env=_env(),
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            pids = [int(pid) for pid in caller.stdout.readline().split()]
            assert len(pids) == 3
            os.killpg(caller.pid, signal.SIGTERM)
            assert caller.wait(timeout=10.0) == -signal.SIGTERM
            assert _wait_until(
                lambda: not any(_live(pid) for pid in pids), 5.0)
        finally:
            try:
                os.killpg(caller.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            caller.wait(timeout=10.0)
            caller.stdout.close()


class TestServe:
    def test_a_shutdown_request_ends_serve_and_every_datanode(self):
        """``repro serve`` blocks until its namenode's loop ends: a
        ``shutdown`` request ends it, and the process exits 0 with no
        datanode left in its process group."""
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--datanodes", "2"],
            env=_env(), stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            # "[serve] namenode on HOST:PORT with 2 datanode(s), ..."
            line = serve.stdout.readline()
            assert line.startswith("[serve] namenode on "), line
            host, port = line.split()[3].rsplit(":", 1)
            with socket.create_connection((host, int(port)),
                                          timeout=10.0) as sock:
                assert call(sock, "shutdown", None) == {}
            assert serve.wait(timeout=30.0) == 0
            assert "[serve] shutdown requested" in serve.stdout.read()
            assert _wait_until(lambda: not _group_alive(serve.pid), 5.0)
        finally:
            if _group_alive(serve.pid):
                os.killpg(serve.pid, signal.SIGKILL)
            serve.wait(timeout=10.0)
            serve.stdout.close()


class TestKillOne:
    def test_kill_fault_leaves_no_zombie_and_the_rest_serve(self):
        with ServiceCluster(6, seed=4, **FAST) as cluster:
            cluster._read_pids()
            pids = dict(cluster._pids)
            cluster.arm_faults(parse_fault_plan("kill:dn3@t=0", seed=4))

            def reaped():
                try:
                    os.kill(pids[3], 0)
                except ProcessLookupError:
                    return True
                return False

            assert _wait_until(reaped, 2.0)
            for node_id in (0, 1, 2, 4, 5):
                assert _live(pids[node_id])
                reply = cluster.namenode.dn_call_sync(
                    node_id, "status", {}, timeout=5.0)
                assert reply["node_id"] == node_id

    def test_kill_datanode_kills_exactly_that_node(self):
        with ServiceCluster(3, seed=5, **FAST) as cluster:
            cluster._read_pids()
            pids = dict(cluster._pids)
            cluster.kill_datanode(1)
            with pytest.raises(ProcessLookupError):
                os.kill(pids[1], 0)
            assert _live(pids[0]) and _live(pids[2])
            cluster.kill_datanode(1)        # gone: signals nothing
            assert _live(pids[0]) and _live(pids[2])


def _threads(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise AssertionError(f"no Threads line for pid {pid}")


class TestOneThread:
    def test_a_serving_datanode_runs_one_thread(self):
        """Requests, heartbeats and fault timers share the main thread:
        a forked datanode never starts another."""
        with ServiceCluster(5, seed=10, **FAST) as cluster:
            cluster._read_pids()
            pids = dict(cluster._pids)
            cluster.arm_faults(parse_fault_plan(
                "slow:dn0@t=60,delay=0.1;corrupt:dn1@t=60", seed=10))
            with cluster.client() as client:
                client.write_file("f", b"x" * 5000, "pentagon")
                assert client.read_file("f") == b"x" * 5000
            for node_id, pid in sorted(pids.items()):
                reply = cluster.namenode.dn_call_sync(
                    node_id, "status", {}, timeout=5.0)
                assert reply["node_id"] == node_id
                assert _threads(pid) == 1, node_id


class TestStartup:
    def test_a_printed_line_is_one_write(self, monkeypatch):
        """The launcher and its children share one stdout: under
        ``PYTHONUNBUFFERED`` (an unbuffered binary layer, text written
        through) a line that took two writes could be split by another
        process's, and its pid line lost."""
        writes = []

        class Raw(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                writes.append(bytes(data))
                return len(data)

        monkeypatch.setattr(sys, "stdout",
                            io.TextIOWrapper(Raw(), write_through=True))
        print_line("3 4242")
        print_line("[datanode] datanode 3 serving")
        assert writes == [b"3 4242\n", b"[datanode] datanode 3 serving\n"]

    def test_a_node_failing_at_startup_is_named(self, monkeypatch):
        """The namenode refuses node 2; its daemon stops at once and the
        cluster names it, long before the start-up timeout."""
        register = NameNodeServer._op_dn_register

        def refuse_two(self, data, peer):
            if data["node_id"] == 2:
                raise ProtocolError("node 2 is not welcome")
            return register(self, data, peer)

        monkeypatch.setattr(NameNodeServer, "_op_dn_register", refuse_two)
        started = time.monotonic()
        with pytest.raises(ServiceError, match="datanode 2 exited"):
            ServiceCluster(4, seed=6, **FAST)
        assert time.monotonic() - started < FAST["startup_timeout"] / 2

    def test_the_fork_guard_refuses_a_threaded_process(self, monkeypatch):
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or 0)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(10.0,))
        other.start()
        try:
            with pytest.raises(RuntimeError, match="threads alive"):
                launch_datanodes([0, 1], ("127.0.0.1", 9))
        finally:
            stop.set()
            other.join(timeout=10.0)
        assert not other.is_alive()
        assert forks == []
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


class TestRefusedOrOrphanedDaemon:
    def test_the_parser_refuses_a_negative_node_id(self):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["datanode", "--node-id", "-1", "--namenode", "h:1"])
        assert exit_info.value.code == 2

    def test_node_ids_repeat(self):
        args = build_parser().parse_args(
            ["datanode", "--node-id", "0", "--node-id", "3",
             "--namenode", "h:1"])
        assert args.node_ids == [0, 3]

    def test_a_refused_registration_stops_the_daemon_at_once(self):
        def refuse(kind, data, peer):
            raise ProtocolError(f"{kind} refused")

        with AsyncRpcServer(refuse, error_marshaller=marshal_error,
                            name="refusing-namenode") as namenode:
            daemon = DataNodeServer(0, namenode.address, connect_retries=60,
                                    heartbeat_interval=0.05)
            serving = threading.Thread(target=daemon.serve, daemon=True)
            serving.start()
            serving.join(timeout=5.0)       # serve() returns: it stopped
            assert not serving.is_alive()
            assert "refused registration" in daemon.failure

    def test_a_daemon_that_gives_up_exits_nonzero(self):
        done = _repro("datanode", "--node-id", "0",
                      "--namenode", f"127.0.0.1:{_free_port()}",
                      "--connect-retries", "1")
        assert done.returncode == 1, (done.stdout, done.stderr)
        assert "giving up" in done.stdout
        pid_lines = [line.split() for line in done.stdout.splitlines()
                     if not line.startswith("[datanode]")]
        assert len(pid_lines) == 1 and pid_lines[0][0] == "0"
