"""Spin up a whole service: one namenode + N datanode processes.

:class:`ServiceCluster` is the harness the CLI, the tests and the
bench all share.  Datanodes run as real OS processes, so a ``kill``
fault is an actual ``SIGKILL`` — half-written frames, refused
reconnects and all — not a polite in-process shutdown.  One launcher,
``python -m repro datanode --node-id 0 --node-id 1 ...``, imports the
daemon stack once and forks one child per node id
(:func:`~.datanode.launch_datanodes`); it prints each child's pid,
which the cluster holds as a pidfd, so
:meth:`ServiceCluster.kill_datanode` can SIGKILL exactly one node and
never a later process that reuses its pid.  The launcher and the
datanodes stay in the caller's process group: a signal to the group
(a terminal's ^C, ``timeout``) reaches every datanode.  The namenode
runs in-process, on a loop thread of its own; the harness reads its
state through that loop (:meth:`~repro.net.AsyncRpcServer.on_loop`).
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .client import RetryPolicy, StorageClient
from .datanode import HEARTBEAT_INTERVAL
from .faults import FaultPlan
from .namenode import CHECK_PERIOD, SILENCE_TIMEOUT, NameNodeServer
from .protocol import ServiceError

#: How long to wait for every datanode to register and heartbeat.
STARTUP_TIMEOUT = 30.0

#: How often, while waiting for registrations, the launcher and the
#: datanodes it printed are checked for an early exit.
STARTUP_CHECK_PERIOD = 0.05

#: How long :meth:`ServiceCluster.close` waits for the launcher, and
#: :meth:`ServiceCluster.kill_datanode` for a victim to be reaped.
EXIT_TIMEOUT = 5.0


def _exited(pidfd: int, timeout: float = 0.0) -> bool:
    """True once the process behind ``pidfd`` has exited, reaped or
    not; waits up to ``timeout`` seconds for it."""
    poller = select.poll()
    poller.register(pidfd, select.POLLIN)
    return bool(poller.poll(max(0, round(timeout * 1000))))


def _signal(pidfd: int, signum: int) -> bool:
    """Send ``signum`` (0 only probes); False once the process has
    been reaped."""
    try:
        signal.pidfd_send_signal(pidfd, signum)
    except ProcessLookupError:
        return False
    return True


def _is_settled(status: dict) -> bool:
    """True when the checker has nothing left to notice or repair:
    queue drained, no scrubbed damage, and no recoverable stripe still
    hosted on a dead node (lost stripes are excluded — they will never
    drain and should fail the caller's *own* assertions instead)."""
    repair = status["repair"]
    return (not repair["queued"] and not repair["in_progress"]
            and not repair["damaged_stripes"]
            and not repair["degraded_stripes"])


class ServiceCluster:
    """One namenode (in-process) + N datanode processes."""

    def __init__(self, datanodes: int = 6, *, block_bytes: int = 65536,
                 seed: int = 0, host: str = "127.0.0.1",
                 silence_timeout: float = SILENCE_TIMEOUT,
                 check_period: float = CHECK_PERIOD,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 startup_timeout: float = STARTUP_TIMEOUT,
                 reservation_timeout: float | None = None,
                 racks: list[int] | None = None):
        if datanodes < 1:
            raise ValueError("a cluster needs at least one datanode")
        rack_map = None
        if racks is not None:
            if sum(racks) != datanodes or any(size < 1 for size in racks):
                raise ValueError(
                    f"rack sizes {racks} must be positive and sum to the "
                    f"{datanodes} datanodes")
            rack_map = {}
            for rack, size in enumerate(racks):
                for _ in range(size):
                    rack_map[len(rack_map)] = rack
        self.datanode_count = datanodes
        self.seed = seed
        namenode_kwargs = {}
        if reservation_timeout is not None:
            namenode_kwargs["reservation_timeout"] = reservation_timeout
        self.namenode = NameNodeServer(
            host, 0, block_bytes=block_bytes, seed=seed,
            silence_timeout=silence_timeout, check_period=check_period,
            rack_map=rack_map, **namenode_kwargs)
        self.address = self.namenode.address
        # The launcher's stdout is a file, not a pipe: the children's
        # log lines follow the pid lines into it, and nothing has to
        # keep draining it for them.
        self._output = tempfile.TemporaryFile()
        self._pids: dict[int, int] = {}      # node id -> datanode pid
        self._pidfds: dict[int, int] = {}    # node id -> its pidfd
        self._launcher: subprocess.Popen | None = None
        try:
            self._launcher = self._spawn(heartbeat_interval)
            self._await_alive(range(datanodes), startup_timeout)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _spawn(self, heartbeat_interval: float) -> subprocess.Popen:
        src_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
        node_ids = [arg for node_id in range(self.datanode_count)
                    for arg in ("--node-id", str(node_id))]
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "datanode", *node_ids,
             "--namenode", f"{self.address[0]}:{self.address[1]}",
             "--heartbeat-interval", str(heartbeat_interval),
             "--fault-seed", str(self.seed)],
            env=env, stdout=self._output)

    def _read_pids(self) -> None:
        """Take up the ``node_id pid`` lines the launcher has printed,
        and a pidfd for each new pid: the launcher reaps a datanode as
        soon as it dies, freeing its pid, so every later signal goes
        through the pidfd.  A datanode already gone gets none."""
        if len(self._pids) == self.datanode_count:
            return
        text = os.pread(self._output.fileno(), 1 << 20, 0)
        for line in text.split(b"\n")[:-1]:       # complete lines only
            fields = line.split()
            if len(fields) != 2 or not all(f.isdigit() for f in fields):
                continue
            node_id, pid = int(fields[0]), int(fields[1])
            if node_id in self._pids:
                continue
            self._pids[node_id] = pid
            try:
                self._pidfds[node_id] = os.pidfd_open(pid)
            except ProcessLookupError:
                pass

    def _await_alive(self, node_ids, timeout: float) -> None:
        """Return once every node in ``node_ids`` is alive and the
        launcher has printed its pid (a datanode can register before
        the launcher gets to print): woken by each registration, and
        every :data:`STARTUP_CHECK_PERIOD` in between to fail fast on a
        dead launcher or datanode."""
        wanted = set(node_ids)
        namenode = self.namenode
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                namenode.server.on_loop(namenode.wait_alive, wanted,
                                        timeout=STARTUP_CHECK_PERIOD)
                alive = True
            except TimeoutError:
                alive = False
            self._read_pids()
            if alive and wanted <= set(self._pids):
                return
            if remaining <= 0:
                break
            if alive:
                time.sleep(0.001)       # the pid lines are on their way
            for node_id in sorted(wanted):
                if node_id in self._pids and (
                        node_id not in self._pidfds
                        or _exited(self._pidfds[node_id])):
                    raise ServiceError(
                        f"datanode {node_id} exited during startup")
            if self._launcher.poll() is not None:
                raise ServiceError(
                    f"the datanode launcher exited with "
                    f"{self._launcher.returncode} during startup")
        dead = sorted(wanted - set(namenode.server.on_loop(
            namenode._alive_ids)))
        raise ServiceError(
            f"datanodes {dead} never became alive within {timeout:.0f}s"
            if dead else f"the launcher printed no pid for datanodes "
            f"{sorted(wanted - set(self._pids))} within {timeout:.0f}s")

    def kill_datanode(self, node_id: int) -> None:
        """SIGKILL one datanode and wait until its launcher has reaped
        it: afterwards its pid names no process of the cluster.  The
        namenode learns of the death as it would of a crash, by the
        silence.  A datanode that is already gone is left alone."""
        self._read_pids()
        pid = self._pids[node_id]
        pidfd = self._pidfds.get(node_id)
        if pidfd is None or not _signal(pidfd, signal.SIGKILL):
            return
        deadline = time.monotonic() + EXIT_TIMEOUT
        while _signal(pidfd, 0):
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"datanode {node_id} (pid {pid}) was not reaped "
                    f"within {EXIT_TIMEOUT:g}s")
            time.sleep(0.005)

    # ------------------------------------------------------------------
    def client(self, *, retry: RetryPolicy | None = None,
               **kwargs) -> StorageClient:
        return StorageClient(self.address, retry=retry, **kwargs)

    def arm_faults(self, plan: FaultPlan) -> dict[int, list[str]]:
        """Resolve and arm a fault plan across the datanodes, now.

        Arming defines each fault's ``t=0``; returns what was armed
        where (``node_id -> fault descriptions``) for logs and tests.
        """
        bound = plan.resolve(range(self.datanode_count))
        armed: dict[int, list[str]] = {}
        for node_id, faults in sorted(bound.items()):
            armed[node_id] = [fault.describe() for fault in faults]
            self.namenode.dn_call_sync(node_id, "fault",
                                       {"faults": armed[node_id]})
        return armed

    def status(self) -> dict:
        """The namenode's ``status`` reply, read on its loop."""
        return self.namenode.server.on_loop(
            self.namenode._op_status, {}, None)

    def wait_settled(self, timeout: float = 30.0, poll: float = 0.2,
                     min_wait: float | None = None) -> dict:
        """Block until the repair queue is drained (or timeout); returns
        the final status either way — callers assert on it.

        A freshly-killed datanode looks alive until its heartbeats age
        past the silence timeout, so "settled" is not believed before
        ``min_wait`` (default: silence timeout + two checker sweeps —
        long enough for any already-injected fault to be *detected*).
        Pass ``min_wait=0`` when nothing has just been broken.
        """
        if min_wait is None:
            min_wait = (self.namenode.silence_timeout
                        + 2 * self.namenode.check_period)
        start = time.monotonic()
        deadline = start + timeout
        status = self.status()
        while time.monotonic() < deadline:
            if (time.monotonic() - start >= min_wait
                    and _is_settled(status)):
                return status
            time.sleep(poll)
            status = self.status()
        return status

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the datanodes and the namenode.  The launcher forwards
        its SIGTERM and exits once every datanode is reaped; one that
        overruns :data:`EXIT_TIMEOUT` is SIGKILLed.  However the
        launcher ended, every datanode it printed that is still running
        is then SIGKILLed and waited for: none outlives the cluster."""
        launcher, self._launcher = self._launcher, None
        if launcher is not None:
            if launcher.poll() is None:
                launcher.terminate()
            try:
                launcher.wait(timeout=EXIT_TIMEOUT)
            except subprocess.TimeoutExpired:
                launcher.kill()
                launcher.wait()
            self._read_pids()
        pidfds, self._pidfds = list(self._pidfds.values()), {}
        for pidfd in pidfds:
            _signal(pidfd, signal.SIGKILL)
        deadline = time.monotonic() + EXIT_TIMEOUT
        for pidfd in pidfds:
            _exited(pidfd, deadline - time.monotonic())
            os.close(pidfd)
        self._output.close()
        self.namenode.close()

    def __enter__(self) -> "ServiceCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
