"""The datanode daemon: block storage behind a socket.

Wraps the in-memory :class:`~repro.cluster.datanode.DataNode` store in
an :class:`~repro.net.AsyncRpcServer`, registers with its namenode, and
heartbeats until shut down.  A daemon is one thread: one event loop,
run by :meth:`DataNodeServer.serve` on the calling thread, serves the
requests, the heartbeats and the fault triggers, so the store and the
fault state are only ever touched from that loop and hold no lock.
The ops, their request keys and their reply keys are declared in
:data:`~.protocol.DATANODE_OPS`; each is one ``_op_<kind>`` method
reached through :func:`~.protocol.dispatch`.  The data path serves

* ``put`` / ``get`` — store / verified-read one block (every ``get``
  recomputes the CRC and answers a typed ``corrupt`` error on rot).
  A block is kept as the ``bytes`` object the frame decoder made and
  a ``get`` replies with that same object: no copy on either side;
* ``combine`` — GF(2^8)-combine several locally held blocks into one
  payload (the repair plans' partial parities, computed at the source
  so a combine costs one block of network, not several) — one call of
  the native op-table kernel, :func:`repro.gf.native.combine`;
* ``checksums`` — current CRCs for a block list, or the full inventory
  when the list is ``None`` (the checker's scrub + orphan GC);
* ``delete`` — drop orphaned blocks after an aborted write or a GC
  sweep.

Every data-path request first passes the :class:`~.faults.FaultArm`
hook, so an armed plan can kill, hang, slow or corrupt this daemon at
a precise request count or time (a loop timer) — and a hung daemon
also stops heartbeating, exactly like the real failure it models.  The
``fault`` op carries spec strings, which the daemon parses itself: one
bad spec and nothing is armed.

A daemon is a byte store behind a socket and imports no more: the
transport, the protocol tables, the fault hooks, the block store and
the native GF library.  It loads neither numpy nor the coding stack
(``tests/test_import_footprint.py`` pins the list); only a ``combine``
on a host without the native library imports numpy, on first use.

:func:`launch_datanodes` is how daemons start: one process imports
all of that once and forks a child per node id, so a cluster of N
datanodes pays for one interpreter start, not N.  A daemon its
namenode refuses, or one that stays cut off from it for its whole
reconnect budget, stops and exits nonzero.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import sys
import threading
import traceback

from ..cluster.datanode import DataNode
from ..gf.native import combine, crc32
from ..net import (
    AsyncRpcClient,
    AsyncRpcServer,
    ProtocolError,
    RetryPolicy,
    backoff_delay,
    recv_frame,
    send_frame,
)
from .faults import FaultArm, parse_fault
from .protocol import (
    DATANODE_OPS,
    SERVICE_VERSION,
    ServiceError,
    block_from_tuple,
    dispatch,
    expect,
    marshal_error,
    unmarshal_error,
)

#: Datanode -> namenode heartbeat cadence (seconds); the namenode's
#: silence timeout should be a small multiple of this.
HEARTBEAT_INTERVAL = 1.0


def call(sock: socket.socket, kind: str, data) -> object:
    """One request/response exchange on a framed connection.

    Returns the ``ok`` payload or raises the peer's marshalled typed
    error.  Transport failures raise ``ConnectionError``/``OSError``
    for the caller's retry policy.  This blocking helper is also the
    wire-compatibility reference: anything it can speak, the async
    daemons must answer.
    """
    send_frame(sock, (kind, data))
    status, payload = recv_frame(sock)
    if status == "ok":
        return payload
    if status == "err":
        raise unmarshal_error(*payload)
    raise ProtocolError(f"unexpected reply status {status!r}")


class DataNodeServer:
    """One storage daemon: event loop, store, faults, heartbeats.

    Construction binds the port; :meth:`serve` then runs the daemon on
    the calling thread until a ``shutdown`` request, :meth:`close` or
    giving up on the namenode stops it.
    """

    def __init__(self, node_id: int, namenode: tuple[str, int], *,
                 host: str = "127.0.0.1", port: int = 0,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 fault_seed: int = 0, connect_retries: int = 60):
        self.node_id = node_id
        self.namenode_address = namenode
        self.heartbeat_interval = heartbeat_interval
        self.connect_retries = connect_retries
        self.store = DataNode(node_id)
        self.faults = FaultArm(self.store, seed=fault_seed)
        self._served = 0
        #: Why the daemon shut itself down, when it did: the namenode
        #: refused its registration or stayed unreachable.
        self.failure: str | None = None
        self.server = AsyncRpcServer(
            self._handle, host, port,
            before_request=self.faults.before_request_gate,
            error_marshaller=marshal_error,
            name=f"datanode-{node_id}", own_thread=False)
        self.address = self.server.address
        self.server.spawn(self._heartbeat_loop())

    # ------------------------------------------------------------------
    def serve(self) -> int:
        """Serve on the calling thread until stopped; returns the
        number of requests served."""
        self.server.serve()
        return self._served

    def close(self) -> None:
        """Stop serving: callable from the loop or any other thread."""
        self.server.close()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _handle(self, kind: str, data, peer) -> object:
        self._served += 1
        return dispatch(self, DATANODE_OPS, kind, data, peer)

    def _op_put(self, data, peer) -> dict:
        del peer
        block = block_from_tuple(data["block"])
        payload = data["data"]
        try:
            memoryview(payload)
        except TypeError as error:
            raise ProtocolError(f"put data: {error}") from None
        return {"crc": self.store.put(block, payload)}

    def _op_get(self, data, peer) -> dict:
        del peer
        block = block_from_tuple(data["block"])
        return {"data": self.store.get(block, verify=True),
                "crc": self.store.checksum(block)}

    def _op_combine(self, data, peer) -> dict:
        del peer
        return {"data": self._combine(data["parts"])}

    def _op_checksums(self, data, peer) -> dict:
        del peer
        return self._checksums(data.get("blocks") if data else None)

    def _op_delete(self, data, peer) -> dict:
        del peer
        dropped = 0
        for entry in expect("blocks", data["blocks"], list, tuple):
            block = block_from_tuple(entry)
            if self.store.has(block):
                self.store.drop(block)
                dropped += 1
        return {"dropped": dropped}

    def _op_fault(self, data, peer) -> dict:
        del peer
        specs = expect("faults", data["faults"], list, tuple)
        try:
            faults = [parse_fault(expect("fault spec", spec, str))
                      for spec in specs]
        except ValueError as error:
            raise ProtocolError(f"fault spec: {error}") from None
        return {"armed": self.faults.arm(faults)}

    def _op_status(self, data, peer) -> dict:
        del data, peer
        return {"node_id": self.node_id, "version": SERVICE_VERSION,
                "blocks": self.store.block_count,
                "used_bytes": self.store.used_bytes,
                "requests": self._served,
                "faults": self.faults.snapshot()}

    def _op_shutdown(self, data, peer) -> dict:
        del data, peer
        self.close()        # the drain starts after this reply is sent
        return {"node_id": self.node_id}

    def _combine(self, parts) -> bytes:
        """GF-combine locally held blocks: the partial-parity hot path."""
        coefficients: list[int] = []
        buffers: list[bytes] = []
        try:
            for entry, coefficient in parts:
                if type(coefficient) is not int:
                    raise ProtocolError(
                        f"combine coefficient {coefficient!r}: not an int")
                coefficients.append(coefficient)
                buffers.append(
                    self.store.get(block_from_tuple(entry), verify=True))
        except (TypeError, ValueError):
            raise ProtocolError(
                "combine parts are (block, coefficient) pairs") from None
        if not buffers:
            raise ProtocolError("combine of zero blocks")
        try:
            ops = bytes(coefficients)
        except ValueError:
            bad = next(c for c in coefficients if not 0 <= c < 256)
            raise ValueError(f"{bad!r} is not an element of GF(256)") from None
        # Every source was CRC-verified by its ``get``.  The arithmetic
        # runs on the stored ``bytes`` themselves: one native pass for
        # any vector, all-ones included.
        return combine(ops, buffers)

    def _checksums(self, entries) -> dict:
        """Current CRCs (recomputed — what a disk scrub would see).

        ``entries=None`` answers the full inventory keyed by
        ``(file_name, stripe_index, symbol_index)`` — the namenode's
        scrub-plus-GC sweep reconciles this against its metadata.
        """
        if entries is None:
            targets = [(b, (b.file_name, b.stripe_index, b.symbol_index))
                       for b in self.store.block_ids()]
        else:
            targets = [(block_from_tuple(e), tuple(e))
                       for e in expect("blocks", entries, list, tuple)]
        return {"checksums": {key: (self.store.current_checksum(block)
                                    if self.store.has(block) else None)
                              for block, key in targets}}

    # ------------------------------------------------------------------
    # Namenode-facing side
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        client = AsyncRpcClient(
            self.namenode_address,
            retry=RetryPolicy(attempts=1, timeout=5.0),
            error_unmarshaller=unmarshal_error)
        attempts = 0
        registered = False
        try:
            while True:
                if self.faults.hung:
                    # A hung daemon goes silent everywhere: stop
                    # beating so the namenode's silence timeout
                    # declares us dead.
                    await asyncio.sleep(self.heartbeat_interval)
                    continue
                try:
                    if not registered:
                        try:
                            await client.call(
                                "dn-register",
                                {"node_id": self.node_id,
                                 "address": self.address,
                                 "version": SERVICE_VERSION})
                        except (ProtocolError, ServiceError) as error:
                            if getattr(error, "code", None) is None:
                                raise       # a transport fault: retry
                            # The namenode answered and said no: asking
                            # again gets the same answer.
                            self._give_up(
                                f"namenode refused registration: {error}")
                            return
                        registered = True
                        attempts = 0
                    await client.call("dn-heartbeat",
                                      {"node_id": self.node_id,
                                       "blocks": self.store.block_count})
                except (ConnectionError, OSError, ProtocolError) as error:
                    registered = False   # re-register on a fresh peer
                    attempts += 1
                    if attempts > self.connect_retries:
                        # Orphaned from the namenode for good: shut down
                        # rather than serve a cluster that forgot us.
                        self._give_up(
                            f"namenode unreachable after {attempts} "
                            f"attempts: {error}")
                        return
                    await asyncio.sleep(backoff_delay(
                        attempts, 0.2, RetryPolicy.RECONNECT_MAX_DELAY))
                    continue
                await asyncio.sleep(self.heartbeat_interval)
        finally:
            await client.close()

    def _give_up(self, reason: str) -> None:
        self.failure = reason
        self.close()


def run_datanode(node_id: int, namenode: tuple[str, int], *,
                 host: str = "127.0.0.1", port: int = 0,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 fault_seed: int = 0, connect_retries: int = 60,
                 log=None) -> int:
    """Run one datanode daemon on this thread until it is told to shut
    down.

    Returns the number of requests served.  Raises
    :class:`~.protocol.ServiceError` when the daemon gave up on its
    namenode: refused at registration, or unreachable for its whole
    reconnect budget.
    """
    emit = log if log is not None else (lambda message: None)
    server = DataNodeServer(
        node_id, namenode, host=host, port=port,
        heartbeat_interval=heartbeat_interval, fault_seed=fault_seed,
        connect_retries=connect_retries)
    emit(f"datanode {node_id} serving on "
         f"{server.address[0]}:{server.address[1]} "
         f"(namenode {namenode[0]}:{namenode[1]})")
    served = server.serve()
    if server.failure is not None:
        emit(f"datanode {node_id} giving up: {server.failure}")
        raise ServiceError(f"datanode {node_id}: {server.failure}")
    emit(f"datanode {node_id} shutting down ({served} requests served)")
    return served


#: What a launcher forwards to its children.
_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def print_line(text: str) -> None:
    """Write ``text`` and its newline to stdout in one write.

    A launcher and its children share one stdout; under
    ``PYTHONUNBUFFERED`` :func:`print` writes the newline on its own,
    and another process's line can land in between.
    """
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def launch_datanodes(node_ids, namenode: tuple[str, int], **daemon) -> int:
    """Serve each of ``node_ids`` from a forked child of this process,
    and supervise the children until the last one has exited.

    The daemon stack is imported once, here, and one CRC is taken
    before the first fork (which loads the native library when it is
    the backend), so every child inherits the bound
    :func:`~repro.gf.native.crc32` instead of paying for an interpreter
    start, the imports and cffi's parse again.  Each child is still an
    OS process of its own, so a ``kill`` fault SIGKILLs exactly that
    node.

    Prints one ``node_id pid`` line per child on stdout as it forks
    it.  SIGTERM and SIGINT are forwarded to the live children, and
    each child is reaped as it exits.  ``daemon`` holds
    :func:`run_datanode`'s keyword arguments.

    Returns 0 when every child exited 0, else 1; a launcher that was
    told to stop ends by the same signal once its children are gone.
    Raises ``RuntimeError``, having forked nothing, when a second
    thread is alive: a child would inherit only the forking thread,
    and with it any lock another thread held.
    """
    crc32(b"")      # loads the native library on its backend, binds CRC
    if threading.active_count() != 1:
        raise RuntimeError(
            f"refusing to fork datanodes with {threading.active_count()} "
            f"threads alive")
    children: dict[int, int] = {}            # pid -> node id
    stopped: list[int] = []

    def forward(signum, frame) -> None:
        del frame
        stopped.append(signum)
        for pid in list(children):
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass                        # exited, not reaped yet

    for signum in _STOP_SIGNALS:
        signal.signal(signum, forward)
    try:
        for node_id in node_ids:
            if stopped:
                break
            sys.stdout.flush()
            sys.stderr.flush()
            # Blocked across the fork: the child resets its handlers
            # before a stop signal can reach it, and the parent records
            # the pid before it forwards one.
            signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_forked(node_id, namenode, daemon)
                children[pid] = node_id
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
            print_line(f"{node_id} {pid}")
    except BaseException:
        forward(signal.SIGTERM, None)
        raise
    failed = False
    while children:
        pid, status = os.waitpid(-1, 0)
        del children[pid]
        if os.waitstatus_to_exitcode(status) != 0:
            failed = True
    if stopped:
        signal.signal(stopped[0], signal.SIG_DFL)
        os.kill(os.getpid(), stopped[0])
    return 1 if failed else 0


def _serve_forked(node_id: int, namenode: tuple[str, int],
                  daemon: dict) -> None:
    """A forked child's whole life: one daemon, then ``os._exit`` —
    never a return into the launcher's fork loop."""
    code = 1
    try:
        for signum in _STOP_SIGNALS:
            signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
        run_datanode(node_id, namenode, **daemon)
        code = 0
    except ServiceError:
        pass                                # run_datanode logged why
    except BaseException:                   # the child's top level
        traceback.print_exc()
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):
                pass
        os._exit(code)
