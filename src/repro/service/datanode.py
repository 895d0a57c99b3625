"""The datanode daemon: block storage behind a socket.

Wraps the in-memory :class:`~repro.cluster.datanode.DataNode` store in
an :class:`~repro.net.AsyncRpcServer` (one event loop per daemon),
registers with its namenode, and heartbeats until shut down.  The ops,
their request keys and their reply keys are declared in
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
a precise request count or time — and a hung daemon also stops
heartbeating, exactly like the real failure it models.

A daemon is a byte store behind a socket and imports no more: the
transport, the protocol tables, the fault hooks, the block store and
the native GF library.  It loads neither numpy nor the coding stack
(``tests/test_import_footprint.py`` pins the list); only a ``combine``
on a host without the native library imports numpy, on first use.
"""

from __future__ import annotations

import asyncio
import socket
import threading

from ..cluster.datanode import DataNode
from ..gf.native import combine
from ..net import (
    AsyncRpcClient,
    AsyncRpcServer,
    ProtocolError,
    RetryPolicy,
    backoff_delay,
    recv_frame,
    send_frame,
)
from .faults import Fault, FaultArm
from .protocol import (
    DATANODE_OPS,
    SERVICE_VERSION,
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
    """One storage daemon: event loop, store, faults, heartbeats."""

    def __init__(self, node_id: int, namenode: tuple[str, int], *,
                 host: str = "127.0.0.1", port: int = 0,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 fault_seed: int = 0, connect_retries: int = 60):
        self.node_id = node_id
        self.namenode_address = namenode
        self.heartbeat_interval = heartbeat_interval
        self.connect_retries = connect_retries
        self.store = DataNode(node_id)
        # The fault ticker thread can corrupt blocks while the loop
        # serves, so store access stays mutex-guarded even though all
        # request handling now runs on one loop thread.
        self._store_lock = threading.Lock()
        self.faults = FaultArm(self.store, seed=fault_seed)
        self._shutdown = threading.Event()
        self._served = 0
        self.server = AsyncRpcServer(
            self._handle, host, port,
            before_request=self.faults.before_request_gate,
            error_marshaller=marshal_error,
            name=f"datanode-{node_id}")
        self.address = self.server.address
        self.server.spawn(self._heartbeat_loop())

    # ------------------------------------------------------------------
    def wait(self, timeout: float | None = None) -> bool:
        """Block until a ``shutdown`` request arrives."""
        return self._shutdown.wait(timeout)

    def close(self) -> None:
        self._shutdown.set()
        self.server.close()

    def __enter__(self) -> "DataNodeServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        with self._store_lock:
            crc = self.store.put(block, payload)
        return {"crc": crc}

    def _op_get(self, data, peer) -> dict:
        del peer
        block = block_from_tuple(data["block"])
        with self._store_lock:
            payload = self.store.get(block, verify=True)
            crc = self.store.checksum(block)
        return {"data": payload, "crc": crc}

    def _op_combine(self, data, peer) -> dict:
        del peer
        return {"data": self._combine(data["parts"])}

    def _op_checksums(self, data, peer) -> dict:
        del peer
        return self._checksums(data.get("blocks") if data else None)

    def _op_delete(self, data, peer) -> dict:
        del peer
        dropped = 0
        with self._store_lock:
            for entry in expect("blocks", data["blocks"], list, tuple):
                block = block_from_tuple(entry)
                if self.store.has(block):
                    self.store.drop(block)
                    dropped += 1
        return {"dropped": dropped}

    def _op_fault(self, data, peer) -> dict:
        del peer
        faults = expect("faults", data["faults"], list, tuple)
        if not all(isinstance(fault, Fault) for fault in faults):
            # armed, a stray value would kill the fault ticker and
            # every later request would trip over it
            raise ProtocolError("faults must all be Fault specs")
        return {"armed": self.faults.arm(faults)}

    def _op_status(self, data, peer) -> dict:
        del data, peer
        with self._store_lock:
            blocks = self.store.block_count
            used = self.store.used_bytes
        return {"node_id": self.node_id, "version": SERVICE_VERSION,
                "blocks": blocks, "used_bytes": used,
                "requests": self._served,
                "faults": self.faults.snapshot()}

    # lint: allow(schema.unused-op): graceful-stop surface for external operators; ServiceCluster terminates its subprocess children directly
    def _op_shutdown(self, data, peer) -> dict:
        del data, peer
        self._shutdown.set()
        return {"node_id": self.node_id}

    def _combine(self, parts) -> bytes:
        """GF-combine locally held blocks: the partial-parity hot path."""
        coefficients: list[int] = []
        buffers: list[bytes] = []
        with self._store_lock:
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
        # runs outside the lock on the stored ``bytes`` themselves,
        # which nothing can mutate (put/corrupt swap in new objects):
        # one native pass for any vector, all-ones included.
        return combine(ops, buffers)

    def _checksums(self, entries) -> dict:
        """Current CRCs (recomputed — what a disk scrub would see).

        ``entries=None`` answers the full inventory keyed by
        ``(file_name, stripe_index, symbol_index)`` — the namenode's
        scrub-plus-GC sweep reconciles this against its metadata.
        """
        out: dict[tuple, int | None] = {}
        with self._store_lock:
            if entries is None:
                targets = [(b, (b.file_name, b.stripe_index, b.symbol_index))
                           for b in self.store.block_ids()]
            else:
                targets = [(block_from_tuple(e), tuple(e))
                           for e in expect("blocks", entries, list, tuple)]
            for block, key in targets:
                out[key] = (self.store.current_checksum(block)
                            if self.store.has(block) else None)
        return {"checksums": out}

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
            while not self._shutdown.is_set():
                if self.faults.hung:
                    # A hung daemon goes silent everywhere: stop
                    # beating so the namenode's silence timeout
                    # declares us dead.
                    await asyncio.sleep(self.heartbeat_interval)
                    continue
                try:
                    if not registered:
                        await client.call(
                            "dn-register",
                            {"node_id": self.node_id,
                             "address": self.address,
                             "version": SERVICE_VERSION})
                        registered = True
                        attempts = 0
                    with self._store_lock:
                        blocks = self.store.block_count
                    await client.call("dn-heartbeat",
                                      {"node_id": self.node_id,
                                       "blocks": blocks})
                except (ConnectionError, OSError, ProtocolError):
                    registered = False   # re-register on a fresh peer
                    attempts += 1
                    if attempts > self.connect_retries:
                        # Orphaned from the namenode for good: shut down
                        # rather than serve a cluster that forgot us.
                        self._shutdown.set()
                        return
                    await asyncio.sleep(backoff_delay(
                        attempts, 0.2, RetryPolicy.RECONNECT_MAX_DELAY))
                    continue
                await asyncio.sleep(self.heartbeat_interval)
        finally:
            await client.close()


def run_datanode(node_id: int, namenode: tuple[str, int], *,
                 host: str = "127.0.0.1", port: int = 0,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 fault_seed: int = 0, connect_retries: int = 60,
                 log=None, ready=None) -> int:
    """Run one datanode daemon until it is told to shut down.

    ``ready`` (optional callable) receives the bound address once the
    daemon is serving — the CLI prints it, tests latch onto it.
    Returns the number of requests served.
    """
    emit = log if log is not None else (lambda message: None)
    server = DataNodeServer(
        node_id, namenode, host=host, port=port,
        heartbeat_interval=heartbeat_interval, fault_seed=fault_seed,
        connect_retries=connect_retries)
    try:
        if ready is not None:
            ready(server.address)
        emit(f"datanode {node_id} serving on "
             f"{server.address[0]}:{server.address[1]} "
             f"(namenode {namenode[0]}:{namenode[1]})")
        server.wait()
        emit(f"datanode {node_id} shutting down "
             f"({server._served} requests served)")
        return server._served
    finally:
        server.close()
