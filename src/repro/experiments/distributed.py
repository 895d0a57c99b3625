"""Socket-based coordinator/worker executor for cross-machine sweeps.

The reference container caps out well below 2x aggregate CPU
(``cpu_parallel_capacity`` in ``results/BENCH_*_sweep.json``), so once
a single host is saturated the next perf lever for the big sweep grids
is more machines.  The engine's work units are already the right wire
format: picklable ``(fn, args, seeds, lo, hi, owner)`` tuples whose
results depend only on the cell specs (every trial re-derives its RNG
from ``stable_seed``).  This module ships those payloads to remote
worker processes over TCP and merges the results, preserving the
engine's determinism guarantee: a distributed sweep is **bit-identical
to** ``workers=1`` regardless of how many workers join, when they
join, or which worker runs which unit — including when a worker dies
mid-sweep and its units are reassigned.  ``tests/test_distributed.py``
asserts all of this against real worker subprocesses over loopback.

Usage::

    # on the coordinating host (any subcommand)
    python -m repro fig3 --mu 4 --distributed 0.0.0.0:7571

    # on each worker host (repeat for more capacity)
    python -m repro worker COORDINATOR_HOST:7571 --retries 30

or programmatically::

    with DistributedExecutor(host, port) as executor:
        executor.wait_for_workers(2)
        panel = fig3.locality_panel(4, workers=executor)

Protocol (version 1)
--------------------

Every message is a length-prefixed pickle frame: a 4-byte big-endian
payload length, then the pickled ``(kind, data)`` tuple.  The kinds and
their payload shapes are declared in :data:`FRAMES` below.

Failure handling: the coordinator reads every connection under a
``heartbeat_timeout`` silence budget, and workers ping every
``heartbeat_interval`` seconds while computing, so a hung-but-
connected worker times out while a long-running unit stays alive
indefinitely; a killed worker surfaces immediately as EOF.  Either
way the connection is dropped and its in-flight unit goes back on
the queue for the next free worker.  A unit reassigned from a worker
that was merely partitioned (not dead) merges idempotently — both
executions computed the same value, by construction — and a
``generation`` counter drops any frame that straggles in from a
previous sweep.

Trust model: frames are unauthenticated pickle, so expose a
coordinator only to hosts you would let run arbitrary code (the same
trust a multiprocessing pool places in its forked workers).  Bind to
loopback or a private cluster network.

The frame protocol itself lives in :mod:`repro.net` (shared with the
storage-service daemons); ``send_frame``/``recv_frame``/
``ProtocolError``/``parse_hostport`` are re-exported here for
compatibility.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
from collections import deque

from ..net import (       # noqa: F401  (re-exported protocol surface)
    MAX_FRAME_BYTES,
    AsyncRpcServer,
    ProtocolError,
    RetryPolicy,
    backoff_delay,
    parse_hostport,
    recv_frame,
    send_frame,
)
from .engine import CellExecutionError, Executor, _run_unit

#: Bumped on any incompatible frame/message change; both ends check it
#: during the handshake so version skew fails fast instead of weirdly.
PROTOCOL_VERSION = 1

#: The frame table: kind -> payload shape.  A tuple of names is a dict
#: with exactly those keys, an int is a tuple of that many elements,
#: ``None`` is no payload.  Pure literal — ``repro lint`` holds every
#: send, unpack and dispatch arm in this module to it.
FRAMES = {
    "hello": ("version", "pid", "host"),    # worker to coord
    "welcome": ("version",),                # coord to worker
    "unit": 3,          # coord to worker: (generation, unit_id, payload)
    "ping": None,       # worker to coord, heartbeat while computing
    "result": 3,        # worker to coord: (generation, unit_id, output)
    "error": 3,         # worker to coord: (generation, unit_id, message)
    "shutdown": None,   # coord to worker
}

#: Seconds between worker heartbeats while a unit is computing.
HEARTBEAT_INTERVAL = 2.0

#: Coordinator-side silence budget per connection.  Must comfortably
#: exceed the heartbeat interval; it bounds how long a hung worker can
#: hold a unit hostage, not how long a unit may take.
HEARTBEAT_TIMEOUT = 30.0

#: Cap on the worker's exponential reconnect backoff: a retry budget
#: of N covers a coordinator up to roughly ``N * cap`` seconds late
#: instead of ``N * delay``, without hammering a host that is still
#: booting.  One source of truth with the storage daemons' reconnect
#: pacing: the shared :class:`~repro.net.RetryPolicy` defaults.
RECONNECT_MAX_DELAY = RetryPolicy.RECONNECT_MAX_DELAY


class DistributedExecutor(Executor):
    """Coordinator end of the distributed sweep protocol.

    Listens on ``(host, port)`` (port 0 picks a free one; the bound
    address is in :attr:`address`) and accepts ``repro worker``
    connections at any time — before, during or between sweeps.  Each
    :meth:`run` call turns the payload batch into a FIFO work queue;
    per-connection coroutines on the shared
    :class:`~repro.net.AsyncRpcServer` event loop claim one unit at a
    time, ship it, and stream back results.  In-flight units whose
    worker dies or goes silent are requeued for the next free worker,
    so a sweep completes as long as at least one worker remains.

    The executor is reusable across sweeps (the CLI's ``all`` runs
    six in a row) but not concurrently — one :meth:`run` at a time.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 heartbeat_timeout: float = HEARTBEAT_TIMEOUT):
        self.heartbeat_timeout = heartbeat_timeout
        self._closed = False
        self._workers: dict[str, dict] = {}
        self._payloads: list = []
        self._queue: deque[int] = deque()
        self._in_flight: dict[int, str] = {}
        self._outputs: dict[int, object] = {}
        self._failure: Exception | None = None
        self._generation = 0
        # Constructed off-loop; asyncio primitives bind to the running
        # loop at first await (the server's loop, always).
        self._cond = asyncio.Condition()
        self._server = AsyncRpcServer(
            host=host, port=port,
            connection_handler=self._serve_worker,
            name="repro-coordinator")
        self.address: tuple[str, int] = self._server.address

    # -- Executor API --------------------------------------------------

    def run(self, payloads: list) -> list:
        payloads = list(payloads)
        if not payloads:
            return []
        if self._closed:
            raise RuntimeError("DistributedExecutor is closed")
        return self._server.run_coroutine(self._run_sweep(payloads))

    async def _run_sweep(self, payloads: list) -> list:
        async with self._cond:
            if self._closed:
                raise RuntimeError("DistributedExecutor is closed")
            self._generation += 1
            self._payloads = payloads
            self._outputs = {}
            self._failure = None
            self._in_flight = {}
            self._queue = deque(range(len(payloads)))
            self._cond.notify_all()
            while (len(self._outputs) < len(payloads)
                   and self._failure is None and not self._closed):
                await self._cond.wait()
            if self._failure is not None:
                # Leave the workers connected for the next sweep: clear
                # the queue so they stop burning CPU on a failed batch.
                failure, self._failure = self._failure, None
                self._queue.clear()
                raise failure
            if self._closed:
                raise RuntimeError("executor closed mid-sweep")
            return [self._outputs[index] for index in range(len(payloads))]

    # -- lifecycle -----------------------------------------------------

    @property
    def worker_count(self) -> int:
        """Workers currently connected (post-handshake)."""
        return len(self._workers)

    def wait_for_workers(self, count: int = 1,
                         timeout: float | None = None) -> int:
        """Block until ``count`` workers are connected; returns the tally."""
        try:
            return self._server.run_coroutine(
                self._wait_for_workers(count), timeout)
        except TimeoutError:
            raise TimeoutError(
                f"only {len(self._workers)}/{count} workers "
                f"connected within {timeout:.1f}s") from None

    async def _wait_for_workers(self, count: int) -> int:
        async with self._cond:
            while len(self._workers) < count:
                if self._closed:
                    raise RuntimeError("DistributedExecutor is closed")
                await self._cond.wait()
            return len(self._workers)

    def close(self) -> None:
        """Shut down: idle workers are told to exit, the port is freed.

        Waking the condition first lets every parked service coroutine
        send its shutdown frame during the server's drain window, so
        workers see a deliberate goodbye instead of an abrupt EOF that
        would burn their reconnect budget on a coordinator that is
        gone on purpose.
        """
        if self._closed:
            return
        try:
            self._server.run_coroutine(self._close_async(), timeout=5.0)
        except (TimeoutError, RuntimeError):
            pass    # loop already stopped: nothing left to wake
        self._closed = True
        self._server.close()

    async def _close_async(self) -> None:
        async with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __enter__(self) -> "DistributedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- coordinator internals -----------------------------------------

    async def _serve_worker(self, conn) -> None:
        """One connection's service loop: claim, ship, collect, repeat."""
        name = f"{conn.peer[0]}:{conn.peer[1]}"
        claimed: int | None = None
        generation = 0
        try:
            kind, info = await asyncio.wait_for(conn.recv(),
                                                self.heartbeat_timeout)
            if kind != "hello" or not (isinstance(info, dict)
                                       and info.get("version")
                                       == PROTOCOL_VERSION):
                await conn.send(("shutdown", None))
                return
            await conn.send(("welcome", {"version": PROTOCOL_VERSION}))
            async with self._cond:
                self._workers[name] = dict(info)
                self._cond.notify_all()
            while True:
                claim = await self._claim_unit(name)
                if claim is None:
                    await conn.send(("shutdown", None))
                    return
                generation, claimed, payload = claim
                await conn.send(("unit", (generation, claimed, payload)))
                while True:
                    # wait_for = the silence budget: pings reset it,
                    # a hung worker trips it.
                    kind, data = await asyncio.wait_for(
                        conn.recv(), self.heartbeat_timeout)
                    if kind != "ping":
                        break
                if kind == "result":
                    await self._record(*data)
                elif kind == "error":
                    error_generation, _, message = data
                    await self._record_failure(error_generation,
                                               CellExecutionError(message))
                else:
                    raise ProtocolError(f"unexpected frame kind {kind!r}")
                claimed = None
        except Exception:
            # Dead, hung or garbled peer (EOF, silence timeout, version
            # skew, port scanner, unpicklable frame): drop the
            # connection quietly and requeue below.  Deliberately broad
            # — a service coroutine must never die loudly on bad input.
            pass
        finally:
            # The server closes the connection after this returns.
            async with self._cond:
                self._workers.pop(name, None)
                if (claimed is not None and generation == self._generation
                        and claimed not in self._outputs):
                    self._in_flight.pop(claimed, None)
                    self._queue.append(claimed)
                self._cond.notify_all()

    async def _claim_unit(self, name: str):
        """Next ``(generation, unit_id, payload)``, or ``None`` on close.

        Parks while no work is pending — a worker that outlives one
        sweep stays parked here until the next one (or close()).
        """
        async with self._cond:
            while not self._closed:
                if self._queue:
                    unit_id = self._queue.popleft()
                    self._in_flight[unit_id] = name
                    return (self._generation, unit_id,
                            self._payloads[unit_id])
                await self._cond.wait()
            return None

    async def _record(self, generation: int, unit_id: int, output) -> None:
        async with self._cond:
            if generation != self._generation:
                return      # straggler from a previous sweep
            self._in_flight.pop(unit_id, None)
            # A unit can legitimately complete twice (reassigned off a
            # partitioned-but-alive worker); both runs computed the
            # same value, keep the first.
            if unit_id not in self._outputs:
                self._outputs[unit_id] = output
            self._cond.notify_all()

    async def _record_failure(self, generation: int,
                              error: Exception) -> None:
        async with self._cond:
            if generation == self._generation and self._failure is None:
                self._failure = error
            self._cond.notify_all()


def _heartbeat_loop(sock: socket.socket, send_lock: threading.Lock,
                    stop: threading.Event, interval: float) -> None:
    while not stop.wait(interval):
        try:
            with send_lock:
                # lint: allow(locks.blocking-call): send_lock exists precisely to serialize frame writes on the shared socket; nothing else is ever taken under it
                send_frame(sock, ("ping", None))
        except OSError:
            return


def _serve_connection(sock: socket.socket, host: str, port: int,
                      heartbeat_interval: float, emit,
                      tally: list) -> int:
    """One connection's worth of work; returns the total unit tally.

    ``tally`` is a single-element running counter owned by
    :func:`run_worker` — incremented per unit *as it completes*, so the
    count survives a connection loss and accumulates across reconnects.
    """
    served = 0
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        send_frame(sock, ("hello", {"version": PROTOCOL_VERSION,
                                    "pid": os.getpid(),
                                    "host": socket.gethostname()}))
        kind, info = recv_frame(sock)
        if kind == "shutdown":
            return tally[0]
        if kind != "welcome" or not (isinstance(info, dict)
                                     and info.get("version")
                                     == PROTOCOL_VERSION):
            raise ProtocolError(f"handshake rejected: {kind!r} {info!r}")
        emit(f"connected to coordinator {host}:{port}")
        send_lock = threading.Lock()
        while True:
            kind, data = recv_frame(sock)
            if kind == "shutdown":
                emit(f"coordinator shut down; served {served} unit(s) "
                     f"on this connection, {tally[0]} in total")
                return tally[0]
            if kind != "unit":
                raise ProtocolError(f"unexpected frame kind {kind!r}")
            generation, unit_id, payload = data
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(sock, send_lock, stop, heartbeat_interval),
                daemon=True)
            beat.start()
            try:
                # Everything fn can raise is already wrapped into a
                # CellExecutionError naming the owning cell; ship the
                # message, keep serving.
                reply = ("result", (generation, unit_id,
                                    _run_unit(payload)))
            except Exception as exc:
                reply = ("error", (generation, unit_id,
                                   str(exc) or type(exc).__name__))
            finally:
                stop.set()
                beat.join()
            with send_lock:
                # lint: allow(locks.blocking-call): send_lock serializes result frames against heartbeat pings on the shared socket; nothing else is ever taken under it
                send_frame(sock, reply)
            served += 1
            tally[0] += 1
    finally:
        sock.close()


def run_worker(host: str, port: int, *,
               heartbeat_interval: float = HEARTBEAT_INTERVAL,
               reconnect_attempts: int = 0,
               reconnect_delay: float = RetryPolicy.RECONNECT_BASE_DELAY,
               reconnect_max_delay: float = RECONNECT_MAX_DELAY,
               log=None) -> int:
    """Serve sweep units until the coordinator shuts down.

    Returns the number of units served.  ``reconnect_attempts`` retries
    a refused or lost connection with capped exponential backoff
    (``reconnect_delay`` doubling per consecutive failure up to
    ``reconnect_max_delay``), which lets worker processes start *before*
    their coordinator — the CI smoke job and ``perf_snapshot`` both
    lean on this.  A refused connect returns instantly, so without the
    backoff a retry budget of N was burned in roughly N seconds; with
    it the same budget rides out a coordinator that is minutes late.
    The budget (and the backoff) resets every time a connection
    succeeds, so a long-lived worker survives any number of
    coordinator restarts.
    """
    emit = log if log is not None else (lambda message: None)
    attempts = 0
    tally = [0]

    def wait_or_raise(what: str, exc: Exception) -> None:
        nonlocal attempts
        attempts += 1
        if attempts > reconnect_attempts:
            raise exc
        delay = backoff_delay(attempts, reconnect_delay, reconnect_max_delay)
        emit(f"{what} {host}:{port} "
             f"({type(exc).__name__}: {exc}); "
             f"retry {attempts}/{reconnect_attempts} "
             f"in {delay:.1f}s")
        time.sleep(delay)

    while True:
        try:
            sock = socket.create_connection((host, port))
        except OSError as exc:
            wait_or_raise("connection failed to", exc)
            continue
        attempts = 0
        try:
            return _serve_connection(sock, host, port, heartbeat_interval,
                                     emit, tally)
        except (ConnectionError, OSError) as exc:
            wait_or_raise("lost coordinator", exc)
