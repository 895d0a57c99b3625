"""The shared RPC layer: framed wire protocol + asyncio client/server.

One wire format serves the whole repo: the distributed sweep executor
(:mod:`repro.experiments.distributed`) and the storage service daemons
(:mod:`repro.service`).  Every message is a 4-byte big-endian payload
length followed by the pickled ``(kind, data)`` tuple.  Truncated,
oversized or misshapen frames raise :class:`ProtocolError` (or
``ConnectionError`` for a mid-frame EOF) instead of hanging or
allocating unbounded memory.

On top of the framing sit the async peers every daemon shares:

* :class:`AsyncRpcServer` — one event loop per daemon on its own
  thread; each accepted connection is a callback protocol doing
  ``receive in place -> dispatch -> reply`` (RPC mode: one fixed
  receive buffer per connection that the kernel fills directly, so a
  pipelined burst of block frames costs no growing buffer and no
  payload copy) or is handed whole to a ``connection_handler`` (stream
  mode, for stateful protocols like the sweep executor's).  Shutdown
  drains in-flight requests before the loop stops.
* :class:`AsyncRpcClient` / :class:`RpcPool` — lazily-connected,
  reusable client connections whose every call runs under a
  :class:`RetryPolicy` (per-attempt timeout, capped exponential
  backoff, seeded jitter).

The sync helpers (:func:`send_frame` / :func:`recv_frame`) remain the
reference implementation of the wire format; old blocking clients
interoperate with the async servers byte-for-byte.  They too receive
in place (``recv_into`` one exact-size buffer per read).

Trust model: frames are unauthenticated pickle, so expose a listening
socket only to hosts you would let run arbitrary code (the same trust a
multiprocessing pool places in its forked workers).  Bind to loopback
or a private cluster network; TLS/token auth is a ROADMAP follow-up.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
import threading
import time
from collections import deque

#: Frame length prefix: 4-byte big-endian payload size.
_HEADER = struct.Struct(">I")

#: Sanity cap on a single frame — a corrupt or hostile length prefix
#: should fail loudly, not allocate gigabytes.
MAX_FRAME_BYTES = 1 << 30

#: A connection silent for this long is dropped (heartbeat connections
#: tick far faster; a parked client can simply reconnect).  Enforced
#: by a per-server watchdog sweeping every quarter-timeout rather than
#: a per-receive timer: wrapping every ``recv`` in
#: ``asyncio.wait_for`` costs a Task per request and halves hot-path
#: throughput.
IDLE_TIMEOUT = 120.0


class ProtocolError(RuntimeError):
    """The peer sent something outside the framed protocol."""


# ----------------------------------------------------------------------
# Wire format — blocking-socket flavour
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, count: int) -> bytearray:
    """``count`` bytes, received in place: the kernel fills one
    exact-size buffer, nothing is appended or copied afterwards."""
    buffer = bytearray(count)
    view = memoryview(buffer)
    filled = 0
    while filled < count:
        received = sock.recv_into(view[filled:])
        if not received:
            raise ConnectionError("peer closed the connection mid-frame")
        filled += received
    return buffer


def _encode_frame(message: tuple) -> bytes:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")
    return _HEADER.pack(len(data)) + data


def _decode_payload(payload) -> tuple:
    """Unpickle one frame body (any bytes-like: the RPC server hands in
    a ``memoryview`` of its receive buffer)."""
    message = pickle.loads(payload)
    if not (isinstance(message, tuple) and len(message) == 2):
        raise ProtocolError("frame did not decode to a (kind, data) pair")
    return message


def _check_announced(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte cap")


def send_frame(sock: socket.socket, message: tuple) -> None:
    """Send one ``(kind, data)`` message as a length-prefixed frame."""
    sock.sendall(_encode_frame(message))


def recv_frame(sock: socket.socket) -> tuple:
    """Receive one ``(kind, data)`` message (blocking, honours timeouts)."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    _check_announced(length)
    return _decode_payload(_recv_exact(sock, length))


# ----------------------------------------------------------------------
# Wire format — asyncio flavour (same bytes, same errors)
# ----------------------------------------------------------------------
async def async_send_frame(writer: asyncio.StreamWriter,
                           message: tuple) -> None:
    """Send one framed message on a stream writer and drain it."""
    writer.write(_encode_frame(message))
    await writer.drain()


async def async_recv_frame(reader: asyncio.StreamReader) -> tuple:
    """Receive one framed message from a stream reader.

    Mirrors :func:`recv_frame` exactly: EOF anywhere (even at a frame
    boundary) is a ``ConnectionError``, an oversized announcement or a
    misshapen payload is a :class:`ProtocolError`.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError:
        raise ConnectionError(
            "peer closed the connection mid-frame") from None
    (length,) = _HEADER.unpack(header)
    _check_announced(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ConnectionError(
            "peer closed the connection mid-frame") from None
    return _decode_payload(payload)


class AsyncConnection:
    """One framed peer over an asyncio stream pair."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self.peer = writer.get_extra_info("peername")
        self.last_activity = time.monotonic()
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass

    async def recv(self) -> tuple:
        frame = await async_recv_frame(self._reader)
        self.last_activity = time.monotonic()
        return frame

    async def send(self, message: tuple) -> None:
        await async_send_frame(self._writer, message)
        self.last_activity = time.monotonic()

    def abort(self) -> None:
        """Tear the transport down immediately (idle-watchdog path);
        any coroutine parked in :meth:`recv` wakes with an error."""
        transport = self._writer.transport
        if transport is not None:
            transport.abort()

    def shut(self) -> None:
        """Start a graceful close without awaiting it (shutdown path)."""
        try:
            self._writer.close()
        except (ConnectionError, OSError):
            pass

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# ----------------------------------------------------------------------
# Address / backoff helpers
# ----------------------------------------------------------------------
def parse_hostport(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (as taken by ``--distributed``, ``worker``,
    ``serve``, ``datanode`` and ``load``)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"{text!r} is not a HOST:PORT address")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"{text!r}: port {port_text!r} is not an integer"
                         ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"{text!r}: port must be in 0..65535")
    return host, port


def backoff_delay(attempt: int, base: float, cap: float,
                  jitter: float = 0.0, rng=None) -> float:
    """Capped exponential backoff delay for retry ``attempt`` (1-based).

    ``base * 2**(attempt-1)``, capped at ``cap``; with ``jitter`` > 0
    and an ``rng`` (``random.random``-style callable or numpy
    Generator), the delay is stretched by up to ``jitter`` of itself so
    synchronized clients fan out instead of retrying in lockstep.
    """
    if attempt < 1:
        raise ValueError("attempt numbers start at 1")
    delay = min(cap, base * (2.0 ** (attempt - 1)))
    if jitter and rng is not None:
        delay *= 1.0 + jitter * float(rng.random())
    return delay


class RetryPolicy:
    """Timeout + capped exponential backoff + seeded jitter, per RPC.

    The class attributes are the shared operational constants every
    networked caller derives from, so the storage client's suspect TTL
    and the sweep worker's reconnect pacing cannot drift apart.
    """

    #: How long an unreachable datanode stays on a client's suspect
    #: list before a read is willing to try it again.
    SUSPECT_TTL = 5.0
    #: How long a client trusts cached file metadata (stripe placement)
    #: on its read path before re-asking the namenode.  Stale placement
    #: is safe — reads already re-plan around slots that fail and
    #: refresh once on an unrecoverable plan — so this only bounds how
    #: long reads keep paying degraded-path detours after a repair
    #: re-homed blocks.
    METADATA_TTL = 1.0
    #: Long-lived peers (sweep workers, heartbeat loops) reconnecting
    #: to a daemon pace themselves between these bounds.
    RECONNECT_BASE_DELAY = 1.0
    RECONNECT_MAX_DELAY = 5.0

    def __init__(self, *, attempts: int = 3, timeout: float = 2.0,
                 base_delay: float = 0.05, max_delay: float = 1.0,
                 jitter: float = 0.25, seed: int = 0):
        if attempts < 1:
            raise ValueError("a retry policy needs at least one attempt")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.attempts = attempts
        self.timeout = timeout
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self._seed = seed
        self._rng = None

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based, capped, jittered).

        The jitter generator is made at the first retry, so a process
        whose calls never retry (a datanode's heartbeat loop) never
        imports numpy."""
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self._seed)
        return backoff_delay(attempt, self.base_delay, self.max_delay,
                             jitter=self.jitter, rng=self._rng)


# ----------------------------------------------------------------------
# Async RPC client
# ----------------------------------------------------------------------
class AsyncRpcClient:
    """One reusable framed connection with retry/timeout/backoff.

    The connection opens lazily on first call and is re-opened after
    any transport failure.  Replies follow the service convention:
    ``("ok", payload)`` returns the payload, ``("err", wire)`` raises —
    through ``error_unmarshaller(*wire)`` when one is given (typed
    remote errors are **not** retried; only transport failures burn
    attempts), otherwise as a :class:`ProtocolError`.
    """

    def __init__(self, address: tuple[str, int], *,
                 retry: RetryPolicy | None = None,
                 error_unmarshaller=None):
        self.address = (str(address[0]), int(address[1]))
        self.retry = retry if retry is not None else RetryPolicy()
        self._unmarshal = error_unmarshaller
        self._conn: AsyncConnection | None = None
        # Serializes callers: one framed connection carries one
        # request/response exchange at a time.
        self._turn = asyncio.Lock()

    async def _connect(self) -> AsyncConnection:
        async with asyncio.timeout(self.retry.timeout):
            reader, writer = await asyncio.open_connection(*self.address)
        return AsyncConnection(reader, writer)

    async def _round_trip(self, kind: str, data) -> tuple:
        if self._conn is None:
            self._conn = await self._connect()
        await self._conn.send((kind, data))
        return await self._conn.recv()

    async def _drop(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            await conn.close()

    async def call(self, kind: str, data) -> object:
        retry = self.retry
        last: Exception | None = None
        async with self._turn:
            for attempt in range(1, retry.attempts + 1):
                try:
                    # In this task, not a wait_for Task: no Task per call,
                    # and no 3.11 cancel race leaving an exception nobody
                    # retrieves when the caller is cancelled mid-dial.
                    async with asyncio.timeout(retry.timeout):
                        reply = await self._round_trip(kind, data)
                except (ConnectionError, OSError, EOFError,
                        asyncio.TimeoutError) as exc:
                    last = exc
                    await self._drop()
                    if attempt < retry.attempts:
                        await asyncio.sleep(retry.delay(attempt))
                    continue
                status, payload = reply
                if status == "ok":
                    return payload
                if status == "err":
                    if self._unmarshal is not None:
                        raise self._unmarshal(*payload)
                    code, message = payload[0], payload[1]
                    raise ProtocolError(f"[{code}] {message}")
                raise ProtocolError(f"unexpected reply status {status!r}")
        host, port = self.address
        raise ConnectionError(
            f"{host}:{port} unreachable after {retry.attempts} "
            f"attempt(s): {last}") from last

    async def close(self) -> None:
        await self._drop()


class RpcPool:
    """Address-keyed cache of :class:`AsyncRpcClient` connections."""

    def __init__(self, *, retry: RetryPolicy | None = None,
                 error_unmarshaller=None):
        self._retry = retry
        self._unmarshal = error_unmarshaller
        self._clients: dict[tuple[str, int], AsyncRpcClient] = {}

    def client(self, address: tuple[str, int]) -> AsyncRpcClient:
        key = (str(address[0]), int(address[1]))
        client = self._clients.get(key)
        if client is None:
            client = self._clients[key] = AsyncRpcClient(
                key, retry=self._retry, error_unmarshaller=self._unmarshal)
        return client

    async def call(self, address: tuple[str, int], kind: str,
                   data) -> object:
        return await self.client(address).call(kind, data)

    async def close(self) -> None:
        clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            await client.close()


# ----------------------------------------------------------------------
# Async RPC server
# ----------------------------------------------------------------------
#: Kinds an RPC-mode connection answers itself, before any handler:
#: ``bye`` closes the connection without a reply.
# lint: allow(schema.unused-op): framing-level close handshake for external clients; our own clients just close the socket
FRAMING_OPS = ("bye",)


#: Per-connection receive buffer of an RPC-mode server connection: a
#: few 64 KiB block frames' worth, because a client pipelines a node's
#: ``put``s of a stripe back to back.  A frame that cannot fit is
#: received into a buffer of its own.
RECV_BUFFER_BYTES = 256 * 1024


class _RpcProtocol(asyncio.BufferedProtocol):
    """One RPC-mode connection: in-place receive + dispatch in callbacks.

    The hot path never leaves the event loop's I/O callback, and the
    bytes never leave the buffer the kernel put them in: the loop
    ``recv_into``s one fixed per-connection buffer (``get_buffer``),
    ``buffer_updated`` unpickles every complete frame from a
    ``memoryview`` of it and a sync handler's reply is written
    straight back — no per-request Task, no stream-reader wakeup, no
    growing bytearray and no payload copy.  An incomplete tail is moved
    to the front only when its frame could not complete where it lies;
    a frame larger than the whole buffer gets an exact-size buffer of
    its own and is received straight into that.  A request only pays
    for a task when it actually goes async (fault-gate park, ``async
    def`` handler); while that task owns the connection, reading is
    paused and any frames already received queue behind it so replies
    keep request order — the same serial-per-connection contract the
    threaded server had.
    """

    def __init__(self, server: "AsyncRpcServer"):
        self.server = server
        self.transport = None
        self.peer = None
        self.last_activity = time.monotonic()
        self._view = memoryview(bytearray(RECV_BUFFER_BYTES))
        self._start = 0              # first unparsed byte
        self._end = 0                # one past the last received byte
        self._large: memoryview | None = None   # an oversized frame's body
        self._large_filled = 0
        self._queue: deque = deque()
        self._draining = False       # an async request owns reply order
        self._gone = False

    # -- asyncio.BufferedProtocol callbacks ----------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.peer = transport.get_extra_info("peername")
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        self.server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self._gone = True
        self.server._connections.discard(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._large is not None:
            return self._large[self._large_filled:]
        return self._view[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        self.last_activity = time.monotonic()
        if self._large is not None:
            self._large_filled += nbytes
            if self._large_filled == len(self._large):
                body, self._large = self._large, None
                self._frame(body)
            return
        self._end += nbytes
        view, start, end = self._view, self._start, self._end
        while True:
            need = _HEADER.size      # bytes the frame at ``start`` spans
            if end - start < need:
                break
            (length,) = _HEADER.unpack_from(view, start)
            try:
                _check_announced(length)
            except ProtocolError:
                self._drop()
                return
            need += length
            if need > len(view):
                # Will never fit: the rest of this frame is received
                # into a buffer of exactly its size.
                have = end - start - _HEADER.size
                self._large = memoryview(bytearray(length))
                self._large[:have] = view[start + _HEADER.size:end]
                self._large_filled = have
                start = end = 0
                break
            if end - start < need:
                break
            self._frame(view[start + _HEADER.size:start + need])
            if self._gone:
                return
            start += need
        if start == end:
            start = end = 0
        elif start + need > len(view):
            # The incomplete frame cannot complete where it lies.
            view[:end - start] = view[start:end]
            start, end = 0, end - start
        self._start, self._end = start, end

    def _frame(self, body: memoryview) -> None:
        """One complete frame body: decode, then dispatch or queue."""
        try:
            message = _decode_payload(body)
        except Exception:
            self._drop()         # unpicklable garbage or a bad shape
            return
        if self._draining:
            self._queue.append(message)
        else:
            self._dispatch(message)

    # -- dispatch ------------------------------------------------------
    def _drop(self) -> None:
        self._gone = True
        if self.transport is not None:
            self.transport.close()

    def _send(self, reply: tuple) -> None:
        if not self._gone and self.transport is not None:
            try:
                self.transport.write(_encode_frame(reply))
            except Exception:
                self._drop()

    def _dispatch(self, message: tuple) -> None:
        kind, data = message
        server = self.server
        if kind in FRAMING_OPS or server._closing:
            self._drop()
            return
        server._busy += 1
        out = self._process(kind, data)
        if isinstance(out, tuple):
            self._send(out)
            server._busy -= 1
            return
        # The request went async: pause reading and park buffered
        # frames behind it so replies keep request order.
        self._draining = True
        if self.transport is not None:
            try:
                self.transport.pause_reading()
            except RuntimeError:
                pass
        task = server.loop.create_task(self._drain(out))
        server._conn_tasks.add(task)
        task.add_done_callback(server._conn_tasks.discard)

    def _process(self, kind: str, data):
        """One request -> a reply tuple (sync fast path) or a coroutine
        producing one (the request touched something async)."""
        server = self.server
        try:
            if server._before_request is not None:
                gate = server._before_request(kind, data)
                if asyncio.iscoroutine(gate):
                    return self._finish(gate, kind, data, None)
            result = server._handler(kind, data, self.peer)
            if asyncio.iscoroutine(result):
                return self._finish(None, kind, data, result)
            return ("ok", result)
        except Exception as error:
            return ("err", server._marshal(error))

    async def _finish(self, gate, kind, data, pending) -> tuple:
        server = self.server
        try:
            if gate is not None:
                await gate
                result = server._handler(kind, data, self.peer)
                if asyncio.iscoroutine(result):
                    result = await result
            else:
                result = await pending
            return ("ok", result)
        except Exception as error:
            return ("err", server._marshal(error))

    async def _drain(self, coro) -> None:
        """Finish an async request, then any frames queued behind it,
        handing the connection back to the inline path once caught up."""
        server = self.server
        while True:
            reply = await coro
            self._send(reply)
            server._busy -= 1
            coro = None
            while self._queue and coro is None:
                kind, data = self._queue.popleft()
                if kind in FRAMING_OPS or server._closing:
                    self._drop()
                    return
                server._busy += 1
                out = self._process(kind, data)
                if isinstance(out, tuple):
                    self._send(out)
                    server._busy -= 1
                else:
                    coro = out
            if coro is None:
                break
        self._draining = False
        if not self._gone and self.transport is not None:
            try:
                self.transport.resume_reading()
            except RuntimeError:
                pass

    # -- watchdog / shutdown surface -----------------------------------
    def abort(self) -> None:
        self._gone = True
        if self.transport is not None:
            self.transport.abort()

    def shut(self) -> None:
        if self.transport is not None:
            self.transport.close()


class AsyncRpcServer:
    """One event loop + listener on a dedicated thread, per daemon.

    Two dispatch modes, exactly one of which must be given:

    * ``handler(kind, data, peer)`` — RPC mode: each connection runs
      ``recv -> before_request -> handler -> reply``; handler
      exceptions are marshalled into ``("err", ...)`` frames via
      ``error_marshaller`` (a request that raises never takes the
      daemon down).  ``before_request`` and ``handler`` may be sync or
      async — coroutines are awaited on the loop.  RPC mode is served
      by a callback :class:`asyncio.BufferedProtocol`, not streams: the
      loop receives into one fixed buffer per connection, frames are
      unpickled in place from it and sync handlers answer inline with
      **zero task switches per request** (this is what keeps the async
      daemons at thread-server throughput); only requests that
      actually go async — a fault gate that must park, an ``async
      def`` handler — pay for a task, and the connection queues
      subsequent frames behind it so replies stay in request order.
    * ``connection_handler(conn)`` — stream mode: the coroutine owns
      the whole connection (the sweep coordinator's stateful
      worker-session protocol lives here).

    The daemon-facing surface is thread-friendly: construction binds
    the port and starts the loop, :meth:`run_coroutine` bridges sync
    callers onto the loop, :meth:`spawn` launches background tasks
    (heartbeats, checker sweeps), and :meth:`close` drains in-flight
    requests before stopping the loop.
    """

    def __init__(self, handler=None, host: str = "127.0.0.1",
                 port: int = 0, *, connection_handler=None,
                 before_request=None, error_marshaller=None,
                 idle_timeout: float = IDLE_TIMEOUT,
                 drain_timeout: float = 5.0, name: str = "rpc"):
        if (handler is None) == (connection_handler is None):
            raise ValueError(
                "exactly one of handler/connection_handler is required")
        self._handler = handler
        self._connection_handler = connection_handler
        self._before_request = before_request
        self._marshal = error_marshaller or self._default_marshal
        self._idle_timeout = idle_timeout
        self._drain_timeout = drain_timeout
        self._name = name
        self._busy = 0
        self._closing = False
        self._closed = False
        self._close_lock = threading.Lock()
        self._connections: set[AsyncConnection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._aux_tasks: set[asyncio.Task] = set()
        self._shutdown_callbacks: list = []
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name=f"{name}-loop", daemon=True)
        self._thread.start()
        self.address: tuple[str, int] = asyncio.run_coroutine_threadsafe(
            self._start(host, port), self.loop).result()

    @staticmethod
    def _default_marshal(error: Exception) -> tuple:
        return ("internal", f"{type(error).__name__}: {error}", {})

    # ------------------------------------------------------------------
    # Loop plumbing
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_forever()
        finally:
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(asyncio.gather(
                    *pending, return_exceptions=True))
            self.loop.run_until_complete(self.loop.shutdown_asyncgens())
            self.loop.close()

    async def _start(self, host: str, port: int) -> tuple[str, int]:
        if self._connection_handler is not None:
            # Stream mode: the handler coroutine owns the connection.
            self._server = await asyncio.start_server(
                self._on_connection, host, port)
        else:
            # RPC mode: callback protocol, no streams on the hot path.
            self._server = await self.loop.create_server(
                lambda: _RpcProtocol(self), host, port)
        watchdog = self.loop.create_task(self._idle_watchdog())
        self._aux_tasks.add(watchdog)
        watchdog.add_done_callback(self._aux_tasks.discard)
        return self._server.sockets[0].getsockname()[:2]

    async def _idle_watchdog(self) -> None:
        """Sweep for idle connections instead of arming a timer per
        receive — ``asyncio.wait_for`` around every ``recv`` costs a
        Task per request, which halved hot-path throughput.  Worst-case
        drop latency is ``idle_timeout * 1.25``."""
        period = max(0.05, min(self._idle_timeout / 4.0, 15.0))
        while not self._closing:
            await asyncio.sleep(period)
            cutoff = time.monotonic() - self._idle_timeout
            for conn in list(self._connections):
                if conn.last_activity < cutoff:
                    conn.abort()

    def run_coroutine(self, coro, timeout: float | None = None):
        """Run ``coro`` on the server loop from a foreign thread."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        try:
            return future.result(timeout)
        except TimeoutError:
            future.cancel()
            raise

    def spawn(self, coro) -> None:
        """Launch a background task on the loop (heartbeats, sweeps)."""
        def _create() -> None:
            task = self.loop.create_task(coro)
            self._aux_tasks.add(task)
            task.add_done_callback(self._aux_tasks.discard)
        self.loop.call_soon_threadsafe(_create)

    def wake(self, event: asyncio.Event) -> None:
        """Set an asyncio event from a foreign thread."""
        self.loop.call_soon_threadsafe(event.set)

    def add_shutdown_callback(self, coro_fn) -> None:
        """``await coro_fn()`` on the loop during :meth:`close` drain."""
        self._shutdown_callbacks.append(coro_fn)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        conn = AsyncConnection(reader, writer)
        self._connections.add(conn)
        try:
            try:
                await self._connection_handler(conn)
            finally:
                self._connections.discard(conn)
                self._conn_tasks.discard(task)
                await conn.close()
        except asyncio.CancelledError:
            # Shutdown cancels connection tasks; swallowing the cancel
            # here keeps the streams-module done-callback from logging
            # it as a crash.
            pass

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def _shutdown(self) -> None:
        self._closing = True
        self._server.close()
        # Drain: in-flight requests finish (stream-mode handlers are
        # expected to exit on their own once told to close); idle
        # connections parked in recv are simply cancelled, like the
        # threaded server dropped them.
        deadline = self.loop.time() + self._drain_timeout
        while self.loop.time() < deadline:
            if self._connection_handler is not None:
                if not self._conn_tasks:
                    break
            elif self._busy == 0:
                break
            await asyncio.sleep(0.02)
        for callback in self._shutdown_callbacks:
            try:
                await callback()
            except Exception:
                pass
        for task in list(self._conn_tasks) + list(self._aux_tasks):
            task.cancel()
        # Remaining connections are idle (the drain above waited out
        # in-flight work): close them gracefully so any reply bytes
        # still in flight get flushed, not RST.
        for conn in list(self._connections):
            conn.shut()

    def close(self) -> None:
        """Drain and stop the loop.  Callable from any foreign thread."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.run_coroutine(self._shutdown(),
                               timeout=self._drain_timeout + 5.0)
        except (TimeoutError, RuntimeError):
            pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "AsyncRpcServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
