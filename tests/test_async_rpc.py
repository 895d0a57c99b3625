"""The shared async RPC core (:mod:`repro.net`): byte-compatibility
with the blocking helpers, graceful drain on shutdown, the
consolidated retry constants, and daemon behaviour under connection
storms and a slow-loris client."""

import asyncio
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import net
from repro.net import (
    AsyncRpcClient,
    AsyncRpcServer,
    ProtocolError,
    RetryPolicy,
    recv_frame,
    send_frame,
)
from repro.service.datanode import DataNodeServer, call
from repro.service.namenode import NameNodeServer
from repro.service.protocol import marshal_error, unmarshal_error

from datanode_thread import serving


def _echo_handler(kind, data, peer):
    if kind == "echo":
        return data
    if kind == "boom":
        raise ValueError("kaboom")
    if kind == "missing":
        raise FileNotFoundError("no such thing")
    raise ProtocolError(f"unknown op {kind!r}")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def echo_server():
    with AsyncRpcServer(_echo_handler, "127.0.0.1", 0,
                        error_marshaller=marshal_error,
                        name="echo") as server:
        yield server


@pytest.fixture
def lone_datanode():
    """One in-process async datanode whose namenode never answers —
    the daemon keeps serving its data path on its reconnect budget."""
    with serving(DataNodeServer(0, ("127.0.0.1", _free_port()),
                                connect_retries=10**6,
                                heartbeat_interval=30.0)) as server:
        yield server


class TestWireCompat:
    """Old blocking clients must interoperate byte-for-byte."""

    def test_sync_socket_round_trip(self, echo_server):
        with socket.create_connection(echo_server.address) as sock:
            payload = {"x": 1, "blob": b"\x00\xff" * 128}
            assert call(sock, "echo", payload) == payload
            # the connection is reusable: several exchanges, one socket
            for index in range(5):
                assert call(sock, "echo", index) == index

    def test_handler_error_is_marshalled_typed(self, echo_server):
        with socket.create_connection(echo_server.address) as sock:
            with pytest.raises(FileNotFoundError):
                call(sock, "missing", None)
            # and the connection survives the error
            assert call(sock, "echo", "still-alive") == "still-alive"

    def test_unknown_op_is_a_typed_error_not_a_hangup(self, echo_server):
        with socket.create_connection(echo_server.address) as sock:
            with pytest.raises(Exception, match="unknown op"):
                call(sock, "nonsense", None)
            assert call(sock, "echo", 1) == 1

    def test_bye_closes_the_connection(self, echo_server):
        with socket.create_connection(echo_server.address) as sock:
            send_frame(sock, ("bye", None))
            sock.settimeout(5.0)
            with pytest.raises(ConnectionError):
                recv_frame(sock)

    def test_garbage_header_drops_connection_not_server(self, echo_server):
        with socket.create_connection(echo_server.address) as sock:
            sock.sendall(b"\xff\xff\xff\xff")     # 4 GiB announcement
            sock.settimeout(5.0)
            with pytest.raises((ConnectionError, OSError)):
                recv_frame(sock)
        with socket.create_connection(echo_server.address) as sock:
            assert call(sock, "echo", "fine") == "fine"


class TestGracefulDrain:
    def test_in_flight_request_finishes_before_shutdown(self):
        started = threading.Event()

        async def slow_handler(kind, data, peer):
            started.set()
            await asyncio.sleep(0.5)
            return "done"

        server = AsyncRpcServer(slow_handler, "127.0.0.1", 0,
                                name="drain")
        with socket.create_connection(server.address) as sock:
            send_frame(sock, ("work", None))
            assert started.wait(5.0)
            server.close()          # drain: the reply still arrives
            sock.settimeout(5.0)
            assert recv_frame(sock) == ("ok", "done")


    @pytest.mark.parametrize("kind", ["datanode", "namenode"])
    def test_a_daemon_answers_shutdown_then_stops(self, kind, monkeypatch):
        """The reply goes out, then the daemon's loop drains and stops —
        on the loop itself: no thread is started to close it."""
        if kind == "datanode":
            daemon = DataNodeServer(0, ("127.0.0.1", _free_port()),
                                    connect_retries=10**6,
                                    heartbeat_interval=30.0)
            loop = threading.Thread(target=daemon.serve, daemon=True)
            loop.start()
            answer = {"node_id": 0}
        else:
            daemon = NameNodeServer(check_period=30.0)
            loop, answer = daemon.server._thread, {}
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread)
                            or start(thread))
        with socket.create_connection(daemon.address) as sock:
            if kind == "datanode":
                call(sock, "put", {"block": ("s", 0, 0), "data": b"x"})
            assert call(sock, "shutdown", None) == answer
            loop.join(timeout=10.0)
            assert not loop.is_alive()          # the loop has ended
            sock.settimeout(5.0)
            with pytest.raises((ConnectionError, OSError)):
                call(sock, "status", None)
        assert started == []


class TestOnLoop:
    """The one bridge from a foreign thread onto a server's loop."""

    def test_the_result_comes_back_to_the_caller(self, echo_server):
        assert echo_server.on_loop(sorted, {3, 1, 2}) == [1, 2, 3]

    def test_fn_runs_on_the_loop_thread(self, echo_server):
        assert (echo_server.on_loop(threading.get_ident)
                == echo_server._thread.ident)

    def test_a_returned_coroutine_is_awaited_on_the_loop(self, echo_server):
        async def doubled(value):
            await asyncio.sleep(0)
            return value * 2, threading.get_ident()
        assert echo_server.on_loop(doubled, 21) == (
            42, echo_server._thread.ident)

    def test_an_exception_reaches_the_caller(self, echo_server):
        with pytest.raises(KeyError, match="gone"):
            echo_server.on_loop({}.pop, "gone")
        assert echo_server.on_loop(len, "still serving") == 13

    def test_a_timeout_raises_and_cancels_the_call(self, echo_server):
        cancelled = threading.Event()

        async def stuck():
            try:
                await asyncio.sleep(60.0)
            except asyncio.CancelledError:
                cancelled.set()
                raise

        with pytest.raises(TimeoutError):
            echo_server.on_loop(stuck, timeout=0.05)
        assert cancelled.wait(5.0)

    def test_join_returns_once_a_handler_has_closed_the_server(self):
        def handler(kind, data, peer):
            server.close()          # on the loop: answered, then drained
            return "bye"

        server = AsyncRpcServer(handler, "127.0.0.1", 0, name="closer")
        with socket.create_connection(server.address) as sock:
            send_frame(sock, ("stop", None))
            assert recv_frame(sock) == ("ok", "bye")
        joiner = threading.Thread(target=server.join, daemon=True)
        joiner.start()
        joiner.join(timeout=10.0)
        assert not joiner.is_alive()
        assert not server._thread.is_alive()


class TestRetryPolicyConsolidation:
    """Satellite: the operational constants live in one place."""

    def test_client_suspect_ttl_derives_from_policy(self):
        from repro.service import client as client_mod
        assert client_mod.SUSPECT_TTL == RetryPolicy.SUSPECT_TTL

    def test_async_client_gives_up_with_attempt_count(self):
        async def go():
            client = AsyncRpcClient(
                ("127.0.0.1", _free_port()),
                retry=RetryPolicy(attempts=2, timeout=0.5,
                                  base_delay=0.01, max_delay=0.02))
            try:
                with pytest.raises(ConnectionError,
                                   match="unreachable after 2"):
                    await client.call("echo", 1)
            finally:
                await client.close()
        asyncio.run(go())

    def test_typed_remote_errors_are_not_retried(self):
        calls = []

        def handler(kind, data, peer):
            calls.append(kind)
            raise FileNotFoundError("gone")

        with AsyncRpcServer(handler, "127.0.0.1", 0,
                            error_marshaller=marshal_error) as server:
            async def go():
                client = AsyncRpcClient(
                    server.address,
                    retry=RetryPolicy(attempts=3, timeout=2.0),
                    error_unmarshaller=unmarshal_error)
                try:
                    with pytest.raises(FileNotFoundError):
                        await client.call("stat", None)
                finally:
                    await client.close()
            asyncio.run(go())
        assert calls == ["stat"]      # one attempt, no transport retry


class TestConnectionStorm:
    """Satellite: N concurrent blocking clients against one async
    datanode — every read bit-verified, no dropped frames."""

    CLIENTS = 12
    READS = 15

    def test_storm_of_bit_verified_reads(self, lone_datanode):
        address = lone_datanode.address
        blocks = []
        with socket.create_connection(address) as sock:
            for index in range(8):
                entry = ("storm", 0, index)
                payload = bytes([index]) * 512
                call(sock, "put", {"block": entry, "data": payload})
                blocks.append((entry, payload))
        failures = []

        def reader(seed: int) -> None:
            try:
                with socket.create_connection(address) as sock:
                    for turn in range(self.READS):
                        entry, expected = blocks[(seed + turn)
                                                 % len(blocks)]
                        reply = call(sock, "get", {"block": entry})
                        if reply["data"] != expected:
                            failures.append((seed, turn, "mismatch"))
            except Exception as exc:
                failures.append((seed, "error", repr(exc)))

        threads = [threading.Thread(target=reader, args=(index,))
                   for index in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_slow_loris_does_not_stall_other_clients(self, lone_datanode):
        address = lone_datanode.address
        with socket.create_connection(address) as sock:
            entry = ("loris", 0, 0)
            payload = b"\xab" * 256
            call(sock, "put", {"block": entry, "data": payload})
        # A client that announces a frame and then goes quiet holds
        # only its own connection hostage.
        loris = socket.create_connection(address)
        try:
            loris.sendall(b"\x00\x00\x01\x00" + b"\x01" * 10)  # 256 promised
            start = time.monotonic()
            with socket.create_connection(address) as sock:
                for _ in range(20):
                    reply = call(sock, "get", {"block": entry})
                    assert reply["data"] == payload
            assert time.monotonic() - start < 5.0
        finally:
            loris.close()


# ----------------------------------------------------------------------
# The in-place receive path: framing equivalence
# ----------------------------------------------------------------------
def _frame(message) -> bytes:
    return net._encode_frame(message)


def _replies(raw: bytes) -> list:
    """Split a byte string of reply frames back into messages."""
    out, offset = [], 0
    while offset < len(raw):
        (length,) = net._HEADER.unpack_from(raw, offset)
        offset += net._HEADER.size
        out.append(net._decode_payload(raw[offset:offset + length]))
        offset += length
    return out


class _RecordingTransport:
    """What the event loop hands a protocol, minus the socket."""

    def __init__(self):
        self.written = bytearray()
        self.closed = False

    def get_extra_info(self, name):
        return None

    def write(self, data) -> None:
        self.written += data

    def close(self) -> None:
        self.closed = True

    abort = close

    def pause_reading(self) -> None:
        pass

    resume_reading = pause_reading


def _feed(server, chunks) -> tuple[list, bool]:
    """Deliver ``chunks`` to a fresh connection of ``server`` the way
    the selector loop does — ``get_buffer`` / copy / ``buffer_updated``,
    one call per chunk (or per buffer-full of one) — and return the
    replies it wrote and whether it dropped the connection."""
    async def deliver():
        protocol = net._RpcProtocol(server)
        transport = _RecordingTransport()
        protocol.connection_made(transport)
        try:
            for chunk in chunks:
                offset = 0
                while offset < len(chunk) and not transport.closed:
                    buffer = protocol.get_buffer(-1)
                    assert len(buffer) > 0
                    count = min(len(buffer), len(chunk) - offset)
                    buffer[:count] = chunk[offset:offset + count]
                    protocol.buffer_updated(count)
                    offset += count
            deadline = time.monotonic() + 5.0
            while protocol._draining and time.monotonic() < deadline:
                await asyncio.sleep(0.001)
            assert not protocol._draining
        finally:
            protocol.connection_lost(None)
        return _replies(bytes(transport.written)), transport.closed
    return server.run_coroutine(deliver(), timeout=30.0)


def _chunked(stream: bytes, cuts) -> list[bytes]:
    edges = [0, *sorted(cuts), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if b > a]


#: Payload shapes that matter to the receive path, against the
#: 256-byte receive buffer of ``small_buffer_server``: a near-empty
#: frame, one of ~100 bytes, one whose frame fills the buffer to the
#: byte, one that cannot fit, then many small ones back to back.
def _mixed_messages(buffer_bytes: int) -> list[tuple]:
    exact = next(message for message in
                 (("echo", b"\x02" * size) for size in range(buffer_bytes))
                 if len(_frame(message)) == buffer_bytes)
    return [
        ("echo", None),
        ("echo", b"\x01" * 100),
        exact,
        ("echo", b"\x03" * (buffer_bytes + 37)),
        *[("echo", index) for index in range(12)],
        ("missing", None),
        ("echo", "last"),
    ]


@pytest.fixture
def small_buffer_server(monkeypatch):
    """An echo server whose connections receive into 256 bytes, so a
    stream of a few hundred bytes crosses every buffer boundary."""
    monkeypatch.setattr(net, "RECV_BUFFER_BYTES", 256)
    with AsyncRpcServer(_echo_handler, "127.0.0.1", 0,
                        error_marshaller=marshal_error,
                        name="small") as server:
        yield server


class TestInPlaceReceive:
    """Frames are parsed where the kernel put them; however the bytes
    are cut up on the way in, the replies are those of one frame per
    send, in the same order."""

    def test_exactly_full_and_oversized_frames_are_in_the_mix(self):
        messages = _mixed_messages(256)
        sizes = [len(_frame(message)) for message in messages]
        assert 256 in sizes and max(sizes) > 256 and min(sizes) < 32

    def test_every_split_point(self, small_buffer_server):
        messages = _mixed_messages(256)
        stream = b"".join(map(_frame, messages))
        expected, dropped = _feed(small_buffer_server,
                                  [_frame(m) for m in messages])
        assert not dropped and len(expected) == len(messages)
        assert expected[0] == ("ok", None)
        assert expected[-2][0] == "err"
        for cut in range(1, len(stream)):
            assert _feed(small_buffer_server,
                         [stream[:cut], stream[cut:]]) == (expected, False)

    # One echo server serves every drawn example: it keeps no state
    # between connections.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_drawn_chunkings(self, small_buffer_server, data):
        messages = _mixed_messages(256)
        stream = b"".join(map(_frame, messages))
        cuts = data.draw(st.sets(st.integers(1, len(stream) - 1),
                                 max_size=40))
        expected, _ = _feed(small_buffer_server, [stream])
        assert len(expected) == len(messages)
        assert _feed(small_buffer_server,
                     _chunked(stream, cuts)) == (expected, False)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cuts=st.sets(st.integers(1, 700_000), max_size=12))
    def test_block_sized_frames_over_a_socket(self, echo_server, cuts):
        """The real buffer and real sockets: a 64 KiB block frame, one
        larger than the whole receive buffer, small ones around them."""
        messages = [("echo", 0), ("echo", b"\x5a" * 65536),
                    ("echo", b"\xa5" * (net.RECV_BUFFER_BYTES + 4096)),
                    ("echo", b"\x11" * 100), ("echo", 4), ("echo", 5)]
        stream = b"".join(map(_frame, messages))
        with socket.create_connection(echo_server.address) as sock:
            sock.settimeout(10.0)
            for chunk in _chunked(stream,
                                  {cut for cut in cuts if cut < len(stream)}):
                sock.sendall(chunk)
                time.sleep(0.0005)
            for _, payload in messages:
                assert recv_frame(sock) == ("ok", payload)

    def test_pipelined_burst_behind_async_handler_keeps_order(self):
        async def handler(kind, data, peer):
            if kind == "slow":
                await asyncio.sleep(0.05)
            return data

        def mixed(kind, data, peer):
            return handler(kind, data, peer) if kind == "slow" else data

        with AsyncRpcServer(mixed, "127.0.0.1", 0, name="order") as server:
            kinds = ["echo", "slow", "echo", "echo", "slow", "echo"]
            with socket.create_connection(server.address) as sock:
                sock.settimeout(10.0)
                sock.sendall(b"".join(_frame((kind, index))
                                      for index, kind in enumerate(kinds)))
                assert [recv_frame(sock) for _ in kinds] == [
                    ("ok", index) for index in range(len(kinds))]

    def test_pipelined_burst_behind_parked_gate_keeps_order(self):
        release = threading.Event()

        async def park():
            while not release.is_set():
                await asyncio.sleep(0.005)

        def gate(kind, data):
            return park() if kind == "gated" else None

        with AsyncRpcServer(_echo_handler, "127.0.0.1", 0,
                            before_request=gate,
                            error_marshaller=marshal_error,
                            name="gate") as server:
            burst = [("echo", 0), ("gated", 1), ("echo", 2), ("echo", 3)]
            with socket.create_connection(server.address) as sock:
                sock.sendall(b"".join(map(_frame, burst)))
                sock.settimeout(5.0)
                assert recv_frame(sock) == ("ok", 0)
                sock.settimeout(0.2)
                with pytest.raises(OSError):    # parked: nothing overtakes
                    recv_frame(sock)
                release.set()
                sock.settimeout(5.0)
                assert recv_frame(sock)[0] == "err"     # unknown op "gated"
                assert recv_frame(sock) == ("ok", 2)
                assert recv_frame(sock) == ("ok", 3)

    @pytest.mark.parametrize("poison", [
        (net.MAX_FRAME_BYTES + 1).to_bytes(4, "big"),
        (12).to_bytes(4, "big") + b"not a pickle",
        _frame(["not", "a", "pair"]),
        _frame(("bye", None)),
    ], ids=["over-cap", "garbage", "misshapen", "bye"])
    def test_poison_drops_the_connection_without_a_reply(self, echo_server,
                                                         poison):
        with socket.create_connection(echo_server.address) as sock:
            sock.settimeout(5.0)
            sock.sendall(_frame(("echo", "before")) + poison
                         + _frame(("echo", "after")))
            assert recv_frame(sock) == ("ok", "before")
            with pytest.raises((ConnectionError, OSError)):
                recv_frame(sock)
        with socket.create_connection(echo_server.address) as sock:
            assert call(sock, "echo", "fine") == "fine"
