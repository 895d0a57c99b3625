"""The shared frame protocol (`repro.net`): framing guards, address
parsing and backoff math."""

import pickle
import socket
import threading
import time

import numpy as np
import pytest

from repro.net import (
    MAX_FRAME_BYTES,
    ProtocolError,
    backoff_delay,
    parse_hostport,
    recv_frame,
    send_frame,
)


class TestFrames:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, ("put", {"data": b"\x00" * 4096, "n": 7}))
            send_frame(a, ("ok", None))
            assert recv_frame(b) == ("put", {"data": b"\x00" * 4096,
                                             "n": 7})
            assert recv_frame(b) == ("ok", None)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_is_connection_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x01\x00 way too short")
            a.close()
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_eof_inside_the_header_is_connection_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00")
            a.close()
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_stalled_sender_hits_the_socket_timeout(self):
        a, b = socket.socketpair()
        try:
            frame = pickle.dumps(("put", b"\x07" * 4096))
            a.sendall(len(frame).to_bytes(4, "big") + frame[:100])
            b.settimeout(0.1)
            started = time.monotonic()
            with pytest.raises(socket.timeout):
                recv_frame(b)
            assert time.monotonic() - started < 2.0
        finally:
            a.close()
            b.close()

    def test_frame_arriving_in_dribbles_is_reassembled(self):
        a, b = socket.socketpair()
        message = ("put", {"data": bytes(range(256)) * 64, "n": 7})
        frame = pickle.dumps(message)
        stream = len(frame).to_bytes(4, "big") + frame

        def dribble():
            for offset in range(0, len(stream), 1000):
                a.sendall(stream[offset:offset + 1000])
                time.sleep(0.001)

        sender = threading.Thread(target=dribble)
        sender.start()
        try:
            b.settimeout(5.0)
            assert recv_frame(b) == message
        finally:
            sender.join(timeout=5.0)
            a.close()
            b.close()
        assert not sender.is_alive()

    def test_oversized_announcement_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="cap"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_misshapen_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            payload = pickle.dumps(["not", "a", "pair"])
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(ProtocolError, match="pair"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_send_oversized_frame_rejected(self, monkeypatch):
        import repro.net as net

        monkeypatch.setattr(net, "MAX_FRAME_BYTES", 64)
        a, b = socket.socketpair()
        try:
            with pytest.raises(ProtocolError, match="cap"):
                net.send_frame(a, ("big", b"\x00" * 256))
        finally:
            a.close()
            b.close()


class TestParseHostport:
    def test_good(self):
        assert parse_hostport("10.0.0.2:7571") == ("10.0.0.2", 7571)
        assert parse_hostport("node-3.cluster:0") == ("node-3.cluster", 0)

    @pytest.mark.parametrize("bad", ["7571", ":7571", "host:",
                                     "host:nan", "host:70000"])
    def test_bad(self, bad):
        with pytest.raises(ValueError):
            parse_hostport(bad)


class TestBackoff:
    def test_exponential_growth_and_cap(self):
        delays = [backoff_delay(a, 0.1, 1.0) for a in range(1, 8)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert delays[4:] == [1.0, 1.0, 1.0]

    def test_jitter_bounds_and_determinism(self):
        rng = np.random.default_rng(3)
        jittered = [backoff_delay(2, 0.1, 1.0, jitter=0.5, rng=rng)
                    for _ in range(100)]
        assert all(0.2 <= d <= 0.3 for d in jittered)
        assert len(set(jittered)) > 1
        again = np.random.default_rng(3)
        assert jittered[0] == backoff_delay(2, 0.1, 1.0, jitter=0.5,
                                            rng=again)

    def test_attempts_start_at_one(self):
        with pytest.raises(ValueError):
            backoff_delay(0, 0.1, 1.0)
