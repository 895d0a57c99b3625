"""The datanode's block store and what it puts on the wire.

A block is held as one ``bytes`` object: the very one a ``put`` brought
when it brought ``bytes`` (on a daemon, the frame decoder's), else a
single copy of the buffer.  ``get`` and ``combine`` replies carry
``bytes``; the daemon's ``combine`` — one native pass on the native
backend, all-ones vectors included — is bit-identical to
:func:`repro.gf.linear_combine` on every backend this host runs; and a
flipped byte goes into a copy that a verified read catches, leaving the
bytes already served alone.
"""

import socket
import zlib

import numpy as np
import pytest

from repro.cluster import BlockId, CorruptBlockError, DataNode
from repro.gf import kernels, linear_combine, native
from repro.service.datanode import DataNodeServer, call
from repro.service.namenode import NameNodeServer

from datanode_thread import serving

BACKENDS = ["native", "numpy"] if native.load() is not None else ["numpy"]

BLOCK = BlockId("f", 0, 0)
PAYLOAD = np.random.default_rng(3).integers(
    0, 256, 4099, dtype=np.uint8).tobytes()


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    kernels.set_backend(None)


class TestStore:
    def test_bytes_are_kept_not_copied(self):
        store = DataNode(0)
        assert store.put(BLOCK, PAYLOAD) == zlib.crc32(PAYLOAD)
        assert store.get(BLOCK) is PAYLOAD

    @pytest.mark.parametrize("kind", ["bytearray", "memoryview", "ndarray",
                                      "strided ndarray"])
    def test_any_other_buffer_is_copied_once(self, kind):
        backing = np.frombuffer(PAYLOAD * 2, dtype=np.uint8).copy()
        source = {"bytearray": lambda: bytearray(PAYLOAD),
                  "memoryview": lambda: memoryview(bytearray(PAYLOAD)),
                  "ndarray": lambda: backing[:len(PAYLOAD)],
                  "strided ndarray": lambda: backing[::2]}[kind]()
        expected = bytes(source)
        store = DataNode(0)
        assert store.put(BLOCK, source) == zlib.crc32(expected)
        stored = store.get(BLOCK)
        assert type(stored) is bytes and stored == expected
        writable = (source if isinstance(source, np.ndarray)
                    else np.frombuffer(source, dtype=np.uint8))
        writable[:] = 0                     # the store holds its own copy
        assert store.get(BLOCK) == expected

    def test_corrupt_swaps_in_a_flipped_copy(self):
        store = DataNode(4)
        stamp = store.put(BLOCK, PAYLOAD)
        handed_out = store.get(BLOCK)
        store.corrupt(BLOCK, offset=70)
        assert handed_out == PAYLOAD        # bytes already served stay put
        with pytest.raises(CorruptBlockError) as caught:
            store.get(BLOCK)
        assert (caught.value.node_id, caught.value.block) == (4, BLOCK)
        assert store.checksum(BLOCK) == stamp != store.current_checksum(BLOCK)
        rotten = store.get(BLOCK, verify=False)
        assert rotten[70] == PAYLOAD[70] ^ 0xFF
        assert rotten[:70] == PAYLOAD[:70] and rotten[71:] == PAYLOAD[71:]


@pytest.fixture(scope="module")
def datanode():
    with NameNodeServer(check_period=30.0) as namenode, \
            serving(DataNodeServer(0, namenode.address)) as server:
        yield server


@pytest.fixture
def sock(datanode):
    with socket.create_connection(datanode.address) as connection:
        yield connection


def stored(datanode, count, length, seed):
    """``count`` random blocks of ``length`` bytes put on ``datanode``."""
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(0, 256, length, dtype=np.uint8).tobytes()
              for _ in range(count)]
    for symbol, data in enumerate(blocks):
        datanode.server.on_loop(
            datanode._op_put,
            {"block": (f"c{seed}", length, symbol), "data": data}, None)
    return blocks


class TestWire:
    def test_get_and_combine_reply_bytes(self, datanode, sock):
        call(sock, "put", {"block": ("w", 0, 0), "data": PAYLOAD})
        call(sock, "put", {"block": ("w", 0, 1), "data": PAYLOAD[::-1]})
        reply = call(sock, "get", {"block": ("w", 0, 0)})
        assert type(reply["data"]) is bytes and reply["data"] == PAYLOAD
        assert reply["crc"] == zlib.crc32(PAYLOAD)
        for coefficient in (1, 9):
            parts = [(("w", 0, 0), 1), (("w", 0, 1), coefficient)]
            data = call(sock, "combine", {"parts": parts})["data"]
            assert type(data) is bytes and len(data) == len(PAYLOAD)
        assert type(datanode.server.on_loop(
            datanode.store.get, BlockId("w", 0, 1))) is bytes

    def test_combine_of_unequal_blocks_is_a_value_error(self, sock):
        call(sock, "put", {"block": ("w", 2, 0), "data": b"x" * 8})
        call(sock, "put", {"block": ("w", 2, 1), "data": b"y" * 9})
        for coefficient in (1, 5):
            with pytest.raises(ValueError) as caught:
                call(sock, "combine", {"parts": [(("w", 2, 0), 1),
                                                 (("w", 2, 1), coefficient)]})
            assert caught.value.code == "value"


class TestDaemonCombine:
    """The daemon's ``combine`` against :func:`linear_combine`."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("length", [1, 31, 4099, 65536])
    def test_bit_identical_to_linear_combine(self, datanode, backend,
                                             length):
        kernels.set_backend(backend)
        blocks = stored(datanode, 4, length, seed=length)
        rng = np.random.default_rng(length + 1)
        vectors = [[int(c) for c in rng.integers(0, 256, 4)],   # random
                   [1, 1, 1, 1], [1, 1],                        # all-ones
                   [1], [0], [173],                             # one part
                   [0, 1, 0, 200]]
        for vector in vectors:
            parts = [((f"c{length}", length, symbol), coefficient)
                     for symbol, coefficient in enumerate(vector)]
            got = datanode.server.on_loop(
                datanode._op_combine, {"parts": parts}, None)["data"]
            want = linear_combine(vector, blocks[:len(vector)]).tobytes()
            assert type(got) is bytes and got == want, (backend, vector)
