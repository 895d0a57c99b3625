"""Direct-call probes of single layers, timed from outside.

Each probe calls one layer's public function in a tight loop from the
harness's own thread and returns the per-call durations; the service
probes talk to the *same live cluster* the workload just loaded, over
their own sockets, so a layer figure and the end-to-end figure it should
add up to come from one process tree in one state.
"""

from __future__ import annotations

import itertools
import pickle
import socket
import time

import numpy as np

from repro.cluster.datanode import DataNode
from repro.cluster.namenode import BlockId
from repro.core import SymbolKind
from repro.gf import linear_combine
from repro.net import AsyncRpcServer, recv_frame, send_frame
from repro.service.datanode import call

from .stats import Sample, summarise

BLOCK = 65536


def timed(fn, repeats: int, warmup: int = 3) -> list[float]:
    """Seconds of each of ``repeats`` calls of ``fn`` (after warm-up)."""
    for _ in range(warmup):
        fn()
    out = []
    clock = time.perf_counter
    for _ in range(repeats):
        start = clock()
        fn()
        out.append(clock() - start)
    return out


def micros(fn, repeats: int) -> Sample:
    return summarise([t * 1e6 for t in timed(fn, repeats)], "us")


def _payload(size: int, salt: int = 0) -> bytes:
    return np.random.default_rng((0xB10C, salt)).integers(
        0, 256, size, dtype=np.uint8).tobytes()


# ----------------------------------------------------------------------
# net: pickle floor, framing over a socketpair, an echo RPC
# ----------------------------------------------------------------------
def net_probes(repeats: int) -> dict[str, Sample]:
    block = _payload(BLOCK)
    small = ("get", {"block": ("load-0000", 0, 0)})
    big = ("ok", {"data": block, "crc": 0x1234ABCD})
    out = {"net.pickle_64k_us": micros(
        lambda: pickle.loads(pickle.dumps(
            big, protocol=pickle.HIGHEST_PROTOCOL)), repeats)}
    left, right = socket.socketpair()
    try:
        for label, message in (("small", small), ("64k", big)):
            def there_and_back(message=message):
                send_frame(left, message)
                send_frame(right, recv_frame(right))
                recv_frame(left)
            out[f"net.frame_rtt_{label}_us"] = micros(there_and_back,
                                                      repeats)
    finally:
        left.close()
        right.close()
    server = AsyncRpcServer(lambda kind, data, peer: data, name="echo")
    try:
        with socket.create_connection(server.address) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for label, data in (("small", small[1]), ("64k", big[1])):
                out[f"net.rpc_echo_{label}_us"] = micros(
                    lambda data=data: call(sock, "echo", data), repeats)
    finally:
        server.close()
    return out


# ----------------------------------------------------------------------
# cluster block store, in process
# ----------------------------------------------------------------------
def blockstore_probes(repeats: int) -> dict[str, Sample]:
    store = DataNode(0)
    data = np.frombuffer(_payload(BLOCK), dtype=np.uint8)
    blocks = [BlockId("probe", 0, index) for index in range(8)]
    for block in blocks:
        store.put(block, data)
    cursor = itertools.count()
    return {
        "blockstore.put_us": micros(
            lambda: store.put(blocks[next(cursor) % 8], data), repeats),
        "blockstore.get_verify_us": micros(
            lambda: store.get(blocks[next(cursor) % 8], verify=True),
            repeats),
    }


# ----------------------------------------------------------------------
# service.datanode and service.namenode, over the wire
# ----------------------------------------------------------------------
def _connect(address) -> socket.socket:
    sock = socket.create_connection(tuple(address), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def datanode_probes(namenode_address, names: list[str], code,
                    repeats: int, seed: int = 0) -> dict[str, Sample]:
    """get / put / combine on the live datanodes, plus one node's
    full-inventory checksums.

    Targets are drawn like the workloads draw theirs — a random data
    block of a random file, on whichever daemon holds it — because a
    daemon that was just scheduled out behind five others answers from
    cold caches: hammering one block on one node reads 3x too fast.
    ``combine`` requests are the partial parities a degraded read of
    that block really asks for, issued one at a time.
    """
    from repro.service.client import StorageClient

    rng = np.random.default_rng((seed, 0xD47A))
    with _connect(namenode_address) as nn:
        infos = [call(nn, "stat", {"name": name}) for name in names]
    addresses = infos[0]["datanodes"]
    socks = {node: _connect(address) for node, address in addresses.items()}
    data_symbols = [s for s in code.layout.symbols
                    if s.kind is SymbolKind.DATA]
    gets, combines = [], []
    for _ in range(repeats):
        info = infos[rng.integers(len(infos))]
        stripe = int(rng.integers(len(info["stripes"])))
        symbol = data_symbols[rng.integers(len(data_symbols))]
        slot_nodes = info["stripes"][stripe]
        gets.append((socks[slot_nodes[symbol.replicas[0]]],
                     {"block": (info["name"], stripe, symbol.index)}))
        plan = code.plan_degraded_read(symbol.index, set(symbol.replicas))
        for transfer in plan.transfers:
            kind, data = StorageClient._transfer_request(
                info["name"], stripe, transfer)
            combines.append((socks[slot_nodes[transfer.source_slot]],
                             kind, data))
    payload = _payload(BLOCK, 1)
    probe_blocks = [("perfbench-probe", 0, index) for index in range(8)]
    nodes = sorted(socks)
    clock = time.perf_counter
    out: dict[str, Sample] = {}
    try:
        took = []
        for sock, data in gets:
            start = clock()
            call(sock, "get", data)
            took.append((clock() - start) * 1e6)
        out["datanode.get_us"] = summarise(took, "us")
        took = []
        for sock, kind, data in combines[:repeats]:
            start = clock()
            call(sock, kind, data)
            took.append((clock() - start) * 1e6)
        out["datanode.combine_us"] = summarise(took, "us")
        took = []
        for index in range(repeats):
            sock = socks[nodes[index % len(nodes)]]
            start = clock()
            call(sock, "put", {"block": probe_blocks[index % 8],
                               "data": payload})
            took.append((clock() - start) * 1e6)
        out["datanode.put_us"] = summarise(took, "us")
        for sock in socks.values():
            call(sock, "delete", {"blocks": probe_blocks})
        out["datanode.checksums_ms"] = summarise(
            [t * 1e3 for t in timed(
                lambda: call(socks[nodes[0]], "checksums", {"blocks": None}),
                max(5, repeats // 40), warmup=1)], "ms")
    finally:
        for sock in socks.values():
            sock.close()
    return out


def namenode_probes(namenode_address, file_name: str,
                    repeats: int) -> dict[str, Sample]:
    cursor = itertools.count()

    def begin_commit(nn):
        name = f"perfbench-probe-{next(cursor)}"
        call(nn, "begin-write", {"name": name, "code_name": "pentagon"})
        call(nn, "commit-write", {"name": name, "code_name": "pentagon",
                                  "size_bytes": 0, "stripes": []})

    with _connect(namenode_address) as nn:
        return {
            "namenode.stat_us": micros(
                lambda: call(nn, "stat", {"name": file_name}), repeats),
            "namenode.status_us": micros(
                lambda: call(nn, "status", {}), repeats),
            "namenode.place_stripe_us": micros(
                lambda: call(nn, "place-stripe",
                             {"code_name": "pentagon", "exclude": []}),
                repeats),
            "namenode.begin_commit_us": micros(
                lambda: begin_commit(nn), max(5, repeats // 4)),
        }


def stored_bytes(cluster_status: dict) -> int:
    """Bytes held by the alive datanodes, by each one's own ``status``
    op (the namenode's heartbeat view lags by up to a beat)."""
    total = 0
    for entry in cluster_status["datanodes"].values():
        if entry["alive"]:
            with _connect(entry["address"]) as dn:
                total += call(dn, "status", {})["used_bytes"]
    return total


# ----------------------------------------------------------------------
# gf kernels
# ----------------------------------------------------------------------
def gf_probes(repeats: int) -> dict[str, Sample]:
    rng = np.random.default_rng(0x6F)
    out: dict[str, Sample] = {}
    for label, size in (("64k", BLOCK), ("1m", 1 << 20)):
        buffers = [rng.integers(0, 256, size, dtype=np.uint8)
                   for _ in range(3)]
        for kind, coefficients in (("xor", (1, 1, 1)), ("mul", (3, 7, 11))):
            times = timed(lambda: linear_combine(coefficients, buffers),
                          repeats if size == BLOCK else max(5, repeats // 8))
            if size == BLOCK:
                out[f"gf.combine_{kind}_64k_us"] = summarise(
                    [t * 1e6 for t in times], "us")
            else:
                out[f"gf.combine_{kind}_1m_mb_per_s"] = summarise(
                    [3 * size / 2**20 / t for t in times], "MiB/s")
    # rooflines: what the memory system gives a 3-in/1-out XOR and a copy
    size = 1 << 20
    a, b, c = (rng.integers(0, 256, size, dtype=np.uint8) for _ in range(3))
    scratch = np.empty(size, dtype=np.uint8)

    def xor3():
        np.bitwise_xor(a, b, out=scratch)
        np.bitwise_xor(scratch, c, out=scratch)

    reps = max(5, repeats // 8)
    out["roofline.xor_mb_per_s"] = summarise(
        [3 * size / 2**20 / t for t in timed(xor3, reps)], "MiB/s")
    out["roofline.memcpy_mb_per_s"] = summarise(
        [size / 2**20 / t for t in timed(
            lambda: np.copyto(scratch, a), reps)], "MiB/s")
    return out
