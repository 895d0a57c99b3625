"""The always-on wire contract: ``protocol.dispatch`` holds every
request and reply to the declared op table, and both live daemons
answer any malformed request — for every op they declare — with a typed
``bad-request``, never an opaque ``internal`` error."""

from __future__ import annotations

import ast
import inspect
import socket

import pytest

from repro.net import ProtocolError
from repro.service import protocol
from repro.service.datanode import DataNodeServer, call
from repro.service.namenode import NameNodeServer
from repro.service.protocol import (DATANODE_OPS, NAMENODE_OPS,
                                    ServiceError, dispatch)

OPS = {
    "stat": (("name",), ("verbose",), ("size",)),
    "list": ((), (), None),
}


class FakeServer:
    reply = {"size": 7}

    def _op_stat(self, data, peer):
        return self.reply

    def _op_list(self, data, peer):
        return ["a", "b"]


class TestDispatch:
    def test_valid_request_reaches_the_handler(self):
        assert dispatch(FakeServer(), OPS, "stat",
                        {"name": "f", "verbose": True}, None) == {"size": 7}

    def test_missing_required_key(self):
        with pytest.raises(ProtocolError, match="missing required.*name"):
            dispatch(FakeServer(), OPS, "stat", {"verbose": True}, None)

    def test_undeclared_key(self):
        with pytest.raises(ProtocolError, match="undeclared key 'nmae'"):
            dispatch(FakeServer(), OPS, "stat", {"name": "f", "nmae": 1},
                     None)

    def test_none_payload_where_keys_are_required(self):
        with pytest.raises(ProtocolError, match="missing required.*name"):
            dispatch(FakeServer(), OPS, "stat", None, None)

    def test_non_dict_payload(self):
        with pytest.raises(ProtocolError, match="needs a dict payload"):
            dispatch(FakeServer(), OPS, "list", ["f"], None)

    def test_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown request"):
            dispatch(FakeServer(), OPS, "frobnicate", {"x": 1}, None)

    def test_reply_missing_declared_key(self):
        server = FakeServer()
        server.reply = {}
        with pytest.raises(ServiceError, match="lacks declared key 'size'"):
            dispatch(server, OPS, "stat", {"name": "f"}, None)

    def test_non_dict_reply_where_none_is_declared(self):
        assert dispatch(FakeServer(), OPS, "list", None, None) == ["a", "b"]

    def test_handler_is_looked_up_per_request(self, monkeypatch):
        """The benchmark's span recorder patches ``_op_*`` on the class
        after the server is built; dispatch must see the patch."""
        server = FakeServer()
        monkeypatch.setattr(FakeServer, "_op_stat",
                            lambda self, data, peer: {"size": -1})
        assert dispatch(server, OPS, "stat", {"name": "f"}, None) \
            == {"size": -1}

    def test_tables_are_pure_literals(self):
        tree = ast.parse(inspect.getsource(protocol))
        tables = {node.targets[0].id: ast.literal_eval(node.value)
                  for node in tree.body if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", "").endswith("_OPS")}
        assert tables == {"NAMENODE_OPS": NAMENODE_OPS,
                          "DATANODE_OPS": DATANODE_OPS}


@pytest.fixture(scope="module")
def daemons():
    namenode = NameNodeServer(check_period=30.0)
    datanode = DataNodeServer(0, namenode.address)
    socks = {"namenode": socket.create_connection(namenode.address),
             "datanode": socket.create_connection(datanode.address)}
    yield socks
    for sock in socks.values():
        sock.close()
    datanode.close()
    namenode.close()


def bad_request(sock, kind, data):
    with pytest.raises(ProtocolError) as caught:
        call(sock, kind, data)
    assert caught.value.code == "bad-request", caught.value
    return str(caught.value)


@pytest.mark.parametrize("service,kind", [
    (service, kind)
    for service, ops in (("namenode", NAMENODE_OPS),
                         ("datanode", DATANODE_OPS))
    for kind in ops])
def test_malformed_request_is_a_typed_bad_request(daemons, service, kind):
    sock = daemons[service]
    ops = NAMENODE_OPS if service == "namenode" else DATANODE_OPS
    required = ops[kind][0]
    full = dict.fromkeys(required)
    for dropped in required:
        partial = {key: None for key in required if key != dropped}
        assert dropped in bad_request(sock, kind, partial)
    assert "no-such-key" in bad_request(
        sock, kind, {**full, "no-such-key": 1})
    for payload in (["f"], "f", 7):
        bad_request(sock, kind, payload)
    if required:
        bad_request(sock, kind, None)
    elif kind != "shutdown":        # None stays legal: nothing required
        call(sock, kind, None)
    if "-" in kind:                 # the method-name spelling is no alias
        assert "unknown request" in bad_request(
            sock, kind.replace("-", "_"), full)


BLOCK, OTHER = ("f", 0, 0), ("f", 0, 1)


@pytest.fixture(scope="module")
def stored_blocks(daemons):
    sock = daemons["datanode"]
    for block in (BLOCK, OTHER):
        call(sock, "put", {"block": block, "data": bytes(range(64))})
    return sock


@pytest.mark.parametrize("kind,data", [
    # a coefficient is an int: nothing is truncated or parsed into one
    ("combine", {"parts": [(BLOCK, 1.9), (OTHER, 1)]}),
    ("combine", {"parts": [(BLOCK, "1"), (OTHER, True)]}),
    ("combine", {"parts": [(BLOCK, 1), (OTHER, 1.2)]}),
    # a block id is (str, int, int): ("f", 0.9, 0) is not block ("f", 0, 0)
    ("get", {"block": ("f", 0.9, 0)}),
    ("get", {"block": ("f", "0", 0)}),
    ("get", {"block": ("f", 0, 0.5)}),
    ("get", {"block": ("f", True, 0)}),
    ("get", {"block": (b"f", 0, 0)}),
    ("get", {"block": ("f", 0)}),
    ("get", {"block": "f00"}),
    ("put", {"block": ("f", 0.9, 0), "data": b"x"}),
    ("delete", {"blocks": [("f", 0.0, 0)]}),
    ("checksums", {"blocks": [BLOCK, ("f", "0", 0)]}),
    # a part is a (block, coefficient) pair
    ("combine", {"parts": [("f", 1)]}),
    ("combine", {"parts": "xx"}),
    ("combine", {"parts": [(BLOCK,)]}),
    ("combine", {"parts": [(BLOCK, 1, 1)]}),
    ("combine", {"parts": 7}),
    ("combine", {"parts": []}),
    # block data is bytes-like
    ("put", {"block": BLOCK, "data": "a str"}),
    ("put", {"block": BLOCK, "data": None}),
    ("put", {"block": BLOCK, "data": 7}),
])
def test_datanode_refuses_what_it_used_to_coerce(stored_blocks, kind, data):
    bad_request(stored_blocks, kind, data)
    # ... and nothing was stored, dropped or served on the way
    assert call(stored_blocks, "get", {"block": BLOCK})["data"] \
        == bytes(range(64))


@pytest.mark.parametrize("coefficients", [(256, 1), (1, -1)])
def test_an_out_of_range_coefficient_is_still_a_value_error(
        stored_blocks, coefficients):
    parts = list(zip((BLOCK, OTHER), coefficients))
    with pytest.raises(ValueError) as caught:
        call(stored_blocks, "combine", {"parts": parts})
    assert caught.value.code == "value"


def test_well_formed_requests_are_untouched(stored_blocks):
    assert not any(call(stored_blocks, "combine",
                        {"parts": [(BLOCK, 1), (OTHER, 1)]})["data"])
    assert call(stored_blocks, "combine",
                {"parts": [[list(BLOCK), 3]]})["data"] \
        == call(stored_blocks, "combine", {"parts": [(BLOCK, 3)]})["data"]
    assert call(stored_blocks, "put",
                {"block": BLOCK, "data": bytearray(range(64))}) \
        == call(stored_blocks, "put",
                {"block": BLOCK, "data": bytes(range(64))})


@pytest.fixture
def namenode_with_a_file():
    """A namenode holding one committed one-stripe pentagon file ``f``
    on (fake, never dialled) datanodes 0-4; the checker only runs when
    kicked."""
    with NameNodeServer(check_period=30.0) as namenode:
        with socket.create_connection(namenode.address) as sock:
            for node_id in range(5):
                call(sock, "dn-register",
                     {"node_id": node_id, "address": ("127.0.0.1", 1),
                      "version": protocol.SERVICE_VERSION})
            call(sock, "begin-write", {"name": "f", "code_name": "pentagon"})
            call(sock, "commit-write",
                 {"name": "f", "code_name": "pentagon", "size_bytes": 9,
                  "stripes": [{"slot_nodes": (0, 1, 2, 3, 4),
                               "checksums": {str(s): 0 for s in range(10)}}]})
            yield namenode, sock


def repair_backlog(namenode):
    repair = namenode._op_status({}, None)["repair"]
    return repair["queued"], repair["damaged_stripes"]


@pytest.mark.parametrize("block", [("f", -1, 0), ("f", 1, 0), ("f", 7, 0),
                                   ("f", 0, -1), ("f", 0, 10)])
def test_report_corrupt_outside_the_file_is_a_bad_request(
        namenode_with_a_file, block):
    namenode, sock = namenode_with_a_file
    bad_request(sock, "report-corrupt", {"block": block, "node_id": 0})
    assert repair_backlog(namenode) == (0, 0)


@pytest.mark.parametrize("block", [("f", 0.9, 0), ("f", "0", 0), ("f", 0)])
def test_report_corrupt_of_a_malformed_block_id(namenode_with_a_file, block):
    namenode, sock = namenode_with_a_file
    bad_request(sock, "report-corrupt", {"block": block, "node_id": 0})
    assert repair_backlog(namenode) == (0, 0)


def test_report_corrupt_unknown_file_and_stale_node(namenode_with_a_file):
    namenode, sock = namenode_with_a_file
    with pytest.raises(FileNotFoundError):
        call(sock, "report-corrupt", {"block": ("g", 0, 0), "node_id": 0})
    # a node that no longer holds a slot of the stripe (the client's
    # metadata predates a re-home): accepted, nothing queued
    assert call(sock, "report-corrupt",
                {"block": ("f", 0, 0), "node_id": 9}) == {}
    assert repair_backlog(namenode) == (0, 0)
