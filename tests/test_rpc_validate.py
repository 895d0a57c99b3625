"""The always-on wire contract: ``protocol.dispatch`` holds every
request, reply and error reply to the declared op table; both live
daemons answer any malformed request — for every op and every key they
declare — with a typed ``bad-request``, never an opaque ``internal``
or ``service`` error; and every error code an op declares is provoked
over the wire."""

from __future__ import annotations

import ast
import inspect
import itertools
import socket

import pytest

from repro.net import ProtocolError
from repro.service import protocol
from repro.service.datanode import DataNodeServer, call
from repro.service.namenode import NameNodeServer
from repro.service.protocol import (DATANODE_OPS, NAMENODE_OPS,
                                    ServiceError, dispatch)

SERVICES = {"namenode": NAMENODE_OPS, "datanode": DATANODE_OPS}

OPS = {
    "stat": (("name",), ("verbose",), ("size",), ("not-found",)),
    "list": ((), (), None, ()),
}


class FakeServer:
    reply = {"size": 7}
    error: Exception | None = None

    def _op_stat(self, data, peer):
        if self.error is not None:
            raise self.error
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

    def test_declared_error_passes_through_unchanged(self):
        server = FakeServer()
        server.error = FileNotFoundError("f")
        with pytest.raises(FileNotFoundError) as caught:
            dispatch(server, OPS, "stat", {"name": "f"}, None)
        assert caught.value is server.error

    @pytest.mark.parametrize("error", [ProtocolError("bad key"),
                                       ServiceError("broken")])
    def test_implicit_codes_pass_through_unchanged(self, error):
        server = FakeServer()
        server.error = error
        with pytest.raises(type(error)) as caught:
            dispatch(server, OPS, "stat", {"name": "f"}, None)
        assert caught.value is error

    @pytest.mark.parametrize("error,code", [
        (FileExistsError("f"), "exists"),           # typed, undeclared
        (protocol.WriteRefusedError("no"), "write-refused"),
        (KeyError("name"), "internal"),             # untyped
    ])
    def test_undeclared_error_leaves_as_service(self, error, code):
        server = FakeServer()
        server.error = error
        with pytest.raises(ServiceError) as caught:
            dispatch(server, OPS, "stat", {"name": "f"}, None)
        assert type(caught.value) is ServiceError
        assert protocol.marshal_error(caught.value)[0] == "service"
        message = str(caught.value)
        assert "'stat'" in message and repr(code) in message
        assert type(error).__name__ in message
        assert caught.value.__cause__ is error


def test_every_declared_code_is_a_wire_code_and_every_wire_code_declared():
    declared = {code for ops in SERVICES.values()
                for *_, errors in ops.values() for code in errors}
    implicit = {"bad-request", "service"}
    assert not declared & implicit
    assert declared | implicit == set(protocol._ERROR_CODES)


@pytest.fixture(scope="module")
def servers():
    namenode = NameNodeServer(check_period=3600.0)
    datanode = DataNodeServer(0, namenode.address)
    yield {"namenode": namenode, "datanode": datanode}
    datanode.close()
    namenode.close()


@pytest.fixture(scope="module")
def daemons(servers):
    socks = {service: socket.create_connection(server.address)
             for service, server in servers.items()}
    yield socks
    for sock in socks.values():
        sock.close()


def bad_request(sock, kind, data):
    with pytest.raises(ProtocolError) as caught:
        call(sock, kind, data)
    assert caught.value.code == "bad-request", caught.value
    return str(caught.value)


def outcome(sock, kind, data) -> str:
    """``ok``, or the wire code of the typed error the daemon answered."""
    try:
        call(sock, kind, data)
    except Exception as error:
        if not hasattr(error, "code"):
            raise                   # a transport failure, not a reply
        return error.code
    return "ok"


@pytest.mark.parametrize("service,kind", [
    (service, kind) for service, ops in SERVICES.items() for kind in ops])
def test_malformed_request_is_a_typed_bad_request(daemons, service, kind):
    sock = daemons[service]
    required = SERVICES[service][kind][0]
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
    ("put", {"block": BLOCK, "data": 3.5}),
    ("put", {"block": BLOCK, "data": [1, 2]}),
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
            register(sock, range(5))
            call(sock, "begin-write", {"name": "f", "code_name": "pentagon"})
            call(sock, "commit-write", commit_request("f", range(5)))
            yield namenode, sock


def register(sock, node_ids, address=("127.0.0.1", 1)) -> None:
    """Register datanodes by hand (fake ones: nothing dials them)."""
    for node_id in node_ids:
        call(sock, "dn-register",
             {"node_id": node_id, "address": address,
              "version": protocol.SERVICE_VERSION})


def commit_request(name: str, nodes) -> dict:
    """The ``commit-write`` of a one-stripe pentagon file on ``nodes``."""
    return {"name": name, "code_name": "pentagon", "size_bytes": 9,
            "stripes": [{"slot_nodes": tuple(nodes),
                         "checksums": {str(s): 0 for s in range(10)}}]}


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


# ----------------------------------------------------------------------
# Type-confused values, every declared key of every op
# ----------------------------------------------------------------------
FUZZ_VALUES = [None, 7, -1, 1.5, True, "x", b"xx", [], {}, ["a", 1]]


class Live:
    """Sockets to the shared datanode, to a namenode of its own holding
    fake (never dialled) datanodes 1-5 and one committed pentagon file
    ``f`` on them, and to a rack-mapped namenode whose one mapped node
    cannot hold a stripe; blocks and names made to order."""

    def __init__(self, datanode, socks):
        self.datanode = datanode
        self.socks = socks
        self._serial = itertools.count()

    def fresh(self, prefix: str) -> str:
        return f"{prefix}-{next(self._serial)}"

    def stored(self) -> tuple:
        """A block the datanode holds, its wire id."""
        block = (self.fresh("stored"), 0, 0)
        call(self.socks["datanode"], "put", {"block": block, "data": b"ok"})
        return block

    def rotten(self) -> tuple:
        """A block the datanode holds whose bytes fail their CRC."""
        block = self.stored()
        with self.datanode._store_lock:
            self.datanode.store.corrupt(protocol.block_from_tuple(block))
        return block

    def well_formed(self, kind: str) -> dict:
        """A request ``kind`` answers ``ok``, after any setup it needs."""
        name = self.fresh("fuzz")
        if kind == "commit-write":
            call(self.socks["namenode"], "begin-write",
                 {"name": name, "code_name": "pentagon"})
        block = self.stored() if kind in (
            "get", "combine", "checksums", "delete") else None
        return {
            "dn-register": {"node_id": 6, "address": ("127.0.0.1", 1),
                            "version": protocol.SERVICE_VERSION},
            "dn-heartbeat": {"node_id": 1, "blocks": 1},
            "stat": {"name": "f"},
            "begin-write": {"name": name, "code_name": "pentagon"},
            "place-stripe": {"code_name": "pentagon", "exclude": []},
            "commit-write": commit_request(name, range(1, 6)),
            "abort-write": {"name": name},
            "report-corrupt": {"block": ("f", 0, 0), "node_id": 0},
            "put": {"block": (name, 0, 0), "data": b"ok"},
            "get": {"block": block},
            "combine": {"parts": [(block, 1)]},
            "checksums": {"blocks": [block]},
            "delete": {"blocks": [block]},
            "fault": {"faults": []},
        }[kind]


@pytest.fixture(scope="module")
def live(servers, daemons):
    # Not the datanode's own namenode: a sweep there (``report-corrupt``
    # kicks one) would collect every test block as an orphan.  The fake
    # datanodes never beat, so silence must not kill them mid-module.
    quiet = {"check_period": 3600.0, "silence_timeout": 600.0}
    with (NameNodeServer(**quiet) as namenode,
          NameNodeServer(**quiet, rack_map={0: 0}) as racked_namenode,
          socket.create_connection(namenode.address) as nn,
          socket.create_connection(racked_namenode.address) as racked):
        register(nn, range(1, 6))
        call(nn, "begin-write", {"name": "f", "code_name": "pentagon"})
        call(nn, "commit-write", commit_request("f", range(1, 6)))
        register(racked, range(5))
        yield Live(servers["datanode"],
                   {"namenode": nn, "datanode": daemons["datanode"],
                    "racked": racked})


@pytest.mark.parametrize("service,kind,key", [
    (service, kind, key) for service, ops in SERVICES.items()
    for kind, (required, optional, _, _) in ops.items()
    for key in required + optional])
def test_a_type_confused_value_is_a_bad_request(live, service, kind, key):
    """Every declared key × values of the wrong type or range, the other
    keys well-formed: the reply is ``ok`` or a code the op declares,
    never ``internal`` or ``service``, and the daemon keeps serving."""
    sock = live.socks[service]
    allowed = {"ok", "bad-request", *SERVICES[service][kind][3]}
    assert outcome(sock, kind, live.well_formed(kind)) == "ok"
    answers = {repr(value): outcome(sock, kind,
                                    {**live.well_formed(kind), key: value})
               for value in FUZZ_VALUES}
    assert set(answers.values()) <= allowed, answers
    # still serving; for dn-register this also moves node 6 back from
    # host "a", so no sweep ever resolves that name
    assert outcome(sock, kind, live.well_formed(kind)) == "ok"
    assert call(sock, "status", None)["version"] == protocol.SERVICE_VERSION
    assert live.datanode.faults._ticker.is_alive()


@pytest.mark.parametrize("code_name", ["rs(1,2)", "0-rep", "no-such-code"])
def test_a_code_name_the_registry_refuses_is_a_bad_request(live, code_name):
    for kind in ("begin-write", "place-stripe"):
        assert outcome(live.socks["namenode"], kind,
                       {**live.well_formed(kind), "code_name": code_name}) \
            == "bad-request"


def test_a_malformed_fault_request_arms_nothing(live):
    """Armed, a stray value kills the fault ticker, and every later
    data-path request trips over it."""
    sock = live.socks["datanode"]
    pending = call(sock, "status", None)["faults"]["pending"]
    for faults in (["x"], [{"action": "nope"}], "x", None, 7):
        bad_request(sock, "fault", {"faults": faults})
    assert call(sock, "status", None)["faults"]["pending"] == pending
    assert live.datanode.faults._ticker.is_alive()
    block = live.stored()
    assert call(sock, "get", {"block": block})["data"] == b"ok"
    assert call(sock, "fault", {"faults": []})["armed"] == len(pending)


# ----------------------------------------------------------------------
# Every declared error code, provoked once over the wire
# ----------------------------------------------------------------------
MISSING = ("no-such-file", 0, 0)

#: (service, op, code) -> (socket to send on, request payload)
PROVOKE = {
    ("namenode", "stat", "not-found"):
        ("namenode", lambda live: {"name": "no-such-file"}),
    ("namenode", "begin-write", "write-refused"):   # 14 nodes; 7 at most
        ("namenode", lambda live: {"name": live.fresh("big"),
                                   "code_name": "rs(14,10)"}),
    ("namenode", "begin-write", "exists"):
        ("namenode", lambda live: {"name": "f", "code_name": "pentagon"}),
    ("namenode", "place-stripe", "write-refused"):
        ("namenode", lambda live: {"code_name": "rs(14,10)"}),
    ("namenode", "place-stripe", "placement"):
        ("racked", lambda live: {"code_name": "pentagon"}),
    ("namenode", "report-corrupt", "not-found"):
        ("namenode", lambda live: {"block": MISSING, "node_id": 0}),
    ("datanode", "get", "block-not-found"):
        ("datanode", lambda live: {"block": MISSING}),
    ("datanode", "get", "corrupt"):
        ("datanode", lambda live: {"block": live.rotten()}),
    ("datanode", "combine", "block-not-found"):
        ("datanode", lambda live: {"parts": [(live.stored(), 1),
                                             (MISSING, 1)]}),
    ("datanode", "combine", "corrupt"):
        ("datanode", lambda live: {"parts": [(live.rotten(), 3)]}),
    ("datanode", "combine", "value"):
        ("datanode", lambda live: {"parts": [(live.stored(), 256)]}),
}


def test_every_declared_code_has_a_provoking_case():
    declared = {(service, kind, code)
                for service, ops in SERVICES.items()
                for kind, (*_, errors) in ops.items() for code in errors}
    assert set(PROVOKE) == declared


@pytest.mark.parametrize("service,kind,code", sorted(PROVOKE))
def test_a_declared_code_crosses_the_wire(live, service, kind, code):
    target, payload = PROVOKE[service, kind, code]
    assert outcome(live.socks[target], kind, payload(live)) == code
