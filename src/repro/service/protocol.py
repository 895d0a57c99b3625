"""Service wire protocol: the declared op tables, dispatch, typed errors.

Every request is one :mod:`repro.net` frame ``(kind, data)``; every
response is ``("ok", payload)`` or ``("err", (code, message, details))``.
Which kinds exist, which keys a request may carry, which keys every
reply has and which typed errors it may answer with is stated once, in
:data:`NAMENODE_OPS` / :data:`DATANODE_OPS` below: both daemons answer
through :func:`dispatch`, which holds every live frame and every error
reply to the table, ``repro lint`` holds every handler body and call
site to it, and ``docs/wire_schema.json`` is its JSON rendering.
Adding an op is one table line plus one ``_op_<kind>`` method.

The error tuple round-trips typed exceptions across the wire: a
namenode that refuses a write raises :class:`WriteRefusedError` locally,
the server marshals it, and the client re-raises the same type — so
callers catch semantically, never by string-matching messages.  An
error the op does not declare leaves as ``service``: a defect of the
daemon, named in the message, never a code the client must guess at.

Transport errors (refused connections, timeouts, EOF mid-frame) are
*not* part of this mapping; the client's retry policy owns those and
surfaces :class:`ServiceUnavailableError` once its budget is spent.
"""

from __future__ import annotations

from ..cluster.blocks import (
    BlockId,
    BlockNotFoundError,
    CorruptBlockError,
    PlacementError,
)
from ..net import ProtocolError

#: Bumped on any incompatible message change; both ends carry it in the
#: register/stat paths so version skew fails fast instead of weirdly.
SERVICE_VERSION = 1


#: The namenode's wire surface: op -> (required request keys, optional
#: request keys, keys every reply carries or ``None`` when the reply is
#: not a dict, the :data:`_ERROR_CODES` the handler may answer with).
#: ``bad-request`` and ``service`` are implicit for every op: dispatch
#: raises both itself.  Pure literals — the lint reads them without
#: importing.
NAMENODE_OPS = {
    # datanode-facing
    "dn-register": (("node_id", "address", "version"), (),
                    ("node_id", "block_bytes", "version"), ()),
    "dn-heartbeat": (("node_id",), ("blocks",), (), ()),
    # client-facing: namespace
    "locations": ((), (), ("datanodes", "alive"), ()),
    "list": ((), (), None, ()),
    "stat": (("name",), (),
             ("name", "code_name", "size_bytes", "block_bytes", "stripes",
              "datanodes", "alive"), ("not-found",)),
    # client-facing: two-phase writes
    "begin-write": (("name", "code_name"), (), ("block_bytes",),
                    ("write-refused", "exists")),
    "place-stripe": (("code_name",), ("exclude",),
                     ("slot_nodes", "datanodes"),
                     ("write-refused", "placement")),
    "commit-write": (("name", "code_name", "size_bytes", "stripes"), (),
                     ("stripes",), ()),
    "abort-write": (("name",), (), ("aborted",), ()),
    "report-corrupt": (("block", "node_id"), (), (), ("not-found",)),
    # operator-facing
    "status": ((), (),
               ("version", "block_bytes", "datanodes", "alive", "files",
                "pending_writes", "stripes", "repair", "checker"), ()),
    "shutdown": ((), (), (), ()),
}

#: The datanode's wire surface, same shape as :data:`NAMENODE_OPS`.
DATANODE_OPS = {
    "put": (("block", "data"), (), ("crc",), ()),
    "get": (("block",), (), ("data", "crc"), ("block-not-found", "corrupt")),
    "combine": (("parts",), (), ("data",),
                ("block-not-found", "corrupt", "value")),
    "checksums": ((), ("blocks",), ("checksums",), ()),
    "delete": (("blocks",), (), ("dropped",), ()),
    "fault": (("faults",), (), ("armed",), ()),
    "status": ((), (),
               ("node_id", "version", "blocks", "used_bytes", "requests",
                "faults"), ()),
    "shutdown": ((), (), ("node_id",), ()),
}


class ServiceError(RuntimeError):
    """Base class of storage-service failures."""


class ServiceUnavailableError(ServiceError):
    """The peer stayed unreachable after the full retry budget."""


class WriteRefusedError(ServiceError):
    """The namenode refused a write (name taken, or the cluster has
    fewer alive datanodes than the code needs — below tolerance the
    service degrades to read-only rather than accepting data it could
    not protect)."""


class ReadFailedError(ServiceError):
    """A read could not be served even degraded (too many replicas
    unreachable or corrupt for the code to decode around)."""


class WriteFailedError(ServiceError):
    """A write could not complete; the namespace was left clean (the
    file name is free again and no partial stripes are visible)."""


#: code string <-> exception type, for marshalling across the wire: the
#: codes the op tables declare, plus the two every op may answer.  The
#: client's own failures (:class:`ReadFailedError`, ...) never cross it.
_ERROR_CODES: dict[str, type] = {
    "service": ServiceError,
    "write-refused": WriteRefusedError,
    "not-found": FileNotFoundError,
    "exists": FileExistsError,
    "block-not-found": BlockNotFoundError,
    "corrupt": CorruptBlockError,
    "placement": PlacementError,
    "bad-request": ProtocolError,
    "value": ValueError,
}
_CODE_OF_TYPE = {cls: code for code, cls in _ERROR_CODES.items()}

#: The codes every op may answer without declaring them.
_IMPLICIT_CODES = ("bad-request", "service")


def error_code(error: Exception) -> str:
    """The wire code of ``error``: its nearest type in the MRO that
    :data:`_ERROR_CODES` maps, ``internal`` when none is."""
    for cls in type(error).__mro__:
        if cls in _CODE_OF_TYPE:
            return _CODE_OF_TYPE[cls]
    return "internal"


def marshal_error(error: Exception) -> tuple[str, str, dict]:
    """``(code, message, details)`` for the wire; unknown types become
    opaque ``internal`` errors (never leak a traceback as behaviour)."""
    details: dict = {}
    if isinstance(error, CorruptBlockError):
        details = {"node_id": error.node_id,
                   "block": block_tuple(error.block)}
    code = error_code(error)
    if code == "internal":
        return code, f"{type(error).__name__}: {error}", details
    return code, str(error), details


def unmarshal_error(code: str, message: str, details: dict) -> Exception:
    """Rebuild the typed exception a peer marshalled.

    Every returned exception carries a ``.code`` attribute with the wire
    code, so callers can also dispatch on it uniformly (a code this end
    does not know comes back as plain :class:`ServiceError`).
    """
    error: Exception
    if code == "corrupt" and "block" in details:
        error = CorruptBlockError(details["node_id"],
                                  BlockId(*details["block"]))
    else:
        cls = _ERROR_CODES.get(code)
        if cls is None:
            error = ServiceError(f"[{code}] {message}")
        else:
            try:
                error = cls(message)
            except TypeError:          # exotic constructor signature
                error = ServiceError(f"[{code}] {message}")
    error.code = code                  # type: ignore[attr-defined]
    return error


def dispatch(server, ops: dict, kind: str, data, peer) -> object:
    """Answer one request through ``server._op_<kind>``, held to ``ops``.

    An undeclared kind, a payload that is neither a dict nor (where
    nothing is required) ``None``, a missing required key or an
    undeclared key is a :class:`~repro.net.ProtocolError` — the client
    sees a typed ``bad-request``, never a handler's ``KeyError``.  The
    handler is looked up per request, so a method replaced on the class
    after construction (the benchmark's span recorder) is what runs.
    A reply without its declared keys, and an error whose code the op
    does not declare (an ``internal`` one included), are this daemon's
    defect and go out as a :class:`ServiceError`, not as the client's
    mistake.
    """
    spec = ops.get(kind)
    if spec is None:
        raise ProtocolError(f"unknown request {kind!r}")
    required, optional, reply_keys, errors = spec
    present = 0
    if isinstance(data, dict):
        for key in data:
            if key in required:
                present += 1
            elif key not in optional:
                raise ProtocolError(
                    f"request {kind!r} carries undeclared key {key!r}")
    elif data is not None:
        raise ProtocolError(
            f"request {kind!r} needs a dict payload, got "
            f"{type(data).__name__}")
    if present != len(required):
        missing = [key for key in required if key not in (data or ())]
        raise ProtocolError(
            f"request {kind!r} is missing required key(s) "
            f"{', '.join(missing)}")
    try:
        reply = getattr(server, "_op_" + kind.replace("-", "_"))(data, peer)
    except Exception as error:
        code = error_code(error)
        if code in errors or code in _IMPLICIT_CODES:
            raise
        raise ServiceError(
            f"{kind!r} answered undeclared error {code!r} "
            f"({type(error).__name__}: {error})") from error
    if reply_keys is not None:
        if not isinstance(reply, dict):
            raise ServiceError(
                f"reply to {kind!r} is {type(reply).__name__}, "
                "declared a dict")
        for key in reply_keys:
            if key not in reply:
                raise ServiceError(
                    f"reply to {kind!r} lacks declared key {key!r}")
    return reply


def expect(what: str, value, *types: type):
    """``value`` when its type is exactly one of ``types``; anything else
    is refused, not coerced (``True`` is not ``1``, ``7`` is not
    ``"7"``)."""
    if type(value) not in types:
        raise ProtocolError(
            f"{what} must be {' or '.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}")
    return value


def block_from_tuple(data) -> BlockId:
    """The :class:`BlockId` a wire ``(str, int, int)`` names; anything
    else is refused, not coerced (``0.9``, ``"0"``, ``True``: not 0)."""
    try:
        name, stripe_index, symbol_index = data
    except (TypeError, ValueError):
        name = stripe_index = symbol_index = None
    if not (type(name) is str and type(stripe_index) is int
            and type(symbol_index) is int):
        raise ProtocolError(
            f"block id must be (str name, int stripe, int symbol): {data!r}")
    return BlockId(name, stripe_index, symbol_index)


def block_tuple(block: BlockId) -> tuple[str, int, int]:
    """Wire form of a :class:`BlockId` (plain tuple, stable order)."""
    return (block.file_name, block.stripe_index, block.symbol_index)


def put_request(block: BlockId, data: bytes) -> tuple[str, dict]:
    """The datanode request that stores one block."""
    return ("put", {"block": block_tuple(block), "data": data})


def delete_request(blocks: list) -> tuple[str, dict]:
    """The datanode request that drops ``blocks`` (wire tuples)."""
    return ("delete", {"blocks": blocks})


def transfer_request(name: str, stripe_index: int,
                     transfer) -> tuple[str, dict]:
    """The datanode request one plan transfer maps to.

    A plain replica copy is a ``get``; anything weighted or spanning
    several symbols is a ``combine`` the source daemon computes from
    blocks it holds, so the transfer costs one block on the wire.
    """
    if transfer.plain_copy:
        return ("get", {"block": (name, stripe_index,
                                  transfer.symbols_read[0])})
    parts = [((name, stripe_index, symbol), int(coefficient))
             for symbol, coefficient
             in zip(transfer.symbols_read, transfer.coefficients)]
    return ("combine", {"parts": parts})
