"""Service wire protocol: request/response framing and typed errors.

Every request is one :mod:`repro.net` frame ``(kind, data)``; every
response is ``("ok", payload)`` or ``("err", (code, message, details))``.
The error tuple round-trips typed exceptions across the wire: a
namenode that refuses a write raises :class:`WriteRefusedError` locally,
the server marshals it, and the client re-raises the same type — so
callers catch semantically, never by string-matching messages.

Transport errors (refused connections, timeouts, EOF mid-frame) are
*not* part of this mapping; the client's retry policy owns those and
surfaces :class:`ServiceUnavailableError` once its budget is spent.
"""

from __future__ import annotations

from ..cluster.datanode import BlockNotFoundError, CorruptBlockError
from ..cluster.namenode import BlockId
from ..cluster.placement import PlacementError
from ..core.repair import TransferKind, UnrecoverableStripeError
from ..net import ProtocolError

#: Bumped on any incompatible message change; both ends carry it in the
#: register/stat paths so version skew fails fast instead of weirdly.
SERVICE_VERSION = 1


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


#: code string <-> exception type, for marshalling across the wire.
_ERROR_CODES: dict[str, type] = {
    "service": ServiceError,
    "write-refused": WriteRefusedError,
    "write-failed": WriteFailedError,
    "read-failed": ReadFailedError,
    "unavailable": ServiceUnavailableError,
    "not-found": FileNotFoundError,
    "exists": FileExistsError,
    "block-not-found": BlockNotFoundError,
    "corrupt": CorruptBlockError,
    "unrecoverable": UnrecoverableStripeError,
    "placement": PlacementError,
    "bad-request": ProtocolError,
    "value": ValueError,
}
_CODE_OF_TYPE = {cls: code for code, cls in _ERROR_CODES.items()}


def marshal_error(error: Exception) -> tuple[str, str, dict]:
    """``(code, message, details)`` for the wire; unknown types become
    opaque ``internal`` errors (never leak a traceback as behaviour)."""
    details: dict = {}
    if isinstance(error, CorruptBlockError):
        details = {"node_id": error.node_id,
                   "block": block_tuple(error.block)}
    for cls in type(error).__mro__:
        if cls in _CODE_OF_TYPE:
            return _CODE_OF_TYPE[cls], str(error), details
    return "internal", f"{type(error).__name__}: {error}", details


def unmarshal_error(code: str, message: str, details: dict) -> Exception:
    """Rebuild the typed exception a peer marshalled.

    Every returned exception carries a ``.code`` attribute with the wire
    code, so callers can also dispatch on it uniformly (the structured
    constructors of e.g. :class:`UnrecoverableStripeError` cannot be
    rebuilt from a message alone and come back as plain
    :class:`ServiceError` with the right code).
    """
    error: Exception
    if code == "corrupt" and "block" in details:
        error = CorruptBlockError(details["node_id"],
                                  BlockId(*details["block"]))
    else:
        cls = _ERROR_CODES.get(code)
        if cls is None or cls is UnrecoverableStripeError:
            error = ServiceError(f"[{code}] {message}")
        else:
            try:
                error = cls(message)
            except TypeError:          # exotic constructor signature
                error = ServiceError(f"[{code}] {message}")
    error.code = code                  # type: ignore[attr-defined]
    return error


def block_from_tuple(data) -> BlockId:
    return BlockId(str(data[0]), int(data[1]), int(data[2]))


def block_tuple(block: BlockId) -> tuple[str, int, int]:
    """Wire form of a :class:`BlockId` (plain tuple, stable order)."""
    return (block.file_name, block.stripe_index, block.symbol_index)


def transfer_request(name: str, stripe_index: int,
                     transfer) -> tuple[str, dict]:
    """The datanode request one plan transfer maps to.

    A plain replica copy is a ``get``; anything weighted or spanning
    several symbols is a ``combine`` the source daemon computes from
    blocks it holds, so the transfer costs one block on the wire.
    """
    if (transfer.kind is TransferKind.COPY
            and transfer.coefficients[0] == 1):
        return ("get", {"block": (name, stripe_index,
                                  transfer.symbols_read[0])})
    parts = [((name, stripe_index, symbol), int(coefficient))
             for symbol, coefficient
             in zip(transfer.symbols_read, transfer.coefficients)]
    return ("combine", {"parts": parts})
