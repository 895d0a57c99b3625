"""The storage client: coded writes, reads that degrade transparently.

:class:`StorageClient` talks to one namenode and whatever datanodes
the metadata points at.  The data path is client-side, as in HDFS: the
client encodes stripes locally, pushes blocks straight to datanodes,
and decodes around failures on read — the namenode only ever moves
metadata.

Failure handling
----------------
Every RPC runs under a :class:`RetryPolicy`: per-attempt socket
timeout, capped exponential backoff with seeded jitter between
attempts, and a typed :class:`~.protocol.ServiceUnavailableError` once
the budget is spent.  A datanode that exhausts its budget is marked
*suspect* for a short TTL, so later reads plan around it immediately
instead of re-paying the timeout; suspects expire because a repair (or
a revived daemon) can make the node useful again.

Reads resolve file metadata through a small client-side cache (as the
HDFS client caches block locations): a ``stat`` answer is trusted for
:data:`METADATA_TTL` seconds on the read path, halving the RPC count
of a steady-state read from two round trips to one.  Stale placement
is harmless — a read that trips over a re-homed or dead slot already
re-plans and re-stats — so the TTL only bounds how long reads keep
taking degraded-path detours after a repair moved blocks.  The public
:meth:`StorageClient.stat` always asks the namenode (and refreshes the
cache); writes and replans invalidate the cached entry.

Everything that talks to several datanodes at once goes through one
pipelined exchange (:meth:`StorageClient._exchange`): all frames out,
grouped by datanode, before any reply is read; replies back in order
per connection; a transport hiccup falls back to the retried per-call
path for exactly the requests still unanswered.  A stripe's ``put``s,
a plan's ``get``/``combine`` fetches, a whole stripe of ``read_file``
and orphan ``delete``s are its four callers.

Reads ask the code for a :class:`~repro.core.repair.ReadPlan` against
the currently-failed slots and execute it over ``get``/``combine``
RPCs; any fetch that fails (dead daemon, corrupt block) promotes its
slot to failed and the read re-plans against the survivors, falling
back from replica copy to partial-parity reconstruction exactly as the
paper's degraded-read path prescribes.  Corrupt blocks are also
reported to the namenode so the checker repairs them ahead of its next
scrub.  ``read_file`` plans and fetches a stripe's data symbols
together and re-plans only the symbols whose fetch failed.

Writes are two-phase: ``begin-write`` reserves the name, the client
places/encodes/stores every stripe (re-placing a stripe on fresh nodes
when a datanode dies mid-write), and ``commit-write`` publishes the
whole file atomically — a failed write leaves no partial stripes
visible.  A stripe attempt that fails — a ``put`` unanswered, or the
two replicas of a symbol reporting different CRCs — deletes every
block it sent, acknowledged or not, before the stripe is re-placed or
the write gives up.

One client is **not** thread-safe; give each worker thread its own
(they are cheap — sockets are opened lazily and pooled per node).
"""

from __future__ import annotations

import socket
import time

import numpy as np

from ..cluster.datanode import BlockNotFoundError, CorruptBlockError
from ..cluster.namenode import BlockId, StripeInfo
from ..core import Code, UnrecoverableStripeError, make_code
# The one plan interpreter.  It keeps the module-level name the read
# path has always called, because external tracers (perfbench's span
# recorder) wrap ``repro.service.client.execute_read_plan``.
from ..core import run_plan as execute_read_plan
from ..net import RetryPolicy, recv_frame, send_frame
from .datanode import call
from .protocol import (
    ReadFailedError,
    ServiceUnavailableError,
    WriteFailedError,
    block_tuple,
    delete_request,
    put_request,
    transfer_request,
    unmarshal_error,
)

#: How long an unreachable datanode stays on the suspect list before a
#: read is willing to try it again.  Derived from the shared
#: :class:`~repro.net.RetryPolicy` defaults (one source of truth with
#: the sweep workers' reconnect pacing).
SUSPECT_TTL = RetryPolicy.SUSPECT_TTL

#: How long the read path trusts a cached ``stat`` answer before
#: re-asking the namenode (0 disables caching).  Same source of truth
#: as the rest of the operational constants: the shared
#: :class:`~repro.net.RetryPolicy`.
METADATA_TTL = RetryPolicy.METADATA_TTL

#: Placement re-attempts per stripe before a write gives up (each
#: attempt excludes the nodes that failed the previous one).
PLACE_ATTEMPTS = 4


class _SlotFailure(Exception):
    """Internal: a plan fetch failed; promote this slot and re-plan."""

    def __init__(self, slot: int):
        super().__init__(f"slot {slot} failed")
        self.slot = slot


def _casualty(outcome) -> int | None:
    """The datanode a reply-or-exception says spent its whole retry
    budget unreachable (:meth:`StorageClient._dn_call` tags the error),
    if it says so."""
    if isinstance(outcome, ServiceUnavailableError):
        return getattr(outcome, "node_id", None)
    return None


class StorageClient:
    """Client handle on one storage service (not thread-safe)."""

    def __init__(self, namenode: tuple[str, int], *,
                 retry: RetryPolicy | None = None,
                 suspect_ttl: float = SUSPECT_TTL,
                 metadata_ttl: float = METADATA_TTL):
        self.namenode_address = (str(namenode[0]), int(namenode[1]))
        self.retry = retry if retry is not None else RetryPolicy()
        self.suspect_ttl = suspect_ttl
        self.metadata_ttl = metadata_ttl
        self._nn_sock: socket.socket | None = None
        self._dn_socks: dict[int, socket.socket] = {}
        self._datanodes: dict[int, tuple[str, int]] = {}
        self._suspects: dict[int, float] = {}       # node_id -> expiry
        self._stat_cache: dict[str, tuple[float, dict]] = {}
        self._codes: dict[str, Code] = {}
        self.counters = {"reads": 0, "degraded_reads": 0, "writes": 0,
                         "retries": 0, "replans": 0, "corrupt_reports": 0}

    # ------------------------------------------------------------------
    def close(self) -> None:
        for sock in [self._nn_sock, *self._dn_socks.values()]:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._nn_sock = None
        self._dn_socks.clear()

    def __enter__(self) -> "StorageClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport with retry
    # ------------------------------------------------------------------
    def _connect(self, address: tuple[str, int]) -> socket.socket:
        sock = socket.create_connection(address, timeout=self.retry.timeout)
        sock.settimeout(self.retry.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _nn_call(self, kind: str, data) -> object:
        last: Exception | None = None
        for attempt in range(1, self.retry.attempts + 1):
            try:
                if self._nn_sock is None:
                    self._nn_sock = self._connect(self.namenode_address)
                return call(self._nn_sock, kind, data)
            except (ConnectionError, OSError, EOFError) as exc:
                if getattr(exc, "code", None) is not None:
                    raise          # remote typed error, not transport
                last = exc
                if self._nn_sock is not None:
                    self._nn_sock.close()
                    self._nn_sock = None
                if attempt < self.retry.attempts:
                    self.counters["retries"] += 1
                    time.sleep(self.retry.delay(attempt))
        raise ServiceUnavailableError(
            f"namenode {self.namenode_address} unreachable after "
            f"{self.retry.attempts} attempts: {last}") from last

    def _dn_sock(self, node_id: int) -> socket.socket:
        """The pooled connection to one datanode (opened on demand)."""
        address = self._datanodes.get(node_id)
        if address is None:
            self._refresh_locations()
            address = self._datanodes.get(node_id)
            if address is None:
                raise ServiceUnavailableError(
                    f"datanode {node_id} is not registered")
        sock = self._dn_socks.get(node_id)
        if sock is None:
            sock = self._dn_socks[node_id] = self._connect(address)
        return sock

    def _drop_dn_sock(self, node_id: int) -> None:
        sock = self._dn_socks.pop(node_id, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _dn_call(self, node_id: int, kind: str, data) -> object:
        last: Exception | None = None
        for attempt in range(1, self.retry.attempts + 1):
            try:
                return call(self._dn_sock(node_id), kind, data)
            except (ConnectionError, OSError, EOFError) as exc:
                if getattr(exc, "code", None) is not None:
                    raise          # remote typed error, not transport
                last = exc
                self._drop_dn_sock(node_id)
                if attempt < self.retry.attempts:
                    self.counters["retries"] += 1
                    time.sleep(self.retry.delay(attempt))
        self._suspects[node_id] = time.monotonic() + self.suspect_ttl
        error = ServiceUnavailableError(
            f"datanode {node_id} at {self._datanodes.get(node_id)} "
            f"unreachable after {self.retry.attempts} attempts: {last}")
        error.node_id = node_id         # type: ignore[attr-defined]
        raise error from last

    def _refresh_locations(self) -> None:
        reply = self._nn_call("locations", {})
        self._datanodes.update(reply["datanodes"])

    def _suspected(self, node_id: int) -> bool:
        expiry = self._suspects.get(node_id)
        if expiry is None:
            return False
        if time.monotonic() >= expiry:
            del self._suspects[node_id]
            return False
        return True

    def _code(self, code_name: str) -> Code:
        if code_name not in self._codes:
            self._codes[code_name] = make_code(code_name)
        return self._codes[code_name]

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------
    def list_files(self) -> list[str]:
        return list(self._nn_call("list", {}))

    def stat(self, name: str) -> dict:
        """Fresh file metadata from the namenode (refreshes the cache)."""
        info = self._nn_call("stat", {"name": name})
        self._datanodes.update(info["datanodes"])
        self._stat_cache[name] = (time.monotonic(), info)
        return info

    def _stat_for_read(self, name: str) -> dict:
        """Metadata for the read path: cached while the TTL holds."""
        entry = self._stat_cache.get(name)
        if entry is not None:
            fetched_at, info = entry
            if time.monotonic() - fetched_at < self.metadata_ttl:
                return info
        return self.stat(name)

    def status(self) -> dict:
        return self._nn_call("status", {})

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write_file(self, name: str, data: bytes, code_name: str) -> dict:
        """Stripe, encode and store ``data``; atomic commit at the end.

        A datanode dying mid-write is survived by re-placing the stripe
        on fresh nodes (the namenode excludes the casualty); any other
        failure aborts, leaving the namespace exactly as before —
        partial stripes are never visible because nothing is published
        until ``commit-write``.
        """
        code = self._code(code_name)
        begin = self._nn_call("begin-write",
                              {"name": name, "code_name": code_name})
        block_bytes = int(begin["block_bytes"])
        placed: list[tuple[int, BlockId]] = []
        try:
            stripes = [
                self._store_stripe(name, index, code, code.encode(blocks),
                                   placed)
                for index, blocks
                in enumerate(code.split_stripes(data, block_bytes))
            ]
            reply = self._nn_call(
                "commit-write",
                {"name": name, "code_name": code_name,
                 "size_bytes": len(data), "stripes": stripes})
        except Exception as error:
            self._cleanup_failed_write(name, placed)
            if (isinstance(error, (ServiceUnavailableError, OSError))
                    and getattr(error, "code", None) is None):
                raise WriteFailedError(
                    f"write of {name!r} failed cleanly (namespace "
                    f"untouched): {error}") from error
            raise
        self.counters["writes"] += 1
        self._stat_cache.pop(name, None)
        return {"name": name, "stripes": reply["stripes"],
                "code_name": code_name, "size_bytes": len(data)}

    def _store_stripe(self, name: str, index: int, code: Code,
                      encoded, placed) -> dict:
        """Place and store one stripe, re-placing around dead nodes.

        All replicas go out in one :meth:`_exchange`, so each datanode
        takes its blocks back to back.  An attempt either lands whole
        — every ``put`` acknowledged, both replicas of every symbol
        reporting one CRC — or is cleaned up whole: every block of it
        may have left the client, acknowledged or not, so every block
        of it is deleted (``delete`` is idempotent).
        """
        exclude: set[int] = {n for n in self._datanodes
                             if self._suspected(n)}
        payloads = [block.tobytes() for block in encoded]
        last: Exception | None = None
        for _ in range(PLACE_ATTEMPTS):
            reply = self._nn_call(
                "place-stripe",
                {"code_name": code.name, "exclude": sorted(exclude)})
            stripe = StripeInfo(name, index, code,
                                tuple(reply["slot_nodes"]))
            self._datanodes.update(reply["datanodes"])
            attempt = list(stripe.placed_blocks())
            outcomes = self._exchange(
                [(node_id, put_request(block, payloads[block.symbol_index]))
                 for node_id, block in attempt])
            checksums: dict[str, int] = {}
            failure: Exception | None = None
            for (node_id, block), put in zip(attempt, outcomes):
                if isinstance(put, Exception):
                    failure = put
                    break
                crc = int(put["crc"])
                if checksums.setdefault(str(block.symbol_index),
                                        crc) != crc:
                    failure = WriteFailedError(
                        f"stripe {index} of {name!r}: datanode {node_id} "
                        f"stored symbol {block.symbol_index} with another "
                        "CRC than its other replica")
                    break
            if failure is None:
                placed.extend(attempt)
                return {"slot_nodes": stripe.slot_nodes,
                        "checksums": checksums}
            self._delete_blocks(attempt)
            if _casualty(failure) is None:
                raise failure
            last = failure
            exclude |= set(map(_casualty, outcomes)) - {None}
        raise WriteFailedError(
            f"stripe {index} of {name!r} could not be placed after "
            f"{PLACE_ATTEMPTS} attempts: {last}") from last

    def _delete_blocks(self, entries) -> None:
        """Best-effort orphan cleanup; failures are ignored by design
        (the namenode's GC sweep reclaims anything this misses).  A
        suspect node just spent a whole retry budget not answering and
        is left to that sweep."""
        by_node: dict[int, list] = {}
        for node_id, block in entries:
            if not self._suspected(node_id):
                by_node.setdefault(node_id, []).append(block_tuple(block))
        self._exchange([(node_id, delete_request(blocks))
                        for node_id, blocks in by_node.items()])

    def _cleanup_failed_write(self, name: str, placed) -> None:
        self._stat_cache.pop(name, None)
        self._delete_blocks(placed)
        try:
            self._nn_call("abort-write", {"name": name})
        # lint: allow(exceptions.silent-swallow): abort-write is a courtesy to free the pending slot early; the namenode expires stale pending writes on its own
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read_file(self, name: str) -> bytes:
        """Read a whole file, degrading around failures as needed."""
        info = self._stat_for_read(name)
        code = self._code(info["code_name"])
        symbols = [symbol.index for symbol in code.layout.data_symbols()]
        # The join is the one copy of each block: it reads the recovered
        # arrays in place, and the padding past the file's end is cut
        # from views before it.
        left = info["size_bytes"]
        pieces: list[np.ndarray] = []
        for stripe_index in range(len(info["stripes"])):
            fetched = self._prefetch_stripe(info, code, stripe_index,
                                            symbols)
            for symbol_index, prefetched in zip(symbols, fetched):
                block = self._read_symbol(
                    info, code, stripe_index, symbol_index,
                    prefetched=prefetched)[:left]
                pieces.append(block)
                left -= len(block)
        return b"".join(pieces)

    def _prefetch_stripe(self, info: dict, code: Code, stripe_index: int,
                         symbols) -> list:
        """Plan every symbol of ``symbols`` around the current suspects
        and fetch all the plans' sources in one exchange.

        Returns, per symbol, the ``(plan, outcomes, failed)`` for
        :meth:`_read_symbol` to start from, or ``None`` where that
        method should plan for itself as if nothing had been fetched:
        for every symbol when one of them cannot be planned (the
        refresh-and-re-plan loop there deals with that), and for a
        symbol whose fetch ran into a node that an earlier symbol's
        fetch already found unreachable — read on its own after that
        one, it would have planned around the node, not into it.
        """
        slot_nodes = tuple(info["stripes"][stripe_index])
        failed = {slot for slot, node in enumerate(slot_nodes)
                  if self._suspected(node)}
        try:
            plans = [code.plan_degraded_read(symbol_index, failed)
                     for symbol_index in symbols]
        except UnrecoverableStripeError:
            return [None] * len(symbols)
        fetched = iter(self._fetch_pipelined(
            info["name"], stripe_index,
            [transfer for plan in plans for transfer in plan.fetches],
            slot_nodes))
        prefetched: list = []
        unreachable: set[int] = set()
        for plan in plans:
            outcomes = [next(fetched) for _ in plan.fetches]
            casualties = set(map(_casualty, outcomes)) - {None}
            prefetched.append(None if casualties & unreachable
                              else (plan, outcomes, failed))
            unreachable |= casualties
        return prefetched

    def read_block(self, name: str, stripe_index: int = 0,
                   symbol_index: int | None = None) -> bytes:
        """Read one block (default: the stripe's first data symbol)."""
        info = self._stat_for_read(name)
        code = self._code(info["code_name"])
        if symbol_index is None:
            symbol_index = code.layout.data_symbols()[0].index
        return self._read_symbol(info, code, stripe_index,
                                 symbol_index).tobytes()

    def degraded_read(self, name: str, stripe_index: int = 0,
                      symbol_index: int | None = None) -> bytes:
        """Read one block with its replica slots *forced* failed.

        Measures worst-case reconstruction latency on demand: as many
        of the symbol's replica slots are failed as the code tolerates,
        so erasure codes answer with a genuine partial-parity decode.
        (Pure replication has nothing to decode from — there the forced
        set stays within tolerance and the read is a surviving copy.)
        """
        info = self._stat_for_read(name)
        code = self._code(info["code_name"])
        if symbol_index is None:
            symbol_index = code.layout.data_symbols()[0].index
        return self._read_symbol(info, code, stripe_index, symbol_index,
                                 force_degraded=True).tobytes()

    def _read_symbol(self, info: dict, code: Code, stripe_index: int,
                     symbol_index: int, force_degraded: bool = False,
                     prefetched=None) -> np.ndarray:
        """One symbol, decoding around dead/corrupt/suspect slots.

        With ``force_degraded``, as many of the symbol's replica slots
        are *additionally* treated as failed as the code still
        tolerates on top of the genuinely-failed ones — so a forced
        probe measures reconstruction without ever pushing a wounded
        stripe past its tolerance.

        ``prefetched`` is a first ``(plan, fetch outcomes, failed slots
        the plan was made around)`` the caller already exchanged along
        with the rest of the stripe (:meth:`_prefetch_stripe`); it
        stands in for the first plan and fetch.
        """
        name = info["name"]
        slot_nodes = tuple(info["stripes"][stripe_index])
        if prefetched is None:
            real_failed = {slot for slot, node in enumerate(slot_nodes)
                           if self._suspected(node)}
        else:
            real_failed = set(prefetched[2])
        self.counters["reads"] += 1
        refreshed = False
        while True:
            failed = set(real_failed)
            if force_degraded:
                for slot in code.layout.symbols[symbol_index].replicas:
                    if (slot not in failed
                            and code.can_recover(
                                tuple(sorted(failed | {slot})))):
                        failed.add(slot)
            try:
                if prefetched is not None:
                    plan, outcomes, _ = prefetched
                    prefetched = None
                else:
                    plan, outcomes = code.plan_degraded_read(
                        symbol_index, failed), None
            except UnrecoverableStripeError as error:
                if not refreshed:
                    # The checker may have repaired and re-homed slots
                    # since our metadata snapshot: refresh once.
                    refreshed = True
                    self._stat_cache.pop(name, None)
                    info = self.stat(name)
                    slot_nodes = tuple(info["stripes"][stripe_index])
                    real_failed = {
                        slot for slot, node in enumerate(slot_nodes)
                        if self._suspected(node)}
                    continue
                raise ReadFailedError(
                    f"block ({name!r}, stripe {stripe_index}, symbol "
                    f"{symbol_index}) unreadable: slots {sorted(failed)} "
                    f"all failed and {code.name} cannot decode around "
                    "them") from error
            try:
                payload = self._execute_plan(name, stripe_index, plan,
                                             slot_nodes, outcomes)
            except _SlotFailure as failure:
                if failure.slot in real_failed:
                    raise ReadFailedError(
                        f"slot {failure.slot} failed twice while reading "
                        f"({name!r}, {stripe_index}, {symbol_index})")
                real_failed.add(failure.slot)
                self.counters["replans"] += 1
                # Our placement just proved stale or wounded — make the
                # next read op re-stat instead of trusting the cache.
                self._stat_cache.pop(name, None)
                continue
            if plan.degraded:
                self.counters["degraded_reads"] += 1
            return payload

    def _resolve_fetch(self, name: str, stripe_index: int, transfer,
                       slot_nodes, outcome) -> np.ndarray:
        """Turn one transfer's reply-or-error into a payload.

        Typed remote failures promote the transfer's slot via
        :class:`_SlotFailure` (reporting corruption on the way), exactly
        like the serial fetch path always did; anything else unexpected
        propagates as-is.
        """
        node_id = slot_nodes[transfer.source_slot]
        if isinstance(outcome, CorruptBlockError):
            self._report_corrupt(node_id, outcome.block)
            raise _SlotFailure(transfer.source_slot) from outcome
        if isinstance(outcome, BlockNotFoundError):
            self._report_corrupt(
                node_id, BlockId(name, stripe_index,
                                 transfer.symbols_read[0]))
            raise _SlotFailure(transfer.source_slot) from outcome
        if isinstance(outcome, ServiceUnavailableError):
            raise _SlotFailure(transfer.source_slot) from outcome
        if isinstance(outcome, Exception):
            raise outcome
        return np.frombuffer(outcome["data"], dtype=np.uint8)

    #: The ``get``/``combine`` request one transfer maps to (the
    #: mapping the namenode's repairer shares).
    _transfer_request = staticmethod(transfer_request)

    def _exchange(self, requests) -> list:
        """Pipeline ``(node_id, (kind, data))`` requests over the pooled
        datanode connections; one reply-or-exception per request, in
        request order.

        Every frame goes out, grouped by datanode, *before* any reply
        is read, and the replies come back in order per connection: a
        daemon is woken once for all it was sent and the caller waits
        for the slowest daemon, not the sum of them.  Only idempotent
        ops may ride here (``put``/``delete`` overwrite, ``get``/
        ``combine`` read), because any transport hiccup falls back to
        the retried :meth:`_dn_call` for exactly the requests still
        unanswered — the path a lone request, with nothing to overlap,
        takes from the start.  Once a node has spent that retry budget
        its remaining requests fail with the same error at once.
        """
        by_node: dict[int, list[int]] = {}
        for position, (node_id, _) in enumerate(requests):
            by_node.setdefault(node_id, []).append(position)
        outcomes: list = [None] * len(requests)
        sent: list[tuple[int, list[int]]] = []
        fallback: list[tuple[int, list[int]]] = []
        for node_id, positions in by_node.items():
            if len(requests) == 1:
                fallback.append((node_id, positions))
                continue
            try:
                sock = self._dn_sock(node_id)
                for position in positions:
                    send_frame(sock, requests[position][1])
            except (ConnectionError, OSError, EOFError,
                    ServiceUnavailableError):
                self._drop_dn_sock(node_id)
                fallback.append((node_id, positions))
            else:
                sent.append((node_id, positions))
        for node_id, positions in sent:
            sock = self._dn_socks.get(node_id)
            for index, position in enumerate(positions):
                try:
                    status, payload = recv_frame(sock)
                except (ConnectionError, OSError, EOFError):
                    status = None
                if status == "ok":
                    outcomes[position] = payload
                elif status == "err":
                    outcomes[position] = unmarshal_error(*payload)
                else:
                    self._drop_dn_sock(node_id)
                    fallback.append((node_id, positions[index:]))
                    break
        for node_id, positions in fallback:
            down: Exception | None = None
            for position in positions:
                if down is None:
                    kind, data = requests[position][1]
                    try:
                        outcomes[position] = self._dn_call(node_id, kind,
                                                           data)
                    except Exception as error:
                        outcomes[position] = error
                        if _casualty(error) == node_id:
                            down = error
                else:
                    outcomes[position] = down
        return outcomes

    def _fetch_pipelined(self, name: str, stripe_index: int, transfers,
                         slot_nodes) -> list:
        """Fetch plan transfers in one exchange (``get``/``combine`` at
        each transfer's source); one reply-or-exception per transfer,
        in the order given."""
        return self._exchange(
            [(slot_nodes[transfer.source_slot],
              self._transfer_request(name, stripe_index, transfer))
             for transfer in transfers])

    def _execute_plan(self, name: str, stripe_index: int, plan,
                      slot_nodes, outcomes=None) -> np.ndarray:
        """Fetch the plan's sources (unless the caller already did),
        resolve the replies into payloads, then compute the plan."""
        if outcomes is None:
            outcomes = self._fetch_pipelined(name, stripe_index,
                                             plan.fetches, slot_nodes)
        return execute_read_plan(plan, [
            self._resolve_fetch(name, stripe_index, transfer, slot_nodes,
                                outcome)
            for transfer, outcome in zip(plan.fetches, outcomes)])

    def _report_corrupt(self, node_id: int, block: BlockId) -> None:
        """Tell the namenode so the checker repairs ahead of its scrub."""
        try:
            self._nn_call("report-corrupt",
                          {"node_id": node_id,
                           "block": block_tuple(block)})
            self.counters["corrupt_reports"] += 1
        # lint: allow(exceptions.silent-swallow): corruption reporting is an optimization; the next checker scrub finds the bad block anyway
        except Exception:
            pass
