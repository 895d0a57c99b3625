"""The namenode daemon: metadata, liveness, and the checker/repairer.

Owns the namespace (files -> stripes -> slot/node bindings -> write-time
block checksums), tracks datanode liveness through heartbeats with a
silence timeout, and runs the background checker loop on its event
loop: every ``check_period`` it scrubs block checksums across the
alive datanodes, walks every stripe for slots that are dead or
corrupt, queues damaged stripes, repairs them through the codes' own
:meth:`~repro.core.code.Code.plan_node_repair` planners — reading
partial parities from surviving daemons, decoding locally, and
re-placing rebuilt blocks on replacement nodes — and garbage-collects
orphaned blocks that no committed stripe accounts for (the debris of
aborted or expired two-phase writes).  Serving continues throughout:
reads never block on a repair (clients decode around damage on their
own), and writes are refused only when fewer datanodes are alive than
the code needs.

All of the namenode's state belongs to its event loop: request
handlers run synchronously on it, and the checker is one coroutine
on it that repairs one stripe at a time, so nothing takes a lock.
A caller on another thread — the cluster harness, a test — reads
that state through :meth:`~repro.net.AsyncRpcServer.on_loop`, which
runs the read on the loop and hands back its result.

Two-phase writes keep the namespace consistent under client failures:
``begin-write`` only reserves the name, the client places and stores
every stripe, and nothing becomes visible until ``commit-write``
publishes the whole file atomically — a client that dies mid-write
leaves no partial stripes behind, just an expirable reservation whose
blocks the next sweep deletes.

What is decided about a stripe — the namespace, store order, where a
failed slot is rebuilt, the repair plan, the put-back list, the
re-binding — is decided in :mod:`repro.cluster.namenode`, the model
MiniHDFS drives too; this module is the daemon around it: the loop,
awaits, liveness, scrub, GC.  With a ``rack_map`` (``node_id -> rack``)
``place-stripe`` places through
:class:`~repro.cluster.placement.RackAwarePlacement` instead of
:class:`~repro.cluster.placement.RandomSpreadPlacement` and a repair
rebuilds a dead slot in its own rack while that has a spare, so a
single rack loss stays within the code's failure-domain tolerance.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..cluster.datanode import CorruptBlockError
from ..cluster.namenode import (
    BlockId,
    FileInfo,
    NameNode,
    StripeInfo,
    choose_targets,
)
from ..cluster.placement import RackAwarePlacement, RandomSpreadPlacement
from ..cluster.topology import ClusterTopology, NodeInfo
from ..core import Code, UnrecoverableStripeError, make_code, run_plan
from ..net import AsyncRpcServer, ProtocolError, RetryPolicy, RpcPool
from .protocol import (
    NAMENODE_OPS,
    SERVICE_VERSION,
    WriteRefusedError,
    block_from_tuple,
    block_tuple,
    dispatch,
    expect,
    marshal_error,
    transfer_request,
    unmarshal_error,
)

#: Default silence budget before a datanode is declared dead; must
#: comfortably exceed the datanodes' heartbeat interval.
SILENCE_TIMEOUT = 5.0

#: Default checker sweep period.
CHECK_PERIOD = 2.0

#: Per-RPC timeout for namenode -> datanode calls (scrubs, repairs).
RPC_TIMEOUT = 5.0

#: A write reservation older than this is expired by the checker — the
#: client died mid-write; the name becomes available again (and the
#: write's orphaned blocks become GC fodder the same sweep).
RESERVATION_TIMEOUT = 120.0


@dataclass
class DataNodeRecord:
    """Liveness and location of one registered datanode."""

    node_id: int
    address: tuple[str, int]
    last_beat: float = field(default_factory=time.monotonic)
    blocks: int = 0


class NameNodeServer:
    """The metadata daemon; also home of the checker/repairer loop."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 block_bytes: int = 65536, seed: int = 0,
                 silence_timeout: float = SILENCE_TIMEOUT,
                 check_period: float = CHECK_PERIOD,
                 rpc_timeout: float = RPC_TIMEOUT,
                 reservation_timeout: float = RESERVATION_TIMEOUT,
                 rack_map: dict[int, int] | None = None):
        if block_bytes <= 0:
            raise ValueError("block size must be positive")
        self.block_bytes = block_bytes
        self.silence_timeout = silence_timeout
        self.check_period = check_period
        self.rpc_timeout = rpc_timeout
        self.reservation_timeout = reservation_timeout
        self.rack_map = (None if rack_map is None
                         else {int(k): int(v) for k, v in rack_map.items()})
        self._placement = (RandomSpreadPlacement() if rack_map is None
                           else RackAwarePlacement())
        self._namespace = NameNode()
        self._checksums: dict[BlockId, int] = {}
        self._pending: dict[str, float] = {}      # reserved name -> since
        self._datanodes: dict[int, DataNodeRecord] = {}
        self._codes: dict[str, Code] = {}
        self._rng = np.random.default_rng(seed)
        self._damaged: dict[tuple[str, int], set[int]] = {}
        self._repair_queue: deque[tuple[str, int]] = deque()
        self._queued: set[tuple[str, int]] = set()
        self._repairing: tuple[str, int] | None = None
        self._lost: set[tuple[str, int]] = set()
        self._stats = {"repairs_done": 0, "repair_failures": 0,
                       "checker_sweeps": 0, "degraded_blocks_seen": 0,
                       "gc_blocks": 0}
        self._kick = asyncio.Event()
        #: Set by each registration (see :meth:`wait_alive`).
        self._registration = asyncio.Event()
        self._pool = RpcPool(
            retry=RetryPolicy(attempts=1, timeout=rpc_timeout),
            error_unmarshaller=unmarshal_error)
        self.server = AsyncRpcServer(self._handle, host, port,
                                     error_marshaller=marshal_error,
                                     name="namenode")
        self.address = self.server.address
        self.server.add_shutdown_callback(self._pool.close)
        self.server.spawn(self._checker_loop())

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.server.close()

    def __enter__(self) -> "NameNodeServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _code(self, code_name) -> Code:
        expect("code_name", code_name, str)
        if code_name not in self._codes:
            try:
                self._codes[code_name] = make_code(code_name)
            except (KeyError, ValueError) as exc:
                # an unknown name, or a family's parameters out of
                # range ("rs(1,2)"): the client's mistake, and no op
                # that names a code declares either error
                raise ProtocolError(
                    f"unknown code name {code_name!r}: "
                    f"{exc.args[0] if exc.args else exc}") from exc
        return self._codes[code_name]

    def _alive_ids(self) -> list[int]:
        """Datanodes whose last heartbeat is within the silence budget."""
        horizon = time.monotonic() - self.silence_timeout
        return sorted(node_id
                      for node_id, record in self._datanodes.items()
                      if record.last_beat >= horizon)

    def _addresses(self) -> dict[int, tuple[str, int]]:
        return {node_id: record.address
                for node_id, record in self._datanodes.items()}

    async def wait_alive(self, node_ids) -> None:
        """Return once every datanode in ``node_ids`` is alive, woken by
        each registration (the cluster harness awaits this through
        :meth:`~repro.net.AsyncRpcServer.on_loop`)."""
        wanted = set(node_ids)
        while not wanted <= set(self._alive_ids()):
            self._registration.clear()
            await self._registration.wait()

    async def _dn_call(self, node_id: int, kind: str, data) -> object:
        """One pooled RPC to a datanode (scrub/repair/GC path)."""
        address = self._addresses().get(node_id)
        if address is None:
            raise ConnectionError(f"datanode {node_id} is not registered")
        return await self._pool.call(address, kind, data)

    def dn_call_sync(self, node_id: int, kind: str, data,
                     timeout: float | None = None) -> object:
        """:meth:`_dn_call` bridged for foreign threads (the cluster
        harness arms fault plans through this)."""
        return self.server.run_coroutine(
            self._dn_call(node_id, kind, data), timeout)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _handle(self, kind: str, data, peer) -> object:
        return dispatch(self, NAMENODE_OPS, kind, data, peer)

    # -- datanode-facing ----------------------------------------------
    def _op_dn_register(self, data, peer) -> dict:
        del peer
        version = data["version"]
        if type(version) is not int or version != SERVICE_VERSION:
            raise ProtocolError(
                f"datanode speaks service version {version!r}, "
                f"namenode speaks {SERVICE_VERSION}")
        node_id = expect("node_id", data["node_id"], int)
        try:
            host, port = data["address"]
        except (TypeError, ValueError):
            host = port = None
        if node_id < 0 or type(host) is not str or type(port) is not int:
            raise ProtocolError(
                f"dn-register needs node_id >= 0 and a (str host, int "
                f"port) address: {node_id}, {data['address']!r}")
        address = (host, port)
        record = self._datanodes.get(node_id)
        if record is None:
            self._datanodes[node_id] = DataNodeRecord(node_id, address)
        else:           # reconnect / restart: refresh address and beat
            record.address = address
            record.last_beat = time.monotonic()
        self._registration.set()
        return {"node_id": node_id, "block_bytes": self.block_bytes,
                "version": SERVICE_VERSION}

    def _op_dn_heartbeat(self, data, peer) -> dict:
        del peer
        node_id = expect("node_id", data["node_id"], int)
        blocks = expect("blocks", data.get("blocks", 0), int)
        record = self._datanodes.get(node_id)
        if record is None:
            raise ProtocolError(
                f"heartbeat from unregistered datanode {node_id}")
        record.last_beat = time.monotonic()
        record.blocks = blocks
        return {}

    # -- client-facing: namespace -------------------------------------
    def _op_locations(self, data, peer) -> dict:
        del data, peer
        return {"datanodes": self._addresses(), "alive": self._alive_ids()}

    def _op_list(self, data, peer) -> list:
        del data, peer
        return self._namespace.files()

    def _op_stat(self, data, peer) -> dict:
        del peer
        name = expect("name", data["name"], str)
        info = self._namespace.file(name)
        return {"name": name, "code_name": info.code_name,
                "size_bytes": info.size_bytes,
                "block_bytes": info.block_bytes,
                "stripes": [tuple(stripe.slot_nodes)
                            for stripe in info.stripes],
                "datanodes": self._addresses(),
                "alive": self._alive_ids()}

    def _op_begin_write(self, data, peer) -> dict:
        del peer
        name = expect("name", data["name"], str)
        code = self._code(data["code_name"])
        alive = self._alive_ids()
        if len(alive) < code.length:
            raise WriteRefusedError(
                f"{code.name} needs {code.length} datanodes, only "
                f"{len(alive)} alive — the service is read-only below "
                "the code's tolerance")
        if name in self._namespace:
            raise FileExistsError(f"file {name!r} already exists")
        if name in self._pending:
            raise WriteRefusedError(
                f"file {name!r} is already being written")
        self._pending[name] = time.monotonic()
        return {"block_bytes": self.block_bytes}

    def _op_place_stripe(self, data, peer) -> dict:
        del peer
        code = self._code(data["code_name"])
        exclude = expect("exclude", data.get("exclude", ()), list, tuple)
        if not all(type(node_id) is int for node_id in exclude):
            raise ProtocolError(f"exclude lists int node ids: {exclude!r}")
        exclude = set(exclude)
        eligible = [n for n in self._alive_ids() if n not in exclude]
        if len(eligible) < code.length:
            raise WriteRefusedError(
                f"{code.name} needs {code.length} distinct datanodes; "
                f"{len(eligible)} eligible (alive minus {sorted(exclude)})")
        placed = self._placement.place_stripe(
            code, self._topology(eligible), self._rng)
        return {"slot_nodes": tuple(int(n) for n in placed),
                "datanodes": self._addresses()}

    def _topology(self, eligible) -> ClusterTopology:
        """The eligible datanodes as the topology a placement policy reads.

        Every id up to the largest eligible one is a node, alive only if
        eligible — and, under a rack map, in it.  Racks are renumbered
        densely (the rack-aware policy iterates ``range(rack_count)``);
        without a map everything is rack 0.  The policy's
        :class:`~repro.cluster.placement.PlacementError` marshals to
        the client as a typed ``placement`` error.
        """
        rack_map = self.rack_map
        if rack_map is None:
            rack_map = dict.fromkeys(eligible, 0)
        usable = {n for n in eligible if n in rack_map}
        dense = {rack: index for index, rack
                 in enumerate(sorted({rack_map[n] for n in usable}))}
        return ClusterTopology(nodes=[
            NodeInfo(node_id=node_id,
                     rack=dense.get(rack_map.get(node_id, -1), 0),
                     alive=node_id in usable)
            for node_id in range(max(eligible) + 1)])

    def _op_commit_write(self, data, peer) -> dict:
        del peer
        name = expect("name", data["name"], str)
        code = self._code(data["code_name"])
        size_bytes = expect("size_bytes", data["size_bytes"], int)
        records = expect("stripes", data["stripes"], list, tuple)
        if size_bytes < 0:
            raise ProtocolError(f"size_bytes must be >= 0: {size_bytes}")
        info = FileInfo(name=name, code_name=data["code_name"],
                        size_bytes=size_bytes, block_bytes=self.block_bytes)
        symbols = {str(symbol) for symbol in range(code.layout.symbol_count)}
        checksums: dict[BlockId, int] = {}
        for index, record in enumerate(records):
            nodes = crcs = None
            if type(record) is dict:
                nodes, crcs = record.get("slot_nodes"), record.get("checksums")
            if not (type(nodes) in (list, tuple) and type(crcs) is dict
                    and all(type(node_id) is int for node_id in nodes)
                    and len(set(nodes)) == len(nodes) == code.length
                    and crcs.keys() == symbols
                    and all(type(crc) is int for crc in crcs.values())):
                raise ProtocolError(
                    f"stripe {index} needs {code.length} distinct int "
                    f"slot_nodes and an int checksum per {code.name} "
                    f"symbol '0'..'{len(symbols) - 1}'")
            stripe = StripeInfo(name, index, code, tuple(nodes))
            checksums.update((stripe.block_id(int(symbol)), crc)
                             for symbol, crc in crcs.items())
            info.stripes.append(stripe)
        if name not in self._pending:
            raise ProtocolError(f"commit of {name!r} without begin-write")
        # Atomic publish: namespace + checksums land together.
        self._namespace.create_file(info)
        self._checksums.update(checksums)
        del self._pending[name]
        return {"stripes": len(info.stripes)}

    def _op_abort_write(self, data, peer) -> dict:
        del peer
        name = expect("name", data["name"], str)
        return {"aborted": self._pending.pop(name, None) is not None}

    def _op_report_corrupt(self, data, peer) -> dict:
        """A client hit a corrupt or missing block: queue the stripe now
        rather than waiting for the next scrub."""
        del peer
        block = block_from_tuple(data["block"])
        node_id = expect("node_id", data["node_id"], int)
        key = (block.file_name, block.stripe_index)
        try:
            stripe = self._namespace.stripe_of(block)
        except IndexError as exc:
            raise ProtocolError(f"report-corrupt: {exc}") from exc
        slot = stripe.slot_of_node(node_id)
        if slot is not None:
            self._damaged.setdefault(key, set()).add(slot)
            self._enqueue_repair(key)
        self._kick.set()
        return {}

    def _op_status(self, data, peer) -> dict:
        del data, peer
        alive = set(self._alive_ids())
        now = time.monotonic()
        datanodes = {}
        for node_id, record in self._datanodes.items():
            entry = {"address": record.address,
                     "alive": node_id in alive,
                     "blocks": record.blocks,
                     "silence_s": round(now - record.last_beat, 3)}
            if self.rack_map is not None:
                entry["rack"] = self.rack_map.get(node_id)
            datanodes[node_id] = entry
        stripes = self._namespace.stripes()
        # Stripes with a slot on a dead node: the checker's backlog even
        # before its next sweep has noticed — the load/CI settle
        # condition keys off this going to zero.
        degraded_stripes = sum(
            1 for stripe in stripes
            if (stripe.file_name, stripe.stripe_index) not in self._lost
            and any(node not in alive for node in stripe.slot_nodes))
        return {
            "version": SERVICE_VERSION,
            "block_bytes": self.block_bytes,
            "datanodes": datanodes,
            "alive": sorted(alive),
            "files": len(self._namespace.files()),
            "pending_writes": len(self._pending),
            "stripes": len(stripes),
            "repair": {
                "queued": len(self._repair_queue),
                "in_progress": self._repairing is not None,
                "damaged_stripes": len(self._damaged),
                "degraded_stripes": degraded_stripes,
                "done": self._stats["repairs_done"],
                "failed": self._stats["repair_failures"],
                "lost": sorted(self._lost),
            },
            "checker": {
                "sweeps": self._stats["checker_sweeps"],
                "period_s": self.check_period,
                "silence_timeout_s": self.silence_timeout,
                "gc_blocks": self._stats["gc_blocks"],
            },
        }

    def _op_shutdown(self, data, peer) -> dict:
        del data, peer
        self.close()            # answered first, then the loop drains
        return {}

    # ------------------------------------------------------------------
    # Checker / repairer loop
    # ------------------------------------------------------------------
    def _enqueue_repair(self, key: tuple[str, int]) -> None:
        if key not in self._queued and key not in self._lost:
            self._queued.add(key)
            self._repair_queue.append(key)

    async def _checker_loop(self) -> None:
        """Sweep, then repair, every ``check_period`` or on a kick, until
        the server's drain cancels it."""
        while True:
            try:
                async with asyncio.timeout(self.check_period):
                    await self._kick.wait()
            except TimeoutError:
                pass
            self._kick.clear()
            try:
                await self._sweep()
            except Exception:       # a sick sweep must not kill the loop
                pass
            await self._drain_repairs()

    async def _sweep(self) -> None:
        """One checker pass: scrub checksums, find damage, GC orphans."""
        alive = set(self._alive_ids())
        # A snapshot: commits land while the scrub RPCs are in flight.
        # slot_nodes may be read live, since only _repair_stripe
        # re-homes a stripe and it runs after the sweep on this coroutine.
        stripes = self._namespace.stripes()
        expected = dict(self._checksums)
        now = time.monotonic()
        for name, since in list(self._pending.items()):
            if now - since > self.reservation_timeout:
                del self._pending[name]     # writer died; free the name
        self._stats["checker_sweeps"] += 1
        # Scrub: fetch each alive datanode's full inventory of current
        # CRCs.
        inventories: dict[int, dict] = {}
        for node_id in sorted(alive):
            try:
                reply = await self._dn_call(node_id, "checksums",
                                            {"blocks": None})
            except (ConnectionError, OSError, ProtocolError):
                continue        # silent node: liveness will catch it
            inventories[node_id] = reply["checksums"]
        # Walk stripes: a slot on a dead node, or one whose node lacks
        # a block we believe it holds or reports another CRC for it,
        # is damaged -> repair queue.  Whatever an inventory lists that
        # no stripe claims here is left for the GC pass to judge.
        unclaimed = {node_id: set(crcs)
                     for node_id, crcs in inventories.items()}
        for stripe in stripes:
            slots = stripe.failed_slots(set(stripe.slot_nodes) - alive)
            for node_id, block in stripe.placed_blocks():
                crcs = inventories.get(node_id)
                if crcs is not None:
                    wire = block_tuple(block)
                    unclaimed[node_id].discard(wire)
                    seen = crcs.get(wire)
                    if seen is None or seen != expected.get(block):
                        slots.add(stripe.slot_of_node(node_id))
            if slots:
                key = (stripe.file_name, stripe.stripe_index)
                self._damaged.setdefault(key, set()).update(slots)
                self._enqueue_repair(key)
        await self._gc_orphans(unclaimed)

    async def _gc_orphans(self, unclaimed: dict[int, set]) -> None:
        """Delete the blocks no committed stripe accounts for, out of
        those the sweep's walk found ``unclaimed`` on each datanode.

        An aborted or expired two-phase write leaves its blocks behind
        on the datanodes (client-side deletes are best-effort only);
        so can a repair that re-homed a slot away from a node that
        later revived.  Keep/delete decisions are made against
        *current* metadata — not the sweep-start snapshot — so a file
        that committed while the scrub RPCs were in flight keeps its
        fresh blocks: a ``_pending`` name is an in-flight write, and
        stripes owned by the repair queue are left untouched until the
        repair settles.
        """
        doomed: dict[int, list[tuple]] = {}
        for node_id, entries in unclaimed.items():
            for entry in entries:
                name, stripe_index, symbol_index = entry
                if name in self._pending:
                    continue                # write still in flight
                try:
                    stripe = self._namespace.stripe_of(BlockId(*entry))
                except (FileNotFoundError, IndexError):
                    # aborted/expired/unknown, or outside the file
                    doomed.setdefault(node_id, []).append(entry)
                    continue
                key = (name, stripe_index)
                if (key in self._damaged or key in self._queued
                        or key == self._repairing):
                    continue                # the repairer owns this stripe
                if node_id not in stripe.replica_nodes(symbol_index):
                    # stale copy from before a repair re-homed it
                    doomed.setdefault(node_id, []).append(entry)
        for node_id, entries in doomed.items():
            try:
                reply = await self._dn_call(node_id, "delete",
                                            {"blocks": entries})
            except (ConnectionError, OSError, ProtocolError):
                continue        # unreachable: next sweep retries
            self._stats["gc_blocks"] += int(reply.get("dropped", 0))

    async def _drain_repairs(self) -> None:
        while self._repair_queue:
            key = self._repair_queue.popleft()
            self._queued.discard(key)
            self._repairing = key
            requeue = False
            try:
                requeue = not await self._repair_stripe(key)
            except UnrecoverableStripeError:
                self._lost.add(key)
                self._damaged.pop(key, None)
                self._stats["repair_failures"] += 1
            except CorruptBlockError as error:
                # A repair source turned out corrupt: widen the damage
                # set and try again next round.
                stripe = self._namespace.file(key[0]).stripes[key[1]]
                slot = stripe.slot_of_node(error.node_id)
                if slot is not None:
                    self._damaged.setdefault(key, set()).add(slot)
                self._stats["repair_failures"] += 1
                requeue = True
            except Exception:
                self._stats["repair_failures"] += 1
                requeue = True
            finally:
                self._repairing = None
            if requeue:
                self._enqueue_repair(key)
                return      # let liveness/scrub state evolve first

    async def _repair_stripe(self, key: tuple[str, int]) -> bool:
        """Rebuild one stripe's damaged slots; True when fully handled.

        Serving continues while this awaits its repair RPCs: readers
        decode around the damage client-side until the repair lands.
        Only the checker coroutine repairs, one stripe at a time, and
        ``_repairing`` names that stripe so the GC pass leaves it be.
        """
        alive = set(self._alive_ids())
        stripe = self._namespace.file(key[0]).stripes[key[1]]
        damaged = set(self._damaged.get(key, ()))
        damaged |= stripe.failed_slots(set(stripe.slot_nodes) - alive)
        if not damaged:
            self._damaged.pop(key, None)
            return True             # healed elsewhere (e.g. node revived)
        targets = choose_targets(
            stripe, damaged, alive,
            None if self.rack_map is None else self.rack_map.get)
        # planned even with no spare to put it on: a stripe past
        # decoding is lost now, not requeued forever
        plan = stripe.plan_repair(damaged, targets or {})
        if targets is None:
            return False            # no replacement capacity yet: requeue
        payloads: list[np.ndarray] = []
        for transfer in plan.fetches:
            kind, data = transfer_request(
                stripe.file_name, stripe.stripe_index, transfer)
            reply = await self._dn_call(
                stripe.slot_nodes[transfer.source_slot], kind, data)
            payloads.append(np.frombuffer(reply["data"], dtype=np.uint8))
        puts = stripe.rebuilt_blocks(targets, run_plan(plan, payloads))
        for node_id, block, payload in puts:
            reply = await self._dn_call(
                node_id, "put", {"block": block_tuple(block),
                                 "data": payload.tobytes()})
            crc = self._checksums.get(block)
            if crc is not None and reply["crc"] != crc:
                raise CorruptBlockError(node_id, block)
        stripe.rehome(targets)
        self._damaged.pop(key, None)
        self._stats["repairs_done"] += 1
        return True
