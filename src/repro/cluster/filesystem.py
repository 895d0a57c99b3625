"""MiniHDFS: the coded distributed file system facade.

Ties the substrate together the way HDFS + HDFS-RAID does in the
paper's implementation: the client writes a file, the RaidNode-style
write path stripes and encodes it under the chosen code, placement
binds stripe slots to DataNodes, and reads transparently fall back to
degraded reads (partial-parity reconstruction) when replicas are down.

All bytes are real and all movement is charged to the
:class:`~repro.cluster.network.NetworkLedger`, so integration tests can
assert both content round-trips and the paper's bandwidth numbers.

MiniHDFS is one of two drivers of the stripe model in
:mod:`~repro.cluster.namenode` (the namenode daemon is the other): the
model says which block goes where, how a stripe is repaired and on
which nodes; this module moves the bytes and keeps the ledger.
"""

from __future__ import annotations

import numpy as np

from ..core import (
    Code,
    PlanExecutionError,
    ReadPlan,
    RepairPlan,
    make_code,
    read_only_view,
    run_plan,
)
from ..gf import linear_combine
from .datanode import CorruptBlockError, DataNode
from .namenode import BlockId, FileInfo, NameNode, StripeInfo
from .network import NetworkLedger
from .placement import PlacementPolicy, RandomSpreadPlacement
from .topology import ClusterTopology


#: Cap on the data payload stacked into one batched encode call; keeps
#: the write path's transient memory bounded for huge files while still
#: amortising kernel overhead across many stripes.
ENCODE_BATCH_BYTES = 64 * 2**20


class MiniHDFS:
    """An in-memory coded DFS over a cluster topology."""

    def __init__(self, topology: ClusterTopology,
                 block_bytes: int = 4096,
                 placement: PlacementPolicy | None = None,
                 seed: int = 0):
        if block_bytes <= 0:
            raise ValueError("block size must be positive")
        self.topology = topology
        self.block_bytes = block_bytes
        self.placement = placement if placement is not None else RandomSpreadPlacement()
        self.namenode = NameNode()
        self.datanodes = [DataNode(node.node_id) for node in topology.nodes]
        self.ledger = NetworkLedger()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write_file(self, name: str, data: bytes, code_name: str) -> FileInfo:
        """Stripe, encode and store ``data`` under ``code_name``.

        The final stripe is zero-padded to a whole number of blocks, as
        HDFS-RAID does; the true length is kept in the metadata so reads
        return exactly the original bytes.  Stripes encode through
        batched kernel applications
        (:meth:`~repro.core.Code.encode_stripes`, batches capped at
        :data:`ENCODE_BATCH_BYTES` of payload so transient memory stays
        bounded for huge files) — bit-identical to stripe-by-stripe
        encoding, with the per-call overhead amortised across the file;
        placement and ledger charges are per stripe and per block
        exactly as before.
        """
        code = make_code(code_name)
        info = FileInfo(
            name=name, code_name=code_name,
            size_bytes=len(data), block_bytes=self.block_bytes,
        )
        stripes = code.split_stripes(data, self.block_bytes)
        batch = max(1, ENCODE_BATCH_BYTES // (code.k * self.block_bytes))
        for start in range(0, len(stripes), batch):
            for offset, encoded in enumerate(
                    code.encode_stripes(stripes[start:start + batch])):
                info.stripes.append(
                    self._store_stripe(info, start + offset, code, encoded))
        self.namenode.create_file(info)
        return info

    def _store_stripe(self, info: FileInfo, stripe_index: int, code: Code,
                      encoded: list) -> StripeInfo:
        stripe = StripeInfo(
            info.name, stripe_index, code,
            self.placement.place_stripe(code, self.topology, self._rng))
        for node_id, block in stripe.placed_blocks():
            self.datanodes[node_id].put(block, encoded[block.symbol_index])
            self.ledger.charge(None, node_id, self.block_bytes, "write")
        return stripe

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read_file(self, name: str, reader_node: int | None = None) -> bytes:
        """Read a whole file, reconstructing through failures if needed."""
        info = self.namenode.file(name)
        pieces: list[bytes] = []
        for stripe in info.stripes:
            for symbol in stripe.code.layout.data_symbols():
                pieces.append(bytes(self._read_symbol(stripe, symbol.index,
                                                      reader_node)))
        return b"".join(pieces)[:info.size_bytes]

    def read_block(self, block: BlockId, reader_node: int | None = None) -> bytes:
        """Read one block, degrading to reconstruction when necessary."""
        return bytes(self._read_symbol(self.namenode.stripe_of(block),
                                       block.symbol_index, reader_node))

    def _read_symbol(self, stripe: StripeInfo, symbol_index: int,
                     reader_node: int | None) -> np.ndarray:
        """Read one symbol, degrading past failed *and corrupt* replicas.

        Every block fetched on the way is checksum-verified by the
        DataNode; a corrupt replica's slot joins the failed set and the
        read re-plans against the survivors, so silent corruption turns
        into a degraded read instead of served garbage.  Only a pattern
        the code cannot decode raises.
        """
        failed_slots = stripe.failed_slots(set(self.topology.failed_nodes()))
        reader_slot = (stripe.slot_of_node(reader_node)
                       if reader_node is not None else None)
        return self._around_corruption(
            stripe, failed_slots,
            lambda: self.run_read_plan(
                stripe,
                stripe.code.plan_degraded_read(symbol_index, failed_slots,
                                               reader_slot=reader_slot),
                reader_node))

    # ------------------------------------------------------------------
    # Plan transport: datanode reads in, ledger charges out
    # ------------------------------------------------------------------
    def _run_plan(self, stripe: StripeInfo, plan, purpose: str, endpoints):
        """:func:`~repro.core.executor.run_plan` over this cluster's nodes.

        A fetch combines checksum-verified blocks its (live) source
        DataNode holds (a plain copy is a read-only view of the stored
        block).  Each transfer that lands, DECODED hand-offs included,
        is charged a block between the ``(source node, destination
        node)`` that ``endpoints(transfer)`` names, in plan order.
        """
        payloads: list[np.ndarray] = []
        for transfer, fetched, _ in plan.schedule:
            if fetched:
                node_id = stripe.slot_nodes[transfer.source_slot]
                if not self.topology.is_alive(node_id):
                    raise PlanExecutionError(
                        f"plan reads from failed node {node_id}")
                stored = [self.datanodes[node_id].get(stripe.block_id(symbol))
                          for symbol in transfer.symbols_read]
                if transfer.plain_copy:
                    payloads.append(read_only_view(stored[0]))
                else:
                    payloads.append(linear_combine(transfer.coefficients, stored))
            source, dest = endpoints(transfer)
            self.ledger.charge(
                source, dest, self.block_bytes, purpose,
                cross_rack=(source is not None and dest is not None
                            and self.topology.cross_rack(source, dest)))
        return run_plan(plan, payloads)

    def run_read_plan(self, stripe: StripeInfo, plan: ReadPlan,
                      reader_node: int | None) -> np.ndarray:
        """Execute a read plan for a reader on ``reader_node`` (``None``
        for an off-cluster client); returns the requested symbol's bytes."""
        return self._run_plan(
            stripe, plan, "degraded-read" if plan.degraded else "read",
            lambda transfer: (stripe.slot_nodes[transfer.source_slot],
                              reader_node))

    def run_repair_plan(self, stripe: StripeInfo, plan: RepairPlan,
                        relocate: dict[int, int]) -> dict[int, np.ndarray]:
        """Execute a repair plan; returns ``symbol -> recovered bytes``.

        ``relocate`` maps a failed node to the node that takes over its
        slot; every other slot is rebuilt (and charged) where it lives.
        """
        def home(slot: int | None) -> int | None:
            if slot is None:
                return None         # synthesised at the destination
            node_id = stripe.slot_nodes[slot]
            return relocate.get(node_id, node_id)

        return self._run_plan(
            stripe, plan, "repair",
            lambda transfer: (home(transfer.source_slot),
                              home(transfer.dest_slot)))

    @staticmethod
    def _around_corruption(stripe: StripeInfo, failed_slots: set[int], attempt):
        """Call ``attempt()`` until no source it reads is corrupt.

        A :class:`CorruptBlockError` adds the rotten replica's slot to
        ``failed_slots`` — the set ``attempt`` plans against — and
        retries; the planner raises once the pattern is past decoding.
        """
        while True:
            try:
                return attempt()
            except CorruptBlockError as error:
                slot = stripe.slot_of_node(error.node_id)
                if slot is None or slot in failed_slots:
                    raise
                failed_slots.add(slot)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def fail_node(self, node_id: int, permanent: bool = False) -> None:
        """Mark a node dead; a permanent failure also erases its disk."""
        self.topology.fail(node_id)
        if permanent:
            self.datanodes[node_id].wipe()

    def restore_node(self, node_id: int) -> None:
        """Bring a node back (blocks intact only after transient failures)."""
        self.topology.restore(node_id)

    def _repair_stripes(self, stripes, rebuilt_node: int | None,
                        relocate: dict[int, int]) -> int:
        """Plan, run and store one combined repair per wounded stripe.

        The body :meth:`repair_node` and :meth:`repair_all` share;
        returns the repair bytes moved.  Every stripe is planned before
        any byte moves, so a pattern past decoding or a ``relocate``
        stand-in the stripe already uses raises with nothing changed.
        With ``rebuilt_node`` only that node's slot is put back (on
        ``relocate``'s stand-in for it); otherwise every failed slot
        is.  A source replica that turns out corrupt is promoted to
        failed, planned around and rebuilt in place, exactly as on the
        read path.
        """
        before = self.ledger.total_bytes("repair")
        failed = set(self.topology.failed_nodes())
        jobs = []
        for stripe in stripes:
            if down := stripe.failed_slots(failed):
                rebuild = (down if rebuilt_node is None
                           else {stripe.slot_of_node(rebuilt_node)})
                targets = {slot: relocate.get(stripe.slot_nodes[slot],
                                              stripe.slot_nodes[slot])
                           for slot in rebuild}
                jobs.append((stripe, down, targets,
                             stripe.plan_repair(down, targets)))
        for stripe, down, targets, plan in jobs:
            failed_slots = set(down)
            recovered = self._around_corruption(
                stripe, failed_slots,
                lambda: self.run_repair_plan(
                    stripe,
                    # a retry means a corrupt source joined failed_slots
                    plan if failed_slots == down
                    else stripe.plan_repair(failed_slots, targets),
                    relocate))
            for slot in failed_slots - down:    # corrupt sources, in place
                targets[slot] = stripe.slot_nodes[slot]
            for node_id, block, data in stripe.rebuilt_blocks(targets,
                                                              recovered):
                self.datanodes[node_id].put(block, data)
            stripe.rehome(targets)
        return self.ledger.total_bytes("repair") - before

    def repair_node(self, node_id: int, replacement: int | None = None) -> int:
        """Rebuild every stripe touching a failed node; returns bytes moved.

        The rebuilt blocks land on ``replacement`` (default: the node
        itself, which is restored empty first).  Raises
        :class:`~repro.core.UnrecoverableStripeError` if any stripe has
        already lost data, and ValueError — before anything moves — for
        a ``replacement`` that is failed or already holds a slot of a
        stripe being repaired.
        """
        if self.topology.is_alive(node_id):
            raise ValueError(f"node {node_id} is not failed")
        if replacement is not None and not self.topology.is_alive(replacement):
            raise ValueError(f"replacement node {replacement} is failed")
        moved = self._repair_stripes(
            self.namenode.stripes_on_node(node_id), node_id,
            {} if replacement is None else {node_id: replacement})
        if replacement is None:
            self.topology.restore(node_id)
        return moved

    def repair_all(self) -> int:
        """Rebuild every failed node in place; returns bytes moved.

        Multi-node failures are repaired stripe-by-stripe with a single
        combined plan per stripe (the paper's two-node partial-parity
        repair), so the accounting matches Section 2.1's "10 blocks for
        a pentagon double repair" exactly.
        """
        failed = self.topology.failed_nodes()
        moved = self._repair_stripes(self.namenode.stripes(), None, {})
        for node_id in failed:
            self.topology.restore(node_id)
        return moved

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        return sum(node.used_bytes for node in self.datanodes)

    def storage_overhead(self, name: str) -> float:
        """Measured bytes stored per byte of (padded) file data."""
        info = self.namenode.file(name)
        data_bytes = sum(s.code.k for s in info.stripes) * self.block_bytes
        stored = sum(
            s.code.total_blocks for s in info.stripes
        ) * self.block_bytes
        return stored / data_bytes

    def verify_file(self, name: str, original: bytes) -> bool:
        """Bit-exact round-trip check against the original contents."""
        return self.read_file(name) == original
