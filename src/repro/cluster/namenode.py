"""NameNode: file, stripe and block-location metadata — the stripe model.

Mirrors the role of HDFS's NameNode plus the stripe bookkeeping that
Facebook's HDFS-RAID keeps in its RaidNode: which files exist, how each
file is striped, which code each stripe uses, and on which physical
node every replica of every coded symbol lives.

Every decision about a stripe that is not I/O is made here, once, for
both drivers (:class:`~repro.cluster.filesystem.MiniHDFS` in process,
the namenode daemon over sockets): the order its replicas are stored in
(:meth:`StripeInfo.placed_blocks`), where a failed slot is rebuilt
(:func:`choose_targets`), whether and how it is repaired
(:meth:`StripeInfo.plan_repair`), what is put back where
(:meth:`StripeInfo.rebuilt_blocks`) and the re-binding of its slots
(:meth:`StripeInfo.rehome`, the only write to ``slot_nodes``).  The
drivers keep the I/O: fetching, putting, locks and liveness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core import Code, RepairPlan, UnrecoverableStripeError
from ..core.polygon_local import PolygonLocalCode
from .blocks import BlockId


@dataclass
class StripeInfo:
    """Placement record of one stripe.

    ``slot_nodes[i]`` is the physical node bound to the code's node-slot
    ``i``; symbol replica locations derive from the code layout.
    """

    file_name: str
    stripe_index: int
    code: Code
    slot_nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.slot_nodes) != self.code.length:
            raise ValueError(
                f"stripe needs {self.code.length} nodes, got {len(self.slot_nodes)}"
            )
        if len(set(self.slot_nodes)) != len(self.slot_nodes):
            raise ValueError("a stripe cannot place two slots on one node")

    def block_id(self, symbol_index: int) -> BlockId:
        return BlockId(self.file_name, self.stripe_index, symbol_index)

    def replica_nodes(self, symbol_index: int) -> tuple[int, ...]:
        """Physical nodes holding copies of the symbol."""
        symbol = self.code.layout.symbols[symbol_index]
        return tuple(self.slot_nodes[slot] for slot in symbol.replicas)

    def slot_of_node(self, node_id: int) -> int | None:
        """The stripe slot bound to ``node_id`` (None if not involved)."""
        try:
            return self.slot_nodes.index(node_id)
        except ValueError:
            return None

    def failed_slots(self, failed_nodes: set[int]) -> set[int]:
        """Stripe slots whose physical node is in ``failed_nodes``."""
        return {
            slot for slot, node in enumerate(self.slot_nodes)
            if node in failed_nodes
        }

    def placed_blocks(self) -> list[tuple[int, BlockId]]:
        """Every ``(node_id, block)`` replica of the stripe, symbol-major
        — the order both write paths store them in."""
        placed: list[tuple[int, BlockId]] = []
        for symbol in self.code.layout.symbols:
            block = self.block_id(symbol.index)
            placed.extend((self.slot_nodes[slot], block)
                          for slot in symbol.replicas)
        return placed

    def _rebound(self, targets: dict[int, int]) -> tuple[int, ...]:
        """``slot_nodes`` with each slot in ``targets`` moved to its
        node; ValueError if two slots would share a node."""
        return replace(self, slot_nodes=tuple(
            targets.get(slot, node)
            for slot, node in enumerate(self.slot_nodes))).slot_nodes

    def plan_repair(self, failed_slots, targets: dict[int, int]) -> RepairPlan:
        """The code's repair plan for ``failed_slots``, rebuilt on ``targets``.

        Raises :class:`~repro.core.UnrecoverableStripeError` for a
        pattern past decoding and ValueError for ``targets`` (``slot ->
        node``) that would bind two slots to one node — both before a
        driver has moved a byte.
        """
        failed = tuple(sorted(failed_slots))
        if not self.code.can_recover(failed):
            raise UnrecoverableStripeError(
                self.code.name, failed,
                self.code.layout.lost_symbols(set(failed)))
        self._rebound(targets)
        return self.code.plan_node_repair(failed)

    def rebuilt_blocks(self, targets: dict[int, int], recovered: dict) -> list:
        """The put-back list ``(node_id, block, bytes)``: every symbol of
        every slot in ``targets``, from a plan run's ``recovered``."""
        puts = []
        for slot in sorted(targets):
            for symbol in self.code.layout.symbols_on_slot(slot):
                if symbol not in recovered:
                    raise UnrecoverableStripeError(
                        self.code.name, tuple(sorted(targets)), (symbol,))
                puts.append((targets[slot], self.block_id(symbol),
                             recovered[symbol]))
        return puts

    def rehome(self, targets: dict[int, int]) -> None:
        """Bind each slot in ``targets`` to its node, once its blocks
        are there (a refused binding leaves the stripe as it was)."""
        self.slot_nodes = self._rebound(targets)


@dataclass
class FileInfo:
    """One stored file."""

    name: str
    code_name: str
    size_bytes: int
    block_bytes: int
    stripes: list[StripeInfo] = field(default_factory=list)


class NameNode:
    """In-memory metadata service."""

    def __init__(self):
        self._files: dict[str, FileInfo] = {}

    def create_file(self, info: FileInfo) -> None:
        if info.name in self._files:
            raise FileExistsError(f"file {info.name!r} already exists")
        self._files[info.name] = info

    def delete_file(self, name: str) -> FileInfo:
        if name not in self._files:
            raise FileNotFoundError(name)
        return self._files.pop(name)

    def file(self, name: str) -> FileInfo:
        if name not in self._files:
            raise FileNotFoundError(name)
        return self._files[name]

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def files(self) -> list[str]:
        return sorted(self._files)

    def stripes(self) -> list[StripeInfo]:
        """Every stripe in the namespace."""
        return [s for info in self._files.values() for s in info.stripes]

    def stripes_on_node(self, node_id: int) -> list[StripeInfo]:
        """Stripes with at least one slot bound to ``node_id``."""
        return [
            stripe for stripe in self.stripes()
            if stripe.slot_of_node(node_id) is not None
        ]

    def blocks_on_node(self, node_id: int) -> list[BlockId]:
        """Every block replica resident on ``node_id``."""
        return [block for stripe in self.stripes_on_node(node_id)
                for node, block in stripe.placed_blocks() if node == node_id]

    def stripe_of(self, block: BlockId) -> StripeInfo:
        """The stripe ``block`` belongs to: FileNotFoundError for an
        unknown file, IndexError for a stripe or symbol index outside it
        (negative ones included — this is where wire input lands)."""
        stripes = self.file(block.file_name).stripes
        if not 0 <= block.stripe_index < len(stripes):
            raise IndexError(f"{block}: the file has {len(stripes)} stripes")
        stripe = stripes[block.stripe_index]
        if not 0 <= block.symbol_index < stripe.code.layout.symbol_count:
            raise IndexError(f"{block}: {stripe.code.name} has "
                             f"{stripe.code.layout.symbol_count} symbols")
        return stripe


def choose_targets(stripe: StripeInfo, failed_slots, alive,
                   rack_of=None) -> dict[int, int] | None:
    """Where each failed slot is rebuilt: ``slot -> node``.

    In place when the slot's node is in ``alive`` (a corrupt replica on
    a healthy node), else on a spare outside the stripe.  With
    ``rack_of`` (``node -> rack``) the spare comes from the dead node's
    own rack if it has one, then from a rack hosting no other failure
    domain of this stripe (a slot outside any declared domain counts as
    its own), then from anywhere — so a re-homed stripe keeps the rack
    contract its placement was validated against at write time
    whenever the cluster allows.  Lowest node id within a tier, so
    seeded runs reproduce.  ``None`` when the spares run out.
    """
    alive = set(alive)
    bound = list(stripe.slot_nodes)
    spare = sorted(alive - set(bound))
    groups = (stripe.code.local_group_slots()
              if isinstance(stripe.code, PolygonLocalCode) else {})
    domain = {slot: name for name, slots in groups.items() for slot in slots}
    targets: dict[int, int] = {}
    for slot in sorted(failed_slots):
        if bound[slot] in alive:
            targets[slot] = bound[slot]
            continue
        if not spare:
            return None

        def tier(node: int) -> int:
            rack = rack_of(node)
            if rack == rack_of(bound[slot]):
                return 0
            return 1 + any(
                rack_of(neighbour) == rack
                and domain.get(other, other) != domain.get(slot, slot)
                for other, neighbour in enumerate(bound) if other != slot)

        pick = spare[0] if rack_of is None else min(spare, key=tier)
        spare.remove(pick)
        targets[slot] = bound[slot] = pick
    return targets
