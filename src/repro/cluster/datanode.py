"""DataNode: per-node physical block storage.

Stores actual block bytes in memory keyed by
:class:`~repro.cluster.blocks.BlockId`, so every repair plan and
degraded read in the examples and integration tests moves real data
that can be checked bit-for-bit.

A block is held as one immutable ``bytes`` object.  ``put`` keeps a
``bytes`` payload as it is — the datanode daemon stores the very object
its frame decoder made, with no copy — and copies any other buffer
once; ``get`` hands back the stored object, which nobody can write
through.  :class:`~repro.cluster.filesystem.MiniHDFS` wraps what it
reads in a zero-copy ``np.frombuffer`` view.  The module imports
nothing beyond :mod:`repro.cluster.blocks` and the checksum, so a
daemon serving blocks loads no numpy and no coding stack.

Every ``put`` records a CRC-32 of the stored bytes; verified reads
(:meth:`DataNode.get` with ``verify=True`` — the default on every
cluster read path) recompute it and raise a typed
:class:`CorruptBlockError` on mismatch instead of silently serving
rot.  The CRC is :func:`repro.gf.crc32` (native kernel or zlib, the
same number), handed the stored ``bytes``: a verify is one call into
C.  The storage-service checker loop and the degraded-read fallback
both key off that exception.  :meth:`DataNode.corrupt` is the matching
fault hook: it swaps in a copy with one byte flipped *without*
touching the recorded checksum, exactly what a latent sector error
looks like from above.
"""

from __future__ import annotations

from ..gf.native import crc32
from .blocks import BlockId, BlockNotFoundError, CorruptBlockError


def block_checksum(data) -> int:
    """CRC-32 of any buffer holding a block (the write-time stamp)."""
    return crc32(data)


class DataNode:
    """In-memory block store of one storage node."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._blocks: dict[BlockId, bytes] = {}
        self._checksums: dict[BlockId, int] = {}

    def put(self, block: BlockId, data) -> int:
        """Store a block; returns the recorded CRC-32.

        A ``bytes`` payload is kept as it is; any other buffer (a
        ``bytearray``, ``memoryview``, ndarray row) is copied once.
        """
        stored = data if isinstance(data, bytes) else memoryview(data).tobytes()
        self._blocks[block] = stored
        crc = crc32(stored)
        self._checksums[block] = crc
        return crc

    def get(self, block: BlockId, verify: bool = True) -> bytes:
        """The stored bytes themselves (immutable, so never a copy)."""
        try:
            data = self._blocks[block]
        except KeyError:
            raise BlockNotFoundError(
                f"node {self.node_id} does not hold {block}"
            ) from None
        if verify and crc32(data) != self._checksums[block]:
            raise CorruptBlockError(self.node_id, block)
        return data

    def checksum(self, block: BlockId) -> int:
        """The CRC-32 recorded when the block was written."""
        try:
            return self._checksums[block]
        except KeyError:
            raise BlockNotFoundError(
                f"node {self.node_id} does not hold {block}"
            ) from None

    def current_checksum(self, block: BlockId) -> int:
        """CRC-32 of the bytes as they are *now* (what a scrub sees)."""
        if block not in self._blocks:
            raise BlockNotFoundError(
                f"node {self.node_id} does not hold {block}"
            ) from None
        return crc32(self._blocks[block])

    def corrupt(self, block: BlockId, offset: int = 0) -> None:
        """Fault injection: flip one stored byte, keep the checksum.

        The next verified read of the block raises
        :class:`CorruptBlockError`, and a checksum scrub sees the
        mismatch — exactly the silent-corruption scenario the checker
        loop exists for.  The flipped copy replaces the stored object,
        so bytes already handed out stay as they were.
        """
        if block not in self._blocks:
            raise BlockNotFoundError(
                f"node {self.node_id} does not hold {block}"
            ) from None
        data = self._blocks[block]
        if not len(data):
            return
        flipped = bytearray(data)
        flipped[offset % len(flipped)] ^= 0xFF
        self._blocks[block] = bytes(flipped)

    def has(self, block: BlockId) -> bool:
        return block in self._blocks

    def drop(self, block: BlockId) -> None:
        self._blocks.pop(block, None)
        self._checksums.pop(block, None)

    def wipe(self) -> int:
        """Erase all blocks (a permanent node loss); returns count erased."""
        count = len(self._blocks)
        self._blocks.clear()
        self._checksums.clear()
        return count

    def block_ids(self) -> list[BlockId]:
        return list(self._blocks)

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def used_bytes(self) -> int:
        return sum(len(buf) for buf in self._blocks.values())
