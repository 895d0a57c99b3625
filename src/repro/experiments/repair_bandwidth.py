"""Section 3.1 / 2.1 repair-bandwidth claims, measured on the cluster.

The paper's specific numbers:

* a pentagon two-node repair moves **10 blocks** total (6 copies +
  3 partial parities + 1 re-mirror);
* an on-the-fly degraded read of a block whose two replicas are down
  costs **3 blocks** under the pentagon vs **9 blocks** under the
  (10,9) RAID+m scheme;
* single-node repair is repair-by-transfer: blocks-per-node plain
  copies (4 for the pentagon, 6 for the heptagon), no decoding.

Rather than trusting the planners' arithmetic, this experiment builds a
real MiniHDFS, writes real bytes, fails real nodes and measures the
ledger — then verifies the recovered bytes match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster import ClusterTopology, MiniHDFS, RoundRobinPlacement
from ..core import compute_metrics, make_code
from .engine import Cell, run_cells

BLOCK_BYTES = 1024


@dataclass(frozen=True)
class RepairMeasurement:
    """Measured repair/read costs for one code, in block units."""

    code: str
    single_repair_blocks: int
    double_repair_blocks: int | None
    degraded_read_blocks: int | None
    data_intact: bool

    def as_list(self) -> list[object]:
        return [self.code, self.single_repair_blocks,
                self.double_repair_blocks, self.degraded_read_blocks,
                "yes" if self.data_intact else "NO"]


HEADERS = ["code", "1-node repair", "2-node repair", "degraded read",
           "bytes intact"]


def _fresh_fs(code_name: str) -> tuple[MiniHDFS, bytes]:
    code = make_code(code_name)
    node_count = max(25, code.length)
    fs = MiniHDFS(ClusterTopology.flat(node_count), block_bytes=BLOCK_BYTES,
                  placement=RoundRobinPlacement(), seed=7)
    rng = np.random.default_rng(13)
    data = bytes(rng.integers(0, 256, BLOCK_BYTES * code.k, dtype=np.uint8))
    fs.write_file("f", data, code_name)
    return fs, data


def measure_code(code_name: str) -> RepairMeasurement:
    """Fail nodes on a live cluster and measure actual bytes moved."""
    code = make_code(code_name)

    # Single-node repair.
    fs, data = _fresh_fs(code_name)
    stripe = fs.namenode.file("f").stripes[0]
    victim = stripe.slot_nodes[0]
    fs.fail_node(victim, permanent=True)
    single = fs.repair_node(victim) // BLOCK_BYTES
    intact = fs.verify_file("f", data)

    # Two-node repair (if tolerated).
    double = None
    if code.fault_tolerance >= 2:
        fs, data = _fresh_fs(code_name)
        stripe = fs.namenode.file("f").stripes[0]
        for slot in (0, 1):
            fs.fail_node(stripe.slot_nodes[slot], permanent=True)
        double = fs.repair_all() // BLOCK_BYTES
        intact = intact and fs.verify_file("f", data)

    # Degraded read of a data block with all replicas down.
    degraded = None
    data_symbol = code.layout.data_symbols()[0]
    if code.can_recover(set(data_symbol.replicas)):
        fs, data = _fresh_fs(code_name)
        stripe = fs.namenode.file("f").stripes[0]
        for node in stripe.replica_nodes(data_symbol.index):
            fs.fail_node(node)
        block = fs.read_block(stripe.block_id(data_symbol.index))
        degraded = fs.ledger.total_bytes("degraded-read") // BLOCK_BYTES
        intact = intact and block == data[:BLOCK_BYTES]

    return RepairMeasurement(code_name, single, double, degraded, intact)


def measure_all(codes=("pentagon", "heptagon", "(10,9) RAID+m",
                       "2-rep", "3-rep", "rs(14,10)"),
                workers: int | None = None) -> list[RepairMeasurement]:
    """Measure every code; one single-call engine cell per code.

    Each cell builds its own MiniHDFS with fixed seeds, so results are
    pure functions of the code name and identical at any worker count.
    """
    cells = [Cell(experiment="repair-bandwidth", key=(code_name,),
                  fn=measure_code, args=(code_name,))
             for code_name in codes]
    return run_cells(cells, workers)


def shape_checks(measurements: list[RepairMeasurement]) -> dict[str, bool]:
    """The paper's bandwidth claims as boolean checks."""
    by = {m.code: m for m in measurements}
    planned = {name: compute_metrics(make_code(name))
               for name in by}
    return {
        "pentagon 2-node repair is 10 blocks": (
            by["pentagon"].double_repair_blocks == 10
        ),
        "pentagon degraded read 3 vs RAID+m 9": (
            by["pentagon"].degraded_read_blocks == 3
            and by["(10,9) RAID+m"].degraded_read_blocks == 9
        ),
        "single repairs are repair-by-transfer sized": (
            by["pentagon"].single_repair_blocks == 4
            and by["heptagon"].single_repair_blocks == 6
        ),
        "measured equals planned for every code": all(
            by[name].single_repair_blocks == planned[name].single_repair_blocks
            for name in by
        ),
        "all recovered bytes intact": all(m.data_intact for m in by.values()),
    }
