"""RaidNode: background conversion of replicated files to coded files.

The paper's implementation "was carried out in HDFS, taking Facebook's
open-source HDFS-RAID module as the baseline software".  In that
architecture files are *written* with plain replication and a RaidNode
daemon later converts ("raids") them to the erasure-coded layout,
reclaiming the replica space; a BlockFixer daemon watches for missing
blocks and schedules repairs.

This module reproduces that lifecycle on the MiniHDFS:

* :meth:`RaidNode.raid_file` re-encodes a replicated file under a target
  code, placing fresh stripes and deleting the old replicas — the
  storage saving is measurable (3.0x -> 2.22x for the pentagon);
* :meth:`RaidNode.scan_and_fix` finds stripes with failed replicas and
  drives the repair plans, like the BlockFixer;
* raid policies by file-name prefix mirror HDFS-RAID's policy file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import UnrecoverableStripeError
from .filesystem import MiniHDFS


@dataclass(frozen=True)
class RaidPolicy:
    """Which files to raid and into what code.

    Attributes:
        prefix: file-name prefix the policy applies to.
        target_code: registry name of the code to convert to.
        min_replication_to_raid: only raid files currently stored under
            replication with at least this factor (HDFS-RAID only raids
            sufficiently replicated, "cooled" files).
    """

    prefix: str
    target_code: str
    min_replication_to_raid: int = 2


@dataclass
class RaidReport:
    """Outcome of one RaidNode pass."""

    raided: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    bytes_reclaimed: int = 0
    stripes_fixed: int = 0
    repair_bytes: int = 0


class RaidNode:
    """Background raiding + block fixing daemon over a MiniHDFS."""

    def __init__(self, fs: MiniHDFS, policies: list[RaidPolicy] | None = None):
        self.fs = fs
        self.policies = list(policies) if policies else []

    def add_policy(self, policy: RaidPolicy) -> None:
        self.policies.append(policy)

    def policy_for(self, file_name: str) -> RaidPolicy | None:
        """First matching policy, HDFS-RAID style."""
        for policy in self.policies:
            if file_name.startswith(policy.prefix):
                return policy
        return None

    # ------------------------------------------------------------------
    # Raiding
    # ------------------------------------------------------------------
    def raid_file(self, file_name: str, target_code: str) -> int:
        """Re-encode one file under ``target_code``; returns bytes reclaimed.

        Reads the file through the normal (possibly degraded) read path,
        writes it back under the target code, then deletes the original
        blocks — the same read-encode-write-delete cycle HDFS-RAID runs
        as a MapReduce job.
        """
        info = self.fs.namenode.file(file_name)
        if info.code_name == target_code:
            return 0
        data = self.fs.read_file(file_name)
        before = self._stored_bytes_of(file_name)
        self._delete_blocks(file_name)
        self.fs.namenode.delete_file(file_name)
        self.fs.write_file(file_name, data, target_code)
        after = self._stored_bytes_of(file_name)
        return before - after

    def raid_all(self) -> RaidReport:
        """Apply the policy table to every file (one RaidNode pass)."""
        report = RaidReport()
        for file_name in self.fs.namenode.files():
            policy = self.policy_for(file_name)
            info = self.fs.namenode.file(file_name)
            if policy is None or info.code_name == policy.target_code:
                report.skipped.append(file_name)
                continue
            replication = self._current_replication(file_name)
            if replication is not None and replication < policy.min_replication_to_raid:
                report.skipped.append(file_name)
                continue
            report.bytes_reclaimed += self.raid_file(file_name, policy.target_code)
            report.raided.append(file_name)
        return report

    def _current_replication(self, file_name: str) -> int | None:
        """Replication factor if the file is replica-coded, else None."""
        info = self.fs.namenode.file(file_name)
        from ..core import ReplicationCode
        first = info.stripes[0].code if info.stripes else None
        if isinstance(first, ReplicationCode):
            return first.replicas
        return None

    def _stored_bytes_of(self, file_name: str) -> int:
        info = self.fs.namenode.file(file_name)
        return sum(
            stripe.code.total_blocks for stripe in info.stripes
        ) * self.fs.block_bytes

    def _delete_blocks(self, file_name: str) -> None:
        info = self.fs.namenode.file(file_name)
        for stripe in info.stripes:
            for node_id, block in stripe.placed_blocks():
                self.fs.datanodes[node_id].drop(block)

    # ------------------------------------------------------------------
    # Block fixing
    # ------------------------------------------------------------------
    def missing_block_report(self) -> dict[str, int]:
        """Files -> count of block replicas currently on failed nodes."""
        failed = set(self.fs.topology.failed_nodes())
        report: dict[str, int] = {}
        for file_name in self.fs.namenode.files():
            info = self.fs.namenode.file(file_name)
            missing = 0
            for stripe in info.stripes:
                for slot in stripe.failed_slots(failed):
                    missing += len(stripe.code.layout.symbols_on_slot(slot))
            if missing:
                report[file_name] = missing
        return report

    def scan_and_fix(self) -> RaidReport:
        """BlockFixer pass: rebuild everything the failures took out.

        Raises :class:`~repro.core.UnrecoverableStripeError` when a
        stripe is beyond repair (the caller decides what to do — HDFS-RAID
        logs and alerts).
        """
        report = RaidReport()
        failed = set(self.fs.topology.failed_nodes())
        if not failed:
            return report
        for stripe in self.fs.namenode.stripes():
            if stripe.failed_slots(failed):
                report.stripes_fixed += 1
        report.repair_bytes = self.fs.repair_all()
        return report

    def verify_all(self, originals: dict[str, bytes]) -> bool:
        """Check every file against its expected contents."""
        return all(
            self.fs.verify_file(name, data) for name, data in originals.items()
        )
