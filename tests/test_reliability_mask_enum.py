"""Sharded exact-reliability enumeration: bit-identity across executors,
the constant-memory range seam, and the lifted (and clearly named)
length wall."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import make_code
from repro.experiments.distributed import DistributedExecutor
from repro.experiments.engine import PooledExecutor
from repro.reliability import (
    AUTO_SERIAL_MASKS,
    MAX_EXACT_LENGTH,
    ReliabilityParams,
    brute_force_chain,
    mask_shard_bits,
    recoverable_mask_table,
    shard_ranges,
)

SRC_DIR = pathlib.Path(repro.__file__).resolve().parent.parent

FAST = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0)


def spawn_worker(address, retries=30):
    """A real ``python -m repro worker`` subprocess aimed at ``address``."""
    env = dict(os.environ)
    parts = [str(SRC_DIR)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         f"{address[0]}:{address[1]}", "--retries", str(retries)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class TestMaskRangeVerdicts:
    """The constant-memory range seam under the sharded engine."""

    @pytest.mark.parametrize("name", [
        "pentagon", "heptagon-local", "pentagon-local", "rs(6,4)",
        "(4,3) RAID+m", "3-rep", "polygon-local-4(3g,2p)",
    ])
    def test_matches_bulk_engine(self, name):
        code = make_code(name)
        total = 1 << code.length
        expected = make_code(name).can_recover_masks(np.arange(total))
        got = code.mask_range_verdicts(0, total)
        assert (got == expected).all()

    def test_arbitrary_subrange(self):
        code = make_code("pentagon-local")
        full = code.mask_range_verdicts(0, 1 << code.length)
        assert (code.mask_range_verdicts(100, 900) == full[100:900]).all()
        assert (code.mask_range_verdicts(0, 1 << code.length,
                                         chunk_masks=13) == full).all()

    def test_does_not_populate_per_mask_memo(self):
        """An exhaustive range sweep must not pin 2**L dict entries."""
        code = make_code("pentagon-local")
        before = len(code._recover_cache)
        code.mask_range_verdicts(0, 1 << code.length)
        assert len(code._recover_cache) == before

    def test_range_validation(self):
        code = make_code("pentagon")
        with pytest.raises(ValueError, match="pentagon"):
            code.mask_range_verdicts(-1, 4)
        with pytest.raises(ValueError):
            code.mask_range_verdicts(0, (1 << code.length) + 1)
        with pytest.raises(ValueError):
            code.mask_range_verdicts(0, 8, chunk_masks=0)

    def test_empty_range(self):
        assert len(make_code("pentagon").mask_range_verdicts(3, 3)) == 0


class TestShardPlanning:
    def test_ranges_cover_exactly(self):
        for length in (1, 7, 15, 16, 22):
            shards = shard_ranges(length)
            assert shards[0][0] == 0
            assert shards[-1][1] == 1 << length
            for (_, hi), (lo, _) in zip(shards, shards[1:]):
                assert hi == lo

    def test_boundaries_depend_only_on_length(self):
        assert shard_ranges(16) == shard_ranges(16)
        assert len(shard_ranges(16, shard_masks=1 << 12)) == 16

    def test_shard_fn_is_packed_and_mergeable(self):
        code = make_code("heptagon-local")
        total = 1 << code.length
        payload = mask_shard_bits("heptagon-local", 0, total)
        assert isinstance(payload, bytes)
        assert len(payload) == total // 8
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        assert (bits.astype(bool)
                == code.mask_range_verdicts(0, total)).all()


class TestExecutorBitIdentity:
    """workers=1, workers=N and distributed loopback must agree exactly."""

    def test_serial_vs_pooled(self):
        # serial_below=0: heptagon-local's 2**15 masks sit under the
        # auto-serial floor, and this test exists to exercise the pool.
        serial = recoverable_mask_table(make_code("heptagon-local"))
        pooled = recoverable_mask_table(make_code("heptagon-local"),
                                        workers=2, serial_below=0)
        explicit = recoverable_mask_table(make_code("heptagon-local"),
                                          executor=PooledExecutor(2))
        assert (serial == pooled).all()
        assert (serial == explicit).all()

    def test_serial_vs_pooled_rank_based_family(self):
        """A generic (no closed form) family: rank tests in workers."""
        serial = recoverable_mask_table(make_code("pentagon-local"))
        pooled = recoverable_mask_table(make_code("pentagon-local"),
                                        workers=2, shard_masks=256,
                                        serial_below=0)
        assert (serial == pooled).all()

    def test_distributed_loopback(self):
        serial = recoverable_mask_table(make_code("heptagon-local"))
        with DistributedExecutor(heartbeat_timeout=30.0) as executor:
            proc = spawn_worker(executor.address)
            try:
                executor.wait_for_workers(1, timeout=60)
                distributed = recoverable_mask_table(
                    make_code("heptagon-local"), executor=executor)
            finally:
                executor.close()
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        assert (serial == distributed).all()

    def test_sharded_brute_force_chain_matches_serial(self):
        # An explicit executor: a bare workers=2 would auto-serialise
        # at pentagon-local's 2**11 masks.
        code_serial = make_code("pentagon-local")
        code_pooled = make_code("pentagon-local")
        serial = brute_force_chain(code_serial, FAST)
        pooled = brute_force_chain(code_pooled, FAST,
                                   executor=PooledExecutor(2))
        assert set(serial.transitions) == set(pooled.transitions)
        for state in serial.transitions:
            assert sorted(serial.transitions[state], key=repr) \
                == sorted(pooled.transitions[state], key=repr)


class TestAutoSerial:
    """Small enumerations must not pay pool spin-up for worker counts."""

    @pytest.mark.parametrize("name", [
        "heptagon-local",            # 2**15 masks, closed form
        "pentagon-local(3g,2p)",     # 2**16: 0.09 s serial, pool no faster
    ])
    def test_small_worker_count_request_stays_serial(self, monkeypatch,
                                                     name):
        import repro.experiments.engine as engine

        def forbidden(*args, **kwargs):
            raise AssertionError(
                "run_cells must not be reached below AUTO_SERIAL_MASKS")

        monkeypatch.setattr(engine, "run_cells", forbidden)
        code = make_code(name)
        assert (1 << code.length) < AUTO_SERIAL_MASKS
        table = recoverable_mask_table(code, workers=2)
        expected = make_code(name).mask_range_verdicts(0, 1 << code.length)
        assert (table == expected).all()

    def test_serial_below_zero_forces_sharding(self, monkeypatch):
        import repro.experiments.engine as engine

        seen = {}
        real = engine.run_cells

        def spy(cells, workers=None, *, executor=None):
            cells = list(cells)
            seen["cells"] = len(cells)
            return real(cells, 1)            # serial execution, same cells

        monkeypatch.setattr(engine, "run_cells", spy)
        code = make_code("pentagon-local")       # 2**11 masks
        table = recoverable_mask_table(code, workers=2, shard_masks=256,
                                       serial_below=0)
        assert seen["cells"] == (1 << code.length) // 256
        expected = make_code("pentagon-local").mask_range_verdicts(
            0, 1 << code.length)
        assert (table == expected).all()

    def test_explicit_executor_always_honoured(self, monkeypatch):
        import repro.experiments.engine as engine

        seen = {}
        real = engine.run_cells

        def spy(cells, workers=None, *, executor=None):
            seen["executor"] = executor
            return real(cells, 1)

        monkeypatch.setattr(engine, "run_cells", spy)
        executor = PooledExecutor(2)
        recoverable_mask_table(make_code("pentagon-local"),
                               executor=executor)
        assert seen["executor"] is executor


class TestLengthWall:
    def test_error_names_code_and_length(self):
        code = make_code("rs(26,22)")
        with pytest.raises(ValueError) as excinfo:
            brute_force_chain(code, FAST)
        message = str(excinfo.value)
        assert "rs(26,22)" in message
        assert "26" in message
        assert str(MAX_EXACT_LENGTH) in message

    def test_table_enforces_the_same_wall(self):
        code = make_code("polygon-9-local(4g,3p)")   # 37 slots
        with pytest.raises(ValueError, match=r"polygon-9-local\(4g,3p\)"):
            recoverable_mask_table(code)

    def test_sixteen_slots_now_allowed(self):
        """The old wall was 15; 3-group pentagon-local is 16 and works."""
        code = make_code("pentagon-local(3g,2p)")
        assert code.length == 16
        chain = brute_force_chain(code, FAST, workers=2)
        assert frozenset() in chain.transitions
