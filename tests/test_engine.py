"""Sweep-engine determinism and failure paths: every ported experiment
must produce bit-identical results at any worker count, any shard
layout, and under single-cell re-runs (small trial counts keep the
suite fast); crashed pool workers must not poison later sweeps."""

import os
import signal

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    fig2,
    fig3,
    fig4,
    fig5,
    repair_bandwidth,
    table1,
    transient,
)
from repro.experiments import engine
from repro.experiments.engine import (
    Cell,
    CellExecutionError,
    resolve_workers,
    run_cells,
    run_keyed,
)
from repro.experiments.runner import CellStats, trial_rng

WORKERS = 4


def draw_trial(rng, scale):
    """Top-level trial fn used by the engine-infrastructure tests."""
    return scale * float(rng.random())


def identity_cell(value):
    """Top-level single-call fn used by the engine-infrastructure tests."""
    return value


def failing_trial(rng, message):
    """Top-level trial fn that always raises (attribution tests)."""
    raise ValueError(message)


def kill_worker_once(rng, sentinel_path):
    """SIGKILL the hosting process the first time any worker runs this.

    The sentinel file is created atomically, so exactly one execution
    dies; every later one (fresh pool, or the in-process fallback)
    returns the same value ``draw_trial(rng, 1.0)`` would.
    """
    try:
        fd = os.open(sentinel_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return float(rng.random())
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def series_points(figure):
    return figure.points()


class TestEngineInfrastructure:
    def test_trial_cells_match_manual_loop(self):
        cell = Cell(experiment="t", key=("a",), fn=draw_trial, args=(2.0,),
                    trials=5)
        expected = CellStats.from_values(
            [2.0 * float(trial_rng("t", "a", i).random()) for i in range(5)])
        assert cell.run() == expected
        assert run_cells([cell], workers=1) == [expected]
        assert run_cells([cell], workers=WORKERS) == [expected]

    def test_shard_layout_does_not_change_results(self):
        plain = Cell(experiment="t", key=("a",), fn=draw_trial, args=(1.0,),
                     trials=10)
        sharded = Cell(experiment="t", key=("a",), fn=draw_trial, args=(1.0,),
                       trials=10, shard_trials=3)
        assert run_cells([plain], workers=1) == run_cells([sharded],
                                                          workers=WORKERS)

    def test_single_call_cells(self):
        cells = [Cell(experiment="t", key=(i,), fn=identity_cell, args=(i,))
                 for i in range(7)]
        assert run_cells(cells, workers=WORKERS) == list(range(7))

    def test_seed_key_shares_streams_across_cells(self):
        a = Cell(experiment="t", key=("a",), seed_key=("shared",),
                 fn=draw_trial, args=(1.0,), trials=4)
        b = Cell(experiment="t", key=("b",), seed_key=("shared",),
                 fn=draw_trial, args=(1.0,), trials=4)
        ra, rb = run_cells([a, b], workers=WORKERS)
        assert ra == rb

    def test_run_keyed(self):
        cells = [Cell(experiment="t", key=(i,), fn=identity_cell, args=(i,))
                 for i in range(3)]
        assert run_keyed(cells) == {(0,): 0, (1,): 1, (2,): 2}
        with pytest.raises(ValueError):
            run_keyed(cells + cells)

    def test_reduce_need_not_pickle(self):
        """Only (fn, args, seeds, range) cross the process boundary, so
        a closure reduce is fine even on parallel sharded runs."""
        cell = Cell(experiment="t", key=("a",), fn=draw_trial, args=(1.0,),
                    trials=8, shard_trials=2, reduce=lambda values: sum(values))
        assert run_cells([cell], workers=WORKERS) == [cell.run()]

    def test_rejects_unpicklable_fns(self):
        def nested(rng):
            return 0.0

        with pytest.raises(ValueError):
            Cell(experiment="t", key=("a",), fn=nested, trials=1)

    def test_rejects_empty_trials(self):
        with pytest.raises(ValueError):
            Cell(experiment="t", key=("a",), fn=draw_trial, trials=0)

    def test_rejects_reduce_on_single_call_cells(self):
        """A single-call cell would silently skip its reduce — loud spec
        bug instead of un-reduced results."""
        with pytest.raises(ValueError, match="reduce"):
            Cell(experiment="t", key=("a",), fn=identity_cell, args=(1,),
                 reduce=list)

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        assert resolve_workers(2) == 2
        assert resolve_workers(0) == len(os.sched_getaffinity(0))

    def test_zero_workers_counts_only_the_cpus_this_process_may_use(
            self, monkeypatch):
        """A ``taskset``-pinned run must not oversubscribe its CPU."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert resolve_workers(0) == 1
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert resolve_workers(None) == 1

    def test_resolve_workers_rejects_bad_counts(self, monkeypatch):
        """CLI help, env var and resolve_workers agree: >= 0, 0 per CPU."""
        with pytest.raises(ValueError, match=">= 0"):
            resolve_workers(-1)
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ValueError, match=">= 0"):
            resolve_workers(None)
        monkeypatch.setenv("REPRO_WORKERS", "two")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)


class TestWorkerCounts:
    """``workers`` is a plain count: serial at 1, the cached pool above,
    and the same merged results at every count and shard layout."""

    @pytest.mark.parametrize("shard_trials", [None, 1, 4, 9])
    @pytest.mark.parametrize("workers", [1, 2, WORKERS])
    def test_every_count_and_shard_layout_matches_the_manual_loop(
            self, workers, shard_trials):
        cells = [Cell(experiment="t", key=(i,), fn=draw_trial,
                      args=(float(i + 1),), trials=9,
                      shard_trials=shard_trials) for i in range(3)]
        expected = [CellStats.from_values(
            [(i + 1) * float(trial_rng("t", i, trial).random())
             for trial in range(9)]) for i in range(3)]
        assert run_cells(cells, workers=workers) == expected

    def test_a_single_unit_batch_starts_no_pool(self):
        """One work unit runs in-process whatever the count asks for."""
        engine._evict_pool(3)
        cell = Cell(experiment="t", key=("a",), fn=draw_trial, args=(1.0,),
                    trials=4)
        assert run_cells([cell], workers=3) == [cell.run()]
        assert 3 not in engine._POOLS

    def test_an_empty_sweep_is_empty_at_any_count(self):
        assert run_cells([], workers=WORKERS) == []
        assert run_keyed([], workers=WORKERS) == {}

    @pytest.mark.parametrize("env, expected", [
        ("3", 3), (" 2 ", 2), ("", 1), ("1", 1)])
    def test_env_counts(self, monkeypatch, env, expected):
        monkeypatch.setenv("REPRO_WORKERS", env)
        assert resolve_workers(None) == expected

    @pytest.mark.parametrize("env", ["two", "1.5", "2x", "-3"])
    def test_env_rejects_what_is_not_a_count(self, monkeypatch, env):
        monkeypatch.setenv("REPRO_WORKERS", env)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_zero_falls_back_to_cpu_count_without_an_affinity_api(
            self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers(0) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1


class TestFailurePaths:
    def test_cell_failure_names_owner_serial(self):
        cell = Cell(experiment="exp", key=("bad", 1), fn=failing_trial,
                    args=("boom",), trials=2)
        with pytest.raises(CellExecutionError,
                           match=r"cell \('bad', 1\) of experiment 'exp'"
                                 r".*ValueError: boom"):
            run_cells([cell], workers=1)

    def test_cell_failure_names_owner_pooled(self):
        cells = [Cell(experiment="exp", key=("ok",), fn=draw_trial,
                      args=(1.0,), trials=2),
                 Cell(experiment="exp", key=("bad", 2), fn=failing_trial,
                      args=("pow",), trials=2)]
        with pytest.raises(CellExecutionError, match=r"\('bad', 2\)"):
            run_cells(cells, workers=2)
        # a cell bug must not evict the (healthy) cached pool
        assert 2 in engine._POOLS

    def test_killed_pool_worker_is_evicted_and_batch_retried(self, tmp_path):
        """An OOM-killed worker breaks the whole pool; the engine must
        evict the cached entry, rerun on a fresh pool, and keep later
        sweeps at that count working."""
        sentinel = str(tmp_path / "killed")
        cells = [Cell(experiment="kill", key=(i,), fn=kill_worker_once,
                      args=(sentinel,), trials=3) for i in range(6)]
        expected = run_cells(
            [Cell(experiment="kill", key=(i,), fn=draw_trial, args=(1.0,),
                  trials=3) for i in range(6)],
            workers=1)
        with pytest.warns(RuntimeWarning, match="evicted"):
            assert run_cells(cells, workers=2) == expected
        assert os.path.exists(sentinel)
        # the cache now holds a healthy replacement pool
        assert run_cells(cells, workers=2) == expected

    def test_second_pool_failure_falls_back_to_serial(self, monkeypatch):
        class AlwaysBroken:
            def map(self, fn, payloads, chunksize=1):
                raise RuntimeError("pool is a smoking crater")

        built, evicted = [], []
        monkeypatch.setattr(
            engine, "_pool",
            lambda workers: built.append(workers) or AlwaysBroken())
        monkeypatch.setattr(
            engine, "_evict_pool", lambda workers: evicted.append(workers))
        cells = [Cell(experiment="t", key=(i,), fn=draw_trial, args=(1.0,),
                      trials=2) for i in range(3)]
        with pytest.warns(RuntimeWarning):
            assert run_cells(cells, workers=3) == run_cells(cells, workers=1)
        assert built == [3, 3]
        assert evicted == [3, 3]

    def test_cached_pool_is_reused_across_sweeps(self):
        """Two sweeps at one worker count share one pool and both match
        the serial run."""
        cells = [Cell(experiment="t", key=(i,), fn=draw_trial, args=(2.0,),
                      trials=3) for i in range(5)]
        expected = run_cells(cells, workers=1)
        assert run_cells(cells, workers=2) == expected
        pool = engine._POOLS[2]
        assert run_cells(cells, workers=2) == expected
        assert engine._POOLS[2] is pool


class TestExperimentDeterminism:
    """workers=1 and workers=4 agree exactly for every ported sweep."""

    def test_fig3_panel(self):
        serial = fig3.locality_panel(2, trials=4, workers=1)
        parallel = fig3.locality_panel(2, trials=4, workers=WORKERS)
        assert series_points(serial) == series_points(parallel)

    def test_fig3_single_cell_rerun_matches_sweep(self):
        panel = fig3.locality_panel(2, trials=4, workers=WORKERS)
        stats = fig3.locality_cell("pentagon", "delay", 50.0, 2, trials=4)
        assert panel.get("pent-DS").y_at(50.0) == stats.mean

    def test_table1(self):
        serial = table1.build_table1(workers=1)
        parallel = table1.build_table1(workers=WORKERS)
        assert serial.rows == parallel.rows

    def test_table1_single_row_rerun_matches_sweep(self):
        result = table1.build_table1(workers=WORKERS)
        row = table1.table1_row("pentagon", result.params, table1.NODE_COUNT)
        assert result.row("pentagon") == row

    def test_fig2(self):
        assert fig2.figure2(workers=1) == fig2.figure2(workers=WORKERS)

    def test_fig4(self):
        serial = fig4.figure4(runs=3, workers=1)
        parallel = fig4.figure4(runs=3, workers=WORKERS)
        for name in ("job_time", "traffic", "locality"):
            assert series_points(serial[name]) == series_points(parallel[name])

    def test_fig5(self):
        serial = fig5.figure5(runs=2, workers=1)
        parallel = fig5.figure5(runs=2, workers=WORKERS)
        for name in ("traffic", "locality"):
            assert series_points(serial[name]) == series_points(parallel[name])

    def test_repair_bandwidth(self):
        assert (repair_bandwidth.measure_all(workers=WORKERS)
                == repair_bandwidth.measure_all(workers=1))

    def test_transient(self):
        assert (transient.timeout_sweep(workers=WORKERS)
                == transient.timeout_sweep(workers=1))

    def test_ablations_delay_sensitivity(self):
        serial = ablations.delay_sensitivity(trials=4, skip_levels=(0, 25),
                                             workers=1)
        parallel = ablations.delay_sensitivity(trials=4, skip_levels=(0, 25),
                                               workers=WORKERS)
        assert series_points(serial) == series_points(parallel)

    def test_ablations_slots_crossover(self):
        serial = ablations.slots_crossover(trials=3, slot_range=(2, 8),
                                           workers=1)
        parallel = ablations.slots_crossover(trials=3, slot_range=(2, 8),
                                             workers=WORKERS)
        assert series_points(serial) == series_points(parallel)

    def test_ablations_degraded_sweep(self):
        assert (ablations.degraded_job_sweep(workers=WORKERS)
                == ablations.degraded_job_sweep(workers=1))

    def test_ablations_hl_equivalence(self):
        assert (ablations.heptagon_local_equivalence(trials=4, workers=WORKERS)
                == ablations.heptagon_local_equivalence(trials=4, workers=1))


class TestMonteCarloSharding:
    def test_worker_count_invariant(self):
        serial = table1.monte_carlo_validation(
            codes=("3-rep",), trials=60, shard_trials=20, workers=1)
        parallel = table1.monte_carlo_validation(
            codes=("3-rep",), trials=60, shard_trials=20, workers=WORKERS)
        assert serial == parallel

    def test_shards_merge_exactly(self):
        """sum of independently seeded shard totals == the sweep value."""
        from repro.core import make_code
        from repro.reliability import simulate_group_mttd_total

        code = make_code("3-rep")
        shards, shard_trials = 3, 20
        total = sum(
            simulate_group_mttd_total(
                code, table1.MC_PARAMS,
                trial_rng("table1-mc", "3-rep", shard), trials=shard_trials)
            for shard in range(shards)
        )
        [row] = table1.monte_carlo_validation(
            codes=("3-rep",), trials=shards * shard_trials,
            shard_trials=shard_trials, workers=WORKERS)
        assert row.simulated_mttd_hours == total / (shards * shard_trials)

    def test_total_matches_mean_entry_point(self):
        from repro.core import make_code
        from repro.reliability import (
            simulate_group_mttd,
            simulate_group_mttd_total,
        )

        code = make_code("pentagon")
        mean = simulate_group_mttd(code, table1.MC_PARAMS,
                                   np.random.default_rng(3), trials=40)
        total = simulate_group_mttd_total(code, table1.MC_PARAMS,
                                          np.random.default_rng(3), trials=40)
        assert mean == total / 40
