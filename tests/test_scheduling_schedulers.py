"""Tests for the delay, max-matching and peeling schedulers."""

import hashlib

import numpy as np
import pytest

from repro.scheduling import (
    Assignment,
    DelayScheduler,
    DelaySchedulerError,
    MaxMatchingScheduler,
    PeelingScheduler,
    Task,
    load_percent,
    make_scheduler,
    maximum_matching_count,
    tasks_for_load,
)
from repro.workloads import generate_tasks, workload_for_load
from repro.core import make_code


def simple_tasks():
    return [
        Task(0, 0, (0, 1)),
        Task(1, 0, (0, 1)),
        Task(2, 0, (0, 2)),
        Task(3, 1, (3,)),
    ]


class TestAssignmentModel:
    def test_place_and_stats(self):
        assignment = Assignment(node_count=4, slots_per_node=2)
        tasks = simple_tasks()
        assignment.place(tasks[0], 0)
        assignment.place(tasks[1], 1)
        assignment.place(tasks[2], 3)   # remote
        assert assignment.local_count == 2
        assert assignment.remote_count == 1
        assert assignment.locality_percent() == pytest.approx(200 / 3)

    def test_double_placement_rejected(self):
        assignment = Assignment(2, 1)
        task = Task(0, 0, (0,))
        assignment.place(task, 0)
        with pytest.raises(ValueError):
            assignment.place(task, 1)

    def test_capacity_validation(self):
        assignment = Assignment(1, 1)
        assignment.place(Task(0, 0, (0,)), 0)
        assignment.place(Task(1, 0, (0,)), 0)
        with pytest.raises(ValueError):
            assignment.validate_capacity()

    def test_empty_assignment_is_fully_local(self):
        assert Assignment(1, 1).locality_percent() == 100.0

    def test_task_validation(self):
        with pytest.raises(ValueError):
            Task(0, 0, ())
        with pytest.raises(ValueError):
            Task(0, 0, (1, 1))

    def test_load_helpers(self):
        assert load_percent(250, 100, 4) == pytest.approx(62.5)  # paper's example
        assert tasks_for_load(62.5, 100, 4) == 250
        assert tasks_for_load(100, 25, 2) == 50


class TestMaxMatchingScheduler:
    def test_matches_count(self):
        tasks = simple_tasks()
        scheduler = MaxMatchingScheduler()
        assignment = scheduler.assign(tasks, node_count=4, slots_per_node=2)
        assert assignment.local_count == maximum_matching_count(tasks, 4, 2)
        assignment.validate_capacity()

    def test_all_tasks_assigned(self):
        tasks = simple_tasks()
        assignment = MaxMatchingScheduler().assign(tasks, 4, 2)
        assert assignment.assigned_count == len(tasks)

    def test_overload_rejected(self):
        tasks = [Task(i, 0, (0,)) for i in range(3)]
        with pytest.raises(ValueError):
            MaxMatchingScheduler().assign(tasks, 1, 2)

    def test_empty(self):
        assert MaxMatchingScheduler().assign([], 2, 2).assigned_count == 0


class TestMatchingCount:
    def test_empty(self):
        assert maximum_matching_count([], 5, 2) == 0

    def test_perfect_matching(self):
        tasks = [Task(i, 0, (i,)) for i in range(4)]
        assert maximum_matching_count(tasks, 4, 1) == 4

    def test_capacity_limits_matching(self):
        # 5 tasks all pointing at one node with 2 slots.
        tasks = [Task(i, 0, (0,)) for i in range(5)]
        assert maximum_matching_count(tasks, 1, 2) == 2

    def test_two_replicas_avoid_contention(self):
        # Each task on nodes (i, i+1): chain admits a full matching.
        tasks = [Task(i, 0, (i, i + 1)) for i in range(4)]
        assert maximum_matching_count(tasks, 5, 1) == 4

    def test_augmenting_path_moves_a_greedy_match(self):
        # Greedy puts task 0 on node 0; task 1 only fits there, so the
        # matcher must move task 0 to node 1.
        tasks = [Task(0, 0, (0, 1)), Task(1, 0, (0,))]
        assert maximum_matching_count(tasks, 2, 1) == 2
        assignment = MaxMatchingScheduler().assign(tasks, 2, 1)
        assert assignment.placements == {0: 1, 1: 0}

    def test_pentagon_stripe_fits_two_slots(self):
        """An isolated pentagon stripe achieves full locality at mu=2.

        9 tasks on the K5 edge structure orient into in-degree <= 2.
        """
        tasks = [
            Task(symbol.index, 0, symbol.replicas)
            for symbol in make_code("pentagon").layout.data_symbols()
        ]
        assert maximum_matching_count(tasks, 5, 2) == 9

    def test_heptagon_stripe_capped_at_mu2(self):
        """An isolated heptagon stripe cannot exceed 14 local tasks at mu=2."""
        tasks = [
            Task(symbol.index, 0, symbol.replicas)
            for symbol in make_code("heptagon").layout.data_symbols()
        ]
        assert maximum_matching_count(tasks, 7, 2) == 14

    @pytest.mark.parametrize("seed", range(4))
    def test_against_networkx_on_random_graphs(self, seed):
        """The count equals an independent max-flow on source -> task ->
        node -> sink, and the scheduler realises it within capacity."""
        networkx = pytest.importorskip("networkx")
        rng = np.random.default_rng(seed)
        short = 0
        for trial in range(40):
            node_count = int(rng.integers(1, 26))
            mu = int(rng.integers(1, 9))
            # Every other instance draws its candidates from a few hot
            # nodes, so tasks whose every candidate is full are common.
            hot = node_count if trial % 2 else max(1, node_count // 4)
            tasks = []
            for index in range(int(rng.integers(0, node_count * mu + 1))):
                degree = int(rng.integers(1, min(3, hot) + 1))
                candidates = rng.choice(hot, size=degree, replace=False)
                tasks.append(Task(index, index, tuple(candidates.tolist())))
            graph = networkx.DiGraph()
            graph.add_nodes_from(("source", "sink"))
            for task in tasks:
                graph.add_edge("source", ("task", task.index), capacity=1)
                for node in task.candidates:
                    graph.add_edge(("task", task.index), ("node", node),
                                   capacity=1)
            for node in range(node_count):
                graph.add_edge(("node", node), "sink", capacity=mu)
            expected = networkx.maximum_flow_value(graph, "source", "sink")

            count = maximum_matching_count(tasks, node_count, mu)
            assert count == expected
            assignment = MaxMatchingScheduler().assign(tasks, node_count, mu)
            assert assignment.assigned_count == len(tasks)
            assignment.validate_capacity()
            assert assignment.local_count == count
            short += count < len(tasks)
        assert short > 0


class TestDelayScheduler:
    def test_all_assigned_within_capacity(self):
        rng = np.random.default_rng(0)
        tasks = generate_tasks(make_code("pentagon"), 45, 25, rng)
        assignment = DelayScheduler().assign(tasks, 25, 2, rng)
        assert assignment.assigned_count == 45
        assignment.validate_capacity()

    def test_seeded_reproducibility(self):
        tasks = simple_tasks()
        first = DelayScheduler().assign(tasks, 4, 2, np.random.default_rng(9))
        second = DelayScheduler().assign(tasks, 4, 2, np.random.default_rng(9))
        assert first.placements == second.placements

    def test_never_beats_max_matching(self):
        rng = np.random.default_rng(1)
        for code_name in ("2-rep", "pentagon", "heptagon"):
            for seed in range(5):
                trial_rng = np.random.default_rng(seed)
                tasks = workload_for_load(code_name, 100, 25, 2, trial_rng)
                delayed = DelayScheduler().assign(tasks, 25, 2, trial_rng)
                optimum = maximum_matching_count(tasks, 25, 2)
                assert delayed.local_count <= optimum

    def test_full_locality_when_uncontended(self):
        # One task per node, trivially local everywhere.
        tasks = [Task(i, i, (i,)) for i in range(5)]
        assignment = DelayScheduler().assign(tasks, 5, 1, np.random.default_rng(2))
        assert assignment.locality_percent() == 100.0

    def test_forced_remote_when_node_has_no_data(self):
        # Two tasks, both on node 0 (capacity 1); node 1 holds nothing.
        tasks = [Task(0, 0, (0,)), Task(1, 0, (0,))]
        assignment = DelayScheduler(max_skips=2).assign(
            tasks, 2, 1, np.random.default_rng(3))
        assert assignment.local_count == 1
        assert assignment.remote_count == 1

    def test_overload_raises(self):
        tasks = [Task(i, 0, (0,)) for i in range(5)]
        with pytest.raises(DelaySchedulerError):
            DelayScheduler().assign(tasks, 2, 2, np.random.default_rng(0))


class TestPeelingScheduler:
    def test_all_assigned_within_capacity(self):
        rng = np.random.default_rng(4)
        tasks = generate_tasks(make_code("heptagon"), 60, 25, rng)
        assignment = PeelingScheduler().assign(tasks, 25, 4, rng)
        assert assignment.assigned_count == 60
        assignment.validate_capacity()

    def test_never_beats_max_matching(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            tasks = workload_for_load("pentagon", 100, 25, 4, rng)
            peeled = PeelingScheduler().assign(tasks, 25, 4, rng)
            assert peeled.local_count <= maximum_matching_count(tasks, 25, 4)

    def test_forced_moves_taken_first(self):
        # Task 1 has a single feasible node; a naive FIFO would strand it.
        tasks = [Task(0, 0, (0, 1)), Task(1, 1, (0,))]
        assignment = PeelingScheduler().assign(tasks, 2, 1, np.random.default_rng(0))
        assert assignment.locality_percent() == 100.0
        assert assignment.placements[1] == 0

    def test_improves_on_delay_for_pentagon_on_average(self):
        """The Fig. 3 claim: peeling beats delay scheduling at mu=4."""
        delay_total, peel_total = 0, 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            tasks = workload_for_load("pentagon", 100, 25, 4, rng)
            delay_total += DelayScheduler().assign(
                tasks, 25, 4, np.random.default_rng(seed + 500)).local_count
            peel_total += PeelingScheduler().assign(
                tasks, 25, 4, np.random.default_rng(seed + 900)).local_count
        assert peel_total >= delay_total

    def test_stripe_aware_flag(self):
        rng = np.random.default_rng(8)
        tasks = workload_for_load("pentagon", 75, 25, 2, rng)
        aware = PeelingScheduler(stripe_aware=True).assign(
            tasks, 25, 2, np.random.default_rng(1))
        oblivious = PeelingScheduler(stripe_aware=False).assign(
            tasks, 25, 2, np.random.default_rng(1))
        aware.validate_capacity()
        oblivious.validate_capacity()


class TestSchedulerFactory:
    def test_make_by_name(self):
        assert isinstance(make_scheduler("delay"), DelayScheduler)
        assert isinstance(make_scheduler("max-matching"), MaxMatchingScheduler)
        assert isinstance(make_scheduler("peeling"), PeelingScheduler)

    def test_kwargs_forwarded(self):
        scheduler = make_scheduler("delay", max_skips=7)
        assert scheduler.max_skips == 7

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_scheduler("fifo")


# Golden digests.  Every rewrite of the schedulers, the workload
# generator or the Fig. 3 sweep must reproduce them bit for bit: they
# pin the delay scheduler's exact placements (not just its locality),
# every generated workload, and two small Fig. 3 panels.
FIG3_CODES = ("2-rep", "3-rep", "pentagon", "heptagon", "heptagon-local",
              "rs(14,10)")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


DELAY_VARIANTS = {
    "default": {},
    "no-wait": {"max_skips": 0},
    "skips-3": {"max_skips": 3},
    "sticky": {"sticky_heartbeat_order": True},
}

GOLDEN_DELAY_PLACEMENTS = {
    ("2-rep", "default"): "783dec7623274a9a",
    ("2-rep", "no-wait"): "2f8fc6504d011fa2",
    ("2-rep", "skips-3"): "a8ed8dbd135ef2fb",
    ("2-rep", "sticky"): "2d479fef9cf3ce5d",
    ("pentagon", "default"): "84124547a82313e2",
    ("pentagon", "no-wait"): "b70e5e6442d8ea2b",
    ("pentagon", "skips-3"): "e6555a9aed86466d",
    ("pentagon", "sticky"): "853654e10103481d",
    ("heptagon", "default"): "dd9c33b3fe09324d",
    ("heptagon", "no-wait"): "718028a21dba0630",
    ("heptagon", "skips-3"): "143a9a82c18c80db",
    ("heptagon", "sticky"): "fc55e41d9f9d3338",
}

GOLDEN_WORKLOADS = {
    ("2-rep", False): "1d0f5cfc5ab85c75",
    ("2-rep", True): "54a2f4d6cec54c72",
    ("3-rep", False): "5485e98841bc2cfd",
    ("3-rep", True): "ae17e167ba5008b0",
    ("pentagon", False): "c4a0e587ac691693",
    ("pentagon", True): "5e9e7c110d95f876",
    ("heptagon", False): "4a323ae4f2bc3b15",
    ("heptagon", True): "458d38e2ac998504",
    ("heptagon-local", False): "3de49a2d2cc511f6",
    ("heptagon-local", True): "4117c1a8bba3e59c",
    ("rs(14,10)", False): "7a2300c75ce8bc6a",
    ("rs(14,10)", True): "37ace7a62f272010",
}

GOLDEN_PANELS = {
    "locality-mu2": "3a32993c4a72f6b4",
    "peeling-mu4": "23d34bedcac51b22",
}


def delay_placements_digest(code_name: str, variant: str) -> str:
    runs = []
    for seed in range(4):
        for load, mu in ((100.0, 2), (75.0, 4)):
            rng = np.random.default_rng(seed)
            tasks = workload_for_load(code_name, load, 25, mu, rng)
            assignment = DelayScheduler(**DELAY_VARIANTS[variant]).assign(
                tasks, 25, mu, rng)
            runs.append(sorted((int(task), int(node)) for task, node
                               in assignment.placements.items()))
    return _digest(runs)


def workload_digest(code_name: str, shuffle: bool) -> str:
    code = make_code(code_name)
    runs = []
    for seed in range(3):
        # 1 + a stripe's data count: a partial tail stripe for every
        # code with more than one data block per stripe
        for task_count in (23, 50, 1 + len(code.layout.data_symbols())):
            tasks = generate_tasks(code, task_count, 25,
                                   np.random.default_rng(seed),
                                   shuffle=shuffle)
            runs.append([(t.index, t.stripe, t.candidates) for t in tasks])
    return _digest(runs)


def panel_digest(name: str) -> str:
    from repro.experiments import fig3

    if name == "locality-mu2":
        panel = fig3.locality_panel(2, trials=4)
    else:
        panel = fig3.peeling_panel(trials=4)
    return _digest(panel.points())


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("code_name", ("2-rep", "pentagon", "heptagon"))
    @pytest.mark.parametrize("variant", tuple(DELAY_VARIANTS))
    def test_delay_placements(self, code_name, variant):
        assert (delay_placements_digest(code_name, variant)
                == GOLDEN_DELAY_PLACEMENTS[code_name, variant])

    @pytest.mark.parametrize("code_name", FIG3_CODES)
    @pytest.mark.parametrize("shuffle", (False, True))
    def test_generated_workloads(self, code_name, shuffle):
        assert (workload_digest(code_name, shuffle)
                == GOLDEN_WORKLOADS[code_name, shuffle])

    @pytest.mark.parametrize("name", ("locality-mu2", "peeling-mu4"))
    def test_fig3_panels(self, name):
        assert panel_digest(name) == GOLDEN_PANELS[name]
