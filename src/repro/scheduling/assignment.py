"""Task-assignment result types and locality statistics.

A map-task assignment maps every task to a node of the cluster and
records whether the placement was *local* (the node holds a replica of
the task's input block).  Data locality — the paper's Fig. 3/4/5 metric
— is simply the percentage of local tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Task:
    """One map task: reads one block, runnable locally on ``candidates``.

    Attributes:
        index: task id within the job.
        stripe: id of the coded stripe the input block belongs to.
        candidates: nodes holding a replica of the input block (the
            task's left-degree in the paper's bipartite model; 2 for all
            double-replication codes, 3 for 3-rep, 1 for Reed-Solomon).
    """

    index: int
    stripe: int
    candidates: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError(f"task {self.index} has no candidate nodes")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError(f"task {self.index} lists a node twice")


@dataclass
class Assignment:
    """Result of assigning a set of tasks to node slots."""

    node_count: int
    slots_per_node: int
    placements: dict[int, int] = field(default_factory=dict)   # task index -> node
    local_tasks: set[int] = field(default_factory=set)

    def place(self, task: Task, node: int) -> None:
        """Record a placement, classifying locality automatically."""
        if task.index in self.placements:
            raise ValueError(f"task {task.index} assigned twice")
        if not 0 <= node < self.node_count:
            raise ValueError(f"node {node} out of range")
        self.placements[task.index] = node
        if node in task.candidates:
            self.local_tasks.add(task.index)

    @property
    def assigned_count(self) -> int:
        return len(self.placements)

    @property
    def local_count(self) -> int:
        return len(self.local_tasks)

    @property
    def remote_count(self) -> int:
        return self.assigned_count - self.local_count

    def locality_percent(self) -> float:
        """Percentage of assigned tasks that are data-local."""
        if not self.placements:
            return 100.0
        return 100.0 * self.local_count / self.assigned_count

    def load_per_node(self) -> list[int]:
        """Number of tasks placed on each node."""
        loads = [0] * self.node_count
        for node in self.placements.values():
            loads[node] += 1
        return loads

    def validate_capacity(self) -> None:
        """Raise if any node exceeds its slot capacity."""
        for node, load in enumerate(self.load_per_node()):
            if load > self.slots_per_node:
                raise ValueError(
                    f"node {node} holds {load} tasks but has "
                    f"{self.slots_per_node} slots"
                )


def spill_remote(assignment: Assignment, tasks: list[Task],
                 free: list[int]) -> None:
    """Place ``tasks`` remotely, each on the node with the most free
    slots (lowest index on ties), counting down ``free``."""
    for task in tasks:
        node = max(range(len(free)), key=lambda n: (free[n], -n))
        if free[node] <= 0:
            raise ValueError("ran out of slots during remote spill")
        assignment.place(task, node)
        free[node] -= 1


def total_slots(node_count: int, slots_per_node: int) -> int:
    return node_count * slots_per_node


def load_percent(task_count: int, node_count: int, slots_per_node: int) -> float:
    """The paper's load definition: tasks / (slots-per-node x nodes) x 100."""
    return 100.0 * task_count / total_slots(node_count, slots_per_node)


def tasks_for_load(load: float, node_count: int, slots_per_node: int) -> int:
    """Invert :func:`load_percent`: task count giving the requested load."""
    return round(load / 100.0 * total_slots(node_count, slots_per_node))
