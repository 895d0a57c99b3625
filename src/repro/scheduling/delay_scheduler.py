"""Hadoop's delay scheduler (Zaharia et al., EuroSys 2010).

Hadoop assigns map tasks reactively: nodes heartbeat to the JobTracker,
which hands each heartbeating node a task.  Delay scheduling makes the
job *skip* a heartbeat when the offering node holds none of its
remaining input blocks, launching a non-local task only after ``D``
consecutive skipped offers.  The paper uses the delay scheduler for all
its measurements, with the delay "set such that every node has a chance
to assign two (four) local map tasks" — i.e. at least one full heartbeat
round; our default ``max_skips = node_count`` models that setting.

The simulation here reproduces the *assignment* dynamics (which tasks
land where, and hence locality).  Timing effects — how long the skips
and remote fetches take — are layered on by
:mod:`repro.mapreduce.simulator`, which replays the same policy inside
a discrete-event engine.
"""

from __future__ import annotations

import numpy as np

from .assignment import Assignment, Task


class DelaySchedulerError(RuntimeError):
    """Raised when the task set cannot fit the cluster's slots."""


class DelayScheduler:
    """Heartbeat-driven greedy scheduler with delay-based locality waits.

    Parameters:
        max_skips: consecutive node offers the job may decline before it
            must launch a task non-locally.  ``None`` means one full
            round (the node count), the paper's configuration.
        sticky_heartbeat_order: when True the per-round node order is a
            fixed random permutation; otherwise each round reshuffles.
    """

    name = "delay-scheduling"

    def __init__(self, max_skips: int | None = None,
                 sticky_heartbeat_order: bool = False):
        self.max_skips = max_skips
        self.sticky_heartbeat_order = sticky_heartbeat_order

    def assign(self, tasks: list[Task], node_count: int, slots_per_node: int,
               rng: np.random.Generator | None = None) -> Assignment:
        """Simulate heartbeats until every task is placed."""
        # deterministic default: an omitted rng must not make the
        # schedule differ between two otherwise-identical runs
        rng = rng if rng is not None else np.random.default_rng(0)
        assignment = Assignment(node_count, slots_per_node)
        if not tasks:
            return assignment
        capacity = node_count * slots_per_node
        if len(tasks) > capacity:
            raise DelaySchedulerError(
                f"{len(tasks)} tasks exceed cluster capacity {capacity}"
            )
        max_skips = self.max_skips if self.max_skips is not None else node_count

        free = [slots_per_node] * node_count
        # FIFO within the job, as in Hadoop: pending tasks in index order.
        pending: dict[int, Task] = {task.index: task for task in tasks}
        # Node -> its local task indices, highest first, so the end of
        # the list is the node's lowest-index local task; placed tasks
        # are popped off the end as they surface (tasks only ever leave
        # ``pending``).  ``fifo`` does the same for the non-local launch.
        fifo = sorted(pending, reverse=True)
        local: list[list[int]] = [[] for _ in range(node_count)]
        for index in fifo:
            for node in pending[index].candidates:
                local[node].append(index)

        skips = 0
        order = rng.permutation(node_count).tolist()
        while pending:
            if not self.sticky_heartbeat_order:
                order = rng.permutation(node_count).tolist()
            for node in order:
                if not pending:
                    break
                mine = local[node]
                while free[node] > 0 and pending:
                    while mine and mine[-1] not in pending:
                        mine.pop()
                    if mine:
                        chosen = mine.pop()
                    elif skips >= max_skips:
                        while fifo[-1] not in pending:
                            fifo.pop()
                        chosen = fifo.pop()   # non-local launch
                    else:
                        # Declined.  The skip counter keeps growing, round
                        # over round, until the delay expires, as in Hadoop.
                        skips += 1
                        break   # next node
                    assignment.place(pending.pop(chosen), node)
                    free[node] -= 1
                    skips = 0
        assignment.validate_capacity()
        return assignment
