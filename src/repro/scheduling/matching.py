"""Maximum-matching task assignment (the paper's locality benchmark).

The paper models map-task assignment as maximum matching on a bipartite
graph — tasks on the left, nodes (with ``mu`` slot capacity) on the
right, an edge wherever a node stores a replica of the task's block.
The maximum matching gives the best locality any scheduler could
achieve; Fig. 3 plots it (the "MM" curves) as the benchmark the delay
scheduler and peeling algorithm are compared against.

The capacitated matching is found by augmenting paths over node slots:
a greedy pass, then one breadth-first search per unmatched task for a
chain of tasks that each move to another candidate node and so free a
slot for it.  A task with no such chain never gets one later (Kuhn's
algorithm), so one search per task suffices.  The matched count is
unique, and locality depends only on it.  Unmatched tasks spill
remotely onto leftover slots.
"""

from __future__ import annotations

import numpy as np

from .assignment import Assignment, Task, spill_remote


def _match(tasks: list[Task], node_count: int,
           slots_per_node: int) -> list[int]:
    """Node matched to each task (by list position), -1 if unmatched."""
    matched = [-1] * len(tasks)
    holders: list[list[int]] = [[] for _ in range(node_count)]
    unmatched: list[int] = []
    for position, task in enumerate(tasks):
        for node in task.candidates:
            if len(holders[node]) < slots_per_node:
                matched[position] = node
                holders[node].append(position)
                break
        else:
            unmatched.append(position)

    for root in unmatched:
        # reached[node] = the task that would move onto ``node``
        reached = dict.fromkeys(tasks[root].candidates, root)
        queue = list(reached)
        for node in queue:
            if len(holders[node]) < slots_per_node:
                break
            for holder in holders[node]:
                for other in tasks[holder].candidates:
                    if other not in reached:
                        reached[other] = holder
                        queue.append(other)
        else:
            continue   # no augmenting path: the task stays unmatched
        while node >= 0:   # shift every task on the path one node along
            mover = reached[node]
            previous = matched[mover]
            matched[mover] = node
            holders[node].append(mover)
            if previous >= 0:
                holders[previous].remove(mover)
            node = previous
    return matched


def maximum_matching_count(tasks: list[Task], node_count: int,
                           slots_per_node: int) -> int:
    """Size of the maximum local assignment (matched task count)."""
    return sum(node >= 0 for node in _match(tasks, node_count, slots_per_node))


class MaxMatchingScheduler:
    """Assign tasks by maximum matching; spill the remainder remotely.

    Remote spill uses least-loaded nodes so the assignment stays within
    slot capacity whenever total capacity suffices.
    """

    name = "max-matching"

    def assign(self, tasks: list[Task], node_count: int, slots_per_node: int,
               rng: np.random.Generator | None = None) -> Assignment:
        """Return a capacity-respecting assignment maximising locality."""
        assignment = Assignment(node_count, slots_per_node)
        if not tasks:
            return assignment
        if len(tasks) > node_count * slots_per_node:
            raise ValueError(
                f"{len(tasks)} tasks exceed cluster capacity "
                f"{node_count * slots_per_node}"
            )
        free = [slots_per_node] * node_count
        unmatched: list[Task] = []
        for task, node in zip(tasks, _match(tasks, node_count, slots_per_node)):
            if node < 0:
                unmatched.append(task)
            else:
                assignment.place(task, node)
                free[node] -= 1
        spill_remote(assignment, unmatched, free)
        assignment.validate_capacity()
        return assignment
