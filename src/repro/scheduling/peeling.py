"""Degree-guided "peeling" task assignment (Xie & Lu, ISIT 2012),
with the paper's modification for array codes.

Xie and Lu observed that locality-oblivious greedy assignment strands
tasks whose blocks sit on already-busy nodes, and proposed a
degree-guided algorithm: repeatedly commit the most constrained task
first — mirroring the peeling decoder of LDPC codes, where degree-1
check nodes are resolved first.  The paper simulates a "modified
peeling algorithm" for pentagon/heptagon systems (Fig. 3, fourth
panel) as a drop-in improvement over the delay scheduler.

Our implementation (the venue paper gives pseudocode only; documented
deviations):

1. While unassigned tasks remain, let each task's *feasible degree* be
   the number of its replica nodes with at least one free slot.
2. Tasks at degree 0 are set aside for the remote spill.
3. Among the rest, commit a task of minimum feasible degree (most
   constrained first; forced moves at degree 1 are therefore always
   taken before any free choice).
4. Place it on its feasible node with the most free slots — the
   array-code modification: within that tie-break, prefer the node
   carrying the *fewest already-assigned tasks of the same stripe*,
   spreading each polygon stripe's concentrated blocks across its
   nodes instead of exhausting one node's slots on stripe-mates.
5. Spill deferred tasks to the least-loaded nodes.
"""

from __future__ import annotations

import numpy as np

from .assignment import Assignment, Task, spill_remote


class PeelingScheduler:
    """Most-constrained-first assignment with stripe-aware tie-breaking."""

    name = "peeling"

    def __init__(self, stripe_aware: bool = True):
        self.stripe_aware = stripe_aware

    def assign(self, tasks: list[Task], node_count: int, slots_per_node: int,
               rng: np.random.Generator | None = None) -> Assignment:
        # deterministic default: an omitted rng must not make the
        # schedule differ between two otherwise-identical runs
        rng = rng if rng is not None else np.random.default_rng(0)
        assignment = Assignment(node_count, slots_per_node)
        if not tasks:
            return assignment
        if len(tasks) > node_count * slots_per_node:
            raise ValueError("tasks exceed cluster capacity")

        free = [slots_per_node] * node_count
        # stripe_load[node][stripe]: stripe-mates already placed on node.
        stripe_load: list[dict[int, int]] = [dict() for _ in range(node_count)]
        pending: dict[int, Task] = {task.index: task for task in tasks}
        deferred: list[Task] = []

        while pending:
            best_task: Task | None = None
            best_degree = node_count + 1
            zero_degree: list[int] = []
            # Scan in index order so ties resolve deterministically (FIFO).
            for index in sorted(pending):
                task = pending[index]
                degree = sum(1 for node in task.candidates if free[node] > 0)
                if degree == 0:
                    zero_degree.append(index)
                elif degree < best_degree:
                    best_degree = degree
                    best_task = task
                    if degree == 1:
                        break   # forced move; no better candidate exists
            for index in zero_degree:
                deferred.append(pending.pop(index))
            if best_task is None:
                continue   # everything scanned was degree 0
            feasible = [node for node in best_task.candidates if free[node] > 0]

            def preference(node: int) -> tuple[int, int, int]:
                same_stripe = stripe_load[node].get(best_task.stripe, 0)
                stripe_term = same_stripe if self.stripe_aware else 0
                return (-free[node], stripe_term, node)

            chosen = min(feasible, key=preference)
            assignment.place(best_task, chosen)
            free[chosen] -= 1
            stripe_load[chosen][best_task.stripe] = (
                stripe_load[chosen].get(best_task.stripe, 0) + 1
            )
            del pending[best_task.index]

        spill_remote(assignment, deferred, free)
        assignment.validate_capacity()
        return assignment
