"""Figure 2: the task-to-node bipartite structure of coded stripes.

The paper's Fig. 2 illustrates why array codes stress the scheduler:
tasks over 45 data blocks in 5 pentagons form a bipartite graph with
*left degree 2* (every block has two replicas) and *right degree 3 or
4* (every stripe node is an endpoint of 3 or 4 of its stripe's tasks,
because "all blocks in the same pentagon node are mapped to the same
data node").  This module regenerates that census for any code so the
structural claim can be checked rather than drawn.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core import make_code
from ..workloads import generate_tasks
from .engine import Cell, run_cells


@dataclass(frozen=True)
class BipartiteCensus:
    """Degree statistics of a generated task-node graph."""

    code: str
    task_count: int
    stripe_count: int
    left_degrees: dict[int, int]          # replica count -> #tasks
    right_degrees_per_stripe: dict[int, int]   # stripe-node degree -> #nodes
    max_tasks_per_node: int

    def as_row(self) -> list[object]:
        left = "/".join(f"{d}x{c}" for d, c in sorted(self.left_degrees.items()))
        right = "/".join(
            f"{d}x{c}" for d, c in sorted(self.right_degrees_per_stripe.items()))
        return [self.code, self.task_count, self.stripe_count, left, right,
                self.max_tasks_per_node]


HEADERS = ["code", "tasks", "stripes", "left degree x count",
           "per-stripe right degree x count", "max tasks/node"]


def census(code_name: str, task_count: int = 45, node_count: int = 25,
           seed: int = 0) -> BipartiteCensus:
    """Generate the paper's Fig. 2 workload and measure its degrees."""
    code = make_code(code_name)
    rng = np.random.default_rng(seed)
    tasks = generate_tasks(code, task_count, node_count, rng)

    left = Counter(len(task.candidates) for task in tasks)
    stripes = sorted({task.stripe for task in tasks})
    right: Counter[int] = Counter()
    node_tasks: Counter[int] = Counter()
    for stripe in stripes:
        stripe_tasks = [t for t in tasks if t.stripe == stripe]
        per_node: Counter[int] = Counter()
        for task in stripe_tasks:
            for node in task.candidates:
                per_node[node] += 1
        right.update(per_node.values())
    for task in tasks:
        for node in task.candidates:
            node_tasks[node] += 1
    return BipartiteCensus(
        code=code_name,
        task_count=len(tasks),
        stripe_count=len(stripes),
        left_degrees=dict(left),
        right_degrees_per_stripe=dict(right),
        max_tasks_per_node=max(node_tasks.values()) if node_tasks else 0,
    )


def figure2(codes=("pentagon", "heptagon", "2-rep", "3-rep"),
            task_count: int = 45, node_count: int = 25,
            workers: int | None = None) -> list[BipartiteCensus]:
    cells = [Cell(experiment="fig2", key=(code_name,), fn=census,
                  args=(code_name, task_count, node_count))
             for code_name in codes]
    return run_cells(cells, workers)


def shape_checks(results: list[BipartiteCensus]) -> dict[str, bool]:
    by = {r.code: r for r in results}
    return {
        "every double-replication task has left degree 2": all(
            set(by[c].left_degrees) == {2} for c in ("pentagon", "heptagon")
            if c in by
        ),
        "pentagon stripe nodes have right degree 3 or 4": (
            set(by["pentagon"].right_degrees_per_stripe) <= {3, 4}
            if "pentagon" in by else True
        ),
        # Full heptagon stripes have right degree 5 or 6; measure with a
        # whole-stripe task count (45 tasks leave a 5-task partial stripe
        # whose nodes naturally have lower degree).
        "heptagon stripe nodes have right degree 5 or 6": (
            set(census("heptagon", task_count=40).right_degrees_per_stripe)
            <= {5, 6}
        ),
        "replication spreads tasks (right degree mostly 1)": (
            by["2-rep"].right_degrees_per_stripe.get(1, 0)
            > sum(v for k, v in by["2-rep"].right_degrees_per_stripe.items()
                  if k > 1)
            if "2-rep" in by else True
        ),
    }
