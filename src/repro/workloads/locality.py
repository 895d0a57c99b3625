"""Workload generation for the data-locality simulations (Fig. 3).

A "moderately loaded" system in the paper runs one MapReduce job whose
map tasks each read one stored data block.  The load knob is the
paper's definition: ``load% = tasks / (mu x nodes) x 100``.  This module
turns (code, load, cluster shape) into a list of
:class:`~repro.scheduling.assignment.Task` objects whose candidate-node
sets reflect the code's placement:

* replication codes spread each block's ``r`` replicas over ``r``
  uniformly random nodes — every task has ``r`` independent candidates;
* polygon codes place each *stripe* on ``n`` random nodes and pin each
  data block to the two endpoints of its edge, so 2(n-1) task-endpoints
  concentrate on every stripe node — the contention Fig. 2 illustrates;
* the heptagon-local code behaves exactly like two heptagons (the
  global-parity node hosts no data and "does not play a role in task
  assignment", paper Section 3.2);
* Reed-Solomon leaves a single candidate per task.
"""

from __future__ import annotations

import numpy as np

from ..core import Code, make_code
from ..scheduling import Task, tasks_for_load


def stripe_node_sample(rng: np.random.Generator, node_count: int,
                       length: int) -> np.ndarray:
    """Uniformly choose the physical nodes hosting one stripe."""
    if length > node_count:
        raise ValueError(
            f"stripe length {length} exceeds cluster size {node_count}"
        )
    return rng.choice(node_count, size=length, replace=False)


def generate_tasks(code: Code, task_count: int, node_count: int,
                   rng: np.random.Generator,
                   shuffle: bool = False) -> list[Task]:
    """Create ``task_count`` map tasks over freshly placed stripes.

    Stripes are generated until the task budget is met; the final stripe
    contributes a uniformly random subset of its data blocks, modelling
    a file whose tail stripe is only partially read.
    """
    if task_count < 0:
        raise ValueError("task_count must be non-negative")
    tasks: list[Task] = []
    layout = code.layout
    data_symbols = layout.data_symbols()
    stripe = 0
    while len(tasks) < task_count:
        nodes = stripe_node_sample(rng, node_count, code.length)
        remaining = task_count - len(tasks)
        if remaining >= len(data_symbols):
            chosen = data_symbols
        else:
            picks = rng.choice(len(data_symbols), size=remaining, replace=False)
            chosen = [data_symbols[i] for i in sorted(picks)]
        for symbol in chosen:
            candidates = tuple(int(nodes[slot]) for slot in symbol.replicas)
            tasks.append(Task(index=len(tasks), stripe=stripe, candidates=candidates))
        stripe += 1
    if shuffle:
        order = rng.permutation(len(tasks))
        tasks = [
            Task(index=new_index, stripe=tasks[old].stripe,
                 candidates=tasks[old].candidates)
            for new_index, old in enumerate(order)
        ]
    return tasks


def workload_for_load(code_name: str, load: float, node_count: int,
                      slots_per_node: int, rng: np.random.Generator,
                      shuffle: bool = False) -> list[Task]:
    """Tasks for one job at the requested load on a ``node_count`` cluster."""
    code = make_code(code_name)
    task_count = tasks_for_load(load, node_count, slots_per_node)
    return generate_tasks(code, task_count, node_count, rng, shuffle=shuffle)
