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

A workload needs only the code's stripe length and its data symbols'
replica slots.  :func:`workload_for_load` memoises that layout per code
name, so a sweep builds each code once per process rather than once
per trial.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core import Code, make_code
from ..scheduling import Task, tasks_for_load

#: A code's task layout: stripe length and each data symbol's replica slots.
Layout = tuple[int, tuple[tuple[int, ...], ...]]


def stripe_node_sample(rng: np.random.Generator, node_count: int,
                       length: int) -> np.ndarray:
    """Uniformly choose the physical nodes hosting one stripe."""
    if length > node_count:
        raise ValueError(
            f"stripe length {length} exceeds cluster size {node_count}"
        )
    return rng.choice(node_count, size=length, replace=False)


def _layout_of(code: Code) -> Layout:
    return code.length, tuple(s.replicas for s in code.layout.data_symbols())


@functools.lru_cache(maxsize=64)
def _named_layout(code_name: str) -> Layout:
    return _layout_of(make_code(code_name))


def generate_tasks(code: Code, task_count: int, node_count: int,
                   rng: np.random.Generator,
                   shuffle: bool = False) -> list[Task]:
    """Create ``task_count`` map tasks over freshly placed stripes.

    Stripes are generated until the task budget is met; the final stripe
    contributes a uniformly random subset of its data blocks, modelling
    a file whose tail stripe is only partially read.
    """
    return _tasks(_layout_of(code), task_count, node_count, rng, shuffle)


def _tasks(layout: Layout, task_count: int, node_count: int,
           rng: np.random.Generator, shuffle: bool) -> list[Task]:
    if task_count < 0:
        raise ValueError("task_count must be non-negative")
    length, data_replicas = layout
    tasks: list[Task] = []
    stripe = 0
    while len(tasks) < task_count:
        nodes = stripe_node_sample(rng, node_count, length).tolist()
        remaining = task_count - len(tasks)
        if remaining >= len(data_replicas):
            chosen = data_replicas
        else:
            picks = rng.choice(len(data_replicas), size=remaining,
                               replace=False)
            chosen = [data_replicas[i] for i in sorted(picks.tolist())]
        for replicas in chosen:
            candidates = tuple(nodes[slot] for slot in replicas)
            tasks.append(Task(index=len(tasks), stripe=stripe,
                              candidates=candidates))
        stripe += 1
    if shuffle:
        order = rng.permutation(len(tasks)).tolist()
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
    task_count = tasks_for_load(load, node_count, slots_per_node)
    return _tasks(_named_layout(code_name), task_count, node_count, rng,
                  shuffle)
