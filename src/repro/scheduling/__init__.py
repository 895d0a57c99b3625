"""Map-task scheduling: delay scheduling, maximum matching, peeling.

The bipartite task-to-node assignment model of the paper's Section 3.2,
with the three schedulers whose locality Fig. 3 compares.  The
maximum-matching benchmark is an augmenting-path matcher over node
slots (:mod:`.matching`).
"""

from .assignment import (
    Assignment,
    Task,
    load_percent,
    tasks_for_load,
    total_slots,
)
from .delay_scheduler import DelayScheduler, DelaySchedulerError
from .matching import MaxMatchingScheduler, maximum_matching_count
from .peeling import PeelingScheduler

SCHEDULERS = {
    "delay": DelayScheduler,
    "max-matching": MaxMatchingScheduler,
    "peeling": PeelingScheduler,
}


def make_scheduler(name: str, **kwargs):
    """Instantiate a scheduler by short name ('delay', 'max-matching', 'peeling')."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; known: {', '.join(SCHEDULERS)}"
        ) from None
    return factory(**kwargs)


__all__ = [
    "Task",
    "Assignment",
    "load_percent",
    "tasks_for_load",
    "total_slots",
    "DelayScheduler",
    "DelaySchedulerError",
    "MaxMatchingScheduler",
    "maximum_matching_count",
    "PeelingScheduler",
    "SCHEDULERS",
    "make_scheduler",
]
