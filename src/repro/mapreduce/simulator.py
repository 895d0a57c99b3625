"""Discrete-event MapReduce job simulator (the Fig. 4/5 substrate).

Replays Hadoop 0.20's scheduling loop in simulated time:

* every node heartbeats to the JobTracker at a fixed interval
  (staggered start offsets) and is granted at most
  ``tasks_per_heartbeat`` map tasks while it has free slots;
* the job follows *delay scheduling* (Zaharia et al., EuroSys 2010):
  an offer from a node holding none of the remaining input blocks is
  declined until the job has been waiting ``delay_s`` seconds, after
  which it launches non-locally — and keeps doing so until a local
  launch resets the wait, exactly as in the published algorithm;
* a data-local map task runs for a truncated-normal duration; a
  non-local task additionally pays an explicit input-fetch time (shared
  LAN with a per-stream disk ceiling) and a multiplicative remote
  penalty for source-side contention;
* Terasort's reduce phase is modelled as a tail after the last map:
  fixed merge time plus the un-overlapped part of the shuffle at LAN
  bandwidth (identical across coding schemes, as in the paper, where
  scheme differences show up in the map phase and fetch traffic).

Outputs per job: completion time, data locality, and network traffic
split into map-input fetches (the locality-dependent component the
paper plots) and shuffle bytes.

Features the paper disabled — speculative execution, cap-based load
management — are simply not modelled.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ..scheduling import Task
from .config import GiB, MRSimConfig


@dataclass(frozen=True)
class JobResult:
    """Measured outcome of one simulated MapReduce job."""

    job_time_s: float
    map_phase_s: float
    locality_percent: float
    local_tasks: int
    remote_tasks: int
    map_input_traffic_bytes: int
    shuffle_traffic_bytes: int
    task_count: int

    @property
    def traffic_gb(self) -> float:
        """The figure metric: locality-dependent fetch traffic in GB."""
        return self.map_input_traffic_bytes / GiB

    @property
    def total_traffic_gb(self) -> float:
        return (self.map_input_traffic_bytes + self.shuffle_traffic_bytes) / GiB


# Event kinds.  An event is a plain ``(time, sequence, kind, node)``
# tuple: the unique sequence number breaks time ties in push order, so
# the heap never compares further than it.
_HEARTBEAT, _MAP_DONE, _FETCH_DONE = range(3)


class MapReduceSimulator:
    """Simulate one job under delay scheduling on a configured cluster."""

    def __init__(self, config: MRSimConfig):
        self.config = config

    def run(self, tasks: list[Task], rng: np.random.Generator) -> JobResult:
        """Execute the job to completion and return its metrics."""
        config = self.config
        if not tasks:
            return JobResult(0.0, 0.0, 100.0, 0, 0, 0, 0, 0)

        free_slots = [config.map_slots] * config.node_count
        pending: dict[int, Task] = {task.index: task for task in tasks}
        # Node -> its local task indices, highest first, so the end of
        # the list is the node's lowest-index pending local task; tasks
        # launched elsewhere are popped off the end as they surface
        # (tasks only ever leave ``pending``).  ``fifo`` does the same
        # for the non-local launch, which takes the lowest index.
        fifo = sorted(pending, reverse=True)
        local: list[list[int]] = [[] for _ in range(config.node_count)]
        for index in fifo:
            for node in pending[index].candidates:
                if node >= config.node_count:
                    raise ValueError(
                        f"task {index} references node {node} outside the cluster"
                    )
                local[node].append(index)

        events: list[tuple[float, int, int, int]] = []
        sequence = itertools.count()

        def push(time: float, kind: int, node: int):
            heapq.heappush(events, (time, next(sequence), kind, node))

        offsets = rng.uniform(0.0, config.heartbeat_s, size=config.node_count)
        for node in range(config.node_count):
            push(float(offsets[node]), _HEARTBEAT, node)

        decline_since: float | None = None
        local_count = 0
        remote_count = 0
        active_fetches = 0
        running_maps = 0
        last_map_finish = 0.0
        fetch_bytes_total = 0

        def sample_map_time() -> float:
            duration = rng.normal(config.map_mean_s, config.map_sigma_s)
            return max(config.map_mean_s * 0.25, duration)

        def fetch_time() -> float:
            streams = max(1, active_fetches)
            bandwidth = min(config.per_stream_bps,
                            config.fetch_aggregate_bps / streams)
            return config.block_bytes / bandwidth

        def launch(now: float, node: int, task: Task, is_local: bool) -> None:
            nonlocal local_count, remote_count, active_fetches
            nonlocal fetch_bytes_total, running_maps
            duration = sample_map_time()
            if is_local:
                local_count += 1
            else:
                remote_count += 1
                active_fetches += 1
                fetch_bytes_total += config.block_bytes
                duration = duration * config.remote_penalty + fetch_time()
                push(now + fetch_time(), _FETCH_DONE, node)
            free_slots[node] -= 1
            running_maps += 1
            push(now + duration, _MAP_DONE, node)

        while pending or running_maps:
            now, _, kind, node = heapq.heappop(events)
            if kind == _MAP_DONE:
                free_slots[node] += 1
                running_maps -= 1
                last_map_finish = max(last_map_finish, now)
                continue
            if kind == _FETCH_DONE:
                active_fetches = max(0, active_fetches - 1)
                continue
            # Heartbeat: grant up to tasks_per_heartbeat map tasks.
            mine = local[node]
            granted = 0
            while (free_slots[node] > 0 and pending
                   and granted < config.tasks_per_heartbeat):
                while mine and mine[-1] not in pending:
                    mine.pop()
                if mine:
                    task = pending.pop(mine.pop())
                    launch(now, node, task, is_local=True)
                    decline_since = None       # local launch resets the wait
                    granted += 1
                    continue
                if decline_since is None:
                    decline_since = now        # start waiting
                    break
                if now - decline_since >= config.delay_s:
                    while fifo[-1] not in pending:
                        fifo.pop()
                    task = pending.pop(fifo.pop())
                    launch(now, node, task, is_local=False)
                    granted += 1               # wait NOT reset (EuroSys alg.)
                    continue
                break                          # still within the delay
            if pending:
                push(now + config.heartbeat_s, _HEARTBEAT, node)

        task_count = len(tasks)
        shuffle_bytes = int(task_count * config.block_bytes
                            * config.shuffle_output_ratio)
        # Reducers shuffle as maps finish; the un-overlapped remainder
        # drains after the last map at LAN speed, then merges/writes.
        exposed_shuffle = shuffle_bytes * (1.0 - config.shuffle_overlap)
        reduce_tail = config.reduce_base_s + exposed_shuffle / config.aggregate_net_bps
        job_time = last_map_finish + reduce_tail
        locality = 100.0 * local_count / task_count

        traffic = fetch_bytes_total
        if config.count_shuffle_in_traffic:
            traffic += shuffle_bytes
        return JobResult(
            job_time_s=job_time,
            map_phase_s=last_map_finish,
            locality_percent=locality,
            local_tasks=local_count,
            remote_tasks=remote_count,
            map_input_traffic_bytes=traffic,
            shuffle_traffic_bytes=shuffle_bytes,
            task_count=task_count,
        )
