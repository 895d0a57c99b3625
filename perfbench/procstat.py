"""CPU time and peak memory of a process tree, read from ``/proc``.

The service workloads spread their work over the harness process (load
generator + in-process namenode) and six datanode subprocesses, so a
per-op CPU figure has to add up the whole tree.  ``os.times()`` only
sees children that were already waited for, and ``/proc/<pid>/stat``
counts in 10 ms ticks — too coarse for a quarter-second window — so the
children are read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds on
the CPU) and the harness itself from ``time.process_time``, which keeps
the time of threads that have already exited.
"""

from __future__ import annotations

import os
import time


def _parent(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # the command name may contain spaces; fields resume after ')'
    return int(text[text.rindex(")") + 2:].split()[1])


def descendants(root: int | None = None) -> list[int]:
    """Every live (or zombie) process below ``root`` (default: us)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _parent(int(entry))
            if parent is not None:
                children.setdefault(parent, []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        frontier = [child for pid in frontier
                    for child in children.get(pid, ())]
        found.extend(frontier)
    return found


def cpu_seconds(children: list[int]) -> float:
    """CPU consumed so far by this process and the given live children.

    Take differences only while ``children`` are all alive: a process
    that exits takes its schedstat with it.
    """
    total_ns = 0
    for pid in children:
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/schedstat", "rb") as f:
                    total_ns += int(f.read().split()[0])
        except OSError:
            continue
    return time.process_time() + total_ns / 1e9


def tree_peak_rss_mib(root: int | None = None) -> float:
    """Sum of ``VmHWM`` over ``root`` and its live descendants, MiB."""
    root = os.getpid() if root is None else root
    total_kib = 0
    for pid in [root, *descendants(root)]:
        try:
            with open(f"/proc/{pid}/status", "rb") as handle:
                for line in handle:
                    if line.startswith(b"VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0
