"""Seeded load generation: open loop (Poisson) and closed loop.

*Open loop* models independent users: requests are due on a Poisson
schedule fixed by the seed, whatever the system does.  Latency counts
from the **due** time, so a stall charges every request that queued
behind it (no coordinated omission), and how late the generator itself
ran is reported next to it.  *Closed loop* models callers that wait for
a reply: a fixed number of operations split over the clients, each
sending its next request when the previous one returned.

Both take at most ``os.cpu_count()`` sender threads, each with its own
client — one process drives all load.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np


def poisson_schedule(seed: int, rate: float, duration: float) -> np.ndarray:
    """Due times (seconds from phase start) of a Poisson process.

    A pure function of its arguments: exponential gaps of mean
    ``1/rate`` drawn from ``default_rng((seed, 0x9015))``, cut at
    ``duration``.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng((seed, 0x9015))
    # draw comfortably more gaps than needed, then cut at the horizon
    count = int(rate * duration * 1.2 + 10 * (rate * duration) ** 0.5 + 32)
    due = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return due[due < duration]


@dataclass
class LoadResult:
    """Per-op arrays of one load phase (index = op number)."""

    due: np.ndarray          # intended send time, s from phase start
    sent: np.ndarray         # actual send time
    done: np.ndarray         # completion time
    ok: np.ndarray           # completed and verified
    wall: float              # first send to last completion

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return int(len(self.ok) - self.ok.sum())

    @property
    def latency(self) -> np.ndarray:
        """Seconds from due time to completion."""
        return self.done - self.due

    @property
    def send_lag(self) -> np.ndarray:
        """Seconds the generator ran behind its own schedule."""
        return self.sent - self.due


def window_medians(values, size: int) -> list[float]:
    """Median of each run of ``size`` consecutive values (a trailing
    partial window is dropped)."""
    values = np.asarray(values)
    whole = len(values) // size
    if whole == 0:
        return [float(np.median(values))]
    return np.median(values[:whole * size].reshape(whole, size),
                     axis=1).tolist()


def window_rates(result: LoadResult, size: int) -> list[float]:
    """Completions per second over each ``size`` consecutive completions
    of one closed-loop phase."""
    finish = np.sort(result.done)
    edges = finish[size - 1::size]
    starts = np.concatenate(([float(result.sent.min())], edges[:-1]))
    if len(edges) == 0:
        return [result.attempted / result.wall]
    return (size / (edges - starts)).tolist()


def merge(parts: list[LoadResult]) -> LoadResult:
    """Back-to-back phases as one: per-op arrays concatenated in order,
    times kept relative to each phase's own start, walls added."""
    return LoadResult(*(np.concatenate([getattr(part, name)
                                        for part in parts])
                        for name in ("due", "sent", "done", "ok")),
                      wall=sum(part.wall for part in parts))


def _drive(clients, op, due: np.ndarray | None, count: int,
           failures: tuple) -> LoadResult:
    sent = np.zeros(count)
    done = np.zeros(count)
    ok = np.zeros(count, dtype=bool)
    ticket = itertools.count()      # next() is atomic under the GIL
    clock = time.perf_counter
    # a short lead so every sender is parked before the first due time
    origin = clock() + (0.02 if due is not None else 0.0)

    def sender(client) -> None:
        while True:
            index = next(ticket)
            if index >= count:
                return
            if due is not None:
                wait = origin + due[index] - clock()
                if wait > 0:
                    time.sleep(wait)
            sent[index] = clock()
            try:
                good = op(client, index)
            except failures:
                good = False
            done[index] = clock()
            ok[index] = good

    threads = [threading.Thread(target=sender, args=(client,), daemon=True)
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sent -= origin
    done -= origin
    schedule = due if due is not None else sent
    return LoadResult(np.asarray(schedule), sent, done, ok,
                      float(done.max() - sent.min()))


def run_open_loop(clients, op, due: np.ndarray,
                  failures: tuple = ()) -> LoadResult:
    """Send op ``i`` at ``due[i]``; whichever sender is free takes it.

    ``op(client, index)`` performs and verifies one operation and
    returns whether the output was correct; an exception listed in
    ``failures`` counts the op as failed.
    """
    return _drive(clients, op, due, len(due), failures)


def run_closed_loop(clients, op, count: int,
                    failures: tuple = ()) -> LoadResult:
    """``count`` ops shared by ``len(clients)`` back-to-back callers."""
    return _drive(clients, op, None, count, failures)
