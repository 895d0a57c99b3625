"""Deterministic, seedable fault injection for the storage service.

A :class:`FaultPlan` is a list of :class:`Fault` specs — kill / hang /
slow / corrupt one datanode, triggered either ``t`` seconds after the
plan is armed or on the ``k``-th data-path request the datanode serves
after arming.  Plans parse from compact CLI strings::

    kill:dn2@t=2            SIGKILL datanode 2, 2s after arming
    hang:dn0@k=5            datanode 0 stops answering at its 5th request
    slow:dn1@t=1,delay=0.2  +200ms per request from t=1s on
    slow:dn1@k=3,delay=0.2,duration=5   ... for 5 seconds only
    corrupt:dn0@k=10        flip bytes of one stored block (checksum kept)
    kill:random@t=2         target resolved from the plan seed

Determinism: ``random`` targets and the corrupted block are drawn from
``numpy`` generators seeded by ``(seed, fault index)``, so the same
plan + seed + cluster always injects the same faults at the same
triggers.  numpy is imported at the first draw, so a datanode that
never resolves a target or corrupts a block does not load it.  Trigger
*evaluation* happens datanode-side (:class:`FaultArm`), on the daemon's
one event loop: request counts are exact, and time triggers are loop
timers, so a kill lands even on an idle daemon.

A spec crosses the wire as its text: :meth:`Fault.describe` prints
every field so that :func:`parse_fault` reads back exactly the same
fault, and the datanode parses what it is sent.
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
import time
from dataclasses import dataclass, replace

ACTIONS = ("kill", "hang", "slow", "corrupt")

#: ``delay`` when a spec names none.
_DEFAULT_DELAY = 0.25


def _number(value: float) -> str:
    """The shortest text :func:`float` reads back as ``value``."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class Fault:
    """One injected fault: what, whom, and when."""

    action: str                 # kill | hang | slow | corrupt
    target: int | None          # datanode ordinal; None = seeded random
    at_time: float | None = None    # seconds after arming
    on_request: int | None = None   # k-th data-path request after arming
    delay: float = _DEFAULT_DELAY   # slow: extra seconds per request
    duration: float | None = None   # slow: how long it lasts (None: forever)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; "
                             f"known: {', '.join(ACTIONS)}")
        if (self.at_time is None) == (self.on_request is None):
            raise ValueError(
                "a fault needs exactly one trigger: t=SECONDS or k=REQUESTS")
        for key, value in (("t", self.at_time), ("delay", self.delay),
                           ("duration", self.duration)):
            if value is not None and not (math.isfinite(value)
                                          and value >= 0):
                raise ValueError(f"{key} must be a finite number >= 0, "
                                 f"got {value!r}")
        if self.on_request is not None and self.on_request < 1:
            raise ValueError("k counts requests from 1")

    def describe(self) -> str:
        """The spec :func:`parse_fault` reads back as this fault."""
        trigger = (f"t={_number(self.at_time)}" if self.at_time is not None
                   else f"k={self.on_request}")
        target = "random" if self.target is None else f"dn{self.target}"
        extra = ""
        if self.action == "slow" or self.delay != _DEFAULT_DELAY:
            extra = f",delay={_number(self.delay)}"
        if self.duration is not None:
            extra += f",duration={_number(self.duration)}"
        return f"{self.action}:{target}@{trigger}{extra}"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults, resolvable against a concrete cluster."""

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def resolve(self, node_ids) -> dict[int, list[Fault]]:
        """Bind every fault to a concrete datanode: ``node_id -> faults``.

        ``random`` targets draw from ``node_ids`` with a generator
        seeded by ``(seed, fault index)`` — same plan, same cluster,
        same victims, every run.
        """
        node_ids = sorted(node_ids)
        if not node_ids:
            raise ValueError("cannot resolve a fault plan against an "
                             "empty cluster")
        bound: dict[int, list[Fault]] = {}
        for index, fault in enumerate(self.faults):
            if fault.target is None:
                import numpy as np

                rng = np.random.default_rng((self.seed, index))
                target = int(node_ids[rng.integers(len(node_ids))])
                fault = replace(fault, target=target)
            elif fault.target not in node_ids:
                raise ValueError(f"fault targets dn{fault.target}, but the "
                                 f"cluster has nodes {node_ids}")
            bound.setdefault(fault.target, []).append(fault)
        return bound

    def describe(self) -> str:
        return ";".join(fault.describe() for fault in self.faults) or "none"


def parse_fault(spec: str) -> Fault:
    """Parse one ``action:target@trigger[,key=value...]`` fault spec."""
    text = spec.strip()
    head, sep, trigger_text = text.partition("@")
    if not sep:
        raise ValueError(f"{spec!r}: missing '@trigger' "
                         "(t=SECONDS or k=REQUESTS)")
    action, sep, target_text = head.partition(":")
    if not sep:
        raise ValueError(f"{spec!r}: missing ':target' (dnN or random)")
    action = action.strip().lower()
    target_text = target_text.strip().lower()
    if target_text == "random":
        target: int | None = None
    elif target_text.startswith("dn") and target_text[2:].isdigit():
        target = int(target_text[2:])
    else:
        raise ValueError(f"{spec!r}: target must be dnN or random, "
                         f"got {target_text!r}")
    kwargs: dict = {"action": action, "target": target}
    for part in trigger_text.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{spec!r}: expected key=value, got {part!r}")
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"{spec!r}: {value!r} is not a number"
                             ) from None
        if key == "t":
            kwargs["at_time"] = number
        elif key == "k":
            if not number.is_integer():
                raise ValueError(f"{spec!r}: k must be an integer")
            kwargs["on_request"] = int(number)
        elif key in ("delay", "duration"):
            kwargs[key] = number
        else:
            raise ValueError(f"{spec!r}: unknown key {key!r}")
    return Fault(**kwargs)


def parse_fault_plan(specs, seed: int = 0) -> FaultPlan:
    """Parse semicolon/list-separated fault specs into a plan."""
    if isinstance(specs, str):
        specs = [part for part in specs.split(";") if part.strip()]
    return FaultPlan(tuple(parse_fault(spec) for spec in specs), seed=seed)


class FaultArm:
    """Datanode-side armed faults: trigger bookkeeping + execution.

    Everything runs on the daemon's event loop, so nothing here takes a
    lock.  :meth:`before_request_gate` is the daemon's data-path request
    hook and counts ``k=`` triggers; a ``t=`` trigger is a loop timer
    that :meth:`arm` schedules.  Corruption picks a deterministic stored
    block (seeded draw over the sorted block list at trigger time) and
    flips its bytes through
    :meth:`~repro.cluster.datanode.DataNode.corrupt` — the checksum
    stays, so the next verified read or checker scrub catches it.
    """

    def __init__(self, store, *, seed: int = 0):
        self._store = store
        self._seed = seed
        self._pending: list[tuple[int, Fault]] = []
        self._timers: list[asyncio.TimerHandle] = []
        self._requests = 0
        self._armed_total = 0
        #: True once a hang fault fired (heartbeats must stop too — a
        #: hung daemon goes silent everywhere, which is exactly how the
        #: namenode's liveness tracking is meant to catch it).
        self.hung = False
        self._slow_until: float | None = None   # None: inactive
        self._slow_delay = 0.0
        self._fired: list[str] = []

    # -- arming --------------------------------------------------------
    def arm(self, faults) -> int:
        """Arm more faults now, on the running loop: ``t=0`` and the
        request count restart for every pending fault, so the timers
        of those already armed are cancelled and scheduled again."""
        loop = asyncio.get_running_loop()
        for timer in self._timers:
            timer.cancel()
        self._requests = 0
        for fault in faults:
            self._pending.append((self._armed_total, fault))
            self._armed_total += 1
        self._timers = [loop.call_later(entry[1].at_time, self._due, entry)
                        for entry in self._pending
                        if entry[1].at_time is not None]
        return len(self._pending)

    # -- status --------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "pending": [fault.describe() for _, fault in self._pending],
            "fired": list(self._fired),
            "hung": self.hung,
            "requests": self._requests,
        }

    # -- trigger evaluation --------------------------------------------
    def before_request_gate(self, kind: str, data):
        """Hook run ahead of every served request.

        Trigger bookkeeping runs synchronously (the healthy hot path
        never touches the event loop's task machinery); when a
        hang/slow degradation is active the returned coroutine *awaits*
        instead of sleeping, so a hung or slowed connection parks only
        its own coroutine — other clients keep being served on the same
        event loop.  Returns ``None`` when there is nothing to wait for.
        """
        del data
        if kind in ("fault", "status"):
            return None     # the harness control path must stay responsive
        self._requests += 1
        for entry in [entry for entry in self._pending
                      if entry[1].on_request is not None
                      and self._requests >= entry[1].on_request]:
            self._due(entry)
        if self.hung:
            return self._hang()
        if self._slow_until is not None \
                and time.monotonic() < self._slow_until:
            return asyncio.sleep(self._slow_delay)
        return None

    @staticmethod
    async def _hang() -> None:
        """A hung daemon never answers: park until the server closes."""
        await asyncio.get_running_loop().create_future()

    # -- execution -----------------------------------------------------
    def _due(self, entry: tuple[int, Fault]) -> None:
        """Fire a pending fault whose trigger came due."""
        self._pending.remove(entry)
        index, fault = entry
        self._fired.append(fault.describe())
        if fault.action == "kill":
            # The abrupt exit the acceptance scenario asks for: no
            # close frames, no cleanup — connections just go EOF.
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.action == "hang":
            self.hung = True
        elif fault.action == "slow":
            self._slow_delay = fault.delay
            self._slow_until = (math.inf if fault.duration is None
                                else time.monotonic() + fault.duration)
        elif fault.action == "corrupt":
            self._corrupt_one(index)

    def _corrupt_one(self, index: int) -> None:
        blocks = sorted(self._store.block_ids(),
                        key=lambda b: (b.file_name, b.stripe_index,
                                       b.symbol_index))
        if not blocks:
            return
        import numpy as np

        rng = np.random.default_rng((self._seed, index))
        block = blocks[int(rng.integers(len(blocks)))]
        self._store.corrupt(block, offset=int(rng.integers(1 << 16)))
