"""Spans recorded from outside the program.

The traced run wraps the names the harness can reach in its own process
— methods on ``StorageClient``, the ``call``/``send_frame``/
``recv_frame`` names as bound in ``repro.service.client``, the
in-process namenode's ``_op_*`` handlers, the experiment builders — and
records one span per call: name, start, end, the span that caused it,
and the id of the operation (root span) it belongs to.  Spans stay in a
list in memory; ``dump`` writes them once at the end.  Spans *inside*
the program (datanode subprocesses, the event loop) are ROADMAP item 3.

A span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from .stats import percentile


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the causing span, -1 for a root
    op: int              # index of the root span of this operation


class Recorder:
    """In-memory span store with a per-thread open-span stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn, namer=None):
        """``fn`` with a span named ``name`` around every call.

        ``namer(*args)`` (optional) returns a suffix appended to the
        name, e.g. the RPC kind of a ``call(sock, kind, data)``.
        """
        spans, lock, get_stack = self.spans, self._lock, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = get_stack()
            parent = stack[-1] if stack else -1
            label = name if namer is None else name + namer(*args)
            with lock:
                index = len(spans)
                span = Span(label, 0.0, 0.0, parent,
                            spans[parent].op if parent >= 0 else index)
                spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, owner, attribute: str, name: str,
                namer=None) -> None:
        """Replace ``owner.attribute`` with its traced twin (undoable)."""
        original = getattr(owner, attribute)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, namer))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([[s.name, s.start, s.end, s.parent, s.op]
                       for s in self.spans], handle)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def summarise(spans: list[Span], root_name: str) -> dict:
    """Per-operation view of every op whose root span is ``root_name``.

    Returns ``{"ops", "op_us": [...], "self_us": [...], "per_op":
    {child_name: mean calls per op}, "child_us": {child_name: [durations
    of that child, µs]}, "child_self_us": {...}}`` — child names are
    those of every span below the root, at any depth.
    """
    own = self_times(spans)
    roots = {index for index, span in enumerate(spans)
             if span.parent < 0 and span.name == root_name}
    op_us = [(spans[i].end - spans[i].start) * 1e6 for i in sorted(roots)]
    self_us = [own[i] * 1e6 for i in sorted(roots)]
    counts: dict[str, int] = defaultdict(int)
    child_us: dict[str, list[float]] = defaultdict(list)
    child_self_us: dict[str, list[float]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0 and span.op in roots:
            counts[span.name] += 1
            child_us[span.name].append((span.end - span.start) * 1e6)
            child_self_us[span.name].append(own[index] * 1e6)
    ops = len(roots)
    return {"ops": ops, "op_us": op_us, "self_us": self_us,
            "per_op": {name: count / ops for name, count in counts.items()}
            if ops else {},
            "child_us": dict(child_us),
            "child_self_us": dict(child_self_us)}


def median_us(values) -> float:
    return percentile(sorted(values), 50.0) if values else 0.0
