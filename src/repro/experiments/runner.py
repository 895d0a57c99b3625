"""Shared experiment infrastructure: seeded sweeps and series containers.

Every figure/table regeneration in :mod:`repro.experiments` is a sweep
over (code, scheduler, load, ...) cells, each cell averaged over many
seeded trials.  This module holds the small amount of machinery they
share so individual experiment files stay declarative.
"""

from __future__ import annotations

import hashlib
import statistics
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np


def stable_seed(*components) -> int:
    """A process-independent seed derived from the components' reprs.

    Python's built-in ``hash`` is randomised per process
    (PYTHONHASHSEED), which would silently make "seeded" experiments
    unrepeatable across runs; hashing the repr through SHA-256 keeps
    every cell bit-reproducible anywhere.
    """
    digest = hashlib.sha256(repr(components).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def trial_rng(*components) -> np.random.Generator:
    """Deterministic generator derived from arbitrary reprable components.

    Experiments key their randomness on (experiment, cell, trial) so any
    single cell can be re-run in isolation and reproduce exactly.
    """
    return np.random.default_rng(stable_seed(*components))


@dataclass
class CellStats:
    """Mean/stdev summary of one sweep cell."""

    mean: float
    stdev: float
    samples: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "CellStats":
        if not values:
            raise ValueError("a cell needs at least one sample")
        spread = statistics.stdev(values) if len(values) > 1 else 0.0
        return cls(mean=statistics.fmean(values), stdev=spread, samples=len(values))


def average_over_trials(fn: Callable[[np.random.Generator], float],
                        trials: int, *seed_components) -> CellStats:
    """Run ``fn`` with ``trials`` independent generators and summarise.

    This is the serial reference semantics that
    :mod:`repro.experiments.engine` trial cells reproduce exactly: the
    engine derives trial ``t`` of cell ``key`` from
    ``trial_rng(experiment, *seed_key, t)``, the same stream used here.
    """
    values = [
        fn(trial_rng(*seed_components, trial)) for trial in range(trials)
    ]
    return CellStats.from_values(values)


@dataclass
class Series:
    """One plotted curve: a label plus (x, y) points with spreads."""

    label: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)
    spreads: list[float] = field(default_factory=list)

    def add(self, x: float, stats: CellStats) -> None:
        self.xs.append(x)
        self.ys.append(stats.mean)
        self.spreads.append(stats.stdev)

    def y_at(self, x: float) -> float:
        """The y value recorded at ``x`` (exact match required)."""
        return self.ys[self.xs.index(x)]

    def as_dict(self) -> dict[str, object]:
        return {"label": self.label, "x": list(self.xs), "y": list(self.ys)}


@dataclass
class FigureResult:
    """A named collection of series, one figure panel's worth of data."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)

    def get(self, label: str) -> Series:
        for entry in self.series:
            if entry.label == label:
                return entry
        raise KeyError(f"no series {label!r} in {self.title!r}")

    def labels(self) -> list[str]:
        return [entry.label for entry in self.series]

    def points(self) -> list[tuple]:
        """Flatten to comparable ``(label, xs, ys, spreads)`` tuples.

        The canonical way to assert two regenerations of a figure are
        bit-identical — used by the engine's test suite and
        the perf snapshot's ``bit_identical`` check.
        """
        return [(entry.label, list(entry.xs), list(entry.ys),
                 list(entry.spreads)) for entry in self.series]
