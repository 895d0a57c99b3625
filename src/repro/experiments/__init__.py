"""Experiment harness: one module per table/figure of the paper.

* :mod:`repro.experiments.table1` — storage overhead / length / MTTDL;
* :mod:`repro.experiments.fig3` — locality vs load by scheduler and mu;
* :mod:`repro.experiments.fig4` — Terasort on set-up 1 (2 map slots);
* :mod:`repro.experiments.fig5` — Terasort on set-up 2 (4 map slots);
* :mod:`repro.experiments.repair_bandwidth` — Section 2.1/3.1 repair
  bandwidth, measured on a live MiniHDFS;
* :mod:`repro.experiments.families` — Table-1-style sweep over 2- and
  3-group polygon-local variants (MTTDL with/without UBER sector
  errors), powered by the sharded exact-reliability engine;
* :mod:`repro.experiments.ablations` — future-work metrics and design
  knob sweeps.

Each module exposes builders returning structured results plus
``shape_checks`` functions asserting the paper's qualitative claims;
the benchmark suite prints them via :mod:`repro.experiments.report`.

Every sweep runs on the declarative engine
(:mod:`repro.experiments.engine`): experiments declare grids of
:class:`~repro.experiments.engine.Cell` specs and the engine executes
them serially or over a cached local process pool (``workers=N`` on
every builder, ``--workers`` on the CLI, ``REPRO_WORKERS`` in the
environment) — with bit-identical results at any worker count.
"""

from . import (
    ablations,
    families,
    fig2,
    fig3,
    fig4,
    fig5,
    repair_bandwidth,
    table1,
    transient,
)
from .engine import (
    Cell,
    CellExecutionError,
    resolve_workers,
    run_cells,
    run_keyed,
)
from .report import render_figure, render_series_comparison, render_table
from .runner import CellStats, FigureResult, Series, average_over_trials, trial_rng

__all__ = [
    "Cell",
    "CellExecutionError",
    "run_cells",
    "run_keyed",
    "resolve_workers",
    "table1",
    "families",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "repair_bandwidth",
    "ablations",
    "transient",
    "render_table",
    "render_figure",
    "render_series_comparison",
    "CellStats",
    "Series",
    "FigureResult",
    "average_over_trials",
    "trial_rng",
]
