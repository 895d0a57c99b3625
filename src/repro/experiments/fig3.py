"""Figure 3: map-task data locality vs load, by scheduler and map slots.

Reproduces all four panels of the paper's Fig. 3 on a 25-node system:

* panels 1-3 (mu = 2, 4, 8 map slots per node): locality of 2-rep,
  pentagon and heptagon under delay scheduling ("DS") and the
  maximum-matching benchmark ("MM");
* panel 4 (mu = 4): the modified peeling algorithm against DS and MM
  for the pentagon and heptagon codes.

The paper's observations, all of which these sweeps reproduce:

1. at mu = 2 the coded schemes lose significant locality vs 2-rep
   (stripe concentration; the heptagon suffers more than the pentagon);
2. the loss shrinks as mu grows — by mu = 8 the coded schemes exceed
   90 % locality even at full load;
3. peeling sits between DS and MM, visibly above DS.

The heptagon-local code's locality equals the heptagon's (the global
node hosts no data) — pass ``"heptagon-local"`` to check.

A panel is one sweep cell per ``(code, load, mu)``.  Each trial draws
one stripe placement and schedules it with every scheduler of the
panel (:func:`placement_trial`), so the schedulers are compared on the
same placements and a placement is drawn once, not once per scheduler.
"""

from __future__ import annotations

from ..scheduling import make_scheduler
from ..workloads import workload_for_load
from .engine import Cell, run_cells
from .runner import CellStats, FigureResult, Series

#: Cluster size used throughout the paper's simulation section.
NODE_COUNT = 25

#: Load grid of Fig. 3.
LOADS = (25.0, 50.0, 75.0, 100.0)

#: Scheduler label abbreviations used in the figure legends.
SCHEDULER_LABELS = {"delay": "DS", "max-matching": "MM", "peeling": "peel"}


def placement_trial(rng, code_name: str, scheduler_names: tuple[str, ...],
                    load: float, slots_per_node: int,
                    node_count: int) -> tuple[float, ...]:
    """One seeded placement, scheduled by every scheduler in turn.

    Each scheduler starts from the generator state right after the
    workload was drawn, so its locality is what a trial of that
    scheduler alone would measure.
    """
    tasks = workload_for_load(code_name, load, node_count, slots_per_node, rng)
    drawn = rng.bit_generator.state
    localities = []
    for name in scheduler_names:
        rng.bit_generator.state = drawn
        assignment = make_scheduler(name).assign(tasks, node_count,
                                                 slots_per_node, rng)
        localities.append(assignment.locality_percent())
    return tuple(localities)


def _per_scheduler(values: list[tuple[float, ...]]) -> tuple[CellStats, ...]:
    return tuple(CellStats.from_values(column) for column in zip(*values))


def _cell(code_name: str, scheduler_names: tuple[str, ...], load: float,
          slots_per_node: int, node_count: int, trials: int) -> Cell:
    # Every scheduler of the cell is evaluated on the *same* stripe
    # placements, so the max-matching benchmark dominates the others
    # trial by trial, as in the paper's paired comparison.  The seed
    # key names the placement only, so a scheduler's numbers do not
    # depend on which other schedulers share its cell.
    return Cell(
        experiment="fig3",
        key=(code_name, scheduler_names, load, slots_per_node),
        seed_key=(code_name, load, slots_per_node),
        fn=placement_trial,
        args=(code_name, scheduler_names, load, slots_per_node, node_count),
        trials=trials,
        reduce=_per_scheduler,
    )


def locality_cell(code_name: str, scheduler_name: str, load: float,
                  slots_per_node: int, node_count: int = NODE_COUNT,
                  trials: int = 30, workers: int | None = None) -> CellStats:
    """Mean data locality (%) for one (code, scheduler, load, mu) cell."""
    cell = _cell(code_name, (scheduler_name,), load, slots_per_node,
                 node_count, trials)
    return run_cells([cell], workers)[0][0]


def locality_panel(slots_per_node: int,
                   codes: tuple[str, ...] = ("2-rep", "pentagon", "heptagon"),
                   schedulers: tuple[str, ...] = ("delay", "max-matching"),
                   loads: tuple[float, ...] = LOADS,
                   node_count: int = NODE_COUNT,
                   trials: int = 30,
                   workers: int | None = None) -> FigureResult:
    """One Fig. 3 panel: locality vs load for every (code, scheduler) pair."""
    if slots_per_node < 1:
        raise ValueError(
            f"slots_per_node must be at least 1, got {slots_per_node}")
    result = FigureResult(
        title=f"Fig. 3 panel (mu={slots_per_node} map slots/node, "
              f"{node_count} nodes)",
        x_label="load %", y_label="data locality %",
    )
    cells = [
        _cell(code_name, tuple(schedulers), load, slots_per_node,
              node_count, trials)
        for code_name in codes
        for load in loads
    ]
    stats = iter(run_cells(cells, workers))
    by_code = {code_name: [next(stats) for _ in loads] for code_name in codes}
    for code_name in codes:
        for position, scheduler_name in enumerate(schedulers):
            label = f"{_short(code_name)}-{SCHEDULER_LABELS[scheduler_name]}"
            series = Series(label)
            for load, per_scheduler in zip(loads, by_code[code_name]):
                series.add(load, per_scheduler[position])
            result.series.append(series)
    return result


def peeling_panel(slots_per_node: int = 4,
                  codes: tuple[str, ...] = ("pentagon", "heptagon"),
                  loads: tuple[float, ...] = LOADS,
                  node_count: int = NODE_COUNT,
                  trials: int = 30,
                  workers: int | None = None) -> FigureResult:
    """Fig. 3's fourth panel: peeling vs DS vs MM at mu = 4."""
    return locality_panel(
        slots_per_node, codes=codes,
        schedulers=("max-matching", "peeling", "delay"),
        loads=loads, node_count=node_count, trials=trials, workers=workers,
    )


def full_figure(trials: int = 30,
                workers: int | None = None) -> dict[str, FigureResult]:
    """All four Fig. 3 panels keyed by their paper captions."""
    return {
        "mu=2": locality_panel(2, trials=trials, workers=workers),
        "mu=4": locality_panel(4, trials=trials, workers=workers),
        "mu=8": locality_panel(8, trials=trials, workers=workers),
        "mu=4 peeling": peeling_panel(trials=trials, workers=workers),
    }


def _short(code_name: str) -> str:
    return {"pentagon": "pent", "heptagon": "hept",
            "heptagon-local": "hl"}.get(code_name, code_name)
