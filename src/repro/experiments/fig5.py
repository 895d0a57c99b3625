"""Figure 5: Terasort on set-up 2 (9 nodes, 4 map slots, 512 MB blocks).

Regenerates the two panels the paper shows for the second test bed —
network traffic and data locality vs load — for 3-rep, 2-rep and the
pentagon code (the heptagon was not run on this 9-node cluster; its
7-node stripes would cover nearly the whole cluster).

The headline claim: with 4 processor cores per node the pentagon code
"has performance very close to that of the 2-rep code even at a load of
75%" — its locality and traffic stay near the replicated baselines
until the highest loads.
"""

from __future__ import annotations

from ..mapreduce import MRSimConfig, setup2
from .fig4 import terasort_sweep
from .runner import FigureResult

#: Load grid of Fig. 5 (the paper plots 25-100 %).
LOADS = (25.0, 50.0, 75.0, 100.0)

#: Schemes of Fig. 5.
CODES = ("3-rep", "2-rep", "pentagon")


def figure5(runs: int = 10, config: MRSimConfig | None = None,
            workers: int | None = None) -> dict[str, FigureResult]:
    """Both Fig. 5 panels (job time is computed too, but not plotted
    in the paper; it is included for completeness)."""
    return terasort_sweep(config if config is not None else setup2(),
                          CODES, LOADS, runs, seed_tag="fig5",
                          workers=workers)


def shape_checks(panels: dict[str, FigureResult]) -> dict[str, bool]:
    """The Fig. 5 observations as boolean checks."""
    locality = panels["locality"]
    traffic = panels["traffic"]
    job = panels["job_time"]
    return {
        "pentagon locality within 5 points of 2-rep at 75% load": (
            locality.get("2-rep").y_at(75.0)
            - locality.get("pentagon").y_at(75.0) <= 5.0
        ),
        "pentagon job time within 12% of 2-rep at 75% load": (
            job.get("pentagon").y_at(75.0)
            <= 1.12 * job.get("2-rep").y_at(75.0)
        ),
        "traffic rises with load for every scheme": all(
            traffic.get(code).ys == sorted(traffic.get(code).ys)
            for code in CODES
        ),
        "locality falls with load for every scheme": all(
            locality.get(code).ys == sorted(locality.get(code).ys, reverse=True)
            for code in CODES
        ),
    }
