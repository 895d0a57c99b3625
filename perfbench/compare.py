"""Compare two sets of benchmark results against the declared bounds.

::

    python3 -m perfbench.compare A B

``A`` (the parent) and ``B`` (the change) are each a result file written
by ``python3 -m perfbench --json`` or a directory of such files — one
file per run, any mix of workloads.  For every workload row and every
end-to-end metric it prints both medians, how much worse ``B`` is as a
share of ``A``'s median, the metric's bound from ``BENCHMARK.json`` and
a verdict:

* ``ok`` — no worse than the bound;
* ``REGRESSION`` — worse by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (interquartile
  range over median, as the driver computes it) is wider than the
  bound, so the data cannot tell; reported instead of ``ok``, never
  instead of a regression that clears the spread too.

Exit code 1 on any regression, 2 when the two sides were not measured
in comparable environments (GF backend, CPU model, ``--seconds``).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

from . import stats
from .metrics import BENCHMARK_JSON

#: Runs per side below which no spread is computed.
MIN_RUNS_FOR_SPREAD = 4


def load_runs(path: str | pathlib.Path) -> list[dict]:
    """Every untraced workload record under ``path`` (file or directory)."""
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no result files under {path}")
    records: list[dict] = []
    for file in files:
        loaded = json.loads(file.read_text())
        records.extend(loaded if isinstance(loaded, list) else [loaded])
    return [record for record in records if not record.get("trace")]


def _values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [record["metrics"][metric]["value"] for record in records
            if record["workload"] == workload
            and metric in record["metrics"]]


def spread(values: list[float]) -> float | None:
    if len(values) < MIN_RUNS_FOR_SPREAD:
        return None
    return stats.spread(values)


def environment_mismatch(a: list[dict], b: list[dict]) -> list[str]:
    """Fingerprint fields on which the two sides disagree."""
    def seen(records, *keys):
        out = set()
        for record in records:
            value = record.get("environment") or {}
            for key in keys:
                value = value.get(key, {}) if isinstance(value, dict) else {}
            if value != {}:
                out.add(json.dumps(value, sort_keys=True))
        return out

    problems = []
    for label, keys in (("GF backend", ("gf_backend", "active")),
                        ("CPU model", ("cpu_model",)),
                        ("CPU count", ("cpu_count",)),
                        ("--seconds", ("seconds",))):
        left, right = seen(a, *keys), seen(b, *keys)
        if left and right and left != right:
            problems.append(f"{label}: {sorted(left)} vs {sorted(right)}")
    return problems


def compare(a: list[dict], b: list[dict], declared: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for workload in (w["name"] for w in declared["workloads"]):
        for entry in declared["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            left = _values(a, workload, metric)
            right = _values(b, workload, metric)
            if not left or not right:
                continue
            base, new = statistics.median(left), statistics.median(right)
            worse = ((new - base) if entry["better"] == "lower"
                     else (base - new)) / base
            spreads = [s for s in (spread(left), spread(right))
                       if s is not None]
            widest = max(spreads) if spreads else None
            if worse > bound and (widest is None or worse > widest):
                verdict = "REGRESSION"
            elif widest is not None and widest > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": metric,
                         "unit": entry["unit"], "a": base, "b": new,
                         "runs": (len(left), len(right)), "worse": worse,
                         "bound": bound, "spread": widest,
                         "verdict": verdict})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<17} {'metric':<14} {'A median':>11} "
             f"{'B median':>11} {'unit':<6} {'runs':>5} {'worse':>8} "
             f"{'bound':>6} {'spread':>7}  verdict"]
    for row in rows:
        spread_text = ("    n/a" if row["spread"] is None
                       else f"{row['spread']:>7.3f}")
        lines.append(
            f"{row['workload']:<17} {row['metric']:<14} {row['a']:>11.5g} "
            f"{row['b']:>11.5g} {row['unit']:<6} "
            f"{row['runs'][0]:>2}/{row['runs'][1]:<2} "
            f"{row['worse']:>+8.3f} {row['bound']:>6.2f} {spread_text}  "
            f"{row['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load_runs(argv[0]), load_runs(argv[1])
    problems = environment_mismatch(a, b)
    if problems:
        print("compare: the two sides are not comparable — "
              + "; ".join(problems), file=sys.stderr)
        return 2
    rows = compare(a, b, json.loads(BENCHMARK_JSON.read_text()))
    print(render(rows))
    regressions = [row for row in rows if row["verdict"] == "REGRESSION"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} comparisons: {len(regressions)} regression(s), "
          f"{len(unresolved)} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
