"""The harness's own arithmetic, checked without a cluster.

What the numbers rest on: the Poisson schedule is a pure function of the
seed, a tail percentile is only reported with ten samples beyond it,
span self times add up, ``compare`` reaches the right verdicts, and
``BENCHMARK.json`` says exactly what the workloads emit.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from perfbench import compare, metrics, spans, stats
from perfbench.loadgen import (LoadResult, poisson_schedule,
                               run_closed_loop, run_open_loop,
                               window_medians, window_rates)
from perfbench.workloads import _MODULES, load

DECLARED = json.loads(metrics.BENCHMARK_JSON.read_text())


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
def test_poisson_schedule_is_a_pure_function_of_the_seed():
    first = poisson_schedule(7, 1200.0, 5.0)
    again = poisson_schedule(7, 1200.0, 5.0)
    other = poisson_schedule(8, 1200.0, 5.0)
    assert np.array_equal(first, again)
    assert len(first) != len(other) or not np.array_equal(first, other)
    assert np.all(np.diff(first) > 0) and first[-1] < 5.0
    # 6000 expected arrivals, standard deviation ~77
    assert abs(len(first) - 6000) < 400


def test_open_loop_times_from_the_due_time():
    due = np.array([0.0, 0.001, 0.002, 0.003])
    gate = threading.Event()

    def op(client, index):
        if index == 0:
            gate.wait(0.05)         # a stall: later ops queue behind it
        return True

    result = run_open_loop(["only-sender"], op, due)
    assert result.attempted == 4 and result.failed == 0
    # op 1 was due at 1 ms but could not be sent before the stall ended:
    # its latency counts the wait, and the generator's lag says why
    assert result.latency[1] > 0.04
    assert result.send_lag[1] > 0.04


def test_closed_loop_counts_failures_and_mismatches():
    def op(client, index):
        if index == 3:
            raise KeyError("refused")
        return index != 5           # op 5 returns the wrong bytes

    result = run_closed_loop(["a", "b"], op, 10, failures=(KeyError,))
    assert result.attempted == 10 and result.failed == 2


def test_windows_cut_consecutive_operations():
    assert window_medians([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 5) == [3, 8]
    assert window_medians([4, 6], 5) == [5]     # too few for one window
    # 6 completions 10 ms apart after a first send at t=0: 100 ops/s
    done = np.arange(1, 7) * 0.010
    phase = LoadResult(due=done - 0.010, sent=done - 0.010, done=done,
                       ok=np.ones(6, dtype=bool), wall=0.060)
    assert window_rates(phase, 3) == pytest.approx([100.0, 100.0])


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (5, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)])
def test_percentile_needs_ten_samples_beyond_it(count, expected):
    assert stats.supported_percentile(count) == expected


def test_an_unsupported_tail_falls_back_to_the_highest_supported_one():
    ordered = list(range(500))          # supports p90, not p99
    assert stats.tail(ordered, 99) == stats.percentile(ordered, 90)
    assert stats.tail(ordered, 50) == stats.percentile(ordered, 50)
    assert stats.tail(list(range(2000)), 99) == pytest.approx(1979.01)


def test_spread_matches_the_drivers_definition():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) exclusive method: q1 = 11.75, q3 = 17.25
    assert stats.spread(values) == pytest.approx(5.5 / 14.5)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_direct_children():
    tree = [spans.Span("root", 0.0, 10.0, -1, 0),
            spans.Span("child", 1.0, 4.0, 0, 0),
            spans.Span("grandchild", 2.0, 3.0, 1, 0),
            spans.Span("child", 5.0, 9.0, 0, 0)]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    view = spans.summarise(tree, "root")
    assert view["ops"] == 1
    assert view["per_op"] == {"child": 2.0, "grandchild": 1.0}
    assert view["self_us"] == [3.0e6]


def test_recorder_links_nested_calls_and_restores_what_it_patched():
    recorder = spans.Recorder()

    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.inner()

    original = Layer.inner
    recorder.install(Layer, "inner", "layer.inner")
    recorder.install(Layer, "outer", "layer.outer")
    assert Layer().outer() == 2
    recorder.uninstall()
    assert Layer.inner is original
    names = [(span.name, span.parent, span.op) for span in recorder.spans]
    assert names == [("layer.outer", -1, 0), ("layer.inner", 0, 0),
                     ("layer.inner", 0, 0)]
    own = spans.self_times(recorder.spans)
    assert own[0] >= 0.0
    assert own[0] == pytest.approx(
        (recorder.spans[0].end - recorder.spans[0].start)
        - sum(s.end - s.start for s in recorder.spans[1:]))


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _result_file(path, workload, values_by_metric, backend="native"):
    records = []
    runs = len(next(iter(values_by_metric.values())))
    for run in range(runs):
        records.append({
            "workload": workload, "trace": 0,
            "metrics": {m: {"value": v[run], "unit": "x"}
                        for m, v in values_by_metric.items()},
            "environment": {"gf_backend": {"active": backend},
                            "cpu_model": "test", "cpu_count": 2,
                            "seconds": 10.0}})
    path.write_text(json.dumps(records))
    return str(path)


def test_compare_verdicts(tmp_path):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0]
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0, 100.0]
    parent = _result_file(tmp_path / "a.json", "svc_read", {
        "op_p50_ms": steady, "ops_per_s": steady, "cpu_ms_per_op": noisy,
        "peak_rss_mb": steady, "setup_s": steady})
    change = _result_file(tmp_path / "b.json", "svc_read", {
        "op_p50_ms": [v * 1.5 for v in steady],     # 50 % slower: regressed
        "ops_per_s": [v * 1.04 for v in steady],    # faster: fine
        "cpu_ms_per_op": [v * 1.3 for v in noisy],  # lost in the noise
        "peak_rss_mb": [v * 1.01 for v in steady],
        "setup_s": steady})
    rows = {row["metric"]: row for row in compare.compare(
        compare.load_runs(parent), compare.load_runs(change), DECLARED)}
    assert rows["op_p50_ms"]["verdict"] == "REGRESSION"
    assert rows["ops_per_s"]["verdict"] == "ok"
    assert rows["ops_per_s"]["worse"] < 0
    assert rows["cpu_ms_per_op"]["verdict"] == "unresolved"
    assert rows["peak_rss_mb"]["verdict"] == "ok"
    assert compare.main([parent, change]) == 1
    assert compare.main([parent, parent]) == 0


def test_compare_refuses_mismatched_backends(tmp_path):
    values = {"op_p50_ms": [1.0, 1.0, 1.0, 1.0]}
    native = _result_file(tmp_path / "a.json", "codec", values, "native")
    fallback = _result_file(tmp_path / "b.json", "codec", values, "numpy")
    assert compare.main([native, fallback]) == 2


# ----------------------------------------------------------------------
# the declaration
# ----------------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_stays_inside_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert 1 <= DECLARED["run_seconds"] <= 60
    runs = 4 + 22 * len(DECLARED["workloads"])
    assert runs * 30 <= 3420, "every run, set-up included, must fit"
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in DECLARED[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    for entry in DECLARED["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    bounds = {e["name"]: e["bound"] for e in DECLARED["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all((metrics.ROOT / path).is_dir() for path in DECLARED["paths"])
    assert len(metrics.BENCHMARK_JSON.read_bytes()) <= 64 * 1024


def test_benchmark_json_is_what_the_harness_declares():
    bounds = {e["name"]: e["bound"] for e in DECLARED["end_to_end"]}
    assert DECLARED == metrics.declaration(
        bounds, DECLARED["command"], DECLARED["paths"],
        DECLARED["run_seconds"])


def test_every_per_layer_metric_has_a_workload_that_emits_it():
    emitted = set()
    for workload in _MODULES:
        _, names = load(workload)
        assert set(names) <= set(metrics.PER_LAYER), workload
        emitted |= set(names)
    assert emitted == set(metrics.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_codec_smoke_run_emits_every_declared_metric(trace):
    """The in-process workload, end to end through the real command."""
    result = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "codec",
         "--seed", "3", "--smoke", "--trace", str(trace)],
        cwd=metrics.ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    final = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert list(final["metrics"]) == [e["name"] for e in DECLARED[section]]
    units = {e["name"]: e["unit"] for e in DECLARED[section]}
    assert all(final["metrics"][m]["unit"] == units[m] for m in units)
    if trace:
        _, emits = load("codec")
        assert all(final["metrics"][m]["value"] != 0 for m in emits
                   if m != "trace.overhead_frac")
    else:
        assert all(v["value"] > 0 for v in final["metrics"].values())
