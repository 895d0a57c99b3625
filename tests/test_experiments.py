"""Tests for the experiment harness: every figure/table reproduces its
paper's qualitative claims (small trial counts keep the suite fast; the
benchmarks run the full-size versions)."""

import pytest

from repro.experiments import (
    ablations,
    fig3,
    fig4,
    fig5,
    render_figure,
    render_table,
    repair_bandwidth,
    table1,
)
from repro.experiments.runner import CellStats, FigureResult, Series, trial_rng


class TestRunnerInfrastructure:
    def test_trial_rng_deterministic(self):
        assert trial_rng("a", 1).integers(1000) == trial_rng("a", 1).integers(1000)

    def test_trial_rng_varies_with_components(self):
        draws = {int(trial_rng("exp", i).integers(10**9)) for i in range(20)}
        assert len(draws) > 15

    def test_cell_stats(self):
        stats = CellStats.from_values([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.samples == 3
        with pytest.raises(ValueError):
            CellStats.from_values([])

    def test_single_sample_has_zero_spread(self):
        assert CellStats.from_values([5.0]).stdev == 0.0

    def test_series_lookup(self):
        series = Series("s")
        series.add(25.0, CellStats(90.0, 1.0, 5))
        assert series.y_at(25.0) == 90.0
        with pytest.raises(ValueError):
            series.y_at(33.0)

    def test_figure_get(self):
        figure = FigureResult("t", "x", "y", [Series("a")])
        assert figure.get("a").label == "a"
        with pytest.raises(KeyError):
            figure.get("b")


class TestReportRendering:
    def test_table_alignment(self):
        text = render_table(["code", "value"], [["pentagon", 2.22], ["x", None]])
        lines = text.splitlines()
        assert lines[0].startswith("code")
        assert "pentagon" in lines[2]
        assert "-" in lines[3] or "-" in lines[1]

    def test_scientific_formatting(self):
        text = render_table(["v"], [[1.2e9]])
        assert "1.20e+09" in text

    def test_render_figure(self):
        series = Series("pent-DS")
        series.add(25.0, CellStats(95.0, 1.0, 5))
        series.add(50.0, CellStats(88.0, 1.0, 5))
        figure = FigureResult("Fig", "load %", "locality %", [series])
        text = render_figure(figure)
        assert "pent-DS" in text
        assert "95" in text and "88" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.build_table1()

    def test_row_order_matches_paper(self, result):
        assert [row.code for row in result.rows] == list(table1.PAPER_MTTDL_YEARS)

    def test_static_columns_exact(self, result):
        for row in result.rows:
            assert row.storage_overhead == pytest.approx(
                table1.PAPER_OVERHEAD[row.code], abs=0.005)

    def test_calibration_anchor(self, result):
        assert result.row("3-rep").mttdl_pattern_years == pytest.approx(
            1.20e9, rel=1e-3)

    def test_all_shape_checks_pass(self, result):
        checks = table1.shape_checks(result)
        assert all(checks.values()), checks

    def test_explicit_params_skip_calibration(self):
        from repro.reliability import ReliabilityParams
        params = ReliabilityParams(node_mttf_hours=50_000)
        result = table1.build_table1(params=params)
        assert result.params is params


class TestFig3:
    @pytest.fixture(scope="class")
    def panel(self):
        return fig3.locality_panel(2, trials=8)

    def test_series_labels(self, panel):
        assert set(panel.labels()) == {
            "2-rep-DS", "2-rep-MM", "pent-DS", "pent-MM", "hept-DS", "hept-MM",
        }

    def test_locality_ordering_at_full_load(self, panel):
        assert (panel.get("2-rep-DS").y_at(100.0)
                > panel.get("pent-DS").y_at(100.0)
                > panel.get("hept-DS").y_at(100.0))

    def test_matching_dominates_delay(self, panel):
        for code in ("2-rep", "pent", "hept"):
            for load in fig3.LOADS:
                assert (panel.get(f"{code}-MM").y_at(load)
                        >= panel.get(f"{code}-DS").y_at(load) - 1.0)

    def test_locality_decreases_with_load(self, panel):
        for label in panel.labels():
            ys = panel.get(label).ys
            assert ys[0] >= ys[-1]

    def test_more_slots_help_coded_schemes(self):
        low = fig3.locality_cell("heptagon", "delay", 100.0, 2, trials=8)
        high = fig3.locality_cell("heptagon", "delay", 100.0, 8, trials=8)
        assert high.mean > low.mean + 10

    @pytest.mark.parametrize("mu", (0, -2))
    def test_rejects_non_positive_slots(self, mu):
        with pytest.raises(ValueError, match="slots_per_node"):
            fig3.locality_panel(mu, trials=1)

    def test_one_placement_serves_every_scheduler(self):
        """A trial schedules one placement with every scheduler, each
        from the generator state right after the draw: each value is
        what a trial of that scheduler alone measures, whatever ran
        before it, and matching dominates trial by trial."""
        from repro.experiments.runner import trial_rng
        from repro.scheduling import make_scheduler
        from repro.workloads import workload_for_load

        schedulers = ("delay", "max-matching", "peeling", "delay")
        for trial in range(4):
            seeds = ("fig3", "heptagon", 100.0, 2, trial)
            values = fig3.placement_trial(trial_rng(*seeds), "heptagon",
                                          schedulers, 100.0, 2, 25)
            for name, value in zip(schedulers, values):
                rng = trial_rng(*seeds)
                tasks = workload_for_load("heptagon", 100.0, 25, 2, rng)
                alone = make_scheduler(name).assign(tasks, 25, 2, rng)
                assert value == alone.locality_percent()
            assert values[1] >= max(values)

    def test_peeling_between_delay_and_matching(self):
        panel = fig3.peeling_panel(trials=8)
        for code in ("pent", "hept"):
            delay = panel.get(f"{code}-DS").y_at(100.0)
            peel = panel.get(f"{code}-peel").y_at(100.0)
            matching = panel.get(f"{code}-MM").y_at(100.0)
            assert delay - 1.0 <= peel <= matching + 1.0

    def test_full_figure_has_four_panels(self):
        panels = fig3.full_figure(trials=2)
        assert set(panels) == {"mu=2", "mu=4", "mu=8", "mu=4 peeling"}


class TestFig4:
    @pytest.fixture(scope="class")
    def panels(self):
        return fig4.figure4(runs=6)

    def test_three_panels(self, panels):
        assert set(panels) == {"job_time", "traffic", "locality"}
        for panel in panels.values():
            assert set(panel.labels()) == set(fig4.CODES)

    def test_all_shape_checks_pass(self, panels):
        checks = fig4.shape_checks(panels)
        assert all(checks.values()), checks

    def test_traffic_excess_positive_for_coded_schemes(self, panels):
        traffic = panels["traffic"]
        assert traffic.get("heptagon").y_at(100.0) > traffic.get("2-rep").y_at(100.0)


class TestFig5:
    @pytest.fixture(scope="class")
    def panels(self):
        return fig5.figure5(runs=8)

    def test_codes(self, panels):
        assert set(panels["traffic"].labels()) == {"3-rep", "2-rep", "pentagon"}

    def test_all_shape_checks_pass(self, panels):
        checks = fig5.shape_checks(panels)
        assert all(checks.values()), checks

    def test_four_slots_keep_pentagon_close_to_2rep(self, panels):
        """The paper's central conclusion, quantified."""
        locality = panels["locality"]
        gap = (locality.get("2-rep").y_at(75.0)
               - locality.get("pentagon").y_at(75.0))
        assert gap <= 6.0


class TestRepairBandwidth:
    @pytest.fixture(scope="class")
    def measurements(self):
        return repair_bandwidth.measure_all()

    def test_all_shape_checks_pass(self, measurements):
        checks = repair_bandwidth.shape_checks(measurements)
        assert all(checks.values()), checks

    def test_rs_repair_is_k_blocks(self, measurements):
        by = {m.code: m for m in measurements}
        assert by["rs(14,10)"].single_repair_blocks == 10

    def test_rows_render(self, measurements):
        text = render_table(repair_bandwidth.HEADERS,
                            [m.as_list() for m in measurements])
        assert "pentagon" in text


class TestAblations:
    def test_encoding_throughput_reports_positive_rates(self):
        stats = ablations.encoding_throughput("pentagon", block_bytes=1 << 16,
                                              repeats=1)
        assert stats["encode_mb_s"] > 0
        assert stats["decode_mb_s"] > 0

    def test_degraded_job_sweep(self):
        rows = ablations.degraded_job_sweep()
        by = {row["code"]: row for row in rows}
        assert by["pentagon"]["blocks per rebuild"] == 3
        assert by["(10,9) RAID+m"]["blocks per rebuild"] == 9
        assert (by["pentagon"]["extra traffic (GB)"]
                < by["(10,9) RAID+m"]["extra traffic (GB)"])

    def test_delay_sensitivity_monotone_tail(self):
        figure = ablations.delay_sensitivity(trials=6, skip_levels=(0, 25, 100))
        ys = figure.series[0].ys
        assert ys[-1] >= ys[0]   # more patience never hurts locality

    def test_slots_crossover_narrows_gap(self):
        figure = ablations.slots_crossover(trials=6, slot_range=(2, 8))
        gap_low = figure.get("2-rep").y_at(2) - figure.get("pentagon").y_at(2)
        gap_high = figure.get("2-rep").y_at(8) - figure.get("pentagon").y_at(8)
        assert gap_high < gap_low

    def test_heptagon_local_equivalence(self):
        """Locality similar; the global node hosts no data, so the
        heptagon-local code can only do as well or slightly better."""
        stats = ablations.heptagon_local_equivalence(trials=20)
        gap = abs(stats["heptagon"].mean - stats["heptagon-local"].mean)
        assert gap < 8.0
        assert stats["heptagon-local"].mean >= stats["heptagon"].mean - 2.0
