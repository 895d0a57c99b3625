"""Tests for the per-code reliability chains and system scaling."""

import numpy as np
import pytest

from repro.core import available_codes, make_code
from repro.reliability import (
    ReliabilityParams,
    brute_force_chain,
    calibrate_mttf,
    group_count,
    group_model,
    group_mttdl_years,
    relative_error,
    simulate_group_mttd,
    system_mttdl_years,
    system_mttdl_years_with_uber,
)

#: Accelerated rates so brute-force and Monte-Carlo runs stay fast.
FAST = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0)
SERIAL = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0,
                           repair="serial")


class TestParams:
    def test_rates(self):
        params = ReliabilityParams(node_mttf_hours=100, node_mttr_hours=4)
        assert params.failure_rate == pytest.approx(0.01)
        assert params.repair_rate == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityParams(node_mttf_hours=0)
        with pytest.raises(ValueError):
            ReliabilityParams(repair="magic")


class TestChainsAgainstBruteForce:
    """The lumped chains must match exact subset chains.

    The brute force spreads a serial facility evenly over the failed
    slots, which is the lumped policy only where every failed slot is
    alike — one flat class — so serial is compared there and pinned by
    :class:`TestSerialGoldenValues` elsewhere.
    """

    @pytest.mark.parametrize("code_name,repair", [
        ("3-rep", "parallel"),
        ("2-rep", "parallel"),
        ("pentagon", "parallel"),
        ("heptagon", "parallel"),
        ("(4,3) RAID+m", "parallel"),
        ("heptagon-local", "parallel"),
        ("rs(9,6)", "parallel"),
        ("2-rep", "serial"),
        ("pentagon", "serial"),
        ("rs(9,6)", "serial"),
    ])
    def test_reduced_equals_brute_force(self, code_name, repair):
        params = SERIAL if repair == "serial" else FAST
        reduced = group_model(code_name, params).mttdl_hours()
        exact = brute_force_chain(make_code(code_name), params) \
            .mean_time_to_absorption(frozenset())
        assert relative_error(reduced, exact) < 1e-9

    def test_serial_repair_variant_agrees_for_replication(self):
        reduced = group_model("3-rep", SERIAL).mttdl_hours()
        exact = brute_force_chain(
            make_code("3-rep"), SERIAL).mean_time_to_absorption(frozenset())
        assert relative_error(reduced, exact) < 1e-9


class TestSerialGoldenValues:
    """Group MTTDL (hours) under serial repair, recorded from the
    per-family builders this module used to test before they were
    folded into the one lumped builder: the brute force does not model
    the serial priority rule (most damaged class, then most damaged
    cell), so these literals are what holds it."""

    @pytest.mark.parametrize("code_name,pattern,conservative", [
        ("3-rep", 2516.6666666666642, 2516.6666666666642),
        ("pentagon", 378.33333333333314, 378.33333333333314),
        ("heptagon", 155.7142857142857, 155.7142857142857),
        ("heptagon-local", 102.06155910698985, 57.7960927960928),
        ("(10,9) RAID+m", 118.67129256691175, 34.56656346749226),
        ("(12,11) RAID+m", 91.26323937858596, 25.930892778718867),
        ("pentagon-local(3g,2p)", 131.62748770734447, 51.10347985347985),
    ])
    def test_serial_mttdl_hours(self, code_name, pattern, conservative):
        assert group_model(code_name, SERIAL).mttdl_hours() \
            == pytest.approx(pattern, rel=1e-12)
        assert group_model(code_name, SERIAL, "conservative").mttdl_hours() \
            == pytest.approx(conservative, rel=1e-12)


class TestEveryCodeHasAnMttdl:
    """Any name the registry parses has a finite MTTDL under every
    model — the RS names used to die on ``KeyError: 'unknown state 0'``
    (frozenset chain states, start state 0)."""

    @pytest.mark.parametrize("repair", ["parallel", "serial"])
    @pytest.mark.parametrize("model", ["pattern", "conservative"])
    @pytest.mark.parametrize("code_name", [
        *available_codes(), "rs(6,4)", "polygon-4", "pentagon-local(3g,2p)"])
    def test_finite_and_positive(self, code_name, model, repair):
        params = ReliabilityParams(repair=repair)
        clean = system_mttdl_years(code_name, params, model=model)
        dirty = system_mttdl_years_with_uber(code_name, params, 1e-4,
                                             model=model)
        assert 0 < dirty <= clean < float("inf")


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("code_name", [
        "3-rep", "pentagon", "(4,3) RAID+m"])
    def test_node_level_simulation_matches_chain(self, code_name):
        model = group_model(code_name, FAST)
        expected = model.mttdl_hours()
        measured = simulate_group_mttd(
            make_code(code_name), FAST, np.random.default_rng(1), trials=800)
        assert relative_error(measured, expected) < 0.15


class TestOrderings:
    """Structural facts that must hold for any sane parameters."""

    PARAMS = ReliabilityParams(node_mttf_hours=50_000, node_mttr_hours=24)

    def test_heptagon_below_pentagon_below_three_rep(self):
        pentagon = system_mttdl_years("pentagon", self.PARAMS)
        heptagon = system_mttdl_years("heptagon", self.PARAMS)
        three_rep = system_mttdl_years("3-rep", self.PARAMS)
        assert heptagon < pentagon < three_rep

    def test_heptagon_local_beats_plain_heptagon_by_orders(self):
        local = system_mttdl_years("heptagon-local", self.PARAMS)
        plain = system_mttdl_years("heptagon", self.PARAMS)
        assert local > 100 * plain

    def test_two_rep_far_below_three_rep(self):
        assert (system_mttdl_years("2-rep", self.PARAMS)
                < 1e-2 * system_mttdl_years("3-rep", self.PARAMS))

    def test_conservative_never_exceeds_pattern(self):
        for code_name in ("pentagon", "heptagon-local", "(10,9) RAID+m"):
            pattern = system_mttdl_years(code_name, self.PARAMS, model="pattern")
            conservative = system_mttdl_years(
                code_name, self.PARAMS, model="conservative")
            assert conservative <= pattern * (1 + 1e-9)

    def test_conservative_equals_pattern_for_polygon(self):
        """Every 3-failure is fatal for polygons, so the models coincide."""
        pattern = group_mttdl_years("pentagon", self.PARAMS, model="pattern")
        conservative = group_mttdl_years("pentagon", self.PARAMS,
                                         model="conservative")
        assert pattern == pytest.approx(conservative, rel=1e-9)

    def test_longer_mttf_improves_mttdl(self):
        better = ReliabilityParams(node_mttf_hours=100_000, node_mttr_hours=24)
        assert (system_mttdl_years("pentagon", better)
                > system_mttdl_years("pentagon", self.PARAMS))


class TestSystemScaling:
    def test_group_counts_for_25_nodes(self):
        assert group_count("3-rep", 25) == 8
        assert group_count("pentagon", 25) == 5
        assert group_count("heptagon", 25) == 3
        assert group_count("heptagon-local", 25) == 1
        assert group_count("(10,9) RAID+m", 25) == 1
        assert group_count("(12,11) RAID+m", 25) == 1  # clamped to >= 1

    def test_system_is_group_over_count(self):
        params = self.params = ReliabilityParams(node_mttf_hours=50_000)
        group = group_mttdl_years("pentagon", params)
        system = system_mttdl_years("pentagon", params, node_count=25)
        assert system == pytest.approx(group / 5)


class TestCalibration:
    def test_anchor_hits_target(self):
        params = calibrate_mttf(1.20e9, anchor="3-rep", node_count=25)
        measured = system_mttdl_years("3-rep", params, node_count=25)
        assert measured == pytest.approx(1.20e9, rel=1e-3)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_mttf(1e30, anchor="3-rep")

    def test_preserves_repair_settings(self):
        base = ReliabilityParams(node_mttr_hours=12.0, repair="serial")
        params = calibrate_mttf(1e8, anchor="3-rep", base=base)
        assert params.node_mttr_hours == 12.0
        assert params.repair == "serial"
