"""Tests for the CTMC solver against closed-form and exact results."""

from fractions import Fraction

import numpy as np
import pytest

from repro.experiments.table1 import build_table1
from repro.reliability import (
    HOURS_PER_YEAR,
    MarkovChain,
    ReliabilityParams,
    group_model,
    hours_to_years,
    markov,
    simulate_chain_mttd,
    years_to_hours,
)

FAST = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0)


def exact_solve(chain, start, target=None):
    """``start``'s mean time to absorption — or, given ``target``, its
    probability of absorbing there — by Gaussian elimination over
    ``Fraction``: the float rates are taken exactly, so the one rounding
    is the final conversion."""
    transient = chain.transient_states()
    index = {state: i for i, state in enumerate(transient)}
    size = len(transient)
    rows = []
    for state in transient:
        row = [Fraction(0)] * size + [Fraction(target is None)]
        for rate, dest in chain.transitions[state]:
            if dest != state:
                row[index[state]] += Fraction(rate)
                if dest in index:
                    row[index[dest]] -= Fraction(rate)
                elif dest == target:
                    row[size] += Fraction(rate)
        rows.append(row)
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for row in rows[col + 1:]:
            if row[col]:
                factor = row[col] / rows[col][col]
                row[col:] = [a - factor * b
                             for a, b in zip(row[col:], rows[col][col:])]
    solution = [Fraction(0)] * size
    for i in reversed(range(size)):
        tail = sum(rows[i][j] * solution[j] for j in range(i + 1, size))
        solution[i] = (rows[i][size] - tail) / rows[i][i]
    return float(solution[index[start]])


class TestChainConstruction:
    def test_negative_rate_rejected(self):
        chain = MarkovChain()
        with pytest.raises(ValueError):
            chain.add_transition(0, 1, -1.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_rate_rejected(self, rate):
        chain = MarkovChain()
        with pytest.raises(ValueError, match="finite"):
            chain.add_transition(0, 1, rate)
        assert chain.transitions == {}

    def test_zero_rate_ignored(self):
        chain = MarkovChain()
        chain.add_transition(0, 1, 0.0)
        assert chain.transitions.get(0, []) == []

    def test_no_absorbing_state_rejected(self):
        chain = MarkovChain()
        chain.add_transition(0, 1, 1.0)
        chain.add_transition(1, 0, 1.0)
        with pytest.raises(ValueError, match="no absorbing"):
            chain.mean_time_to_absorption(0)

    def test_unreachable_absorption_rejected(self):
        chain = MarkovChain()
        chain.add_transition(0, 1, 1.0)
        chain.add_transition(1, 0, 1.0)
        chain.add_transition(2, "DL", 1.0)
        chain.mark_absorbing("DL")
        with pytest.raises(ValueError, match="never reach"):
            chain.mean_time_to_absorption(0)

    def test_unknown_start_rejected(self):
        chain = MarkovChain()
        chain.add_transition(0, "DL", 1.0)
        chain.mark_absorbing("DL")
        with pytest.raises(KeyError):
            chain.mean_time_to_absorption(99)

    def test_unknown_start_rejected_by_the_split(self):
        chain = MarkovChain()
        chain.add_transition(0, "DL", 1.0)
        chain.mark_absorbing("DL")
        with pytest.raises(KeyError, match="unknown state"):
            chain.absorption_probability_split(99)


class TestClosedForms:
    def test_single_exponential(self):
        chain = MarkovChain()
        chain.add_transition(0, "DL", 0.25)
        chain.mark_absorbing("DL")
        assert chain.mean_time_to_absorption(0) == pytest.approx(4.0)

    def test_absorbing_start_is_zero(self):
        chain = MarkovChain()
        chain.add_transition(0, "DL", 1.0)
        chain.mark_absorbing("DL")
        assert chain.mean_time_to_absorption("DL") == 0.0

    def test_two_stage_series(self):
        # 0 -> 1 -> DL, no repair: expected time = 1/a + 1/b.
        chain = MarkovChain()
        chain.add_transition(0, 1, 2.0)
        chain.add_transition(1, "DL", 5.0)
        chain.mark_absorbing("DL")
        assert chain.mean_time_to_absorption(0) == pytest.approx(0.5 + 0.2)

    def test_birth_death_mirrored_raid1(self):
        """Classic RAID-1 MTTDL: (3*lam + mu) / (2*lam^2)."""
        lam, mu = 0.001, 0.5
        chain = MarkovChain()
        chain.add_transition(0, 1, 2 * lam)
        chain.add_transition(1, 0, mu)
        chain.add_transition(1, "DL", lam)
        chain.mark_absorbing("DL")
        expected = (3 * lam + mu) / (2 * lam**2)
        assert chain.mean_time_to_absorption(0) == pytest.approx(expected, rel=1e-9)

    def test_triple_replication_closed_form(self):
        """3-rep with parallel repair: solvable by hand via first-step analysis."""
        lam, mu = 0.01, 1.0
        chain = MarkovChain()
        chain.add_transition(0, 1, 3 * lam)
        chain.add_transition(1, 0, mu)
        chain.add_transition(1, 2, 2 * lam)
        chain.add_transition(2, 1, 2 * mu)
        chain.add_transition(2, "DL", lam)
        chain.mark_absorbing("DL")
        # Hand-solved linear system for t0.
        t2_coeff = lam + 2 * mu
        # t1 = (1 + mu*t0 + 2lam*t2)/(mu+2lam); t2 = (1 + 2mu*t1)/(lam+2mu)
        # t0 = 1/(3lam) + t1. Solve numerically for the assertion:
        a = np.array([
            [3 * lam, -3 * lam, 0],
            [-mu, mu + 2 * lam, -2 * lam],
            [0, -2 * mu, t2_coeff],
        ])
        b = np.array([1.0, 1.0, 1.0])
        expected = np.linalg.solve(a, b)[0]
        assert chain.mean_time_to_absorption(0) == pytest.approx(expected, rel=1e-9)


class TestAbsorptionSplit:
    def test_two_exits_split_by_rate(self):
        chain = MarkovChain()
        chain.add_transition(0, "A", 1.0)
        chain.add_transition(0, "B", 3.0)
        chain.mark_absorbing("A")
        chain.mark_absorbing("B")
        split = chain.absorption_probability_split(0)
        assert split["A"] == pytest.approx(0.25)
        assert split["B"] == pytest.approx(0.75)

    def test_split_sums_to_one(self):
        chain = MarkovChain()
        chain.add_transition(0, 1, 2.0)
        chain.add_transition(1, 0, 1.0)
        chain.add_transition(1, "A", 0.5)
        chain.add_transition(0, "B", 0.25)
        chain.mark_absorbing("A")
        chain.mark_absorbing("B")
        split = chain.absorption_probability_split(0)
        assert sum(split.values()) == pytest.approx(1.0)

    def test_stiff_split_is_exact(self):
        """A 3-rep chain at lambda/mu = 1e-9 with a second, rare exit
        from the two-down state: the rare side's probability is ~1e-9 of
        the total and must still come out exact to rounding."""
        lam, mu = 1e-9, 1.0
        chain = MarkovChain()
        chain.add_transition(0, 1, 3 * lam)
        chain.add_transition(1, 0, mu)
        chain.add_transition(1, 2, 2 * lam)
        chain.add_transition(2, 1, 2 * mu)
        chain.add_transition(2, "DL", lam)
        chain.add_transition(2, "UBER", 1e-9 * lam)
        chain.mark_absorbing("DL")
        chain.mark_absorbing("UBER")
        split = chain.absorption_probability_split(0)
        for target in ("DL", "UBER"):
            assert split[target] == pytest.approx(
                exact_solve(chain, 0, target), rel=1e-12)


class TestExactness:
    """The elimination against the ``Fraction`` reference, on the
    chains the paper's tables solve."""

    def test_every_small_table1_chain(self, monkeypatch):
        solved = []
        solve = MarkovChain.mean_time_to_absorption

        def recorded(chain, start):
            value = solve(chain, start)
            solved.append((chain, start, value))
            return value

        monkeypatch.setattr(MarkovChain, "mean_time_to_absorption",
                            recorded)
        build_table1(workers=1)
        small = [(chain, start, value) for chain, start, value in solved
                 if len(chain.transient_states()) <= 25]
        assert len(small) >= 30
        for chain, start, value in small:
            assert value == pytest.approx(exact_solve(chain, start),
                                          rel=1e-12)

    def test_three_rep_at_the_calibration_bracket(self):
        """MTTF 1e9 h, the top of :func:`calibrate_mttf`'s bracket:
        lambda/mu ~ 2.4e-8, where sparse LU was off by 4.6 %."""
        model = group_model("3-rep", ReliabilityParams(
            node_mttf_hours=1e9, node_mttr_hours=24))
        assert model.mttdl_hours() == pytest.approx(
            exact_solve(model.chain, model.start), rel=1e-12)


class TestSolverTiers:
    """Large chains leave the elimination for sparse LU and then
    BiCGSTAB; lowering the thresholds sends a small chain down each
    tier, which must agree with the elimination."""

    @pytest.mark.parametrize("thresholds", [(0, 4096), (0, 0)],
                             ids=["sparse-lu", "bicgstab"])
    @pytest.mark.parametrize("code", ["pentagon", "heptagon-local"])
    def test_sparse_tiers_match_elimination(self, monkeypatch, thresholds,
                                            code):
        model = group_model(code, FAST)
        # a second absorbing state, so the split solves two columns
        model.chain.add_transition(model.start, "RARE", 1e-3)
        model.chain.mark_absorbing("RARE")
        expected = model.mttdl_hours()
        split = model.chain.absorption_probability_split(model.start)
        monkeypatch.setattr(markov, "ELIMINATION_STATES", thresholds[0])
        monkeypatch.setattr(markov, "DIRECT_SOLVE_STATES", thresholds[1])
        assert model.mttdl_hours() == pytest.approx(expected, rel=1e-9)
        assert model.chain.absorption_probability_split(model.start) \
            == pytest.approx(split, rel=1e-9)


class TestSimulatorAgreement:
    def test_gillespie_matches_solver(self):
        lam, mu = 0.2, 1.0
        chain = MarkovChain()
        chain.add_transition(0, 1, 3 * lam)
        chain.add_transition(1, 0, mu)
        chain.add_transition(1, 2, 2 * lam)
        chain.add_transition(2, 1, 2 * mu)
        chain.add_transition(2, "DL", lam)
        chain.mark_absorbing("DL")
        expected = chain.mean_time_to_absorption(0)
        measured = simulate_chain_mttd(
            chain, 0, np.random.default_rng(0), trials=3000)
        assert measured == pytest.approx(expected, rel=0.1)


class TestUnits:
    def test_roundtrip(self):
        assert hours_to_years(years_to_hours(3.5)) == pytest.approx(3.5)

    def test_hours_per_year(self):
        assert HOURS_PER_YEAR == pytest.approx(8766.0)
