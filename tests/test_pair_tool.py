"""The gain rule of ``tools/pair.py`` on synthetic pairs.

A change gains on a metric when it wins at least nine tenths of all
pairs run (ties count for neither side) and its median is better than
the base's by more than the base's interquartile range; it regresses
when its median is worse than the base's by more than the bound.
"""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "pair.py"
_spec = importlib.util.spec_from_file_location("pair_tool", TOOL)
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)

BASE = [2.0, 2.1, 1.9, 2.2, 1.8, 2.0, 2.3, 1.7, 2.1, 1.9]    # IQR 0.2


def test_nine_wins_and_a_gap_beyond_the_iqr_is_a_gain():
    change = [1.0] * 9 + [2.5]                       # loses pair 9
    result = pair.verdict(BASE, change, "lower", 0.25)
    assert (result["wins"], result["losses"]) == (9, 1)
    assert result["gain"] and result["within_bound"]
    assert result["base"] == pytest.approx((2.0, 1.9, 2.1))


def test_eight_wins_is_no_gain_however_large_the_gap():
    change = [1.0] * 8 + [2.5, 2.5]
    assert not pair.verdict(BASE, change, "lower")["gain"]


def test_a_tie_counts_for_neither_side():
    nine = [1.0] * 9 + [BASE[9]]
    eight = [1.0] * 8 + [BASE[8], BASE[9]]
    assert pair.verdict(BASE, nine, "lower")["wins"] == 9
    assert pair.verdict(BASE, nine, "lower")["gain"]
    assert pair.verdict(BASE, eight, "lower")["losses"] == 0
    assert not pair.verdict(BASE, eight, "lower")["gain"]


def test_a_gap_inside_the_base_iqr_is_no_gain_even_winning_every_pair():
    change = [value - 0.15 for value in BASE]        # gap 0.15 < 0.2
    result = pair.verdict(BASE, change, "lower")
    assert result["wins"] == 10 and not result["gain"]


def test_higher_is_better_turns_the_rule_around():
    assert pair.verdict(BASE, [3.0] * 10, "higher")["gain"]
    assert not pair.verdict(BASE, [3.0] * 10, "lower")["gain"]
    assert pair.verdict(BASE, [1.0] * 10, "higher")["wins"] == 0


def test_the_bound_is_relative_to_the_base_median():
    assert pair.verdict(BASE, [2.4] * 10, "lower", 0.25)["within_bound"]
    assert not pair.verdict(BASE, [2.6] * 10, "lower", 0.25)["within_bound"]
    assert not pair.verdict(BASE, [1.4] * 10, "higher",
                            0.25)["within_bound"]


def test_a_tree_against_itself_names_no_winner():
    result = pair.verdict(BASE, list(BASE), "lower", 0.25)
    assert result["wins"] == result["losses"] == 0
    assert not result["gain"] and result["within_bound"]


def test_unpaired_or_single_runs_are_refused():
    with pytest.raises(ValueError):
        pair.verdict(BASE, BASE[:-1], "lower")
    with pytest.raises(ValueError):
        pair.verdict([1.0], [0.5], "lower")
    with pytest.raises(ValueError):
        pair.verdict(BASE, BASE, "smaller")
