"""The lumped pattern chains behind the polygon-local families (and every
other declared symmetry): the heptagon-local chain against its
hand-derived (f1, f2, g) rates and closed-form states, exactness of each
declaration against the sharded brute force — and refusal of a wrong
one — and MTTDL agreement for the 3-group families the sharded engine
unlocked."""

import pytest

from repro.core import Code, RaidMirrorCode, available_codes, make_code
from repro.reliability import (
    DATA_LOSS,
    ReliabilityParams,
    brute_force_chain,
    group_chain,
    group_model,
    relative_error,
    validate_lumping,
)

FAST = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0)
SERIAL = ReliabilityParams(node_mttf_hours=100.0, node_mttr_hours=10.0,
                           repair="serial")
LAM, MU = FAST.failure_rate, FAST.repair_rate


def assert_same_chain(left, right):
    """Two chains agree transition for transition (order-insensitive)."""
    assert left.absorbing == right.absorbing
    assert set(left.transitions) == set(right.transitions)
    for state in left.transitions:
        assert sorted(left.transitions[state], key=repr) \
            == sorted(right.transitions[state], key=repr), state


def heptagon_state(f1, f2, g):
    return ((f1,), (f2,), (g,))


def heptagon_fatal(f1, f2, g):
    if max(f1, f2) >= 4:
        return True
    if g and max(f1, f2) >= 3:
        return True
    return f1 >= 3 and f2 >= 3


class TestHeptagonEquivalence:
    """The lumped heptagon-local chain is the hand-derived one over
    (failures in heptagon A, failures in heptagon B, global node down)."""

    def test_parallel_repair(self):
        chain = group_chain("heptagon-local", FAST)
        assert sorted(chain.transitions[heptagon_state(2, 1, 0)]) == sorted([
            (5 * LAM, heptagon_state(3, 1, 0)),
            (6 * LAM, heptagon_state(2, 2, 0)),
            (LAM, heptagon_state(2, 1, 1)),
            (2 * MU, heptagon_state(1, 1, 0)),
            (MU, heptagon_state(2, 0, 0)),
        ])
        assert sorted(chain.transitions[heptagon_state(3, 0, 0)], key=repr) \
            == sorted([
                (4 * LAM, DATA_LOSS),
                (7 * LAM, heptagon_state(3, 1, 0)),
                (LAM, DATA_LOSS),
                (3 * MU, heptagon_state(2, 0, 0)),
            ], key=repr)

    def test_serial_repair_policy(self):
        """One facility: the most damaged heptagon first (lowest index
        on ties), the global node only when both are whole."""
        model = group_model("heptagon-local", SERIAL)
        served = {source: dest for source, dest in model.repairs}
        assert len(served) == len(model.repairs)     # one repair per state
        assert served[heptagon_state(1, 2, 1)] == heptagon_state(1, 1, 1)
        assert served[heptagon_state(2, 2, 0)] == heptagon_state(1, 2, 0)
        assert served[heptagon_state(1, 0, 1)] == heptagon_state(0, 0, 1)
        assert served[heptagon_state(0, 0, 1)] == heptagon_state(0, 0, 0)
        assert (MU, heptagon_state(1, 1, 1)) \
            in model.chain.transitions[heptagon_state(1, 2, 1)]

    def test_group_chain_dispatch_uses_it(self):
        """The paper's name (closed-form verdicts) and the generic
        family spelling (rank tests) get the same chain."""
        assert_same_chain(group_chain("heptagon-local", FAST),
                          group_chain("polygon-local-7(2g,2p)", FAST))


class TestStateTable:
    def test_heptagon_states_match_closed_form(self):
        table = validate_lumping(make_code("heptagon-local"))
        assert len(table) == 8 * 8 * 2
        for ((f1,), (f2,), (g,)), recoverable in table.items():
            assert recoverable == (not heptagon_fatal(f1, f2, g)), (f1, f2, g)

    def test_three_group_pentagon_shape(self):
        table = validate_lumping(make_code("pentagon-local(3g,2p)"))

        def verdict(*counts):
            return table[tuple((count,) for count in counts)]

        assert verdict(0, 0, 0, 0)
        assert verdict(3, 0, 0, 0)          # one triangle: global solve
        assert not verdict(3, 3, 0, 0)      # two triangles overwhelm p=2
        assert not verdict(3, 0, 0, 1)      # triangle + dead global node
        assert verdict(2, 2, 2, 0)

    def test_memoised_across_calls(self):
        """The canonical-pattern rank tests run once per (code, model,
        discipline), however many rate sets ask for the chain."""
        from repro.reliability.models import _group_edges
        group_chain("pentagon-local(3g,2p)", FAST)
        misses = _group_edges.cache_info().misses
        assert_same_chain(group_chain("pentagon-local(3g,2p)", FAST),
                          group_chain("pentagon-local(3g,2p)", FAST))
        group_chain("pentagon-local(3g,2p)", FAST.with_mttf(200.0))
        assert _group_edges.cache_info().misses == misses


class TestAggregationExactness:
    """Every individual mask agrees with its lumped state's verdict."""

    @pytest.mark.parametrize("name", [
        *(name for name in available_codes() if make_code(name).length <= 20),
        "polygon-local-4(3g,2p)", "pentagon-local(2g,1p)", "rs(6,4)",
        "(4,3) RAID+m", "polygon-4",
    ])
    def test_validated_against_brute_force(self, name):
        code = make_code(name)
        table = validate_lumping(code)
        start = group_model(name, FAST).start
        assert table[start]
        assert sorted(slot for cells in code.symmetry_classes()
                      for cell in cells for slot in cell) \
            == list(range(code.length))

    def test_refuses_wrong_declaration(self):
        """RAID+m as one flat class of single slots: which four slots
        are down matters (two pairs, or one pair and two halves)."""
        class FlatRaidMirror(RaidMirrorCode):
            symmetry_classes = Code.one_flat_class

        with pytest.raises(ValueError, match=r"failure mask 0x17 disagrees "
                                             r"with lumped state \(\(4,\),\)"):
            validate_lumping(FlatRaidMirror(3))

    def test_default_declaration_is_the_subset_chain(self):
        """A code that declares nothing lumps nothing — exact for any
        code, one state per failure mask."""
        class Undeclared(RaidMirrorCode):
            symmetry_classes = Code.symmetry_classes

        code = Undeclared(3)
        assert len(validate_lumping(code)) == 1 << code.length


class TestMttdlAgainstBruteForce:
    """The acceptance scenario: pattern chain == sharded brute force."""

    def test_two_group_pentagon(self):
        pattern = group_model("pentagon-local", FAST).mttdl_hours()
        exact = brute_force_chain(
            make_code("pentagon-local"), FAST).mean_time_to_absorption(
                frozenset())
        assert relative_error(pattern, exact) < 1e-9

    def test_three_group_pentagon_sharded(self):
        """16 slots: beyond the old 15-slot wall, exact via sharding."""
        name = "polygon-local-5(3g,2p)"
        code = make_code(name)
        validate_lumping(code, workers=2)
        pattern = group_model(name, FAST).mttdl_hours()
        exact = brute_force_chain(code, FAST, workers=2) \
            .mean_time_to_absorption(frozenset())
        assert relative_error(pattern, exact) < 1e-9

    def test_serial_repair_agrees_for_two_groups(self):
        """The serial one-facility policies differ (most-damaged-first
        vs spread-evenly), so only the parallel discipline is lumpable;
        this documents that the parallel comparison above is the exact
        one by checking the serial chains still absorb sanely."""
        assert group_model("pentagon-local", SERIAL).mttdl_hours() > 0


class TestInitialState:
    def test_generic_family_start_matches_chain_states(self):
        """Generic members used to get start state 0 while their chain
        ran over other states — the MTTDL query crashed.  The builder
        now hands out the start state of the chain it built."""
        for name in ("pentagon-local", "pentagon-local(3g,2p)",
                     "heptagon-local(3g,2p)", "rs(14,10)"):
            model = group_model(name, FAST)
            assert model.start in model.chain.transitions
            assert not any(any(histogram) for histogram in model.start)
            assert model.mttdl_hours() > 0

    def test_heptagon_local_start_unchanged(self):
        """Still all zeros: one histogram per declared class."""
        assert group_model("heptagon-local", FAST).start \
            == heptagon_state(0, 0, 0)
