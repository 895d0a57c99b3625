"""Tests for the unrecoverable-read-error (UBER) reliability extension."""

import pytest

from repro.reliability import (
    DATA_LOSS,
    ReliabilityParams,
    add_sector_errors,
    critical_read_blocks,
    critical_states,
    group_chain,
    group_chain_with_uber,
    group_model,
    system_mttdl_years,
    system_mttdl_years_with_uber,
    uber_failure_prob,
)

PARAMS = ReliabilityParams(node_mttf_hours=50_000, node_mttr_hours=24)


class TestUberFailureProb:
    def test_zero_error_rate(self):
        assert uber_failure_prob(0.0, 100) == 0.0

    def test_single_block(self):
        assert uber_failure_prob(0.25, 1) == pytest.approx(0.25)

    def test_multiple_blocks_compound(self):
        assert uber_failure_prob(0.5, 2) == pytest.approx(0.75)

    def test_zero_blocks(self):
        assert uber_failure_prob(0.1, 0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            uber_failure_prob(1.5, 1)
        with pytest.raises(ValueError):
            uber_failure_prob(0.1, -1)


class TestCriticalStates:
    def test_replication_critical_at_last_copy(self):
        chain = group_chain("3-rep", PARAMS)
        assert critical_states(chain) == {((2,),)}

    def test_polygon_critical_at_two_failures(self):
        chain = group_chain("pentagon", PARAMS)
        assert critical_states(chain) == {((2,),)}

    def test_raid_mirror_critical_when_pair_down(self):
        chain = group_chain("(4,3) RAID+m", PARAMS)
        critical = critical_states(chain)
        # Critical states have a pair fully down AND another symbol with
        # a lone copy whose partner's failure would be the second pair.
        assert all(fully == 1 and half >= 1 for ((half, fully),) in critical)
        assert ((1, 1),) in critical
        assert ((0, 1),) not in critical  # no half-failed pair to finish off

    def test_heptagon_local_critical_census(self):
        """A state is critical iff some single further failure is fatal,
        per the closed-form predicate."""
        chain = group_chain("heptagon-local", PARAMS)
        critical = critical_states(chain)

        def fatal(f1, f2, g):
            if max(f1, f2) >= 4:
                return True
            if g and max(f1, f2) >= 3:
                return True
            return f1 >= 3 and f2 >= 3

        for state in chain.transient_states():
            (f1,), (f2,), (g,) = state
            next_states = [(f1 + 1, f2, g), (f1, f2 + 1, g)]
            if g == 0:
                next_states.append((f1, f2, 1))
            expected = any(fatal(*n) for n in next_states)
            assert (state in critical) == expected, state
        assert ((3,), (0,), (0,)) in critical
        assert ((0,), (0,), (0,)) not in critical


class TestCriticalReadBlocks:
    def test_per_code_values(self):
        assert critical_read_blocks("3-rep") == 1
        assert critical_read_blocks("2-rep") == 1
        assert critical_read_blocks("pentagon") == 10
        assert critical_read_blocks("heptagon") == 16
        assert critical_read_blocks("(10,9) RAID+m") == 9
        assert critical_read_blocks("rs(14,10)") == 10
        assert critical_read_blocks("heptagon-local") == 40

    def test_generalized_polygon_local_values(self):
        """Derived from the aggregate state structure, not blanket k.

        For 2-global-parity members the worst critical repair (one
        failure triangle) reads k - 3 surviving data blocks plus the
        group XOR and both global rows — exactly k, matching the
        pinned heptagon-local value.  Other parity counts differ from
        k, which the old hard-coded ``code.k`` silently got wrong."""
        from repro.core import make_code
        assert critical_read_blocks("pentagon-local") == 18
        assert critical_read_blocks("pentagon-local(3g,2p)") == 27
        assert critical_read_blocks("heptagon-local(3g,2p)") == 60
        three_parity = make_code("polygon-local-5(3g,3p)")
        assert critical_read_blocks("polygon-local-5(3g,3p)") == 28
        assert critical_read_blocks("polygon-local-5(3g,3p)") \
            != three_parity.k

    def test_uber_chain_for_three_group_family(self):
        """UBER chains must stay honest (and finite) beyond 2 groups."""
        clean = system_mttdl_years("pentagon-local(3g,2p)", PARAMS)
        dirty = system_mttdl_years_with_uber(
            "pentagon-local(3g,2p)", PARAMS, 1e-4)
        assert 0 < dirty < clean


class TestExtendedChains:
    def test_zero_uber_is_identity(self):
        base = group_model("pentagon", PARAMS)
        extended = add_sector_errors(base, 0.0, 10)
        assert extended.start == base.start
        assert extended.mttdl_hours() == pytest.approx(
            base.mttdl_hours(), rel=1e-12)

    def test_uber_reduces_mttdl(self):
        for code in ("3-rep", "pentagon", "(10,9) RAID+m", "heptagon-local"):
            clean = system_mttdl_years(code, PARAMS)
            dirty = system_mttdl_years_with_uber(code, PARAMS, 1e-4)
            assert dirty < clean

    def test_uber_monotone(self):
        values = [
            system_mttdl_years_with_uber("pentagon", PARAMS, u)
            for u in (0.0, 1e-6, 1e-4, 1e-2)
        ]
        assert values == sorted(values, reverse=True)

    def test_uber_mass_goes_to_data_loss(self):
        chain = group_chain_with_uber("3-rep", PARAMS, 0.5)
        split = chain.absorption_probability_split(((0,),))
        assert split[DATA_LOSS] == pytest.approx(1.0)

    def test_uber_compresses_the_raid_advantage(self):
        """Read errors punish wide rebuilds: the RAID+m / 3-rep MTTDL
        ratio shrinks by orders of magnitude as UBER grows — the
        plausible mechanism behind the paper's Table 1 RAID+m rows."""
        def ratio(u):
            return (system_mttdl_years_with_uber("(10,9) RAID+m", PARAMS, u)
                    / system_mttdl_years_with_uber("3-rep", PARAMS, u))

        assert ratio(1e-3) < 0.35 * ratio(0.0)

    def test_every_critical_repair_is_split(self):
        """Repair edges are known by construction, not guessed from the
        state's shape.  RAID+m's doubly-lost-symbol rebuild — the wide
        read this model exists for — takes one pair half down + one
        pair fully down to two pairs half down: the number of damaged
        pairs does not drop, so a weight heuristic misses it and the
        edge used to leave at the full ``2 * mu``."""
        u = 1e-3
        p = uber_failure_prob(u, critical_read_blocks("(4,3) RAID+m"))
        mu, lam = PARAMS.repair_rate, PARAMS.failure_rate
        base = group_model("(4,3) RAID+m", PARAMS)
        source, rebuilt, copied = ((1, 1),), ((2, 0),), ((0, 1),)
        assert {(source, rebuilt), (source, copied)} <= base.repairs
        chain = group_chain_with_uber("(4,3) RAID+m", PARAMS, u)
        assert sorted(chain.transitions[source], key=repr) == sorted([
            (4 * lam, ((2, 1),)),            # a whole pair loses a half
            (lam, DATA_LOSS),                # the half pair loses the rest
            (mu * (1 - p), copied), (mu * p, DATA_LOSS),
            (2 * mu * (1 - p), rebuilt), (2 * mu * p, DATA_LOSS),
        ], key=repr)
        # Out of a non-critical state nothing is split.
        assert chain.transitions[copied] \
            == base.chain.transitions[copied]
        for model in (base, group_model("heptagon-local", PARAMS)):
            dirty = add_sector_errors(model, u, 9)
            critical = critical_states(model.chain)
            for source, dest in model.repairs:
                rates = [rate for rate, to in model.chain.transitions[source]
                         if to == dest]
                kept = [rate for rate, to in dirty.chain.transitions[source]
                        if to == dest]
                assert (kept != rates) == (source in critical)
