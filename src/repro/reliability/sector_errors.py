"""Unrecoverable-read-error (UBER) extension of the reliability models.

The paper's MTTDL reference [7] (Xin et al., MSST 2003) includes a loss
mode beyond whole-node failures: while rebuilding, a *read* of a
surviving block may hit an unrecoverable error.  When the stripe is
already at its erasure-tolerance boundary ("critically exposed"), that
failed read is data loss.

This matters for the comparison because it punishes exactly the codes
whose repairs read many blocks while critical: a (10,9) RAID+m rebuild
of a doubly-lost symbol reads 9 blocks; the pentagon's partial-parity
repair reads 10 across the cluster but is only critical after two node
losses, and replication reads a single block.  With realistic
block-level unrecoverable-read probabilities the 4-failure-tolerant
codes' MTTDL collapses toward the 3-failure codes' — one plausible
explanation for the paper's Table 1 placing (10,9) RAID+m within 2x of
3-rep (``results/table1.txt`` and ``results/ablation_uber.txt``;
ROADMAP item 6).

Model per state of the group chain:

* a state is *critical* when some single further node failure is fatal;
* each repair transition out of a critical state (the group model
  knows its repair edges by construction) is split: with probability
  ``p = 1 - (1 - u)^blocks_read`` the rebuild hits an unreadable block
  and the chain absorbs, otherwise the repair completes.  ``u`` is the
  per-block unrecoverable-read probability;
* non-critical read errors are ignored (the erasure code itself
  absorbs them), which keeps the model slightly optimistic and is the
  standard simplification.
"""

from __future__ import annotations

from ..core import make_code
from .markov import MarkovChain, hours_to_years
from .models import (
    DATA_LOSS,
    GroupModel,
    ReliabilityParams,
    group_chain,
    group_model,
)
from .system import group_count


def uber_failure_prob(uber_block_prob: float, blocks_read: int) -> float:
    """Probability that reading ``blocks_read`` blocks hits an error."""
    if not 0.0 <= uber_block_prob <= 1.0:
        raise ValueError("uber_block_prob must be a probability")
    if blocks_read < 0:
        raise ValueError("blocks_read must be non-negative")
    return 1.0 - (1.0 - uber_block_prob) ** blocks_read


def critical_states(chain: MarkovChain) -> set:
    """Transient states with a direct transition into data loss."""
    critical = set()
    for state in chain.transient_states():
        for _, dest in chain.transitions[state]:
            if dest == DATA_LOSS:
                critical.add(state)
                break
    return critical


def add_sector_errors(model: GroupModel, uber_block_prob: float,
                      blocks_read_per_repair: int) -> GroupModel:
    """Return a new model with UBER-split repairs in critical states."""
    p_fail = uber_failure_prob(uber_block_prob, blocks_read_per_repair)
    extended = MarkovChain()
    for state in model.chain.absorbing:
        extended.mark_absorbing(state)
    critical = critical_states(model.chain)
    for source, edges in model.chain.transitions.items():
        for rate, dest in edges:
            if (source, dest) in model.repairs and source in critical \
                    and p_fail > 0:
                extended.add_transition(source, dest, rate * (1 - p_fail))
                extended.add_transition(source, DATA_LOSS, rate * p_fail)
            else:
                extended.add_transition(source, dest, rate)
    return GroupModel(extended, model.start, model.repairs)


def _polygon_local_critical_reads(code) -> int:
    """Worst-case blocks a critical polygon-local rebuild reads.

    Walks the family's critical states ``((f_1,), .., (f_groups,),
    (g,))``: the in-flight repair reads every surviving data symbol
    once (``k - U`` where ``U = sum C(f_i, 2)`` symbols are doubly
    lost), the XOR parity of each group holding doubly-lost symbols,
    and — while the global node is alive — the global parity rows.
    For the paper's heptagon-local code every critical state lands on
    exactly ``k = 40`` blocks, the value that used to be hard-coded;
    for other global-parity counts (and hence for honest UBER chains
    over generalized families) the two differ, so this is computed
    from the state structure instead of silently returning ``code.k``.
    """
    worst = 0
    for state in critical_states(group_chain(code.name, ReliabilityParams())):
        *fs, g = (histogram[0] for histogram in state)
        doubly_lost = sum(count * (count - 1) // 2 for count in fs)
        parity_groups = sum(1 for count in fs if count >= 2)
        reads = (code.k - doubly_lost + parity_groups
                 + (code.global_parities if g == 0 else 0))
        worst = max(worst, reads)
    return worst


#: Blocks a critical rebuild reads, per scheme.  Derived from the repair
#: planners (see ``repro.core.metrics``): replication re-copies a single
#: block; polygon codes run the two-node partial-parity repair; RAID+m
#: XORs the k other symbols; polygon-local families solve their stranded
#: symbols through the local XOR and global rows (worst case over the
#: family's critical states — see ``_polygon_local_critical_reads``).
def critical_read_blocks(code_name: str) -> int:
    from ..core import (
        PolygonCode,
        PolygonLocalCode,
        RaidMirrorCode,
        ReedSolomonCode,
        ReplicationCode,
    )
    code = make_code(code_name)
    if isinstance(code, ReplicationCode):
        return 1
    if isinstance(code, PolygonCode):
        return 3 * (code.n - 2) + 1
    if isinstance(code, RaidMirrorCode):
        return code.data_count
    if isinstance(code, PolygonLocalCode):
        return _polygon_local_critical_reads(code)
    if isinstance(code, ReedSolomonCode):
        return code.data_count
    return code.k


def _group_model_with_uber(code_name: str, params: ReliabilityParams,
                           uber_block_prob: float, model: str) -> GroupModel:
    return add_sector_errors(group_model(code_name, params, model),
                             uber_block_prob,
                             critical_read_blocks(code_name))


def group_chain_with_uber(code_name: str, params: ReliabilityParams,
                          uber_block_prob: float,
                          model: str = "pattern") -> MarkovChain:
    """Group chain for ``code_name`` including the UBER loss mode."""
    return _group_model_with_uber(
        code_name, params, uber_block_prob, model).chain


def system_mttdl_years_with_uber(code_name: str, params: ReliabilityParams,
                                 uber_block_prob: float,
                                 node_count: int = 25,
                                 model: str = "pattern") -> float:
    """System MTTDL (years) under node failures + unrecoverable reads."""
    hours = _group_model_with_uber(
        code_name, params, uber_block_prob, model).mttdl_hours()
    return hours_to_years(hours) / group_count(code_name, node_count)
