"""Per-code Markov reliability models (the MTTDL column of Table 1).

Every model is one :class:`~repro.reliability.markov.MarkovChain` over
a *redundancy group* — one stripe's worth of nodes — with a single
absorbing ``"DL"`` (data loss) state, and every one is built by the
same four steps:

* **declaration** — the code says which of its slots are
  interchangeable (:meth:`repro.core.Code.symmetry_classes`): classes
  of cells of slots.  Replication, polygons and Reed-Solomon declare
  one class of single-slot cells, RAID+m one class of mirror pairs,
  polygon-local families one class per local polygon plus the global
  node; a code that declares nothing gets every slot as its own class,
  i.e. the subset chain.
* **state** — per class, the histogram "cells with ``j`` slots down",
  ``j = 1..cell size``: ``((2,),)`` is two replicas down,
  ``((s1, s2),)`` the RAID+m state (pairs half down, pairs fully down),
  ``((f1,), (f2,), (g,))`` the heptagon-local one.
* **verdict** — ``code.can_recover`` on the state's canonical
  representative pattern (``model="pattern"``), or ``failures <=
  tolerance`` over one flat class (``model="conservative"``, the
  pessimistic variant reliability literature often quotes; Table 1
  reports both).  Recoverability is monotone, so the states reachable
  from all-healthy through failures are exactly the recoverable ones.
* **rates** — ``cells_j`` cells with ``j`` of ``size`` slots down lose
  another slot at ``cells_j * (size - j) * lambda`` and, repaired in
  parallel, regain one at ``cells_j * j * mu``; a single repair
  facility (``repair="serial"``) instead serves the class with the
  most slots down (lowest index on ties) and its most damaged cell, at
  ``mu``.  ``lambda = 1/MTTF``, ``mu = 1/MTTR``.

The declaration is a claim about the code, and
:func:`validate_lumping` checks it mask for mask against the sharded
brute force; :func:`brute_force_chain` stays as the independent
reference the tests compare lumped chains with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from ..core import Code, make_code
from .markov import MarkovChain
from .mask_enum import check_enumerable, recoverable_mask_table

DATA_LOSS = "DL"


@dataclass(frozen=True)
class ReliabilityParams:
    """Failure/repair environment shared by all models.

    Attributes:
        node_mttf_hours: mean time between failures of one node.  The
            default (10 years) is in the range reported for Hadoop
            clusters once transient failures are excluded [3, 16].
        node_mttr_hours: mean time to detect + rebuild a failed node.
        repair: "parallel" (every failed node rebuilds concurrently) or
            "serial" (one repair facility).
    """

    node_mttf_hours: float = 10 * 8766.0
    node_mttr_hours: float = 24.0
    repair: str = "parallel"

    def __post_init__(self) -> None:
        if self.node_mttf_hours <= 0 or self.node_mttr_hours <= 0:
            raise ValueError("MTTF and MTTR must be positive")
        if self.repair not in ("parallel", "serial"):
            raise ValueError("repair must be 'parallel' or 'serial'")

    @property
    def failure_rate(self) -> float:
        return 1.0 / self.node_mttf_hours

    @property
    def repair_rate(self) -> float:
        return 1.0 / self.node_mttr_hours

    def with_mttf(self, node_mttf_hours: float) -> "ReliabilityParams":
        return replace(self, node_mttf_hours=node_mttf_hours)


@dataclass(frozen=True)
class GroupModel:
    """A group chain with its all-healthy start state and repair edges."""

    chain: MarkovChain
    start: object
    #: The ``(source, dest)`` edges that are rebuilds, by construction.
    repairs: frozenset

    def mttdl_hours(self) -> float:
        return self.chain.mean_time_to_absorption(self.start)


def _representative(symmetry, state) -> list[int]:
    """The canonical failed-slot pattern of a lumped state."""
    slots: list[int] = []
    for cells, histogram in zip(symmetry, state):
        cell = iter(cells)
        for down, cells_down in enumerate(histogram, start=1):
            for _ in range(cells_down):
                slots.extend(next(cell)[:down])
    return slots


def _moved(state, index: int, down: int, to: int):
    """``state`` with one cell of class ``index`` taken from ``down`` slots
    down to ``to`` slots down."""
    histogram = list(state[index])
    if down:
        histogram[down - 1] -= 1
    if to:
        histogram[to - 1] += 1
    return (*state[:index], tuple(histogram), *state[index + 1:])


def _lumped_edges(symmetry, recoverable, repair: str):
    """Start state, rate-free edges and repair edges of the lumped chain.

    Explores from all-healthy through failures; ``recoverable(state)``
    is asked once per state met.  Edges are ``(source, dest,
    multiplicity, is_repair)``: the rate is ``multiplicity`` times the
    failure or the repair rate.
    """
    start = tuple((0,) * len(cells[0]) for cells in symmetry)
    verdicts = {start: True}
    frontier = [start]
    edges = []
    while frontier:
        state = frontier.pop()
        repairs = []
        for index, (cells, histogram) in enumerate(zip(symmetry, state)):
            size = len(cells[0])
            healthy = len(cells) - sum(histogram)
            for down, cells_down in enumerate((healthy, *histogram)):
                if not cells_down:
                    continue
                if down < size:
                    dest = _moved(state, index, down, down + 1)
                    if dest not in verdicts:
                        verdicts[dest] = recoverable(dest)
                        if verdicts[dest]:
                            frontier.append(dest)
                    edges.append((state, dest if verdicts[dest] else DATA_LOSS,
                                  cells_down * (size - down), False))
                if down:
                    repairs.append((index, down, cells_down * down))
        if repair == "serial" and repairs:
            # One facility: the class with the most slots down (lowest
            # index on ties), and its most damaged cell.
            damage = [sum(down * cells_down
                          for down, cells_down in enumerate(histogram, start=1))
                      for histogram in state]
            index, down, _ = max(
                repairs, key=lambda r: (damage[r[0]], -r[0], r[1]))
            repairs = [(index, down, 1)]
        edges.extend((state, _moved(state, index, down, down - 1),
                      multiplicity, True)
                     for index, down, multiplicity in repairs)
    edges.sort(key=lambda edge: edge[0])    # states in lexicographic order
    return start, tuple(edges), frozenset(
        (source, dest) for source, dest, _, is_repair in edges if is_repair)


@functools.lru_cache(maxsize=64)
def _group_edges(code_name: str, model: str, repair: str):
    """:func:`_lumped_edges` of the named code — its canonical-pattern
    rank tests run once per process however many chains are built."""
    code = make_code(code_name)
    if model == "pattern":
        symmetry = code.symmetry_classes()
        if len(symmetry) == code.length:
            check_enumerable(code)     # nothing declared: the subset chain

        def recoverable(state) -> bool:
            return code.can_recover(_representative(symmetry, state))
    elif model == "conservative":
        symmetry, tolerance = code.one_flat_class(), code.fault_tolerance

        def recoverable(state) -> bool:
            return state[0][0] <= tolerance
    else:
        raise ValueError("model must be 'pattern' or 'conservative'")
    return _lumped_edges(symmetry, recoverable, repair)


def group_model(code_name: str, params: ReliabilityParams,
                model: str = "pattern") -> GroupModel:
    """The chain for one redundancy group of the named code.

    ``model`` selects "pattern" (exact loss conditions) or
    "conservative" (loss at tolerance + 1 failures).
    """
    start, edges, repairs = _group_edges(code_name, model, params.repair)
    chain = MarkovChain()
    chain.mark_absorbing(DATA_LOSS)
    for source, dest, multiplicity, is_repair in edges:
        rate = params.repair_rate if is_repair else params.failure_rate
        chain.add_transition(source, dest, multiplicity * rate)
    return GroupModel(chain, start, repairs)


def group_chain(code_name: str, params: ReliabilityParams,
                model: str = "pattern") -> MarkovChain:
    """:func:`group_model` without the start state."""
    return group_model(code_name, params, model).chain


def validate_lumping(code: Code, workers=None, *,
                     executor=None) -> dict[tuple, bool]:
    """Check ``code.symmetry_classes()`` against every failure mask.

    Streams the code's full (possibly sharded) recoverability table and
    requires each mask's exact verdict to equal the verdict of its
    lumped state's canonical representative — the claim every pattern
    chain rests on.  Returns "recoverable?" for every lumped state;
    raises :class:`ValueError` naming the first disagreeing mask and
    state otherwise.
    """
    symmetry = code.symmetry_classes()
    recoverable = recoverable_mask_table(code, workers, executor=executor)
    slots = [np.array(cells) for cells in symmetry]    # (cells, size) each
    sizes = [len(cells[0]) for cells in symmetry]
    # One positional digit per histogram entry tells states apart.
    radix = [len(cells) + 1 for cells, size in zip(symmetry, sizes)
             for _ in range(size)]
    weights = np.cumprod([1, *radix[:-1]])
    table: dict[tuple, bool] = {}
    for lo in range(0, len(recoverable), 1 << 14):
        masks = np.arange(lo, min(lo + (1 << 14), len(recoverable)),
                          dtype=np.int64)
        columns = []
        for cells, size in zip(slots, sizes):
            down = sum((masks[:, None] >> cells[None, :, slot]) & 1
                       for slot in range(size))
            columns += [(down == j).sum(axis=1) for j in range(1, size + 1)]
        columns = np.stack(columns, axis=1)
        _, first, inverse = np.unique(
            columns @ weights, return_index=True, return_inverse=True)
        states = []
        for row in columns[first].tolist():
            entries = iter(row)
            state = tuple(tuple(next(entries) for _ in range(size))
                          for size in sizes)
            if state not in table:
                table[state] = bool(
                    code.can_recover(_representative(symmetry, state)))
            states.append(state)
        expected = np.array([table[state] for state in states])[inverse]
        disagree = np.nonzero(recoverable[lo:lo + len(masks)] != expected)[0]
        if len(disagree):
            raise ValueError(
                f"{code.name}: lumping is not exact — failure mask "
                f"{int(masks[disagree[0]]):#x} disagrees with lumped state "
                f"{states[inverse[disagree[0]]]}")
    return table


def brute_force_chain(code: Code, params: ReliabilityParams,
                      workers=None, *, executor=None) -> MarkovChain:
    """Exact chain over all failure subsets of one group (validation).

    Exponential in code length.  All ``2**length`` recoverability
    verdicts come from the sharded exact-reliability engine
    (:func:`repro.reliability.mask_enum.recoverable_mask_table`):
    serially in-process by default, or fanned out over pool / socket
    workers via ``workers=`` / ``executor=`` exactly like any sweep —
    the merged table (and therefore the chain) is bit-identical
    whichever executor ran the shards.  Codes longer than
    :data:`~repro.reliability.mask_enum.MAX_EXACT_LENGTH` slots raise
    a :class:`ValueError` naming the code and its length.
    """
    check_enumerable(code)
    chain = MarkovChain()
    chain.mark_absorbing(DATA_LOSS)
    lam = params.failure_rate
    slots = range(code.length)
    recoverable = recoverable_mask_table(code, workers, executor=executor)
    # States exist only for recoverable masks; build their frozensets
    # lazily (fatal masks all collapse into the DATA_LOSS state).
    subsets: dict[int, frozenset[int]] = {}

    def subset(mask: int) -> frozenset[int]:
        cached = subsets.get(mask)
        if cached is None:
            cached = subsets[mask] = frozenset(
                slot for slot in slots if (mask >> slot) & 1)
        return cached

    for mask in range(1 << code.length):
        if not recoverable[mask]:
            continue
        failed = subset(mask)
        for slot in slots:
            if slot in failed:
                continue
            grown_mask = mask | (1 << slot)
            dest = (subset(grown_mask) if recoverable[grown_mask]
                    else DATA_LOSS)
            chain.add_transition(failed, dest, lam)
        for slot in failed:
            rate = (params.repair_rate if params.repair == "parallel"
                    else params.repair_rate / len(failed))
            chain.add_transition(failed, failed - {slot}, rate)
    return chain
