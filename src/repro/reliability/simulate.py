"""Monte-Carlo validation of the reliability models.

Two simulators:

* :func:`simulate_chain_mttd` — Gillespie simulation of any
  :class:`~repro.reliability.markov.MarkovChain`, validating the linear
  solver on the same chain;
* :func:`simulate_group_mttd` — an *independent* node-level simulation
  of one redundancy group: nodes fail/rebuild as exponential processes
  and fatality is checked with the code's own
  :meth:`~repro.core.Code.can_recover`.  Agreement with the
  symmetry-reduced chains validates the hand-derived state spaces
  end-to-end.

Both are used at accelerated failure rates (MTTF within ~100x of MTTR)
where absorption happens quickly; the analytic chains then extrapolate
to realistic rates.

:func:`simulate_chain_mttd` runs all trials as one batched event
stream: every round advances every still-active trial by one
exponential event with vectorised sampling, and absorbed trials are
compacted out.

:func:`simulate_group_mttd` is one scalar event loop over every trial.
A trial starts with all slots live and walks events until the code
cannot recover.  Each event takes three variates, from blocks drawn in
the order holding time, fail-or-repair chooser, victim picker.  The
victim is a uniform choice by swap-remove from the trial's list of
live (or failed) slots.  Verdicts are looked up by failed-slot bitmask
and filled lazily from the code's own ``can_recover``.  Where the
native library is loaded and the code has at most
:data:`_VERDICT_TABLE_MAX_LENGTH` slots, the loop runs in C
(``repro_sim_group`` in :mod:`repro.gf.native`) over a dense verdict
table; the Python loop below is the reference, and the two return the
same float from the same seed.  The estimator is the one the batched
rounds before it used; only the order in which variates are drawn
differs, so results agree with those rounds statistically, not bit for
bit.

:func:`simulate_group_mttd_total` is the sweep-engine shard entry
point: it returns the *summed* absorption time so independently seeded
trial shards merge exactly (sum of totals over sum of trials).
"""

from __future__ import annotations

import numpy as np

from ..core import Code
from ..gf import native
from .markov import MarkovChain
from .models import ReliabilityParams

#: Largest code length the native loop runs: its verdict table is dense
#: (2**length int8 entries, one per failed-slot mask).
_VERDICT_TABLE_MAX_LENGTH = 24

#: Events per variate block.
_BLOCK = 4096


def _compile_chain(chain: MarkovChain):
    """Flatten a chain into index-based transition tables."""
    states = list(chain.transitions)
    index = {state: i for i, state in enumerate(states)}
    size = len(states)
    width = max((len(moves) for moves in chain.transitions.values()), default=0)
    width = max(width, 1)
    out_rate = np.zeros(size, dtype=np.float64)
    cumulative = np.ones((size, width), dtype=np.float64)
    dest = np.zeros((size, width), dtype=np.intp)
    absorbing = np.zeros(size, dtype=bool)
    for state, moves in chain.transitions.items():
        i = index[state]
        absorbing[i] = state in chain.absorbing
        if not moves:
            continue
        rates = np.array([rate for rate, _ in moves], dtype=np.float64)
        total = rates.sum()
        out_rate[i] = total
        cum = np.cumsum(rates) / total
        cum[-1] = 1.0                      # absorb float rounding at the top
        cumulative[i, :len(moves)] = cum
        targets = [index[target] for _, target in moves]
        dest[i, :len(moves)] = targets
        dest[i, len(moves):] = targets[-1]  # pads can never be selected
    return index, out_rate, cumulative, dest, absorbing


def simulate_chain_mttd(chain: MarkovChain, start, rng: np.random.Generator,
                        trials: int = 1000, max_events: int = 10_000_000) -> float:
    """Mean absorption time of ``chain`` from ``start`` by simulation."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if start in chain.absorbing:
        return 0.0
    index, out_rate, cumulative, dest, absorbing = _compile_chain(chain)
    state = np.full(trials, index[start], dtype=np.intp)
    elapsed = np.zeros(trials, dtype=np.float64)
    total = 0.0
    events = 0
    while state.size:
        active = state.size
        events += active
        if events > max_events:
            raise RuntimeError("simulation exceeded the event budget")
        rates = out_rate[state]
        if np.any(rates <= 0):
            raise RuntimeError("transient state with no exits reached")
        elapsed += rng.exponential(1.0 / rates)
        draws = rng.random(active)
        choice = (draws[:, None] >= cumulative[state]).sum(axis=1)
        state = dest[state, choice]
        done = absorbing[state]
        if done.any():
            total += float(elapsed[done].sum())
            keep = ~done
            state = state[keep]
            elapsed = elapsed[keep]
    return total / trials


def simulate_group_mttd(code: Code, params: ReliabilityParams,
                        rng: np.random.Generator, trials: int = 500,
                        max_events: int = 10_000_000) -> float:
    """Mean time to data loss of one group by node-level simulation."""
    if trials < 1:
        raise ValueError("need at least one trial")
    total = simulate_group_mttd_total(code, params, rng, trials, max_events)
    return total / trials


def simulate_group_mttd_total(code: Code, params: ReliabilityParams,
                              rng: np.random.Generator, trials: int = 500,
                              max_events: int = 10_000_000) -> float:
    """Summed absorption time over ``trials`` — the shard entry point.

    The sweep engine fans a heavy Monte-Carlo cell out as several
    shards, each with its own generator derived from
    ``stable_seed(experiment, cell, shard)``.  Shards merge *exactly*:
    the cell mean is ``sum(shard totals) / sum(shard trials)``, and
    because every shard re-derives its stream from its own key the
    merged value is bit-identical for any worker count.  An empty shard
    sums to 0.0.
    """
    if trials < 0:
        raise ValueError("trial count must be non-negative")
    if trials == 0:
        return 0.0
    loop = (_native_loop if code.length <= _VERDICT_TABLE_MAX_LENGTH
            and native.active_backend() == "native" else _python_loop)
    return loop(code, params, rng, trials, max_events)


def _draw(rng: np.random.Generator):
    """The next block: holding times, choosers and pickers, in that order."""
    return (rng.exponential(size=_BLOCK), rng.random(_BLOCK),
            rng.random(_BLOCK))


def _python_loop(code: Code, params: ReliabilityParams,
                 rng: np.random.Generator, trials: int,
                 max_events: int) -> float:
    """The reference event loop; any code length."""
    lam, mu = params.failure_rate, params.repair_rate
    parallel = params.repair == "parallel"
    length = code.length
    verdicts: dict[int, bool] = {}
    total = 0.0
    events = 0
    cursor = _BLOCK
    for _ in range(trials):
        live = list(range(length))
        down: list[int] = []
        mask = 0
        clock = 0.0
        while True:
            if cursor == _BLOCK:
                holding, choosers, pickers = (
                    block.tolist() for block in _draw(rng))
                cursor = 0
            events += 1
            if events > max_events:
                raise RuntimeError("simulation exceeded the event budget")
            failed = len(down)
            fail_rate = (length - failed) * lam
            out_rate = fail_rate + (failed * mu if parallel
                                    else (mu if failed else 0.0))
            clock += holding[cursor] / out_rate
            chooser, picker = choosers[cursor], pickers[cursor]
            cursor += 1
            if chooser * out_rate < fail_rate:
                i = int(picker * len(live))
                slot = live[i]
                live[i] = live[-1]
                live.pop()
                down.append(slot)
                mask |= 1 << slot
                verdict = verdicts.get(mask)
                if verdict is None:
                    verdict = verdicts[mask] = code.can_recover(down)
                if not verdict:
                    break
            else:
                i = int(picker * failed)
                slot = down[i]
                down[i] = down[-1]
                down.pop()
                live.append(slot)
                mask ^= 1 << slot
        total += clock
    return total


def _native_loop(code: Code, params: ReliabilityParams,
                 rng: np.random.Generator, trials: int,
                 max_events: int) -> float:
    """:func:`_python_loop` in C: this side draws the blocks and fills
    the verdicts the C loop stops for."""
    kernels = native.load()
    ffi, lib = kernels.ffi, kernels.lib
    length = code.length
    state = ffi.new("repro_sim_state *")
    state.live[0:length] = list(range(length))
    state.cursor = _BLOCK
    verdicts = np.zeros(1 << length, dtype=np.int8)   # 0: not known yet
    table = ffi.from_buffer("int8_t[]", verdicts)
    blocks = (ffi.NULL,) * 3
    arguments = (length, trials, params.failure_rate, params.repair_rate,
                 params.repair == "parallel", max_events, table)
    while True:
        status = lib.repro_sim_group(state, *arguments, *blocks, _BLOCK)
        if status == lib.REPRO_SIM_DONE:
            return state.total
        if status == lib.REPRO_SIM_NEED_BLOCK:
            blocks = tuple(ffi.from_buffer("double[]", block)
                           for block in _draw(rng))
            state.cursor = 0
        elif status == lib.REPRO_SIM_NEED_VERDICT:
            survives = code.can_recover(list(state.downs[0:state.down]))
            verdicts[state.mask] = 1 if survives else 2
        else:
            raise RuntimeError("simulation exceeded the event budget")


def relative_error(measured: float, expected: float) -> float:
    """Symmetric relative error used by the validation tests."""
    if expected == 0:
        return float("inf") if measured else 0.0
    return abs(measured - expected) / expected
