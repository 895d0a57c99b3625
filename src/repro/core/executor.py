"""The plan interpreter: each transport fetches, one function computes.

A transport fetches a plan's memoised
:attr:`~repro.core.repair.RepairPlan.fetches` its own way and hands the
payloads to :func:`run_plan`, the only code that computes a
:class:`~repro.core.repair.RepairPlan` or
:class:`~repro.core.repair.ReadPlan`.  It does no I/O and decides what
a plan *means*: every transfer moves exactly one block, a DECODED
transfer may only forward a symbol some decode step already produced,
and a decode step runs once the payloads it combines have landed.  The
transports are the in-memory one below (``execute_*_plan``), which also
checks that every source slot is alive and holds what it is asked to
read — the unit tests' arbiter; :class:`~repro.cluster.filesystem.MiniHDFS`,
which charges each transfer to the :class:`~repro.cluster.NetworkLedger`
as it lands (the paper's Section 2.1/3.1 bandwidth numbers); and the
storage service, whose reading client or namenode repairer fetches
over datanode ``get``/``combine`` RPCs, so partial parities are
computed at the source daemon.

A plan proven correct on one transport is therefore correct on all.
A plain copy (:attr:`~repro.core.repair.Transfer.plain_copy`) costs no
arithmetic on any of them: the two in-process transports return a
read-only view of the source block (what a plan recovers may alias the
stripe it ran against; copy before mutating), the service asks a ``get``.
"""

from __future__ import annotations

import numpy as np

from ..gf import GF256, linear_combine
from .code import Code, read_only_view
from .repair import PlanExecutionError, ReadPlan, RepairPlan


def run_plan(plan, payloads):
    """Compute ``plan`` over ``payloads``, the fetched payloads of
    ``plan.fetches`` in that order.

    A :class:`RepairPlan` returns ``symbol -> recovered bytes`` for
    everything it restores; a :class:`ReadPlan` returns the requested
    symbol's bytes.
    """
    if len(payloads) != len(plan.fetches):
        raise PlanExecutionError(
            f"plan fetches {len(plan.fetches)} payloads, given {len(payloads)}")
    fetched = iter(payloads)
    landed: list[np.ndarray] = []
    produced: dict[int, np.ndarray] = {}
    recovered: dict[int, np.ndarray] = {}
    for transfer, from_source, steps in plan.schedule:
        if from_source:
            payload = next(fetched)
        else:
            symbol = transfer.symbols_read[0]
            if symbol not in produced:
                raise PlanExecutionError(
                    f"transfer forwards symbol {symbol} before any decode "
                    "step produced it")
            payload = produced[symbol].copy()
        landed.append(payload)
        if transfer.delivers_symbol is not None:
            recovered[transfer.delivers_symbol] = payload
        for step in steps:
            if step.produces_symbol not in produced:
                value = linear_combine(
                    step.coefficients,
                    [landed[index] for index in step.payload_indices],
                    length=len(landed[0]))
                produced[step.produces_symbol] = value
                recovered[step.produces_symbol] = value
    if isinstance(plan, ReadPlan):
        if plan.symbol not in recovered:
            raise PlanExecutionError(
                "read plan never produced the requested symbol")
        return recovered[plan.symbol]
    for step in plan.decode_steps:
        if step.produces_symbol not in produced:
            raise PlanExecutionError(
                f"decode step for symbol {step.produces_symbol} never "
                "received its payloads")
    return recovered


def _run_in_memory(code: Code, blocks: list[np.ndarray], plan, failed: set[int]):
    """The in-memory transport: sources read ``blocks`` directly."""
    layout = code.layout
    payloads = []
    for transfer in plan.fetches:
        if transfer.source_slot is None or transfer.source_slot in failed:
            raise PlanExecutionError(
                f"transfer sources from failed or undefined slot {transfer.source_slot}"
            )
        held = layout.symbols_on_slot(transfer.source_slot)
        for symbol in transfer.symbols_read:
            if symbol not in held:
                raise PlanExecutionError(
                    f"slot {transfer.source_slot} does not hold symbol {symbol}"
                )
        if transfer.plain_copy:
            payloads.append(read_only_view(blocks[transfer.symbols_read[0]]))
        else:
            payloads.append(linear_combine(
                transfer.coefficients,
                [blocks[symbol] for symbol in transfer.symbols_read]))
    return run_plan(plan, payloads)


def execute_repair_plan(code: Code, blocks: list[np.ndarray],
                        plan: RepairPlan) -> dict[int, np.ndarray]:
    """Run ``plan`` against the stripe's original symbol buffers.

    ``blocks`` holds the pre-failure content of every distinct symbol
    (index-aligned with the layout).  Returns ``symbol index -> recovered
    buffer`` for every symbol the plan restores, raising
    :class:`PlanExecutionError` if the plan cheats (reads failed slots,
    references missing payloads, ...).
    """
    return _run_in_memory(code, blocks, plan, set(plan.failed_slots))


def verify_repair_plan(code: Code, blocks: list[np.ndarray], plan: RepairPlan) -> bool:
    """True when the plan restores every symbol of every failed slot, bit-exactly."""
    recovered = execute_repair_plan(code, blocks, plan)
    failed = set(plan.failed_slots)
    for slot in failed:
        for symbol in code.layout.symbols_on_slot(slot):
            if symbol not in recovered:
                return False
            if not np.array_equal(recovered[symbol], GF256.asarray(blocks[symbol])):
                return False
    return True


def execute_read_plan(code: Code, blocks: list[np.ndarray], plan: ReadPlan,
                      failed_slots) -> np.ndarray:
    """Run a read plan and return the bytes the reader receives."""
    return _run_in_memory(code, blocks, plan, set(failed_slots))
