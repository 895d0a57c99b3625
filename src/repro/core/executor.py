"""The plan interpreter: one loop, three transports.

:func:`run_plan` is the only code in the tree that walks a
:class:`~repro.core.repair.RepairPlan` or
:class:`~repro.core.repair.ReadPlan`.  It decides what a plan *means*
— every transfer moves exactly one block, a DECODED transfer may only
forward a symbol some decode step already produced, a decode step runs
as soon as the payloads it combines have landed, and a read stops the
moment its symbol is in hand — and leaves *where the bytes come from*
to a ``fetch(transfer) -> ndarray`` transport:

* the in-memory transport below (``execute_*_plan``), over a list of
  stripe symbols, which also checks that every source slot is alive
  and holds what it is asked to read — the unit tests' arbiter;
* :class:`~repro.cluster.filesystem.MiniHDFS`, whose fetch reads
  checksum-verified blocks from live DataNodes and whose observer
  charges each transfer to the :class:`~repro.cluster.NetworkLedger`
  (the paper's Section 2.1/3.1 bandwidth numbers);
* the storage service, whose fetch is a datanode ``get``/``combine``
  RPC issued by the reading client or the namenode's repairer, so
  partial parities are computed at the source daemon.

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
from .repair import ReadPlan, RepairPlan, Transfer, TransferKind


class PlanExecutionError(RuntimeError):
    """Raised when a plan references unavailable blocks or slots."""


def run_plan(plan, fetch, observe=None):
    """Interpret ``plan``, pulling every source payload through ``fetch``.

    ``fetch(transfer)`` returns the block a COPY / PARTIAL_PARITY
    transfer's source puts on the wire; DECODED transfers are local
    hand-offs of an already-solved symbol and never reach it.
    ``observe(transfer, payload)``, when given, sees each transfer as
    it lands (the MiniHDFS ledger).  A :class:`RepairPlan` returns
    ``symbol -> recovered bytes`` for everything it restores; a
    :class:`ReadPlan` returns the requested symbol's bytes, skipping
    whatever the plan lists past the point they are in hand; one with
    no transfers is a local read at its ``reader_slot``.
    """
    wanted = plan.symbol if isinstance(plan, ReadPlan) else None
    if wanted is not None and not plan.transfers:
        # Reader-local: the reader's own slot serves the replica, and
        # nothing crosses the network for the observer to see.
        return fetch(Transfer(TransferKind.COPY, plan.reader_slot,
                              plan.reader_slot, (wanted,), (1,), wanted))
    payloads: list[np.ndarray] = []
    produced: dict[int, np.ndarray] = {}
    recovered: dict[int, np.ndarray] = {}
    # transfer index -> the decode steps whose last payload it lands
    ready: dict[int, list] = {}
    for step in plan.decode_steps:
        ready.setdefault(max((0, *step.payload_indices)), []).append(step)
    for landed, transfer in enumerate(plan.transfers):
        if not transfer.symbols_read:
            raise PlanExecutionError("transfer reads no symbols")
        if transfer.kind is TransferKind.DECODED:
            symbol = transfer.symbols_read[0]
            if symbol not in produced:
                raise PlanExecutionError(
                    f"transfer forwards symbol {symbol} before any decode "
                    "step produced it")
            payload = produced[symbol].copy()
        else:
            payload = fetch(transfer)
        if observe is not None:
            observe(transfer, payload)
        payloads.append(payload)
        if transfer.delivers_symbol is not None:
            recovered[transfer.delivers_symbol] = payload
        for step in ready.get(landed, ()):
            if step.produces_symbol not in produced:
                value = linear_combine(
                    step.coefficients,
                    [payloads[index] for index in step.payload_indices],
                    length=len(payloads[0]))
                produced[step.produces_symbol] = value
                recovered[step.produces_symbol] = value
        if wanted in recovered:
            return recovered[wanted]
    if wanted is not None:
        raise PlanExecutionError("read plan never produced the requested symbol")
    for step in plan.decode_steps:
        if step.produces_symbol not in produced:
            raise PlanExecutionError(
                f"decode step for symbol {step.produces_symbol} never "
                "received its payloads")
    return recovered


def _memory_fetch(code: Code, blocks: list[np.ndarray], failed: set[int]):
    """The in-memory transport: sources read ``blocks`` directly."""
    layout = code.layout

    def fetch(transfer) -> np.ndarray:
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
            return read_only_view(blocks[transfer.symbols_read[0]])
        return linear_combine(transfer.coefficients,
                              [blocks[symbol] for symbol in transfer.symbols_read])

    return fetch


def execute_repair_plan(code: Code, blocks: list[np.ndarray],
                        plan: RepairPlan) -> dict[int, np.ndarray]:
    """Run ``plan`` against the stripe's original symbol buffers.

    ``blocks`` holds the pre-failure content of every distinct symbol
    (index-aligned with the layout).  Returns ``symbol index -> recovered
    buffer`` for every symbol the plan restores, raising
    :class:`PlanExecutionError` if the plan cheats (reads failed slots,
    references missing payloads, ...).
    """
    return run_plan(plan, _memory_fetch(code, blocks, set(plan.failed_slots)))


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
    return run_plan(plan, _memory_fetch(code, blocks, set(failed_slots)))
