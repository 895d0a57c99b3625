"""Sharded exact-reliability enumeration: 2**L masks as engine cells.

The exact (brute-force) chain of
:func:`repro.reliability.models.brute_force_chain` needs one
recoverability verdict per failed-slot bitmask — all ``2**length`` of
them.  That enumeration used to run as one monolithic in-process bulk
query, which capped exact chains at 15 slots; 3+-group polygon-local
families start at 16.

This module splits the mask range into contiguous shards, each
expressed as a self-describing
:class:`~repro.experiments.engine.Cell`, so the enumeration runs
through the same engine as every sweep — serially or on the
``--workers N`` process pool.  Three properties make the split safe:

* verdicts are **exact** (rank tests / closed forms, no randomness),
  so any shard layout merges bit-identically;
* each shard rebuilds its code from the registry name and computes its
  range through :meth:`~repro.core.Code.mask_range_verdicts`, the
  constant-memory seam that never populates the per-mask memo — a
  worker's footprint is one chunk, not the whole table;
* shard boundaries are a pure function of the code length, never of
  the worker count, so the cell grid itself is reproducible.

The practical wall moves from 15 slots to :data:`MAX_EXACT_LENGTH`
(~2**24 verdicts); beyond that even a sharded table (and any chain
built on it) is out of reach, and the lumped pattern chains
(:func:`repro.reliability.models.group_chain`, over the symmetry the
code declares in :meth:`~repro.core.Code.symmetry_classes`) are the
supported model.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core import Code, make_code

#: Hard ceiling on exact enumeration: 2**24 verdicts is under a minute
#: of sharded rank tests (a 22-slot family measures 5.8 s serial, 2.6 s
#: on two workers) and a 2 MiB packed table; every length the shipped
#: families need (3-group heptagon-local is 22) fits under it.
MAX_EXACT_LENGTH = 24

#: Smallest shard worth shipping to a worker.  A 1024-mask shard is
#: 0.3-1.5 ms of verdicts, ~0.15 ms of it the fixed cost of the numpy
#: calls whatever the batch; 256-mask shards measured 20-40 % slower
#: end to end on two workers, 4096 and 16384 within noise of 1024, so
#: the small size stays for the load balance it gives the pool (rank
#: tests cluster where few slots failed: 7115 of a 16-slot family's
#: first 2**14 masks need one, 1518 of its last).
MIN_SHARD_MASKS = 1 << 10

#: Target shard count for long codes (bounds scheduling overhead).
_MAX_SHARDS = 256

#: Below this many masks a *worker-count* request runs serially even
#: when the count is > 1.  Measured serial vs two-worker cold pool
#: (fork start-up ~0.025 s) on the reference container: 2**14 6 ms vs
#: 36 ms, 2**15 15 vs 42, 2**16 93 vs 83, 2**17 37-173 vs 44-136
#: (family-dependent, wins and losses), 2**18 69 vs 85, and from 2**19
#: every family measured wins (250-750 ms vs 100-380).  Only
#: ``serial_below=0`` bypasses the heuristic (the benchmark passes it
#: to time the sharding machinery itself).
AUTO_SERIAL_MASKS = 1 << 19


def check_enumerable(code: Code) -> None:
    """Raise a :class:`ValueError` naming ``code`` when it is too long.

    The error names the code and its length (the old wall surfaced as a
    bare "limited to length <= 15" that never said which code hit it).
    """
    if code.length > MAX_EXACT_LENGTH:
        raise ValueError(
            f"{code.name}: exact reliability enumeration needs "
            f"2**{code.length} recoverability verdicts; length "
            f"{code.length} exceeds the {MAX_EXACT_LENGTH}-slot sharded "
            f"engine limit — declare the code's symmetry_classes() so "
            f"group_chain can lump its states")


def shard_ranges(length: int, shard_masks: int | None = None) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` mask ranges covering ``[0, 2**length)``.

    Boundaries depend only on ``length`` (and an explicit
    ``shard_masks`` override), never on the worker count, so the cell
    grid is identical however the enumeration is run.
    """
    total = 1 << length
    if shard_masks is None:
        shard_masks = max(MIN_SHARD_MASKS, total // _MAX_SHARDS)
    if shard_masks < 1:
        raise ValueError("shard_masks must be positive")
    return [(lo, min(lo + shard_masks, total))
            for lo in range(0, total, shard_masks)]


#: Per-process code cache for shard workers.  A pool worker serves
#: many shards of one enumeration, and building a code's layout
#: (0.2-1.5 ms) costs as much as a 1024-mask shard's verdicts
#: (0.3-1.5 ms): rebuilding per shard measured 1.5x (``rs(17,13)``) to
#: 2.4x (``heptagon-local``) slower on two workers.
_SHARD_CODES: dict[str, Code] = {}


def _shard_code(code_name: str) -> Code:
    code = _SHARD_CODES.get(code_name)
    if code is None:
        if len(_SHARD_CODES) >= 4:
            _SHARD_CODES.clear()
        code = _SHARD_CODES[code_name] = make_code(code_name)
    return code


def mask_shard_bits(code_name: str, lo: int, hi: int) -> bytes:
    """Packed recoverability verdicts for masks ``[lo, hi)`` (cell fn).

    Top-level and picklable: the shard travels to a pool worker as
    ``(code_name, lo, hi)`` and the code is rebuilt from the
    registry there — which is why ``make_code(code.name)`` must
    round-trip for every constructible family.  Bit-packing keeps a
    2**22-mask table at 512 KiB on the wire instead of 4 MiB.
    """
    verdicts = _shard_code(code_name).mask_range_verdicts(lo, hi)
    return np.packbits(verdicts).tobytes()


def _unpack_shards(shards: list[tuple[int, int]], payloads: list[bytes],
                   total: int) -> np.ndarray:
    table = np.empty(total, dtype=bool)
    for (lo, hi), payload in zip(shards, payloads):
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                             count=hi - lo)
        table[lo:hi] = bits.astype(bool)
    return table


def recoverable_mask_table(code: Code, workers: int | None = None, *,
                           shard_masks: int | None = None,
                           serial_below: int | None = None) -> np.ndarray:
    """The full ``(2**length,)`` recoverability table of ``code``.

    ``workers`` follows the :func:`~repro.experiments.engine.run_cells`
    contract (a worker count, or ``None`` for
    ``$REPRO_WORKERS``-or-serial).  Serial runs stay in-process;
    fanned-out runs shard the range over the engine.  The merged table
    is bit-identical whichever path ran it.

    Enumerations smaller than ``serial_below`` masks (default
    :data:`AUTO_SERIAL_MASKS`) run serially whatever the worker count —
    pool spin-up dwarfs the work at those sizes.  Pass
    ``serial_below=0`` to force sharding (the benchmark does, to
    measure the machinery itself).
    """
    check_enumerable(code)
    # Engine import is deferred: repro.experiments imports
    # repro.reliability at package level, so a module-level import here
    # would be circular.
    from ..experiments.engine import Cell, resolve_workers, run_cells

    total = 1 << code.length
    if serial_below is None:
        serial_below = AUTO_SERIAL_MASKS
    if resolve_workers(workers) == 1 or total < serial_below:
        return code.mask_range_verdicts(0, total)
    try:
        rebuilt = make_code(code.name)
    except (KeyError, ValueError) as exc:
        warnings.warn(
            f"cannot shard mask enumeration for {code.name!r}: the "
            f"registry does not round-trip its name ({exc}); "
            "enumerating serially in-process",
            RuntimeWarning, stacklevel=2)
        return code.mask_range_verdicts(0, total)
    if rebuilt.length != code.length:
        raise ValueError(
            f"registry round-trip changed {code.name!r}: length "
            f"{code.length} became {rebuilt.length}")
    shards = shard_ranges(code.length, shard_masks)
    cells = [
        Cell(experiment="mask-enum", key=(code.name, lo, hi),
             fn=mask_shard_bits, args=(code.name, lo, hi))
        for lo, hi in shards
    ]
    payloads = run_cells(cells, workers)
    return _unpack_shards(shards, payloads, total)
