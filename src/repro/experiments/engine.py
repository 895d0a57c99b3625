"""Declarative sweep engine: cell grids run serially or on a local pool.

Every figure/table in :mod:`repro.experiments` is a sweep over
(code, scheduler, load, ...) cells, each cell either a single
deterministic computation or an average over seeded trials.  Before
this engine each module ran its own hand-rolled loop — single-process
by construction, and numpy holds the GIL on the ``take``/``xor`` hot
paths, so threads cannot help.  The engine turns the sweep into *data*:
an experiment declares a grid of self-describing :class:`Cell` specs
and :func:`run_cells` executes them — in-process at ``workers=1`` (the
reference semantics), otherwise over a cached local process pool with
chunked dispatch, broken-pool eviction and retry (see below).

Determinism is by construction, not by convention:

* every trial re-derives its generator from
  ``stable_seed(experiment, *seed_key, trial)`` — no RNG state is ever
  shared between cells, trials or worker processes;
* trial sharding (``shard_trials``) splits a cell's trial *range* into
  work units whose boundaries depend only on the cell spec, never on
  the worker count; merged values are ordered by trial index, so every
  shard layout produces bit-identical results;
* single-call cells (``trials=None``) are pure functions of their
  pickled args.

Consequently ``workers=1`` and ``workers=N`` agree exactly, and any
individual cell can be re-run in isolation (:meth:`Cell.run`) and
reproduce its sweep value — both properties are asserted for every
ported experiment in ``tests/test_engine.py``.

Failure paths are hardened:

* a cell whose ``fn`` raises surfaces as :class:`CellExecutionError`
  naming the owning ``(experiment, key)``, wherever it ran;
* a pool whose worker process dies (OOM-killed, segfault) is
  terminated and evicted from the cache, and the batch retries on a
  fresh pool — after a second pool death it degrades to in-process
  serial execution rather than hanging or poisoning later sweeps.

Worker resolution: an explicit ``workers`` argument wins; otherwise the
``REPRO_WORKERS`` environment variable; otherwise serial.  ``workers=0``
means one per CPU this process may run on; negative counts are
rejected.
"""

from __future__ import annotations

import atexit
import os
import warnings
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

from .runner import CellStats, trial_rng

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: Live pools keyed by worker count, reused across :func:`run_cells`
#: calls — pool start-up costs ~0.1 s per worker on sandboxed kernels,
#: which would otherwise swamp sub-second sweeps.  Safe to reuse
#: because work units reach workers as pickled ``(fn, args, seeds,
#: range, owner)`` tuples; no parent state leaks.  A pool whose worker
#: dies is evicted by :func:`_run_batch`, so a crash never
#: poisons later sweeps at the same worker count.
_POOLS: dict[int, ProcessPoolExecutor] = {}


class CellExecutionError(RuntimeError):
    """A cell's ``fn`` raised; the message names the owning cell.

    Raised in place of the original exception so a failure in a
    thousand-cell sweep — possibly in a pool worker — still says
    *which* ``(experiment, key)`` to re-run in isolation.  The
    original exception is chained as ``__cause__`` when the failure
    happened in-process.
    """


def shutdown_pools() -> None:
    """Shut down every cached worker pool (registered via atexit)."""
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(shutdown_pools)


@dataclass(frozen=True)
class Cell:
    """One self-describing sweep cell.

    Attributes:
        experiment: sweep tag, the first seed component (``"fig3"``,
            ``"delay-sens"``, ...).
        key: the cell's coordinates in the grid; unique per sweep.
        fn: a *top-level, picklable* function.  Trial cells
            (``trials`` set) are called as ``fn(rng, *args)`` once per
            trial; single-call cells as ``fn(*args)`` exactly once.
        args: extra positional arguments for ``fn`` (must pickle).
        trials: number of seeded trials, or ``None`` for a single call.
        seed_key: seed components after ``experiment``; defaults to
            ``key``.  Kept separate so cells may share trial streams
            (Fig. 3 evaluates every scheduler on the same placements).
        reduce: merges the trial-ordered value list into the cell
            result; defaults to :meth:`CellStats.from_values`.  Runs in
            the parent process, so it need not pickle.  Only valid with
            ``trials`` set — a single-call cell returns ``fn(*args)``
            directly and would silently skip the reduce.
        shard_trials: max trials per work unit.  Heavy Monte-Carlo
            cells set this so one cell fans out over several workers;
            results are unaffected (see module docstring).
    """

    experiment: str
    key: tuple
    fn: Callable[..., object]
    args: tuple = ()
    trials: int | None = None
    seed_key: tuple | None = None
    reduce: Callable[[list], object] | None = None
    shard_trials: int | None = None

    def __post_init__(self) -> None:
        qualname = getattr(self.fn, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise ValueError(
                f"cell fn {qualname!r} is not a top-level function; "
                "nested functions and lambdas cannot cross process "
                "boundaries"
            )
        if self.trials is not None and self.trials < 1:
            raise ValueError("a trial cell needs at least one trial")
        if self.trials is None and self.reduce is not None:
            raise ValueError(
                f"cell {self.key!r}: reduce is only applied to trial "
                "cells — a single-call cell (trials=None) returns "
                "fn(*args) unreduced; set trials or drop the reduce"
            )
        if self.shard_trials is not None and self.shard_trials < 1:
            raise ValueError("shard_trials must be positive")

    @property
    def seed_components(self) -> tuple:
        base = self.key if self.seed_key is None else self.seed_key
        return (self.experiment, *base)

    def unit_payload(self, lo: int, hi: int) -> tuple:
        """The picklable work-unit tuple shipped to a worker.

        Deliberately *not* the cell itself: only ``fn``, ``args``, the
        seed components and the owning ``(experiment, key)`` (for
        failure attribution) cross the process boundary, so ``reduce``
        (which runs in the parent) really need not pickle.
        """
        owner = (self.experiment, self.key)
        if self.trials is None:
            return (self.fn, self.args, None, 0, 0, owner)
        return (self.fn, self.args, self.seed_components, lo, hi, owner)

    def finish(self, values: list):
        """Reduce trial-ordered values into the cell result."""
        if self.reduce is not None:
            return self.reduce(values)
        return CellStats.from_values(values)

    def run(self):
        """Run this cell alone, serially — reproduces its sweep value."""
        if self.trials is None:
            return _run_unit(self.unit_payload(0, 0))
        return self.finish(_run_unit(self.unit_payload(0, self.trials)))


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: argument, else ``REPRO_WORKERS``, else 1.

    ``0`` means one worker per CPU this process may run on (its
    affinity set, so a ``taskset``-pinned run is not oversubscribed).
    Negative counts and non-integer environment values are rejected
    loudly — they used to be silently treated as "one per CPU",
    drifting from the CLI's documented contract.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be a non-negative integer worker "
                f"count (0: one per CPU), got {env!r}"
            ) from None
        source = f"{WORKERS_ENV}={env}"
    else:
        source = f"workers={workers}"
    if workers < 0:
        raise ValueError(
            f"{source}: worker count must be >= 0 (0 means one per CPU)"
        )
    if workers == 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:      # pragma: no cover - no affinity API
            return os.cpu_count() or 1
    return workers


def _plan_units(cells: Sequence[Cell]) -> list[tuple[int, int, int]]:
    """Shard every cell into ``(cell_index, trial_lo, trial_hi)`` units.

    Boundaries are a pure function of the cell specs, so the unit list
    — and therefore every merged result — is identical for any
    worker count.
    """
    units: list[tuple[int, int, int]] = []
    for index, cell in enumerate(cells):
        if cell.trials is None:
            units.append((index, 0, 0))
            continue
        step = cell.shard_trials or cell.trials
        for lo in range(0, cell.trials, step):
            units.append((index, lo, min(lo + step, cell.trials)))
    return units


def _run_unit(payload: tuple):
    """Execute one work unit (top-level so it pickles to workers).

    Single-call units (``seeds is None``) return ``fn(*args)``; trial
    units return the value list for trials ``lo..hi-1``, each evaluated
    against its own generator.  Any exception out of ``fn`` is
    re-raised as :class:`CellExecutionError` naming the owning cell, so
    a failure deep inside a fanned-out sweep is attributable.
    """
    fn, args, seeds, lo, hi, owner = payload
    try:
        if seeds is None:
            return fn(*args)
        return [fn(trial_rng(*seeds, trial), *args)
                for trial in range(lo, hi)]
    except CellExecutionError:
        raise
    except Exception as exc:
        experiment, key = owner
        raise CellExecutionError(
            f"cell {key!r} of experiment {experiment!r} failed with "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _pool_context():
    """Prefer fork (cheap, shares warmed caches); fall back to default."""
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return get_context()


def _pool(workers: int) -> ProcessPoolExecutor:
    """A cached pool of ``workers`` processes, created on first use."""
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context())
    return pool


def _evict_pool(workers: int) -> None:
    """Drop (and shut down) the cached pool at ``workers``, if any."""
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _run_batch(payloads: list, workers: int) -> list:
    """Run work-unit payloads in order: in-process at one worker (or
    one unit), otherwise over the cached pool of ``workers`` processes.

    Failure containment: a :class:`CellExecutionError` is the cell's
    own bug and propagates untouched, but any *infrastructure* failure
    (a worker process dying mid-batch breaks the whole pool) evicts
    the cached pool, and the batch retries once on a fresh pool.  A
    second pool death falls back to in-process serial execution — a
    deterministic crasher then surfaces its real error instead of a
    broken-pool message.
    """
    if workers > 1 and len(payloads) > 1:
        # The pool is cached at the *requested* count (idle workers are
        # harmless; a second pool per batch size would not be).
        effective = min(workers, len(payloads))
        chunksize = max(1, len(payloads) // (effective * 4))
        for _ in range(2):
            pool = _pool(workers)
            try:
                return list(pool.map(_run_unit, payloads,
                                     chunksize=chunksize))
            except CellExecutionError:
                raise
            except Exception as exc:
                _evict_pool(workers)
                warnings.warn(
                    f"worker pool ({workers} processes) broke with "
                    f"{type(exc).__name__}: {exc}; evicted the cached "
                    "pool and retrying the batch",
                    RuntimeWarning, stacklevel=2)
    return [_run_unit(payload) for payload in payloads]


def run_cells(cells: Iterable[Cell], workers: int | None = None) -> list:
    """Run every cell; returns results aligned with the input order.

    ``workers`` follows :func:`resolve_workers`: serial at 1, the
    cached local pool above.  The merged results are bit-identical at
    any worker count (asserted by the engine's test suite for every
    ported experiment).
    """
    cells = list(cells)
    if not cells:
        return []
    units = _plan_units(cells)
    payloads = [cells[index].unit_payload(lo, hi) for index, lo, hi in units]
    outputs = _run_batch(payloads, resolve_workers(workers))
    # Merge: units were planned in cell order with ascending trial
    # ranges and the batch keeps order, so grouping by cell index
    # concatenates each cell's values in trial order.
    results: list = [None] * len(cells)
    pending: dict[int, list] = {}
    for (index, _, _), output in zip(units, outputs):
        cell = cells[index]
        if cell.trials is None:
            results[index] = output
        else:
            pending.setdefault(index, []).extend(output)
    for index, values in pending.items():
        results[index] = cells[index].finish(values)
    return results


def run_keyed(cells: Iterable[Cell], workers: int | None = None) -> dict:
    """:func:`run_cells`, returned as ``{cell.key: result}``.

    Keys must be unique across the batch (duplicate keys are a spec
    bug: two cells would silently shadow each other).
    """
    cells = list(cells)
    seen: set = set()
    for cell in cells:
        if cell.key in seen:
            raise ValueError(f"duplicate cell key {cell.key!r}")
        seen.add(cell.key)
    return {cell.key: result
            for cell, result in zip(cells, run_cells(cells, workers))}
