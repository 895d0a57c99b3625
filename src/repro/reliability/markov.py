"""Continuous-time Markov chains with absorbing states (MTTDL engine).

Table 1's MTTDL column comes from "standard node failure and repair
models" [7]: nodes fail and repair as independent exponential processes
and data loss is the absorption event.  This module provides the
generic machinery — a CTMC described by its transition rates, and the
mean-time-to-absorption solve — while :mod:`repro.reliability.models`
builds each code's lumped state space.

The mean time to absorption from transient state ``s`` satisfies

    (sum of rates out of s) * t(s) - sum_{s' transient} rate(s->s') t(s') = 1

and the probability of absorbing in ``a`` the same system with the
rate ``s -> a`` on the right.  The solver depends on the transient
state count:

* up to :data:`ELIMINATION_STATES` (every lumped chain of
  :func:`repro.reliability.models.group_chain`, at most 81 states) —
  :func:`_eliminate`, the elimination of Grassmann, Taksar and Heyman
  (Oper. Res. 33(5), 1985) in numpy.  It keeps each exit rate as the
  *sum* of the remaining rates, never as a diagonal minus something,
  so it only adds non-negative numbers and is exact to rounding however
  stiff lambda/mu is: 3.8e-16 worst relative error against a 60-digit
  reference over the 78 chains Table 1 and the families table solve.
  Pivoting LU subtracts nearly equal rates there: sparse LU was off by
  up to 4.6 % (3-rep at MTTF 1e9 h; 7e-5 at the calibrated MTTF) and
  dense ``numpy.linalg.solve`` by 34 %, so neither serves this size;
* up to :data:`DIRECT_SOLVE_STATES` — sparse LU (``spsolve``);
* above it — the subset chains of
  :func:`repro.reliability.models.brute_force_chain`, tens of thousands
  of hypercube-structured states where LU fill-in is catastrophic
  (minutes at 2**16 masks): Jacobi-preconditioned BiCGSTAB with
  iterative refinement, falling back to LU if refinement stalls.

Elimination is O(n**3): a whole solve of a random chain with six edges
per state took 0.8 against sparse LU's 0.9 ms at 24 states, 2.2
against 1.5 ms at 81, 17 against 4 ms at 256 and 160 against 15 ms at
512 (2-vCPU Xeon, scipy already imported), hence the cut-over at 256.
Only the sparse tiers need scipy, and they import it themselves: the
paper's tables never load it.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

State = Hashable

#: Largest transient-state count solved by :func:`_eliminate`.
ELIMINATION_STATES = 256

#: Largest transient-state count solved by exact sparse LU; the
#: 15-slot heptagon-local subset chain (~3.7k states) sits below it.
DIRECT_SOLVE_STATES = 4096

#: Refinement target: iterate until the residual shrinks below this
#: relative to ``||b||``, then trust the iterative solution.
_REFINE_TOLERANCE = 1e-10


def _eliminate(rates: np.ndarray, absorb: np.ndarray,
               rhs: np.ndarray) -> np.ndarray:
    """State 0's row of the solution, by GTH elimination (in place).

    ``rates[i, j]`` is the rate from transient ``i`` to ``j`` (the
    diagonal is never read), ``absorb[i]`` from ``i`` into absorption,
    ``rhs`` an ``(n, m)`` right-hand side.  States ``n-1 .. 1`` are
    folded in turn into the states left."""
    for k in range(len(absorb) - 1, 0, -1):
        row = rates[k, :k]
        factor = rates[:k, k] / (row.sum() + absorb[k])
        rates[:k, :k] += np.multiply.outer(factor, row)
        absorb[:k] += factor * absorb[k]
        rhs[:k] += np.multiply.outer(factor, rhs[k])
    return rhs[0] / absorb[0]


def _sparse_solve(rows, cols, vals, shape, split: bool) -> np.ndarray:
    """State 0's row of the solution above the elimination tier, from
    the rate triplets :meth:`MarkovChain._solve` collects."""
    from scipy.sparse import coo_matrix, diags
    from scipy.sparse.linalg import LinearOperator, bicgstab, spsolve

    size = shape[0]
    full = coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    rhs = full[:, size:].toarray() if split else np.ones((size, 1))
    exit_rates = np.asarray(full.sum(axis=1)).ravel()
    matrix = (diags(exit_rates) - full[:, :size]).tocsr()
    if size <= DIRECT_SOLVE_STATES:
        return np.array([spsolve(matrix, column)[0] for column in rhs.T])
    preconditioner = LinearOperator(
        matrix.shape, lambda vector: vector / exit_rates)

    def solve(column: np.ndarray) -> float:
        solution, residual = np.zeros(size), column
        for _ in range(5):
            update, info = bicgstab(matrix, residual, M=preconditioner,
                                    rtol=1e-12, atol=0.0, maxiter=2000)
            if info < 0:
                break
            solution = solution + update
            residual = column - matrix @ solution
            if (np.linalg.norm(residual)
                    <= _REFINE_TOLERANCE * np.linalg.norm(column)):
                return solution[0]
        # Exact (slow) fallback: correctness over speed when the
        # iterative path stalls on pathologically stiff rates.
        return spsolve(matrix, column)[0]

    return np.array([solve(column) for column in rhs.T])


@dataclass
class MarkovChain:
    """A CTMC built incrementally via :meth:`add_transition`.

    States are arbitrary hashables; absorbing states are any states
    marked with :meth:`mark_absorbing` (transitions out of absorbing
    states are ignored by the solver).
    """

    transitions: dict[State, list[tuple[float, State]]] = field(default_factory=dict)
    absorbing: set[State] = field(default_factory=set)

    def add_transition(self, source: State, dest: State, rate: float) -> None:
        if not 0 <= rate < float("inf"):
            raise ValueError(
                f"transition rates must be finite and non-negative, "
                f"got {rate!r}")
        if rate == 0:
            return
        self.transitions.setdefault(source, []).append((rate, dest))
        self.transitions.setdefault(dest, [])

    def mark_absorbing(self, state: State) -> None:
        self.absorbing.add(state)
        self.transitions.setdefault(state, [])

    def states(self) -> list[State]:
        return list(self.transitions)

    def transient_states(self) -> list[State]:
        return [s for s in self.transitions if s not in self.absorbing]

    def validate(self) -> None:
        """Check every transient state can eventually reach absorption."""
        if not self.absorbing:
            raise ValueError("chain has no absorbing state; MTTDL is infinite")
        # Reverse reachability from the absorbing set.
        reverse: dict[State, list[State]] = {s: [] for s in self.transitions}
        for source, edges in self.transitions.items():
            for _, dest in edges:
                reverse.setdefault(dest, []).append(source)
        reached = set(self.absorbing)
        frontier = list(self.absorbing)
        while frontier:
            state = frontier.pop()
            for predecessor in reverse.get(state, []):
                if predecessor not in reached:
                    reached.add(predecessor)
                    frontier.append(predecessor)
        unreachable = [s for s in self.transient_states() if s not in reached]
        if unreachable:
            raise ValueError(
                f"states can never reach absorption: {unreachable[:5]}"
            )

    def mean_time_to_absorption(self, start: State) -> float:
        """Expected time from ``start`` until any absorbing state.

        Returns 0.0 when ``start`` is itself absorbing.
        """
        if start in self.absorbing:
            return 0.0
        return float(self._solve(start, split=False)[0])

    def absorption_probability_split(self, start: State) -> dict[State, float]:
        """Probability of ending in each absorbing state (diagnostics)."""
        if start in self.absorbing:
            return {start: 1.0}
        return dict(zip(self.absorbing,
                        map(float, self._solve(start, split=True))))

    def _solve(self, start: State, split: bool) -> np.ndarray:
        """``start``'s mean time to absorption, or its probability of
        absorbing in each state of ``self.absorbing`` (in its order)."""
        if start not in self.transitions:
            raise KeyError(f"unknown state {start!r}")
        self.validate()
        transient = [start, *(state for state in self.transient_states()
                              if state != start)]
        size = len(transient)
        column = {state: i
                  for i, state in enumerate([*transient, *self.absorbing])}
        # Rate triplets over transient rows and all columns, absorbing
        # states last; self-loops change nothing and are skipped, and
        # duplicate edges sum.
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for i, state in enumerate(transient):
            for rate, dest in self.transitions[state]:
                if dest != state:
                    rows.append(i)
                    cols.append(column[dest])
                    vals.append(rate)
        shape = (size, len(column))
        if size > ELIMINATION_STATES:
            return _sparse_solve(rows, cols, vals, shape, split)
        flat = np.asarray(rows, dtype=np.intp) * shape[1] + cols
        full = np.bincount(flat, vals, size * shape[1]).reshape(shape)
        into = full[:, size:]
        return _eliminate(full[:, :size], into.sum(axis=1),
                          into if split else np.ones((size, 1)))


HOURS_PER_YEAR = 24 * 365.25


def hours_to_years(hours: float) -> float:
    return hours / HOURS_PER_YEAR


def years_to_hours(years: float) -> float:
    return years * HOURS_PER_YEAR
