"""Continuous-time Markov chains with absorbing states (MTTDL engine).

Table 1's MTTDL column comes from "standard node failure and repair
models" [7]: nodes fail and repair as independent exponential processes
and data loss is the absorption event.  This module provides the
generic machinery — a CTMC described by its transition rates, and the
mean-time-to-absorption solve — while :mod:`repro.reliability.models`
builds each code's lumped state space.

The mean time to absorption from transient state ``s`` satisfies

    (sum of rates out of s) * t(s) - sum_{s' transient} rate(s->s') t(s') = 1

a sparse linear system solved with scipy.  Small systems (every
lumped chain of :func:`repro.reliability.models.group_chain`) go
through the exact sparse-LU solve;
the exhaustive subset chains of
:func:`repro.reliability.models.brute_force_chain` reach tens of
thousands of hypercube-structured states where sparse LU fill-in is
catastrophic (minutes at 2**16 masks), so larger systems switch to a
Jacobi-preconditioned BiCGSTAB with iterative refinement — the rate
matrix is strictly diagonally dominant on the transient block, where
that combination converges to ~1e-12 relative residual in milliseconds
— and fall back to the exact LU only if refinement stalls.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, lil_matrix
from scipy.sparse.linalg import LinearOperator, bicgstab, spsolve

State = Hashable

#: Largest transient-state count solved by exact sparse LU; the
#: lumped chains all sit far below it (the 15-slot heptagon-local
#: subset chain has ~3.7k states), so their solution paths — and the
#: 1e-9-tight equivalence tests against them — are unchanged.
DIRECT_SOLVE_STATES = 4096

#: Refinement target: iterate until the residual shrinks below this
#: relative to ``||b||``, then trust the iterative solution.
_REFINE_TOLERANCE = 1e-10


def _solve_transient_system(matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ t = rhs`` for the mean-absorption-time system."""
    size = matrix.shape[0]
    if size <= DIRECT_SOLVE_STATES:
        return spsolve(matrix.tocsr(), rhs)
    csr = matrix.tocsr()
    diagonal = csr.diagonal()
    preconditioner = LinearOperator(
        csr.shape, lambda vector: vector / diagonal)
    rhs_norm = float(np.linalg.norm(rhs))
    solution = np.zeros(size, dtype=np.float64)
    residual = rhs
    for _ in range(5):
        update, info = bicgstab(csr, residual, M=preconditioner,
                                rtol=1e-12, atol=0.0, maxiter=2000)
        if info < 0:
            break
        solution = solution + update
        residual = rhs - csr @ solution
        if np.linalg.norm(residual) <= _REFINE_TOLERANCE * rhs_norm:
            return solution
    # Exact (slow) fallback: correctness over speed when the iterative
    # path stalls on pathologically stiff rates.
    return spsolve(csr, rhs)


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
        if rate < 0:
            raise ValueError("transition rates must be non-negative")
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

    def exit_rate(self, state: State) -> float:
        return sum(rate for rate, _ in self.transitions.get(state, []))

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
        if start not in self.transitions:
            raise KeyError(f"unknown state {start!r}")
        self.validate()
        transient = self.transient_states()
        index = {state: i for i, state in enumerate(transient)}
        size = len(transient)
        # COO triplets instead of per-element lil assignment: building
        # the 2**16-mask subset chains' systems this way is ~100x
        # cheaper, and duplicate (i, j) entries sum exactly like the
        # old accumulating assignment did.
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        rhs = np.ones(size, dtype=np.float64)
        for state in transient:
            i = index[state]
            out_rate = self.exit_rate(state)
            if out_rate <= 0:
                raise ValueError(f"transient state {state!r} has no exits")
            rows.append(i)
            cols.append(i)
            vals.append(out_rate)
            for rate, dest in self.transitions[state]:
                if dest not in self.absorbing:
                    rows.append(i)
                    cols.append(index[dest])
                    vals.append(-rate)
        matrix = coo_matrix((vals, (rows, cols)), shape=(size, size),
                            dtype=np.float64)
        solution = _solve_transient_system(matrix, rhs)
        return float(solution[index[start]])

    def absorption_probability_split(self, start: State) -> dict[State, float]:
        """Probability of ending in each absorbing state (diagnostics)."""
        if start in self.absorbing:
            return {start: 1.0}
        self.validate()
        transient = self.transient_states()
        index = {state: i for i, state in enumerate(transient)}
        size = len(transient)
        result: dict[State, float] = {}
        for target in self.absorbing:
            matrix = lil_matrix((size, size), dtype=np.float64)
            rhs = np.zeros(size, dtype=np.float64)
            for state in transient:
                i = index[state]
                matrix[i, i] = self.exit_rate(state)
                for rate, dest in self.transitions[state]:
                    if dest in self.absorbing:
                        if dest == target:
                            rhs[i] += rate
                    else:
                        matrix[i, index[dest]] -= rate
            solution = spsolve(matrix.tocsr(), rhs)
            result[target] = float(solution[index[start]])
        return result


HOURS_PER_YEAR = 24 * 365.25


def hours_to_years(hours: float) -> float:
    return hours / HOURS_PER_YEAR


def years_to_hours(years: float) -> float:
    return years * HOURS_PER_YEAR
