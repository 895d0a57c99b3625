"""Linear algebra over GF(2^8).

The generic stripe decoder reduces "recover the data blocks from whatever
coded blocks survive" to solving a small linear system over GF(256); the
routines here provide exactly that: rank, solve, inversion, and the
structured (Vandermonde / Cauchy) matrix builders used by the
Reed-Solomon and heptagon-local global parities.

Matrices are numpy ``uint8`` arrays of shape ``(rows, cols)``; operations
are implemented with vectorised row updates through the multiplication
table, which is ample for the stripe sizes in this library (at most a few
hundred rows).
"""

from __future__ import annotations

import numpy as np

from .field import gf_inv
from .tables import INV_TABLE, MUL_TABLE


class SingularMatrixError(ValueError):
    """Raised when a solve/inversion is attempted on a singular system."""


def _as_matrix(matrix) -> np.ndarray:
    array = np.asarray(matrix, dtype=np.uint8)
    if array.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return array.copy()


def row_echelon(matrix) -> tuple[np.ndarray, list[int]]:
    """Return (reduced row-echelon form, pivot column indices).

    Elimination is performed fully (above and below each pivot), so the
    result is the RREF of the input over GF(256).
    """
    work = _as_matrix(matrix)
    rows, cols = work.shape
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        candidates = np.nonzero(work[pivot_row:, col])[0]
        if candidates.size == 0:
            continue
        source = pivot_row + int(candidates[0])
        if source != pivot_row:
            work[[pivot_row, source]] = work[[source, pivot_row]]
        pivot_value = int(work[pivot_row, col])
        if pivot_value != 1:
            work[pivot_row] = MUL_TABLE[gf_inv(pivot_value)][work[pivot_row]]
        column = work[:, col].copy()
        column[pivot_row] = 0
        eliminate = np.nonzero(column)[0]
        if eliminate.size:
            updates = MUL_TABLE[column[eliminate][:, None], work[pivot_row][None, :]]
            work[eliminate] ^= updates
        pivot_cols.append(col)
        pivot_row += 1
    return work, pivot_cols


def rank_many(stack) -> np.ndarray:
    """Ranks over GF(256) of a ``(B, R, C)`` stack, as a ``(B,)`` array.

    One row-wise Gaussian elimination runs over the whole batch: step
    ``r`` takes row ``r`` of every matrix as its pivot row (already
    reduced by the rows before it), finds each one's leading nonzero
    column and clears that column from the rows below with a single
    ``MUL_TABLE`` gather.  A row that reduced to zero contributes no
    rank and, because ``INV_TABLE[0] == 0``, a zero update — so there
    is no per-matrix branch and no Python loop over the batch.  Steps
    run along the shorter axis (rank is transpose-invariant), and peak
    scratch is a few times ``B * R * C`` bytes: callers bound ``B``
    (``Code.mask_range_verdicts`` chunks at 2**14).
    """
    work = np.array(stack, dtype=np.uint8)            # private copy
    if work.ndim != 3:
        raise ValueError("expected a (batch, rows, cols) stack")
    if work.shape[1] > work.shape[2]:
        work = work.transpose(0, 2, 1)
    batch, rows, _ = work.shape
    each = np.arange(batch)
    ranks = np.zeros(batch, dtype=np.intp)
    for step in range(rows):
        pivot_row = work[:, step, :]
        pivot_col = (pivot_row != 0).argmax(axis=1)
        pivot = pivot_row[each, pivot_col]            # 0 for a zero row
        ranks += pivot != 0
        below = work[:, step + 1:, :]
        factors = MUL_TABLE[below[each, :, pivot_col],
                            INV_TABLE[pivot][:, None]]
        below ^= MUL_TABLE[factors[:, :, None], pivot_row[:, None, :]]
    return ranks


def matrix_rank(matrix) -> int:
    """Rank of ``matrix`` over GF(256) (the batch-of-one :func:`rank_many`)."""
    return int(rank_many(_as_matrix(matrix)[None])[0])


def independent_rows(matrix, limit: int | None = None) -> list[int]:
    """Indices of a maximal (or ``limit``-sized) independent row set.

    Rows are scanned in order and kept when they add rank, so callers
    can bias the selection (e.g. systematic data rows first) simply by
    row order.  Runs one incremental elimination pass — much cheaper
    than re-ranking candidate sets.
    """
    work = _as_matrix(matrix)
    rows, cols = work.shape
    target = cols if limit is None else min(limit, cols)
    basis: list[np.ndarray] = []          # reduced rows, unit pivots
    pivot_cols: list[int] = []
    chosen: list[int] = []
    for index in range(rows):
        row = work[index].copy()
        for pivot_col, reduced in zip(pivot_cols, basis):
            factor = int(row[pivot_col])
            if factor:
                row ^= MUL_TABLE[factor][reduced]
        nonzero = np.nonzero(row)[0]
        if nonzero.size == 0:
            continue
        pivot = int(nonzero[0])
        value = int(row[pivot])
        if value != 1:
            row = MUL_TABLE[gf_inv(value)][row]
        basis.append(row)
        pivot_cols.append(pivot)
        chosen.append(index)
        if len(chosen) == target:
            break
    return chosen


def solve(matrix, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` over GF(256).

    ``rhs`` may be a vector (shape ``(rows,)``) or a matrix whose columns
    are independent right-hand sides — the decoder passes whole block
    buffers as rows of a ``(rows, block_size)`` array.  The system must be
    uniquely determined for the unknowns; otherwise
    :class:`SingularMatrixError` is raised.
    """
    coefficients = _as_matrix(matrix)
    rows, cols = coefficients.shape
    stacked_rhs = np.asarray(rhs, dtype=np.uint8)
    vector_input = stacked_rhs.ndim == 1
    if vector_input:
        stacked_rhs = stacked_rhs[:, None]
    if stacked_rhs.shape[0] != rows:
        raise ValueError("rhs row count does not match the matrix")
    augmented = np.concatenate([coefficients, stacked_rhs.copy()], axis=1)
    reduced, pivots = row_echelon(augmented)
    data_pivots = [p for p in pivots if p < cols]
    if len(data_pivots) < cols:
        raise SingularMatrixError("system is under-determined over GF(256)")
    if any(p >= cols for p in pivots):
        raise SingularMatrixError("system is inconsistent over GF(256)")
    solution = np.zeros((cols, stacked_rhs.shape[1]), dtype=np.uint8)
    for row_index, col in enumerate(data_pivots):
        solution[col] = reduced[row_index, cols:]
    return solution[:, 0] if vector_input else solution


def invert(matrix) -> np.ndarray:
    """Return the inverse of a square matrix over GF(256)."""
    square = _as_matrix(matrix)
    rows, cols = square.shape
    if rows != cols:
        raise ValueError("only square matrices can be inverted")
    identity = np.eye(rows, dtype=np.uint8)
    return solve(square, identity)


def matmul(a, b) -> np.ndarray:
    """Matrix product over GF(256).

    ``b`` may be a matrix of coefficients or a stack of block buffers
    (one buffer per row); either way each output entry is the GF-linear
    combination of ``b`` rows weighted by an ``a`` row.

    The product runs one vectorised pass per shared-dimension column:
    all output rows are updated at once through a 2-D table gather
    (unit coefficients shortcut to raw XOR), rather than the scalar
    per-row/per-coefficient loop this replaces.  Block-buffer stacks
    belong to :class:`~repro.gf.kernels.BatchedLinearMap`, which runs
    the native kernels.
    """
    left = np.asarray(a, dtype=np.uint8)
    right = np.asarray(b, dtype=np.uint8)
    if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[0]:
        raise ValueError("incompatible shapes for GF matmul")
    out = np.zeros((left.shape[0], right.shape[1]), dtype=np.uint8)
    for j in range(left.shape[1]):
        column = left[:, j]
        units = np.nonzero(column == 1)[0]
        if units.size:
            out[units] ^= right[j]
        general = np.nonzero(column > 1)[0]
        if general.size:
            out[general] ^= MUL_TABLE[column[general][:, None],
                                      right[j][None, :]]
    return out


def vandermonde(rows: int, cols: int, generators: list[int] | None = None) -> np.ndarray:
    """Return a ``rows x cols`` Vandermonde matrix ``V[i, j] = g_i ** j``.

    By default the generators are ``1, 2, 3, ...`` (distinct non-zero
    field elements), which makes every square submatrix of the first
    255 rows invertible in the square case used here.
    """
    if generators is None:
        generators = list(range(1, rows + 1))
    if len(generators) != rows:
        raise ValueError("need one generator per row")
    if len(set(generators)) != rows:
        raise ValueError("generators must be distinct")
    from .field import gf_pow

    matrix = np.zeros((rows, cols), dtype=np.uint8)
    for i, generator in enumerate(generators):
        for j in range(cols):
            matrix[i, j] = gf_pow(generator, j)
    return matrix


def cauchy(row_points: list[int], col_points: list[int]) -> np.ndarray:
    """Return the Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)``.

    Every square submatrix of a Cauchy matrix is invertible, which makes
    it the standard systematic-RS parity matrix.  The point sets must be
    disjoint and internally distinct.
    """
    if set(row_points) & set(col_points):
        raise ValueError("row and column points must be disjoint")
    if len(set(row_points)) != len(row_points) or len(set(col_points)) != len(col_points):
        raise ValueError("points must be distinct")
    matrix = np.zeros((len(row_points), len(col_points)), dtype=np.uint8)
    for i, x in enumerate(row_points):
        for j, y in enumerate(col_points):
            matrix[i, j] = gf_inv(x ^ y)
    return matrix
