"""Galois-field GF(2^8) arithmetic substrate.

Provides scalar ops, numpy-vectorised buffer ops, linear algebra
(rank/solve/invert) and structured matrix builders used by every coded
scheme in :mod:`repro.core`.
"""

from .field import GF256, gf_add, gf_div, gf_inv, gf_mul, gf_pow, gf_sub
from .kernels import (
    BACKEND_ENV,
    BACKEND_NAMES,
    NATIVE_MIN_BYTES,
    PACKED_MIN_BYTES,
    BatchedLinearMap,
    active_backend,
    crc32,
    linear_combine,
    native_available,
    native_error,
    requested_backend,
    set_backend,
)
from .linalg import (
    SingularMatrixError,
    cauchy,
    independent_rows,
    invert,
    matmul,
    matrix_rank,
    rank_many,
    row_echelon,
    solve,
    vandermonde,
)
from .polynomial import lagrange_interpolate, poly_add, poly_eval, poly_mul, poly_scale
from .tables import EXP, FIELD_SIZE, GROUP_ORDER, INV_TABLE, LOG, MUL_TABLE, PRIMITIVE_POLY

__all__ = [
    "GF256",
    "BatchedLinearMap",
    "PACKED_MIN_BYTES",
    "NATIVE_MIN_BYTES",
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "linear_combine",
    "crc32",
    "set_backend",
    "requested_backend",
    "active_backend",
    "native_available",
    "native_error",
    "gf_add",
    "gf_sub",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "SingularMatrixError",
    "row_echelon",
    "matrix_rank",
    "rank_many",
    "independent_rows",
    "solve",
    "invert",
    "matmul",
    "vandermonde",
    "cauchy",
    "poly_eval",
    "poly_add",
    "poly_mul",
    "poly_scale",
    "lagrange_interpolate",
    "EXP",
    "LOG",
    "MUL_TABLE",
    "INV_TABLE",
    "FIELD_SIZE",
    "GROUP_ORDER",
    "PRIMITIVE_POLY",
]
