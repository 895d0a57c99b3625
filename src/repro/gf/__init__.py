"""Galois-field GF(2^8) arithmetic substrate.

Provides scalar ops, numpy-vectorised buffer ops, linear algebra
(rank/solve/invert) and structured matrix builders used by every coded
scheme in :mod:`repro.core`.

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so a datanode that
only checksums and combines blocks loads :mod:`repro.gf.native` and no
numpy.
"""

from importlib import import_module

#: Public name -> the module of this package that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("GF256", "gf_add", "gf_sub", "gf_mul", "gf_div", "gf_inv",
         "gf_pow"), "field"),
    **dict.fromkeys(
        ("BatchedLinearMap", "linear_combine", "native_available",
         "native_error"),
        "kernels"),
    **dict.fromkeys(
        ("BACKEND_ENV", "BACKEND_NAMES", "crc32", "set_backend",
         "requested_backend", "active_backend"), "native"),
    **dict.fromkeys(
        ("SingularMatrixError", "row_echelon", "matrix_rank", "rank_many",
         "independent_rows", "solve", "invert", "matmul", "vandermonde",
         "cauchy"), "linalg"),
    **dict.fromkeys(
        ("poly_eval", "poly_add", "poly_mul", "poly_scale",
         "lagrange_interpolate"), "polynomial"),
    **dict.fromkeys(
        ("EXP", "LOG", "MUL_TABLE", "INV_TABLE", "FIELD_SIZE",
         "GROUP_ORDER", "PRIMITIVE_POLY"), "tables"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
