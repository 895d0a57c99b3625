"""Systematic Reed-Solomon baseline (single-copy erasure coding).

This is the "storage-efficient erasure codes ... recently employed in
Facebook's Hadoop clusters" family the paper positions the
double-replication codes against.  A stripe stores ``k`` data symbols
and ``n - k`` Cauchy-matrix parities, one symbol per node-slot, with no
replication — hence the well-known limitation the paper cites: no data
locality beyond one copy, and a ``k``-block bill for every degraded
read or single-node repair.  The default (14,10) geometry is the
HDFS-RAID configuration referenced in [4].
"""

from __future__ import annotations

from ..gf import cauchy
from .code import Code
from .layout import StripeLayout, Symbol, SymbolKind


class ReedSolomonCode(Code):
    """Systematic (n, k) Reed-Solomon with Cauchy parity rows."""

    def __init__(self, n: int, k: int):
        if not 0 < k < n:
            raise ValueError("need 0 < k < n")
        if n > 256:
            raise ValueError("GF(256) supports at most 256 symbols per stripe")
        self.n = n
        self.data_count = k
        self.name = f"rs({n},{k})"

    def build_layout(self) -> StripeLayout:
        k, n = self.data_count, self.n
        parity_rows = cauchy(
            row_points=list(range(k, n)), col_points=list(range(k))
        )
        symbols = []
        for index in range(k):
            coefficients = [0] * k
            coefficients[index] = 1
            symbols.append(Symbol(
                index=index, kind=SymbolKind.DATA, replicas=(index,),
                coefficients=tuple(coefficients), label=f"d{index}",
            ))
        for parity_index in range(n - k):
            symbols.append(Symbol(
                index=k + parity_index, kind=SymbolKind.LOCAL_PARITY,
                replicas=(k + parity_index,),
                coefficients=tuple(int(c) for c in parity_rows[parity_index]),
                label=f"p{parity_index}",
            ))
        return StripeLayout(self.name, k=k, length=n, symbols=tuple(symbols))

    #: MDS: any ``k`` of the ``n`` symbols decode, whichever they are.
    symmetry_classes = Code.one_flat_class
