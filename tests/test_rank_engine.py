"""The one rank elimination in the tree, against a reference kept here.

``repro.gf.rank_many`` is the only rank test under ``matrix_rank`` and
the shared decodability engine (``Code.can_recover*`` /
``mask_range_verdicts``), so it is checked against an elimination that
shares no code with it: one matrix at a time, column by column, with
row swaps and the scalar field operations.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Code, StripeLayout, Symbol, SymbolKind,
                        available_codes, make_code)
from repro.gf import gf_inv, gf_mul, matrix_rank, rank_many
from repro.reliability import recoverable_mask_table

#: sha256 of ``pentagon-local(3g,2p)``'s 2**16-entry bool verdict table,
#: computed by the per-pattern ``row_echelon`` engine of commit 9f25d27.
PENTAGON_LOCAL_3G_SHA256 = (
    "fa71ad4dd0337efd7030e2ae8f6e4554b237acc04f5c2905b6eafb1cc1a46417")


def reference_rank(matrix) -> int:
    """Textbook Gaussian elimination of one matrix over GF(256)."""
    rows = [[int(value) for value in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        source = next((r for r in range(rank, len(rows)) if rows[r][col]),
                      None)
        if source is None:
            continue
        rows[rank], rows[source] = rows[source], rows[rank]
        inverse = gf_inv(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            factor = gf_mul(rows[r][col], inverse)
            if factor:
                rows[r] = [a ^ gf_mul(factor, b)
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_verdict(code, mask: int) -> bool:
    """``rank(generator[surviving]) == k`` for one failed-slot bitmask."""
    surviving = [
        symbol.index for symbol in code.layout.symbols
        if any(not (mask >> slot) & 1 for slot in symbol.replicas)
    ]
    if len(surviving) < code.k:
        return False
    return reference_rank(
        code.layout.generator_matrix()[surviving]) == code.k


@st.composite
def matrix_stacks(draw):
    """(B, R, C) stacks rich in rank deficiency: rows are drawn, then
    some are overwritten with zeros, duplicates and scaled copies."""
    batch = draw(st.integers(0, 4))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # few distinct values, so dependencies also arise by chance
    stack = rng.choice(np.array([0, 0, 1, 2, 3, 0x8E], dtype=np.uint8),
                       size=(batch, rows, cols))
    for matrix in stack:
        for row in range(rows):
            action = rng.integers(0, 4)
            other = int(rng.integers(0, rows))
            if action == 0:
                matrix[row] = 0
            elif action == 1:
                matrix[row] = matrix[other]
            elif action == 2:
                scale = int(rng.integers(1, 256))
                matrix[row] = [gf_mul(scale, int(v)) for v in matrix[other]]
    return stack


class TestRankMany:
    @given(matrix_stacks())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_per_matrix(self, stack):
        before = stack.copy()
        ranks = rank_many(stack)
        assert ranks.shape == (len(stack),)
        assert ranks.tolist() == [reference_rank(m) for m in stack]
        assert np.array_equal(stack, before)          # input untouched
        if len(stack):
            assert matrix_rank(stack[0]) == ranks[0]

    @pytest.mark.parametrize("shape", [(0, 3, 4), (1, 3, 4), (5, 0, 4),
                                       (5, 4, 0), (0, 0, 0)])
    def test_degenerate_shapes(self, shape):
        ranks = rank_many(np.zeros(shape, dtype=np.uint8))
        assert ranks.shape == (shape[0],)
        assert not ranks.any()

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError, match="stack"):
            rank_many(np.zeros((3, 3), dtype=np.uint8))

    def test_tall_wide_and_full_rank(self):
        rng = np.random.default_rng(5)
        for rows, cols in ((9, 3), (3, 9), (6, 6)):
            stack = rng.integers(0, 256, size=(16, rows, cols),
                                 dtype=np.uint8)
            assert rank_many(stack).tolist() == [
                reference_rank(m) for m in stack]


class ShuffledCode(Code):
    """Parities first and data symbols out of column order: nothing in
    the engine may assume the registry's data-first symbol order."""

    name = "shuffled"

    def build_layout(self) -> StripeLayout:
        return StripeLayout(self.name, k=3, length=5, symbols=(
            Symbol(0, SymbolKind.GLOBAL_PARITY, (0,), (1, 2, 4), "G"),
            Symbol(1, SymbolKind.DATA, (1, 2), (0, 0, 1), "d2"),
            Symbol(2, SymbolKind.LOCAL_PARITY, (3,), (1, 1, 1), "P"),
            Symbol(3, SymbolKind.DATA, (2, 4), (1, 0, 0), "d0"),
            Symbol(4, SymbolKind.DATA, (1, 4), (0, 1, 0), "d1"),
        ))


SHORT_CODES = [name for name in available_codes()
               if make_code(name).length <= 15]


class TestVerdictOracle:
    @pytest.mark.parametrize("name", SHORT_CODES)
    def test_every_mask_matches_reference_rank(self, name):
        """All 2**L masks: the engine == rank(generator[surviving]) == k."""
        code = make_code(name)
        table = code.mask_range_verdicts(0, 1 << code.length)
        reference = make_code(name)
        expected = [reference_verdict(reference, mask)
                    for mask in range(1 << code.length)]
        assert table.tolist() == expected

    def test_symbol_order_is_not_assumed(self):
        code = ShuffledCode()
        table = code.mask_range_verdicts(0, 1 << code.length)
        assert table.tolist() == [reference_verdict(code, mask)
                                  for mask in range(1 << code.length)]
        assert 0 < table.sum() < len(table)

    def test_rs_14_10_recoverable_iff_at_most_four_failures(self):
        code = make_code("rs(14,10)")
        table = code.mask_range_verdicts(0, 1 << 14)
        popcount = np.array([mask.bit_count() for mask in range(1 << 14)])
        assert np.array_equal(table, popcount <= 4)
        assert int(table.sum()) == 1471

    def test_pentagon_local_3g_table_is_pinned(self):
        code = make_code("pentagon-local(3g,2p)")
        table = code.mask_range_verdicts(0, 1 << 16)
        assert table.dtype == bool
        assert int(table.sum()) == 15872
        assert hashlib.sha256(table.tobytes()).hexdigest() \
            == PENTAGON_LOCAL_3G_SHA256

    @pytest.mark.parametrize("name", ["pentagon-local(3g,2p)", "rs(14,10)",
                                      "heptagon-local", "(10,9) RAID+m"])
    def test_every_query_style_agrees_on_a_mask_sample(self, name):
        """One path: the single, bulk, range and sharded queries agree."""
        code = make_code(name)
        rng = np.random.default_rng(20140617)
        masks = rng.choice(1 << code.length, size=300, replace=False)
        table = recoverable_mask_table(make_code(name), workers=2,
                                       shard_masks=1 << 12, serial_below=0)
        bulk = make_code(name).can_recover_masks(masks)
        single = make_code(name)
        for mask, verdict in zip(masks.tolist(), bulk.tolist()):
            slots = [s for s in range(code.length) if (mask >> s) & 1]
            assert single.can_recover(slots) == verdict
            assert code.mask_range_verdicts(mask, mask + 1)[0] == verdict
            assert table[mask] == verdict
