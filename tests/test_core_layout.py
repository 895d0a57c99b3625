"""Tests for the stripe layout model."""

import numpy as np
import pytest

from repro.core import StripeLayout, Symbol, SymbolKind


def simple_layout():
    """2 data symbols mirrored across 3 slots + an XOR parity on slot 2."""
    return StripeLayout(
        "toy", k=2, length=3,
        symbols=(
            Symbol(0, SymbolKind.DATA, (0, 1), (1, 0), "d0"),
            Symbol(1, SymbolKind.DATA, (1, 2), (0, 1), "d1"),
            Symbol(2, SymbolKind.LOCAL_PARITY, (0, 2), (1, 1), "P"),
        ),
    )


class TestValidation:
    def test_valid_layout_builds(self):
        layout = simple_layout()
        assert layout.symbol_count == 3

    def test_wrong_data_count_rejected(self):
        with pytest.raises(ValueError, match="data symbols"):
            StripeLayout("bad", k=2, length=2, symbols=(
                Symbol(0, SymbolKind.DATA, (0,), (1, 0), "d0"),
            ))

    def test_symbol_index_mismatch_rejected(self):
        with pytest.raises(ValueError, match="indices"):
            StripeLayout("bad", k=1, length=1, symbols=(
                Symbol(5, SymbolKind.DATA, (0,), (1,), "d0"),
            ))

    def test_slot_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            StripeLayout("bad", k=1, length=1, symbols=(
                Symbol(0, SymbolKind.DATA, (3,), (1,), "d0"),
            ))

    def test_malformed_coefficients_rejected(self):
        with pytest.raises(ValueError, match="coefficient"):
            StripeLayout("bad", k=2, length=1, symbols=(
                Symbol(0, SymbolKind.DATA, (0,), (1,), "d0"),
                Symbol(1, SymbolKind.DATA, (0,), (0, 1), "d1"),
            ))

    @pytest.mark.parametrize("row", [(2, 0), (1, 1), (0, 0)])
    def test_non_unit_data_row_rejected(self, row):
        """The decodability engine counts data symbols; it never ranks them."""
        with pytest.raises(ValueError, match=r"toy: data symbol 1 .*unit"):
            StripeLayout("toy", k=2, length=1, symbols=(
                Symbol(0, SymbolKind.DATA, (0,), (0, 1), "d0"),
                Symbol(1, SymbolKind.DATA, (0,), row, "d1"),
            ))

    def test_data_columns_must_cover_range_k(self):
        with pytest.raises(ValueError,
                           match=r"toy: data symbols 0 and 1 .*column 1"):
            StripeLayout("toy", k=2, length=1, symbols=(
                Symbol(0, SymbolKind.DATA, (0,), (0, 1), "d0"),
                Symbol(1, SymbolKind.DATA, (0,), (0, 1), "d1"),
            ))

    def test_data_symbols_listed_in_column_order(self):
        layout = StripeLayout("toy", k=2, length=1, symbols=(
            Symbol(0, SymbolKind.LOCAL_PARITY, (0,), (1, 1), "P"),
            Symbol(1, SymbolKind.DATA, (0,), (0, 1), "d1"),
            Symbol(2, SymbolKind.DATA, (0,), (1, 0), "d0"),
        ))
        assert layout.data_symbol_indices().tolist() == [2, 1]
        assert layout.data_column(1) == 1

    def test_duplicate_replica_rejected(self):
        with pytest.raises(ValueError, match="replicated twice"):
            Symbol(0, SymbolKind.DATA, (1, 1), (1,), "d0")

    def test_empty_replicas_rejected(self):
        with pytest.raises(ValueError, match="no replicas"):
            Symbol(0, SymbolKind.DATA, (), (1,), "d0")

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            StripeLayout("bad", k=0, length=1, symbols=())


class TestDerivedStructure:
    def test_total_blocks_counts_replicas(self):
        assert simple_layout().total_blocks == 6

    def test_storage_overhead(self):
        assert simple_layout().storage_overhead == pytest.approx(3.0)

    def test_slot_map(self):
        layout = simple_layout()
        assert layout.symbols_on_slot(0) == (0, 2)
        assert layout.symbols_on_slot(1) == (0, 1)
        assert layout.symbols_on_slot(2) == (1, 2)

    def test_blocks_per_slot(self):
        assert simple_layout().blocks_per_slot() == (2, 2, 2)

    def test_kind_partitions(self):
        layout = simple_layout()
        assert [s.index for s in layout.data_symbols()] == [0, 1]
        assert [s.index for s in layout.parity_symbols()] == [2]

    def test_generator_matrix(self):
        matrix = simple_layout().generator_matrix()
        assert matrix.dtype == np.uint8
        assert matrix.tolist() == [[1, 0], [0, 1], [1, 1]]


class TestFailureReasoning:
    def test_no_failures_nothing_lost(self):
        layout = simple_layout()
        assert layout.lost_symbols(set()) == ()
        assert layout.surviving_symbols(set()) == (0, 1, 2)

    def test_single_failure_loses_nothing(self):
        layout = simple_layout()
        assert layout.lost_symbols({0}) == ()
        assert set(layout.surviving_symbols({0})) == {0, 1, 2}

    def test_double_failure_loses_shared_symbol(self):
        layout = simple_layout()
        assert layout.lost_symbols({0, 1}) == (0,)
        assert layout.lost_symbols({0, 2}) == (2,)
        assert layout.lost_symbols({1, 2}) == (1,)

    def test_replicas_alive(self):
        layout = simple_layout()
        assert layout.replicas_alive(0, {0}) == (1,)
        assert layout.replicas_alive(0, {0, 1}) == ()
        assert layout.replicas_alive(2, set()) == (0, 2)
