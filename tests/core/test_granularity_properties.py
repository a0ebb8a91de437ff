"""Granularity hierarchy (Table 1) and DQO plan properties (§2.2)."""

import numpy as np
import pytest

from repro.core import (
    Correlations,
    Granularity,
    PropertyVector,
    correlations_from_table,
    detect_monotone_correlation,
    properties_from_table,
    render_table1,
)
from repro.core.granularity import TABLE1, dqo_reach, info_for, sqo_reach
from repro.storage import Table


class TestGranularity:
    def test_ordering_is_physicality(self):
        assert Granularity.CELL < Granularity.ORGANELLE < Granularity.ATOM

    def test_table1_has_five_rows(self):
        assert len(TABLE1) == 5
        assert [row.level for row in TABLE1] == list(Granularity)

    def test_reach(self):
        # Table 1: SQO's optimiser stops at operators; DQO descends to
        # molecules; atoms stay with the compiler for both.
        assert sqo_reach() is Granularity.ORGANELLE
        assert dqo_reach() is Granularity.MOLECULE

    def test_sqo_dqo_split_matches_paper(self):
        for row in TABLE1:
            if row.level <= Granularity.ORGANELLE:
                assert row.optimised_by_sqo == "query optimiser"
            elif row.level is Granularity.ATOM:
                assert row.optimised_by_dqo == "compiler"
            else:
                assert row.optimised_by_sqo == "developer"
                assert row.optimised_by_dqo == "query optimiser"

    def test_render(self):
        text = render_table1()
        assert "MACROMOLECULE" in text and "developer" in text

    def test_info_for(self):
        assert info_for(Granularity.MOLECULE).typical_loc == 10


class TestPropertyVector:
    def test_sorted_implies_clustered(self):
        vector = PropertyVector(sorted_on=frozenset({"a"}))
        assert vector.is_clustered_on("a")

    def test_covers_is_pointwise(self):
        strong = PropertyVector(
            sorted_on=frozenset({"a"}), dense=frozenset({"a", "b"})
        )
        weak = PropertyVector(dense=frozenset({"a"}))
        assert strong.covers(weak)
        assert not weak.covers(strong)
        assert strong.covers(strong)

    def test_incomparable_vectors(self):
        a = PropertyVector(sorted_on=frozenset({"x"}))
        b = PropertyVector(dense=frozenset({"y"}))
        assert not a.covers(b) and not b.covers(a)

    def test_restrict_to_orders_drops_density(self):
        vector = PropertyVector(
            sorted_on=frozenset({"a"}), dense=frozenset({"a"})
        )
        projected = vector.restrict_to_orders()
        assert projected.is_sorted_on("a")
        assert not projected.is_dense("a")

    def test_restrict_to_columns(self):
        vector = PropertyVector(
            sorted_on=frozenset({"a", "b"}), dense=frozenset({"b"})
        )
        kept = vector.restrict_to_columns(["b"])
        assert kept.sorted_on == frozenset({"b"})
        assert kept.dense == frozenset({"b"})

    def test_without_order_keeps_density(self):
        vector = PropertyVector(
            sorted_on=frozenset({"a"}), dense=frozenset({"a"})
        )
        shuffled = vector.without_order()
        assert not shuffled.is_sorted_on("a")
        assert shuffled.is_dense("a")

    def test_describe(self):
        assert PropertyVector().describe() == "{}"
        vector = PropertyVector(
            sorted_on=frozenset({"k"}), dense=frozenset({"k"})
        )
        assert "sorted(k)" in vector.describe()
        assert "dense(k)" in vector.describe()


class TestCorrelations:
    def test_transitive_closure(self):
        correlations = Correlations(frozenset({("a", "b"), ("b", "c")}))
        assert correlations.implied_by("a") == frozenset({"b", "c"})

    def test_close_sorted(self):
        correlations = Correlations(frozenset({("id", "a")}))
        vector = PropertyVector(sorted_on=frozenset({"id"}))
        closed = correlations.close_sorted(vector)
        assert closed.is_sorted_on("a")

    def test_detect_monotone(self):
        table = Table.from_arrays(
            {"x": np.array([3, 1, 2]), "y": np.array([30, 10, 20])}
        )
        assert detect_monotone_correlation(table, "x", "y")
        assert detect_monotone_correlation(table, "y", "x")
        anti = Table.from_arrays(
            {"x": np.array([1, 2]), "y": np.array([5, 1])}
        )
        assert not detect_monotone_correlation(anti, "x", "y")

    def test_correlations_from_table_qualified(self):
        table = Table.from_arrays(
            {"id": np.arange(10), "a": np.arange(10) // 2}
        )
        correlations = correlations_from_table(table, "R")
        assert ("R.id", "R.a") in correlations.pairs
        # a -> id is NOT monotone (ties in a leave id order ambiguous but
        # stable argsort keeps it; duplicates make it still monotone here).

    def test_correlation_cache_entry_dies_with_its_table(self):
        import gc

        from repro.core.properties import _CORRELATION_CACHE

        table = Table.from_arrays({"id": np.arange(10), "a": np.arange(10)})
        correlations_from_table(table, "R")
        assert table in _CORRELATION_CACHE
        before = len(_CORRELATION_CACHE)
        del table
        gc.collect()
        assert len(_CORRELATION_CACHE) == before - 1
        # A new table, even at a reused address, is detected afresh.
        other = Table.from_arrays({"id": np.arange(10), "a": -np.arange(10)})
        assert correlations_from_table(other, "R").pairs == frozenset()

    def test_properties_from_table(self):
        table = Table.from_arrays(
            {
                "sorted_dense": np.arange(5),
                "shuffled": np.array([4, 0, 3, 1, 2]),
            }
        )
        vector = properties_from_table(table, "T")
        assert vector.is_sorted_on("T.sorted_dense")
        assert vector.is_dense("T.sorted_dense")
        assert not vector.is_sorted_on("T.shuffled")
        assert vector.is_dense("T.shuffled")  # values 0..4, dense
