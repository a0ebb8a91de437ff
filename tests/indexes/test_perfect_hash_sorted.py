"""Static perfect hashing and the sorted-key index."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IndexError_, PreconditionError
from repro.indexes import SortedKeyIndex, StaticPerfectHash


class TestStaticPerfectHash:
    def test_minimal_on_dense_domain(self):
        sph = StaticPerfectHash(10, 19, num_distinct=10)
        assert sph.num_slots == 10
        assert sph.is_minimal
        assert sph.slot(10) == 0
        assert sph.slot(19) == 9
        assert sph.key_of_slot(9) == 19

    def test_vectorised_slots(self):
        sph = StaticPerfectHash(0, 4, num_distinct=5)
        keys = np.array([4, 0, 2])
        assert list(sph.slot(keys)) == [4, 0, 2]
        assert list(sph.key_of_slot(np.array([1, 3]))) == [1, 3]

    def test_sparse_domain_rejected(self):
        # density 10/1001 — the paper's applicability precondition.
        with pytest.raises(PreconditionError, match="dense"):
            StaticPerfectHash(0, 1000, num_distinct=10)

    def test_density_threshold_configurable(self):
        StaticPerfectHash(0, 1000, num_distinct=10, min_density=0.001)

    def test_relatively_dense_accepted(self):
        # "(relatively) dense": half-full passes the default 0.5 guard.
        StaticPerfectHash(0, 19, num_distinct=10)

    def test_for_keys(self):
        sph = StaticPerfectHash.for_keys(np.array([5, 6, 7, 7]))
        assert sph.min_key == 5
        assert sph.is_minimal

    def test_for_keys_empty(self):
        with pytest.raises(PreconditionError):
            StaticPerfectHash.for_keys(np.empty(0, dtype=np.int64))

    def test_slot_checked_bounds(self):
        sph = StaticPerfectHash(0, 9, num_distinct=10)
        with pytest.raises(PreconditionError):
            sph.slot_checked(np.array([10]))

    def test_empty_domain_rejected(self):
        with pytest.raises(PreconditionError):
            StaticPerfectHash(5, 4)

    def test_distinct_exceeding_domain_rejected(self):
        with pytest.raises(PreconditionError):
            StaticPerfectHash(0, 4, num_distinct=6)

    def test_occupancy_counts_each_slot(self):
        sph, slots, counts = StaticPerfectHash.occupancy(np.array([7, 5, 7, 8]))
        assert (sph.min_key, sph.num_slots, sph.num_distinct) == (5, 4, 3)
        assert list(slots) == [2, 0, 2, 3]
        assert list(counts) == [1, 0, 2, 1]

    @pytest.mark.parametrize(
        "keys",
        [
            [0, 2**50],
            [np.iinfo(np.int64).min, np.iinfo(np.int64).max],
            [np.iinfo(np.int64).min, 0],
        ],
    )
    def test_wide_domains_rejected_before_allocation(self, keys):
        """Typed failure, never MemoryError or OverflowError."""
        with pytest.raises(PreconditionError, match="dense"):
            StaticPerfectHash.for_keys(np.array(keys, dtype=np.int64))


class TestSortedKeyIndex:
    def test_lookup_hits_and_misses(self):
        index = SortedKeyIndex(np.array([10, 20, 30]))
        assert list(index.lookup(np.array([20, 25, 10, 31]))) == [1, -1, 0, -1]

    def test_lookup_existing_raises_on_miss(self):
        index = SortedKeyIndex(np.array([1, 2]))
        with pytest.raises(IndexError_, match="not in index"):
            index.lookup_existing(np.array([3]))

    def test_from_values_dedups(self):
        index = SortedKeyIndex.from_values(np.array([3, 1, 3, 2, 1]))
        assert list(index.keys()) == [1, 2, 3]
        assert index.num_keys == 3

    def test_requires_strictly_increasing(self):
        with pytest.raises(PreconditionError):
            SortedKeyIndex(np.array([1, 1, 2]))
        with pytest.raises(PreconditionError):
            SortedKeyIndex(np.array([2, 1]))

    def test_range_slots(self):
        index = SortedKeyIndex(np.array([10, 20, 30, 40]))
        assert index.range_slots(15, 35) == (1, 3)
        assert index.range_slots(10, 40) == (0, 4)
        assert index.range_slots(41, 99) == (4, 4)

    @given(st.sets(st.integers(-10**6, 10**6), min_size=1, max_size=200))
    def test_every_key_found_at_its_rank(self, key_set):
        keys = np.array(sorted(key_set), dtype=np.int64)
        index = SortedKeyIndex(keys)
        slots = index.lookup(keys)
        assert np.array_equal(slots, np.arange(keys.size))
