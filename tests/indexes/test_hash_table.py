"""Hash tables: chained (textbook) and vectorised open addressing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.indexes import (
    ChainedHashTable,
    OpenAddressingHashTable,
    identity_hash,
    murmur3_finalizer,
)


class TestMurmur3:
    def test_scalar_and_vector_agree(self):
        keys = np.array([0, 1, 2, 10**12], dtype=np.int64)
        vectorised = murmur3_finalizer(keys)
        for key, hashed in zip(keys.tolist(), vectorised.tolist()):
            assert murmur3_finalizer(key) == hashed

    def test_bijective_on_sample(self):
        keys = np.arange(10_000, dtype=np.int64)
        hashed = murmur3_finalizer(keys)
        assert np.unique(hashed).size == keys.size

    def test_spreads_dense_keys(self):
        # Consecutive keys land in very different buckets.
        hashed = np.asarray(murmur3_finalizer(np.arange(100, dtype=np.int64)))
        low_bits = hashed & np.uint64(1023)
        assert np.unique(low_bits).size > 90

    def test_identity_hash(self):
        assert identity_hash(42) == 42
        assert np.array_equal(
            np.asarray(identity_hash(np.array([1, 2]))), np.array([1, 2])
        )


class TestChainedHashTable:
    def test_insert_probe(self):
        table = ChainedHashTable()
        table.insert(1, "a")
        table.insert(2, "b")
        assert table.probe(1) == "a"
        assert table.get(3) is None
        assert 2 in table
        assert len(table) == 2

    def test_overwrite(self):
        table = ChainedHashTable()
        table.insert(1, "a")
        table.insert(1, "b")
        assert table.probe(1) == "b"
        assert len(table) == 1

    def test_probe_missing_raises(self):
        with pytest.raises(KeyError):
            ChainedHashTable().probe(5)

    def test_growth(self):
        table = ChainedHashTable(initial_buckets=2)
        for key in range(100):
            table.insert(key, key * 2)
        assert len(table) == 100
        assert table.load_factor <= 1.0
        assert all(table.probe(k) == k * 2 for k in range(100))

    def test_key_set_is_hash_order_not_insertion_order(self):
        # §2.1: the iteration order is a hash-table artefact. We only
        # check it contains exactly the keys.
        table = ChainedHashTable()
        for key in [5, 3, 9, 1]:
            table.insert(key, key)
        assert sorted(table.key_set()) == [1, 3, 5, 9]

    def test_unknown_hash_function(self):
        with pytest.raises(IndexError_):
            ChainedHashTable(hash_name="nope")


class TestOpenAddressing:
    def test_build_and_probe(self, rng):
        keys = rng.integers(0, 100, 1_000)
        table = OpenAddressingHashTable(capacity_hint=100)
        slots = table.build(keys)
        assert table.num_keys == np.unique(keys).size
        assert np.array_equal(table.slot_keys()[slots], keys)
        assert np.array_equal(table.probe(keys), slots)

    def test_probe_missing_returns_minus_one(self):
        table = OpenAddressingHashTable(capacity_hint=4)
        table.build(np.array([1, 2, 3]))
        assert list(table.probe(np.array([1, 99]))) == [0, -1]

    def test_key_equal_to_the_empty_sentinel(self):
        """-1 marks an empty bucket's slot, never a key: key -1 is one
        ordinary group and probes find it."""
        table = OpenAddressingHashTable(capacity_hint=4)
        slots = table.build(np.array([-1, 5, -1]))
        assert table.num_keys == 2
        assert slots[0] == slots[2] >= 0
        assert list(table.probe(np.array([-1, 5, 7]))) == [slots[0], slots[1], -1]

    def test_overflow_detected(self):
        table = OpenAddressingHashTable(capacity_hint=4)
        with pytest.raises(IndexError_, match="overflow"):
            table.build(np.arange(100))

    def test_incremental_builds(self):
        table = OpenAddressingHashTable(capacity_hint=10)
        first = table.build(np.array([1, 2]))
        second = table.build(np.array([2, 3]))
        assert list(first) == [0, 1]
        assert list(second) == [1, 2]
        assert table.num_keys == 3

    def test_identity_hash_on_clustered_keys(self):
        # Identity hashing must still be correct (just slower via probing).
        table = OpenAddressingHashTable(capacity_hint=64, hash_name="identity")
        keys = np.arange(50)
        slots = table.build(keys)
        assert np.array_equal(table.slot_keys()[slots], keys)

    def test_num_buckets_power_of_two(self):
        table = OpenAddressingHashTable(capacity_hint=100, max_load=0.5)
        assert table.num_buckets & (table.num_buckets - 1) == 0
        assert table.num_buckets >= 200

    def test_invalid_parameters(self):
        with pytest.raises(IndexError_):
            OpenAddressingHashTable(capacity_hint=0)
        with pytest.raises(IndexError_):
            OpenAddressingHashTable(capacity_hint=1, max_load=1.5)
        with pytest.raises(IndexError_):
            OpenAddressingHashTable(capacity_hint=1, hash_name="nope")


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(2**31), max_value=2**31), min_size=1, max_size=300
    )
)
def test_open_addressing_matches_dict(keys):
    """Property: slot assignment groups keys exactly like a Python dict."""
    array = np.array(keys, dtype=np.int64)
    table = OpenAddressingHashTable(capacity_hint=len(set(keys)))
    slots = table.build(array)
    # Same key -> same slot; different keys -> different slots.
    seen: dict[int, int] = {}
    for key, slot in zip(keys, slots.tolist()):
        if key in seen:
            assert seen[key] == slot
        else:
            assert slot not in seen.values()
            seen[key] = slot
    assert table.num_keys == len(seen)
