"""The five Table 2 join kernels: correctness, order guarantees, agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels.joins import (
    JoinAlgorithm,
    JoinOutputOrder,
    binary_search_join,
    hash_join,
    join,
    merge_join,
    perfect_hash_join,
    sort_merge_join,
)
from repro.errors import PreconditionError


def naive_pairs(build, probe):
    return sorted(
        (i, j)
        for i in range(len(build))
        for j in range(len(probe))
        if build[i] == probe[j]
    )


class TestHashJoin:
    def test_duplicates_both_sides(self):
        build = np.array([1, 2, 1])
        probe = np.array([1, 3, 1])
        result = hash_join(build, probe)
        assert result.canonical_pairs() == naive_pairs(build, probe)
        assert result.num_rows == 4

    def test_preserves_probe_order(self, rng):
        build = rng.integers(0, 20, 50)
        probe = rng.integers(0, 20, 80)
        result = hash_join(build, probe)
        assert result.output_order is JoinOutputOrder.PROBE_ORDER
        assert np.all(np.diff(result.right_indices) >= 0)

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert hash_join(empty, np.array([1])).num_rows == 0
        assert hash_join(np.array([1]), empty).num_rows == 0


class TestPerfectHashJoin:
    def test_dense_build(self):
        build = np.array([10, 11, 12])
        probe = np.array([12, 9, 10, 13])
        result = perfect_hash_join(build, probe)
        assert result.canonical_pairs() == naive_pairs(build, probe)
        assert result.output_order is JoinOutputOrder.PROBE_ORDER

    def test_sparse_build_rejected(self):
        with pytest.raises(PreconditionError, match="dense"):
            perfect_hash_join(np.array([0, 10_000]), np.array([0]))

    def test_out_of_domain_probes_miss(self):
        result = perfect_hash_join(np.array([5, 6]), np.array([4, 7, 5]))
        assert result.canonical_pairs() == [(0, 2)]


class TestMergeJoin:
    def test_sorted_inputs(self):
        build = np.array([1, 2, 2, 5])
        probe = np.array([2, 2, 5, 6])
        result = merge_join(build, probe)
        assert result.canonical_pairs() == naive_pairs(build, probe)
        assert result.output_order is JoinOutputOrder.KEY_SORTED

    def test_output_key_sorted(self):
        build = np.array([1, 3, 5])
        probe = np.array([1, 3, 5])
        result = merge_join(build, probe)
        keys = build[result.left_indices]
        assert np.all(np.diff(keys) >= 0)

    def test_validation(self):
        with pytest.raises(PreconditionError, match="unsorted"):
            merge_join(np.array([2, 1]), np.array([1]), validate=True)
        # Without validation the caller is on their own; no raise.
        merge_join(np.array([2, 1]), np.array([1]))


class TestSortMergeAndBinarySearch:
    def test_sort_merge_unsorted_inputs(self, rng):
        build = rng.integers(0, 15, 40)
        probe = rng.integers(0, 15, 60)
        result = sort_merge_join(build, probe)
        assert result.canonical_pairs() == naive_pairs(build, probe)

    def test_binary_search_preserves_probe_order(self, rng):
        build = rng.integers(0, 15, 40)
        probe = rng.integers(0, 15, 60)
        result = binary_search_join(build, probe)
        assert result.canonical_pairs() == naive_pairs(build, probe)
        assert np.all(np.diff(result.right_indices) >= 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 12), max_size=60),
    st.lists(st.integers(0, 12), max_size=60),
)
def test_all_join_kernels_agree(build_values, probe_values):
    """Property (Table 2 / footnote 1): every applicable join kernel
    produces exactly the same match multiset."""
    build = np.array(build_values, dtype=np.int64)
    probe = np.array(probe_values, dtype=np.int64)
    expected = naive_pairs(build_values, probe_values)
    for algorithm in JoinAlgorithm:
        if algorithm is JoinAlgorithm.OJ:
            # OJ requires sorted inputs; sorting permutes row identities,
            # so compare against the naive pairs of the sorted inputs.
            sorted_build = np.sort(build)
            sorted_probe = np.sort(probe)
            result = join(sorted_build, sorted_probe, algorithm)
            assert result.canonical_pairs() == naive_pairs(
                sorted_build.tolist(), sorted_probe.tolist()
            )
            continue
        try:
            result = join(build, probe, algorithm)
        except PreconditionError:
            assert algorithm is JoinAlgorithm.SPHJ
            continue
        assert result.canonical_pairs() == expected, algorithm


# ---------------------------------------------------------------------------
# Differential test: one build/probe structure behind every backend.

_INT64 = np.iinfo(np.int64)

#: (build keys, probe keys) per case; SPHJ rejects the sparse ones.
DIFFERENTIAL_CASES = {
    "unique-dense": (
        np.random.default_rng(1).permutation(60),
        np.random.default_rng(2).integers(-5, 66, 150),
    ),
    "unique-negative": (
        np.random.default_rng(3).permutation(40) - 20,
        np.random.default_rng(4).integers(-25, 25, 120),
    ),
    "duplicate-build": (
        np.random.default_rng(5).integers(-8, 8, 70),
        np.random.default_rng(6).integers(-10, 10, 90),
    ),
    "duplicate-both-sparse": (
        np.array([1_000, 5, 1_000, -7, 5, 1_000]),
        np.array([5, 1_000, 3, -7, -7, 1_000, 5]),
    ),
    "int64-extremes": (
        np.array([_INT64.min, 0, _INT64.max, 0]),
        np.array([_INT64.max, 1, _INT64.min, 0, _INT64.min]),
    ),
    "extreme-probes-dense-build": (
        np.arange(-2, 3),
        np.array([_INT64.min, 2, _INT64.max, -2, -3, 3, 0]),
    ),
    "empty-build": (np.empty(0, dtype=np.int64), np.arange(5)),
    "empty-probe": (np.arange(5), np.empty(0, dtype=np.int64)),
    "empty-both": (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
}


def naive_probe_major(build, probe):
    """Reference: for each probe row in order, its matching build rows
    ascending."""
    pairs = [
        (i, j)
        for j, key in enumerate(probe.tolist())
        for i, candidate in enumerate(build.tolist())
        if candidate == key
    ]
    left = np.array([i for i, _ in pairs], dtype=np.int64)
    right = np.array([j for _, j in pairs], dtype=np.int64)
    return left, right


@pytest.fixture(scope="module")
def fork_process_pool():
    """Cheap fork workers for the process path; nothing leaks after."""
    import os

    from repro.engine.procpool import leaked_segments, shutdown_process_pool

    previous = os.environ.get("REPRO_PROC_START")
    os.environ["REPRO_PROC_START"] = "fork"
    shutdown_process_pool()
    yield
    shutdown_process_pool()
    if previous is None:
        os.environ.pop("REPRO_PROC_START", None)
    else:
        os.environ["REPRO_PROC_START"] = previous
    assert leaked_segments() == []


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
@pytest.mark.parametrize(
    "algorithm", [JoinAlgorithm.HJ, JoinAlgorithm.SPHJ, JoinAlgorithm.BSJ]
)
def test_every_backend_is_bit_identical_to_the_reference(
    fork_process_pool, case, algorithm
):
    from repro.engine.kernels.parallel import parallel_join
    from repro.engine.procpool import process_join

    build, probe = (np.asarray(keys, dtype=np.int64) for keys in DIFFERENTIAL_CASES[case])
    runs = {
        "serial": lambda: join(build, probe, algorithm),
        "thread": lambda: parallel_join(build, probe, algorithm, shards=3, workers=2),
        "process": lambda: process_join(build, probe, algorithm, shards=3, workers=2),
    }
    dense = build.size == 0 or probe.size == 0 or (
        2 * np.unique(build).size >= int(build.max()) - int(build.min()) + 1
    )
    if algorithm is JoinAlgorithm.SPHJ and not dense:
        for name, run in runs.items():
            with pytest.raises(PreconditionError, match="dense"):
                run()
        return
    left, right = naive_probe_major(build, probe)
    for name, run in runs.items():
        result = run()
        assert result.output_order is JoinOutputOrder.PROBE_ORDER, name
        assert result.left_indices.dtype == np.int64, name
        assert np.array_equal(result.left_indices, left), name
        assert np.array_equal(result.right_indices, right), name


def test_unique_build_probes_by_gather_without_grouping():
    """A unique build side is a key -> row array; duplicates keep the
    grouped rows that expansion needs."""
    from repro.engine.kernels.joins import JoinBuild

    for algorithm in (JoinAlgorithm.HJ, JoinAlgorithm.SPHJ, JoinAlgorithm.BSJ):
        unique = JoinBuild.build(algorithm, np.array([4, 2, 3, 5]))
        assert "row_of_slot" in unique.state and "grouped" not in unique.state
        duplicate = JoinBuild.build(algorithm, np.array([4, 2, 4, 3]))
        assert "grouped" in duplicate.state and "row_of_slot" not in duplicate.state
