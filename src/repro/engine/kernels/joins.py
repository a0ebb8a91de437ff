"""The five join implementations corresponding to Table 2.

Footnote 1 of the paper: *"a join is merely a co-group-operation with
exactly two inputs"* — so every §4.1 grouping algorithm has a join
counterpart, and Table 2 costs all five:

=====  ====================================================  ==============
name   build / probe strategy                                output order
=====  ====================================================  ==============
HJ     hash table on the build side, stream the probe side   probe side's
SPHJ   dense-domain direct array on the build side           probe side's
OJ     merge of two key-sorted inputs                        key-ascending
SOJ    sort both inputs, then OJ                              key-ascending
BSJ    sorted build array, binary-search every probe          probe side's
=====  ====================================================  ==============

All kernels are equi-joins returning matching row-index pairs. The "output
order" column is the crucial DQO plan property behind Figure 5: HJ/SPHJ/BSJ
stream the probe input and hence *preserve its row order* (DESIGN.md
substitution #5a), while OJ/SOJ emit key order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import PreconditionError
from repro.indexes.hash_table import OpenAddressingHashTable
from repro.indexes.perfect_hash import StaticPerfectHash


class JoinAlgorithm(enum.Enum):
    """The five join implementation variants of Table 2."""

    HJ = "hash"
    SPHJ = "static_perfect_hash"
    OJ = "order"  # merge join over pre-sorted inputs
    SOJ = "sort_order"  # sort-merge join
    BSJ = "binary_search"


class JoinOutputOrder(enum.Enum):
    """Row-order guarantee of a join kernel's output."""

    #: matches appear in probe-side (right input) row order.
    PROBE_ORDER = "probe_order"
    #: matches appear in ascending join-key order.
    KEY_SORTED = "key_sorted"


@dataclass(frozen=True)
class JoinResult:
    """Matching row-index pairs of an equi-join."""

    #: indices into the left (build) input, one per output row.
    left_indices: np.ndarray
    #: indices into the right (probe) input, one per output row.
    right_indices: np.ndarray
    output_order: JoinOutputOrder
    #: bytes of the build-side structure the kernel erected (hash table,
    #: SPH array, sort permutations, ...) — Table 2's footprint column.
    structure_bytes: int = 0

    @property
    def num_rows(self) -> int:
        """Number of matches."""
        return int(self.left_indices.size)

    def memory_bytes(self) -> int:
        """Total bytes: the index-pair arrays plus the build structure."""
        return (
            int(self.left_indices.nbytes)
            + int(self.right_indices.nbytes)
            + self.structure_bytes
        )

    def canonical_pairs(self) -> list[tuple[int, int]]:
        """Sorted (left, right) index pairs, for comparing join kernels."""
        return sorted(
            zip(self.left_indices.tolist(), self.right_indices.tolist())
        )


def _expand_runs(
    probe_rows: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Probe-major expansion: probe row ``probe_rows[i]`` matches the
    positions ``starts[i] .. starts[i] + lengths[i]``. Returns the
    ``(positions, probe rows)`` of every match."""
    total = int(lengths.sum())
    probe_out = np.repeat(probe_rows, lengths)
    # Per output row, its rank within its probe's match list:
    ranks = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    return np.repeat(starts, lengths) + ranks, probe_out


class JoinBuild:
    """The build side of a probe-major join (HJ, SPHJ or BSJ), erected once
    and probed by any number of probe shards.

    Each algorithm maps a probe key to a build *slot* (-1 for a miss):
    HJ through its hash table, SPHJ as ``key - min_key``, BSJ by binary
    search over the sorted distinct build keys. A slot then names its
    build rows in one of two forms:

    * **unique build keys**, observed from data the build computes anyway
      (HJ's distinct count, SPH's occupancy, BSJ's sorted runs):
      ``row_of_slot[slot]`` is the slot's one build row, and a trailing
      -1 is what slot -1 and every empty SPH slot read. Probing is a
      gather: no sort at build time, no expansion at probe time.
    * **duplicate build keys**: ``offsets``/``counts``/``grouped`` list
      each slot's build rows ascending, expanded per hit probe row.

    Both forms emit probe-major output with ties build-row-ascending, so
    sharded probes concatenate to exactly the serial result. :attr:`state`
    holds every array and scalar a probe reads; the process backend
    publishes it to shared memory and workers rebuild the structure as
    ``JoinBuild(state)`` around the shared views.
    """

    def __init__(self, state: dict) -> None:
        self.state = state
        self.algorithm = JoinAlgorithm(state["algorithm"])
        self._table = (
            OpenAddressingHashTable.from_state(**state["table"])
            if "table" in state
            else None
        )

    @classmethod
    def build(
        cls,
        algorithm: JoinAlgorithm,
        build_keys: np.ndarray,
        num_distinct_hint: int | None = None,
        hash_name: str = "murmur3",
        min_density: float = 0.5,
    ) -> "JoinBuild":
        """Erect the structure over non-empty ``build_keys``.

        :raises PreconditionError: for OJ/SOJ (no shared build structure)
            or SPHJ over a too-sparse domain.
        """
        build_keys = np.ascontiguousarray(build_keys, dtype=np.int64)
        rows = build_keys.size
        state: dict = {"algorithm": algorithm.value}
        counts = None
        if algorithm is JoinAlgorithm.HJ:
            table = OpenAddressingHashTable(
                num_distinct_hint or rows, hash_name=hash_name
            )
            slots = table.build(build_keys)
            state["table"] = table.state()
            num_slots = distinct = table.num_keys
        elif algorithm is JoinAlgorithm.SPHJ:
            sph, slots, counts = StaticPerfectHash.occupancy(
                build_keys, min_density
            )
            state.update(min_key=sph.min_key, num_slots=sph.num_slots)
            num_slots, distinct = sph.num_slots, sph.num_distinct
        elif algorithm is JoinAlgorithm.BSJ:
            # The sort already groups rows by key: slot s is the s-th
            # distinct key, its rows a run of the stable sort order.
            order = np.argsort(build_keys, kind="stable")
            sorted_keys = build_keys[order]
            starts = np.flatnonzero(
                np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
            )
            state["distinct"] = sorted_keys[starts]
            if starts.size == rows:
                state["row_of_slot"] = np.append(order, -1)
            else:
                state.update(
                    offsets=starts,
                    counts=np.diff(starts, append=rows),
                    grouped=order,
                )
            return cls(state)
        else:
            raise PreconditionError(
                f"{algorithm.value!r} has no build structure to probe"
            )
        if distinct == rows:
            row_of_slot = np.full(num_slots + 1, -1, dtype=np.int64)
            row_of_slot[slots] = np.arange(rows, dtype=np.int64)
            state["row_of_slot"] = row_of_slot
        else:
            if counts is None:
                counts = np.bincount(slots, minlength=num_slots)
            state.update(
                offsets=np.cumsum(counts) - counts,
                counts=counts,
                grouped=np.argsort(slots, kind="stable"),
            )
        return cls(state)

    @property
    def structure_bytes(self) -> int:
        """Bytes of every array in the structure (Table 2's footprint)."""
        arrays = [*self.state.values(), *self.state.get("table", {}).values()]
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))

    def slots(self, keys: np.ndarray) -> np.ndarray:
        """Each probe key's build slot; -1 where no build key matches."""
        if self._table is not None:
            return self._table.probe(keys)
        if self.algorithm is JoinAlgorithm.SPHJ:
            raw = keys - np.int64(self.state["min_key"])
            # One unsigned compare bounds both ends (negatives wrap high).
            in_domain = raw.view(np.uint64) < self.state["num_slots"]
            return np.where(in_domain, raw, -1)
        distinct = self.state["distinct"]
        position = np.searchsorted(distinct, keys)
        found = distinct[np.minimum(position, distinct.size - 1)] == keys
        return np.where(found, position, -1)

    def probe(
        self, keys: np.ndarray, offset: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Match one probe shard starting at probe row ``offset``:
        ``(build rows, probe rows)``, probe-major."""
        slots = self.slots(np.ascontiguousarray(keys, dtype=np.int64))
        state = self.state
        if "row_of_slot" in state:
            rows = state["row_of_slot"][slots]
            right = np.flatnonzero(rows >= 0)
            left = rows[right]
        else:
            right = np.flatnonzero(slots >= 0)
            hit = slots[right]
            positions, right = _expand_runs(
                right, state["offsets"][hit], state["counts"][hit]
            )
            left = state["grouped"][positions]
        return left, right + np.int64(offset)

    def result(self, parts: list[tuple[np.ndarray, np.ndarray]]) -> JoinResult:
        """Concatenate probe-shard outputs, in probe order, into one result."""
        left, right = (
            parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        )
        return JoinResult(
            left.astype(np.int64, copy=False),
            right.astype(np.int64, copy=False),
            JoinOutputOrder.PROBE_ORDER,
            structure_bytes=self.structure_bytes,
        )


def _probe_join(
    algorithm: JoinAlgorithm,
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    **build_options,
) -> JoinResult:
    """Serial HJ/SPHJ/BSJ: one build, one probe of the whole probe side."""
    if len(build_keys) == 0 or len(probe_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return JoinResult(empty, empty.copy(), JoinOutputOrder.PROBE_ORDER)
    build = JoinBuild.build(algorithm, build_keys, **build_options)
    return build.result([build.probe(probe_keys)])


def hash_join(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    num_distinct_hint: int | None = None,
    hash_name: str = "murmur3",
) -> JoinResult:
    """HJ: build a hash table on ``build_keys``, stream ``probe_keys``.

    Handles duplicate keys on both sides (full inner equi-join semantics).
    Output preserves probe order — the property Figure 5's 2.8x case rests
    on (DESIGN.md substitution #5a).
    """
    return _probe_join(
        JoinAlgorithm.HJ,
        build_keys,
        probe_keys,
        num_distinct_hint=num_distinct_hint,
        hash_name=hash_name,
    )


def perfect_hash_join(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    min_density: float = 0.5,
) -> JoinResult:
    """SPHJ: dense-domain direct-array join (Table 2's SPHJ).

    The build side's key domain must be dense; the probe side streams and
    indexes directly into the array, so output preserves probe order.

    :raises PreconditionError: when the build-side domain is too sparse.
    """
    return _probe_join(
        JoinAlgorithm.SPHJ, build_keys, probe_keys, min_density=min_density
    )


def merge_join(
    left_keys: np.ndarray, right_keys: np.ndarray, validate: bool = False
) -> JoinResult:
    """OJ: merge two key-sorted inputs (Table 2's OJ).

    :param validate: verify both inputs are sorted (one extra pass each).
    :raises PreconditionError: when ``validate`` and an input is unsorted.
    """
    left_keys = np.ascontiguousarray(left_keys, dtype=np.int64)
    right_keys = np.ascontiguousarray(right_keys, dtype=np.int64)
    if validate:
        for name, keys in (("left", left_keys), ("right", right_keys)):
            if keys.size > 1 and not bool(np.all(keys[:-1] <= keys[1:])):
                raise PreconditionError(
                    f"merge join requires sorted inputs; {name} is unsorted"
                )
    if left_keys.size == 0 or right_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return JoinResult(empty, empty.copy(), JoinOutputOrder.KEY_SORTED)
    # For each right row, its matching left range [lo, hi).
    lo = np.searchsorted(left_keys, right_keys, side="left")
    hi = np.searchsorted(left_keys, right_keys, side="right")
    left_out, right_out = _expand_runs(
        np.arange(right_keys.size, dtype=np.int64), lo, hi - lo
    )
    # Right keys are sorted, so probe-major expansion IS key order here.
    return JoinResult(
        left_out.astype(np.int64),
        right_out,
        JoinOutputOrder.KEY_SORTED,
        structure_bytes=int(lo.nbytes + hi.nbytes),
    )


def sort_merge_join(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> JoinResult:
    """SOJ: sort both inputs, then merge (Table 2's SOJ)."""
    left_keys = np.ascontiguousarray(left_keys, dtype=np.int64)
    right_keys = np.ascontiguousarray(right_keys, dtype=np.int64)
    left_order = np.argsort(left_keys, kind="stable")
    right_order = np.argsort(right_keys, kind="stable")
    merged = merge_join(left_keys[left_order], right_keys[right_order])
    return JoinResult(
        left_indices=left_order[merged.left_indices],
        right_indices=right_order[merged.right_indices],
        output_order=JoinOutputOrder.KEY_SORTED,
        # SOJ pays for both sort permutations on top of OJ's structure.
        structure_bytes=int(left_order.nbytes + right_order.nbytes)
        + merged.structure_bytes,
    )


def binary_search_join(
    build_keys: np.ndarray, probe_keys: np.ndarray
) -> JoinResult:
    """BSJ: sorted array on the build side, binary-search each probe
    (Table 2's BSJ). Output preserves probe order."""
    return _probe_join(JoinAlgorithm.BSJ, build_keys, probe_keys)


def join(
    build_keys: np.ndarray,
    probe_keys: np.ndarray,
    algorithm: JoinAlgorithm,
    num_distinct_hint: int | None = None,
    validate: bool = False,
) -> JoinResult:
    """Dispatch to the chosen Table 2 join kernel."""
    if algorithm is JoinAlgorithm.HJ:
        return hash_join(build_keys, probe_keys, num_distinct_hint)
    if algorithm is JoinAlgorithm.SPHJ:
        return perfect_hash_join(build_keys, probe_keys)
    if algorithm is JoinAlgorithm.OJ:
        return merge_join(build_keys, probe_keys, validate=validate)
    if algorithm is JoinAlgorithm.SOJ:
        return sort_merge_join(build_keys, probe_keys)
    if algorithm is JoinAlgorithm.BSJ:
        return binary_search_join(build_keys, probe_keys)
    raise PreconditionError(f"unknown join algorithm: {algorithm!r}")


#: Kernel function per algorithm (for harnesses that sweep them).
JOIN_KERNELS = {
    JoinAlgorithm.HJ: hash_join,
    JoinAlgorithm.SPHJ: perfect_hash_join,
    JoinAlgorithm.OJ: merge_join,
    JoinAlgorithm.SOJ: sort_merge_join,
    JoinAlgorithm.BSJ: binary_search_join,
}
