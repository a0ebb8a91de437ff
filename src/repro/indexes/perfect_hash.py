"""Static perfect hashing (SPH).

Section 2.1: *"SPH can simply be an array of groups of tuples (or running
aggregates ...). The grouping key then serves as the index into that array.
Here, the linear array slot computation works like a perfect hash function.
If all array slots are used, the SPH is even minimal. This is only
applicable if the key domain of the grouping key is (relatively) dense."*

:class:`StaticPerfectHash` is exactly that: ``slot(key) = key - min_key``.
It refuses construction when the domain is too sparse, which is how the
applicability precondition surfaces as a hard error (the optimiser is the
component that must *not* ask for SPH on a sparse domain).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PreconditionError


def _require_dense(
    count: int, domain_size: int, min_density: float, detail: str
) -> None:
    """The density guard: ``count / domain_size >= min_density``, in
    Python ints so no domain (not even ``[int64.min, int64.max]``) can
    overflow it."""
    if count < min_density * domain_size:
        raise PreconditionError(
            "static perfect hashing requires a dense key domain: density "
            f"{count / domain_size:.4f} < required {min_density:.4f} ({detail})"
        )


class StaticPerfectHash:
    """A (minimal when dense) static perfect hash over ``[min_key, max_key]``.

    :param min_key: smallest key of the domain.
    :param max_key: largest key of the domain.
    :param num_distinct: distinct keys that will actually occur; used for
        the minimality check and the density guard.
    :param min_density: minimum acceptable ``num_distinct / domain_size``;
        the default of 0.5 encodes the paper's "(relatively) dense".
    :raises PreconditionError: when the domain is too sparse.
    """

    def __init__(
        self,
        min_key: int,
        max_key: int,
        num_distinct: int | None = None,
        min_density: float = 0.5,
    ) -> None:
        if max_key < min_key:
            raise PreconditionError(
                f"empty key domain: [{min_key}, {max_key}]"
            )
        domain_size = max_key - min_key + 1
        if num_distinct is not None:
            if num_distinct > domain_size:
                raise PreconditionError(
                    f"num_distinct ({num_distinct}) exceeds domain size "
                    f"({domain_size})"
                )
            _require_dense(
                num_distinct,
                domain_size,
                min_density,
                f"domain [{min_key}, {max_key}], {num_distinct} distinct",
            )
        self._min_key = min_key
        self._max_key = max_key
        self._num_distinct = num_distinct

    @property
    def min_key(self) -> int:
        """Smallest key in the domain."""
        return self._min_key

    @property
    def max_key(self) -> int:
        """Largest key in the domain."""
        return self._max_key

    @property
    def num_slots(self) -> int:
        """Size of the slot array: ``max_key - min_key + 1``."""
        return self._max_key - self._min_key + 1

    def memory_bytes(self) -> int:
        """Bytes of the dense slot array SPH stands for: one 8-byte entry
        per domain slot (§2.1: "an array of groups of tuples ... the
        grouping key then serves as the index into that array")."""
        return self.num_slots * 8

    @property
    def num_distinct(self) -> int | None:
        """Distinct keys occurring, when known."""
        return self._num_distinct

    @property
    def is_minimal(self) -> bool:
        """True when every slot is used (paper: "the SPH is even minimal")."""
        return self._num_distinct == self.num_slots

    def slot(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Map key(s) to slot(s): ``key - min_key``. No bounds check —
        use :meth:`slot_checked` for untrusted input."""
        if np.isscalar(keys):
            return int(keys) - self._min_key
        return np.asarray(keys, dtype=np.int64) - np.int64(self._min_key)

    def slot_checked(self, keys: np.ndarray) -> np.ndarray:
        """Like :meth:`slot` but validates every key is inside the domain.

        :raises PreconditionError: on any out-of-domain key.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (
            int(keys.min()) < self._min_key or int(keys.max()) > self._max_key
        ):
            raise PreconditionError(
                f"key(s) outside SPH domain [{self._min_key}, {self._max_key}]"
            )
        return keys - np.int64(self._min_key)

    def key_of_slot(self, slots: np.ndarray | int) -> np.ndarray | int:
        """Inverse of :meth:`slot`: ``slot + min_key``."""
        if np.isscalar(slots):
            return int(slots) + self._min_key
        return np.asarray(slots, dtype=np.int64) + np.int64(self._min_key)

    @classmethod
    def occupancy(
        cls,
        keys: np.ndarray,
        min_density: float = 0.5,
        min_key: int | None = None,
        max_key: int | None = None,
    ) -> tuple["StaticPerfectHash", np.ndarray, np.ndarray]:
        """Build an SPH over ``keys`` and count each slot's keys, without
        sorting: one scan for min/max, one ``bincount`` over the domain.

        The density guard first runs on ``len(keys) / domain``, before any
        allocation (sound: distinct <= rows), so a sparse or int64-wide
        domain fails typed instead of being allocated; it then runs on
        the NDV, the number of occupied slots.

        :param min_key: domain lower bound; measured from ``keys`` if None.
        :param max_key: domain upper bound; measured from ``keys`` if None.
        :returns: ``(sph, slots, counts)``: each key's slot and each
            slot's key count (``sph.num_distinct == len(keys)`` iff the
            keys are unique).
        :raises PreconditionError: on no keys and no domain, a key outside
            an explicit domain, or a too-sparse domain.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size == 0 and None in (min_key, max_key):
            raise PreconditionError("cannot build an SPH over no keys")
        bounded = (min_key, max_key) != (None, None)
        min_key = int(keys.min()) if min_key is None else int(min_key)
        max_key = int(keys.max()) if max_key is None else int(max_key)
        sph = cls(min_key, max_key)
        _require_dense(
            int(keys.size),
            sph.num_slots,
            min_density,
            f"domain [{min_key}, {max_key}], {keys.size} keys",
        )
        slots = sph.slot_checked(keys) if bounded else sph.slot(keys)
        counts = np.bincount(slots, minlength=sph.num_slots)
        num_distinct = int(np.count_nonzero(counts))
        return cls(min_key, max_key, num_distinct, min_density), slots, counts

    @classmethod
    def for_keys(
        cls, keys: np.ndarray, min_density: float = 0.5
    ) -> "StaticPerfectHash":
        """Build an SPH for the observed ``keys`` (see :meth:`occupancy`).

        :raises PreconditionError: if ``keys`` is empty or too sparse.
        """
        return cls.occupancy(keys, min_density)[0]
