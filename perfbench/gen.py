"""Seeded input generation, written apart from the program's own
generators so that a change to them cannot move the benchmark.

Every function takes a ``numpy.random.Generator`` and returns plain
arrays; the same seed gives the same arrays.
"""

from __future__ import annotations

import numpy as np

#: mean gap between neighbouring values of a sparse (gapped) domain.
SPARSE_GAP = 1000


def sparse_domain(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` strictly increasing int64 values with random gaps."""
    return np.cumsum(rng.integers(1, 2 * SPARSE_GAP, size=n, dtype=np.int64))


def paper_join(rng: np.random.Generator, n_r: int, n_s: int, groups: int, dense: bool) -> dict:
    """The §4.3 scenario: R(ID, A) with A monotone in ID, S(R_ID) a
    foreign key into R.ID with uniform references.

    Returns R sorted by ID, a permutation of R, S sorted by R_ID and a
    permutation of S. Dense domains are gap-free (``ID`` = 0..n_r-1,
    ``A`` = 0..groups-1); sparse ones are order-preservingly gapped.
    """
    r_id = np.arange(n_r, dtype=np.int64)
    labels = np.sort(
        np.concatenate(
            [
                np.arange(groups, dtype=np.int64),
                rng.integers(0, groups, size=n_r - groups, dtype=np.int64),
            ]
        )
    )
    if dense:
        r_a = labels
    else:
        r_id = sparse_domain(rng, n_r)
        r_a = sparse_domain(rng, groups)[labels]
    s_rid = np.sort(r_id[rng.integers(0, n_r, size=n_s)])
    r_perm = rng.permutation(n_r)
    return {
        "r_id": r_id,
        "r_a": r_a,
        "r_id_shuffled": r_id[r_perm],
        "r_a_shuffled": r_a[r_perm],
        "s_rid": s_rid,
        "s_rid_shuffled": s_rid[rng.permutation(n_s)],
    }


#: the six star dimensions: (rows, stored sorted by ID, dense ID domain).
STAR_DIMENSIONS = (
    (50, True, True),
    (200, False, True),
    (1000, True, False),
    (2000, False, False),
    (500, False, True),
    (5000, True, False),
)


def star(rng: np.random.Generator, fact_rows: int) -> dict:
    """A star schema: dimensions ``D1..D6`` with ``ID`` and attribute
    ``A``, and a FACT with one foreign key ``K<i>`` per dimension plus a
    measure ``M`` in 0..999,999. Every FACT key references a dimension row.
    """
    dims = []
    fact = {}
    for index, (rows, is_sorted, dense) in enumerate(STAR_DIMENSIONS, start=1):
        ids = np.arange(rows, dtype=np.int64) if dense else sparse_domain(rng, rows)
        attr = rng.integers(0, max(2, rows // 10), size=rows, dtype=np.int64)
        if not is_sorted:
            perm = rng.permutation(rows)
            ids, attr = ids[perm], attr[perm]
        dims.append({"ID": ids, "A": attr})
        fact[f"K{index}"] = ids[rng.integers(0, rows, size=fact_rows)]
    fact["M"] = rng.integers(0, 1_000_000, size=fact_rows, dtype=np.int64)
    return {"dims": dims, "fact": fact}


def ingest_fact(rng: np.random.Generator, first_key: int, rows: int, dim_rows: int) -> dict:
    """FACT rows for the disk workload: ``K`` ascending from
    ``first_key`` (the sorted key), ``D`` a foreign key into DIM.ID,
    ``V`` in 0..999,999 and ``W`` in 0..99."""
    return {
        "K": np.arange(first_key, first_key + rows, dtype=np.int64),
        "D": rng.integers(0, dim_rows, size=rows, dtype=np.int64),
        "V": rng.integers(0, 1_000_000, size=rows, dtype=np.int64),
        "W": rng.integers(0, 100, size=rows, dtype=np.int64),
    }


def ingest_dim(rng: np.random.Generator, rows: int) -> dict:
    """DIM(ID, G): a dense key and a 40-valued attribute."""
    return {
        "ID": np.arange(rows, dtype=np.int64),
        "G": rng.integers(0, 40, size=rows, dtype=np.int64),
    }
