"""Correctness oracles: plain numpy over the benchmark's own arrays.

They share no code with the program. Each workload checks every
operation's output against one of these, outside the timed interval,
and once per run checks the oracles themselves against the program's
naive evaluator on tiny inputs.
"""

from __future__ import annotations

import numpy as np


def grouped(keys: np.ndarray, values: np.ndarray | None = None) -> list[np.ndarray]:
    """``[group keys ascending, COUNT(*) per group, SUM(values) per group]``
    (the SUM only when ``values`` is given)."""
    unique, inverse = np.unique(keys, return_inverse=True)
    out = [unique, np.bincount(inverse, minlength=unique.size).astype(np.int64)]
    if values is not None:
        out.append(
            np.bincount(inverse, weights=values, minlength=unique.size).astype(np.int64)
        )
    return out


def lookup(sorted_keys: np.ndarray, attribute: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """``attribute`` of the row whose key equals each ``probe`` value,
    given keys sorted ascending and every probe value present."""
    return attribute[np.searchsorted(sorted_keys, probe)]


def key_index(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ids sorted, permutation that sorts them)`` for :func:`lookup`."""
    order = np.argsort(ids, kind="stable")
    return ids[order], order


def matches(columns: list[np.ndarray], expected: list[np.ndarray]) -> bool:
    """True when result ``columns`` (group key first, in SELECT order)
    hold exactly the ``expected`` groups, in any row order."""
    if len(columns) != len(expected):
        return False
    if any(len(column) != len(expected[0]) for column in columns):
        return False
    order = np.argsort(np.asarray(columns[0]), kind="stable")
    return all(
        np.array_equal(np.asarray(column)[order], want)
        for column, want in zip(columns, expected)
    )


def table_columns(table) -> list[np.ndarray]:
    """A result table's columns as arrays, in schema order."""
    return [np.asarray(table[name]) for name in table.schema.names]


def response_columns(response: dict) -> list[np.ndarray]:
    """A wire response's rows as column arrays, in ``columns`` order."""
    width = len(response["columns"])
    rows = np.asarray(response["rows"], dtype=np.int64).reshape(-1, width)
    return [rows[:, index] for index in range(width)]
