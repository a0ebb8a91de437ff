"""Workload ``disk-ingest``: appends and reads on disk-resident tables.

FACT has 1,000,000 rows of four int64 columns (32 MB decoded) in
65,536-row segments, behind a 16 MiB buffer pool it does not fit in;
DIM has 1,000 rows and fits. Each round first restores FACT to its
written state (untimed), so every round sees the same table, then runs:

* ``append``: ``append_table`` of 16,384 rows and re-registration;
* ``replan``: the first query after it (a narrow range on the sorted
  key), which plans against the new statistics;
* then five times, interleaved: ``narrow`` (2,048 keys inside one segment,
  so zone maps skip the rest), ``quarter`` (four aligned segments of
  sixteen), ``full`` (a 50% range on an unsorted column: a filtered
  full scan) and ``dimjoin`` (FACT joined to DIM, 10% of FACT).

Every query has fresh literals of fixed selectivity.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import nullcontext

import numpy as np

import gen
from common import Loop, Spans, median, peak_rss_mib, SETUP_REPEATS
from layers import class_medians, decomposed, per_layer, service_call
from oracles import grouped, matches, table_columns
from repro import Catalog, Column, DataType, QueryService, ServiceConfig, Table, evaluate_naive, plan_query
from repro.storage.catalog import ForeignKey
from repro.storage.disk import (
    BufferManager,
    append_table,
    get_buffer_manager,
    set_buffer_manager,
    write_table,
)

FACT_ROWS = 1_000_000
DIM_ROWS = 1_000
BATCH_ROWS = 16_384
SEGMENT_ROWS = 65_536
BUFFER_BYTES = 16 * 1024 * 1024
NARROW_KEYS = 2_048
QUARTER_SEGMENTS = 4
#: times each read class runs per round.
READ_REPEATS = 5
READ_CLASSES = ("narrow", "quarter", "full", "dimjoin")

KEY_RANGE = (
    "SELECT FACT.W, COUNT(*), SUM(FACT.V) FROM FACT "
    "WHERE FACT.K >= {low} AND FACT.K < {high} GROUP BY FACT.W"
)
VALUE_RANGE = (
    "SELECT FACT.W, COUNT(*), SUM(FACT.V) FROM FACT "
    "WHERE FACT.V >= {low} AND FACT.V < {high} GROUP BY FACT.W"
)
DIM_JOIN = (
    "SELECT DIM.G, COUNT(*), SUM(FACT.V) FROM FACT JOIN DIM ON FACT.D = DIM.ID "
    "WHERE FACT.W >= {low} AND FACT.W < {high} GROUP BY DIM.G"
)


def int_table(columns: dict) -> Table:
    return Table([Column(name, values, DataType.INT64) for name, values in columns.items()])


class Mirror:
    """FACT and DIM in memory, appended batch included: the oracle."""

    def __init__(self, fact: dict, dim: dict) -> None:
        self.fact = fact
        self.group = dim["G"][np.searchsorted(dim["ID"], fact["D"])]

    def expected(self, cls: str, low: int, high: int) -> list[np.ndarray]:
        fact = self.fact
        if cls in ("replan", "narrow", "quarter"):
            mask = (fact["K"] >= low) & (fact["K"] < high)
            return grouped(fact["W"][mask], fact["V"][mask])
        if cls == "full":
            mask = (fact["V"] >= low) & (fact["V"] < high)
            return grouped(fact["W"][mask], fact["V"][mask])
        mask = (fact["W"] >= low) & (fact["W"] < high)
        return grouped(self.group[mask], fact["V"][mask])


def query(cls: str, rng: np.random.Generator, rows: int) -> tuple[str, int, int]:
    """The SQL of one read of class ``cls`` with random literals."""
    if cls in ("replan", "narrow"):
        segment = int(rng.integers(0, rows // SEGMENT_ROWS))
        low = segment * SEGMENT_ROWS + int(rng.integers(0, SEGMENT_ROWS - NARROW_KEYS))
        return KEY_RANGE.format(low=low, high=low + NARROW_KEYS), low, low + NARROW_KEYS
    if cls == "quarter":
        segment = int(rng.integers(0, rows // SEGMENT_ROWS - QUARTER_SEGMENTS + 1))
        low = segment * SEGMENT_ROWS
        high = low + QUARTER_SEGMENTS * SEGMENT_ROWS
        return KEY_RANGE.format(low=low, high=high), low, high
    if cls == "full":
        low = int(rng.integers(0, 500_000))
        return VALUE_RANGE.format(low=low, high=low + 500_000), low, low + 500_000
    low = int(rng.integers(0, 90))
    return DIM_JOIN.format(low=low, high=low + 10), low, low + 10


def self_check(rng: np.random.Generator) -> bool:
    """The mirror oracle against the naive evaluator, on tiny tables."""
    dim = gen.ingest_dim(rng, 20)
    fact = gen.ingest_fact(rng, 0, 3000, 20)
    catalog = Catalog()
    catalog.register("FACT", int_table(fact))
    catalog.register("DIM", int_table(dim))
    catalog.add_foreign_key(ForeignKey("FACT", "D", "DIM", "ID"))
    mirror = Mirror(fact, dim)
    ok = True
    for cls, template, low, high in (
        ("narrow", KEY_RANGE, 100, 1100),
        ("full", VALUE_RANGE, 250_000, 750_000),
        ("dimjoin", DIM_JOIN, 20, 30),
    ):
        sql = template.format(low=low, high=high)
        naive = evaluate_naive(plan_query(sql, catalog), catalog)
        ok &= matches(table_columns(naive), mirror.expected(cls, low, high))
    return ok


class Store:
    """One set-up: FACT and DIM written to disk, registered, warmed."""

    def __init__(self, directory: str, fact: dict, dim: dict, rng: np.random.Generator) -> None:
        self.fact_dir = os.path.join(directory, "fact")
        started = time.perf_counter()
        write_table(int_table(fact), self.fact_dir, segment_rows=SEGMENT_ROWS)
        self.write_seconds = time.perf_counter() - started
        write_table(int_table(dim), os.path.join(directory, "dim"), segment_rows=SEGMENT_ROWS)
        self.catalog = Catalog()
        self.catalog.register_disk("FACT", self.fact_dir)
        self.catalog.register_disk("DIM", os.path.join(directory, "dim"))
        self.catalog.add_foreign_key(ForeignKey("FACT", "D", "DIM", "ID"))
        self.service = QueryService(self.catalog, ServiceConfig(deep=True, workers=1))
        for cls in READ_CLASSES:
            self.service.execute(query(cls, rng, FACT_ROWS)[0])


def run(seed: int, seconds: float, spans: Spans | None, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    checked = self_check(np.random.default_rng(seed + 1))
    base = gen.ingest_fact(rng, 0, FACT_ROWS, DIM_ROWS)
    dim = gen.ingest_dim(rng, DIM_ROWS)
    batch = gen.ingest_fact(rng, FACT_ROWS, BATCH_ROWS, DIM_ROWS)
    mirror = Mirror({k: np.concatenate([base[k], batch[k]]) for k in base}, dim)
    batch_table = int_table(batch)
    set_buffer_manager(BufferManager(BUFFER_BYTES, name="perfbench"))

    setup_seconds, write_seconds, store = [], [], None
    for index in range(SETUP_REPEATS):
        if store is not None:
            store.service.shutdown()
        started = time.perf_counter()
        store = Store(os.path.join(workdir, f"setup{index}"), base, dim, rng)
        setup_seconds.append(time.perf_counter() - started)
        write_seconds.append(store.write_seconds)
    catalog, service = store.catalog, store.service
    pristine = os.path.join(workdir, "pristine")
    shutil.copytree(store.fact_dir, pristine)
    pool = get_buffer_manager()

    loop = Loop()
    generated: list[int] = []
    disk_ratio: list[float] = []
    buffer_deltas: dict[str, list[tuple[int, int, int]]] = {}
    cache = service.plan_cache
    cache_before = (cache.hits, cache.misses)

    def restore() -> None:
        shutil.rmtree(store.fact_dir)
        shutil.copytree(pristine, store.fact_dir)
        pool.invalidate(os.path.abspath(store.fact_dir))
        catalog.register_disk("FACT", store.fact_dir, replace=True)

    def append(op: int) -> tuple[int, int]:
        span = spans.span if spans is not None else (lambda name, op: nullcontext())
        with span("disk.append_table", op):
            appended = append_table(store.fact_dir, batch_table)
        with span("storage.register", op):
            catalog.register_disk("FACT", store.fact_dir, replace=True)
        table = catalog.table("FACT")
        if spans is not None and loop.rounds == 0:
            disk_ratio.append(table.bytes_on_disk() / (table.num_rows * table.num_columns * 8))
        return appended.num_rows, table.num_rows

    def read(cls: str, sql: str, op: int):
        if spans is None:
            return [service.execute(sql).table]
        before = pool.stats()
        with spans.span("op", op):
            outcome, _ = service_call(spans, op, service, sql, cls)
            after = pool.stats()
            table, count = decomposed(spans, op, catalog, sql, True)
        if loop.rounds == 0:
            buffer_deltas.setdefault(cls, []).append(
                tuple(after[k] - before[k] for k in ("hits", "misses", "evictions"))
            )
            generated.append(count)
        return [outcome.table, table]

    def one_round(loop: Loop) -> None:
        with loop.untimed():
            restore()
        loop.op(
            "append",
            lambda: append(loop.attempted),
            lambda rows: rows == (FACT_ROWS + BATCH_ROWS,) * 2,
        )
        rows = FACT_ROWS + BATCH_ROWS
        # Distinct SQL within a round, so no read hits the plan cache (the
        # append re-registers FACT, which invalidates earlier rounds' plans).
        seen = set()
        for cls in ("replan",) + READ_CLASSES * READ_REPEATS:
            sql, low, high = query(cls, rng, rows)
            while sql in seen:
                sql, low, high = query(cls, rng, rows)
            seen.add(sql)
            expected = mirror.expected(cls, low, high)
            loop.op(
                cls,
                lambda: read(cls, sql, loop.attempted),
                lambda tables: all(matches(table_columns(t), expected) for t in tables),
            )

    loop.run(seconds, one_round)
    rss = peak_rss_mib()

    extras = {
        f"disk.{name}_ms": (median(samples) * 1e3, "ms")
        for name, samples in loop.latencies.items()
    }
    per_layer_metrics = {}
    if spans is not None:
        hits = cache.hits - cache_before[0]
        lookups = hits + cache.misses - cache_before[1]
        per_layer_metrics = per_layer(spans, generated, hits, lookups)
        self_times = spans.self_times()
        deltas = [d for values in buffer_deltas.values() for d in values]
        hits_total, misses_total, evictions_total = (sum(column) for column in zip(*deltas))
        extras.update(
            {
                "disk.write_table_s": (median(write_seconds), "s"),
                "disk.append_table_ms": (median(self_times["disk.append_table"]) * 1e3, "ms"),
                "storage.register_ms": (median(self_times["storage.register"]) * 1e3, "ms"),
                "disk.bytes_per_user_byte": (median(disk_ratio), "ratio"),
                "buffer.hit_ratio": (hits_total / max(1, hits_total + misses_total), "ratio"),
                "buffer.misses_per_query": (misses_total / len(deltas), "count"),
                "buffer.evictions_per_query": (evictions_total / len(deltas), "count"),
            }
        )
        for cls, values in sorted(buffer_deltas.items()):
            extras[f"buffer.{cls}.misses"] = (median(d[1] for d in values), "count")
        extras.update(class_medians(spans, "service.call", "disk"))
    service.shutdown()
    set_buffer_manager(None)
    return {
        "loop": loop,
        "setup_seconds": setup_seconds,
        "rss_mib": rss,
        "checked": checked,
        "per_layer": per_layer_metrics,
        "extras": extras,
    }
