"""Workload ``fig5-grid``: the §4.3 query in all eight Figure-5 cells at
two scales, under SQO and under DQO, served in process from warm plan
caches.

32 operation classes: {90k, 1m} x {R sorted, unsorted} x {S sorted,
unsorted} x {sparse, dense} x {sqo, dqo}. Each class has its own
``QueryService`` (``deep=False`` / ``True``), warmed by one execution,
so the timed loop measures execution from the plan cache. A round runs
every 90k class three times (interleaved) and every 1m class once,
which keeps each class's samples alike and gives 64 operations a round.
"""

from __future__ import annotations

import time

import numpy as np

import gen
from common import Loop, Spans, median, peak_rss_mib, SETUP_REPEATS
from layers import class_medians, decomposed, per_layer, service_call
from oracles import grouped, key_index, lookup, matches, table_columns
from repro import (
    Catalog,
    Column,
    DataType,
    GroupingAlgorithm,
    JoinAlgorithm,
    QueryService,
    ServiceConfig,
    Table,
    evaluate_naive,
    group_by,
    join,
    plan_query,
)
from repro.indexes.perfect_hash import StaticPerfectHash
from repro.storage.catalog import ForeignKey

QUERY = "SELECT R.A, COUNT(*) FROM R JOIN S ON R.ID = S.R_ID GROUP BY R.A"
#: (name, |R|, |S|); 20,000 groups at both scales.
SCALES = (("90k", 45_000, 90_000), ("1m", 500_000, 1_000_000))
GROUPS = 20_000
#: how often each 90k class runs per round, against once for 1m.
SMALL_REPEATS = 3
#: (R stored sorted, S stored sorted, dense domains) per cell.
CELLS = tuple(
    (r_sorted, s_sorted, dense)
    for r_sorted in (True, False)
    for s_sorted in (True, False)
    for dense in (False, True)
)


def cell_name(r_sorted: bool, s_sorted: bool, dense: bool) -> str:
    return (
        f"R{'s' if r_sorted else 'u'}-S{'s' if s_sorted else 'u'}-"
        f"{'dense' if dense else 'sparse'}"
    )


def int_table(**columns) -> Table:
    return Table([Column(name, values, DataType.INT64) for name, values in columns.items()])


def paper_catalog(r: Table, s: Table) -> Catalog:
    catalog = Catalog()
    catalog.register("R", r)
    catalog.register("S", s)
    catalog.add_foreign_key(ForeignKey("S", "R_ID", "R", "ID"))
    return catalog


def paper_oracle(data: dict) -> list[np.ndarray]:
    """Per-group counts, found by mapping each S.R_ID to its R row."""
    ids, order = key_index(data["r_id_shuffled"])
    return grouped(lookup(ids, data["r_a_shuffled"][order], data["s_rid_shuffled"]))


def self_check(rng: np.random.Generator) -> bool:
    """The oracle against the naive evaluator, on a tiny grid."""
    ok = True
    for dense in (False, True):
        data = gen.paper_join(rng, 300, 900, 40, dense)
        catalog = paper_catalog(
            int_table(ID=data["r_id_shuffled"], A=data["r_a_shuffled"]),
            int_table(R_ID=data["s_rid_shuffled"]),
        )
        naive = evaluate_naive(plan_query(QUERY, catalog), catalog)
        ok &= matches(table_columns(naive), paper_oracle(data))
    return ok


class Grid:
    """One set-up of the whole grid: tables, catalogs, warm services."""

    def __init__(self, data: dict) -> None:
        self.services: dict[str, tuple] = {}
        for scale, _, _ in SCALES:
            for dense in (False, True):
                arrays = data[(scale, dense)]
                r_tables = {
                    True: int_table(ID=arrays["r_id"], A=arrays["r_a"]),
                    False: int_table(ID=arrays["r_id_shuffled"], A=arrays["r_a_shuffled"]),
                }
                s_tables = {
                    True: int_table(R_ID=arrays["s_rid"]),
                    False: int_table(R_ID=arrays["s_rid_shuffled"]),
                }
                for r_sorted, s_sorted, cell_dense in CELLS:
                    if cell_dense != dense:
                        continue
                    catalog = paper_catalog(r_tables[r_sorted], s_tables[s_sorted])
                    cell = cell_name(r_sorted, s_sorted, dense)
                    for mode, deep in (("sqo", False), ("dqo", True)):
                        service = QueryService(catalog, ServiceConfig(deep=deep, workers=1))
                        service.execute(QUERY)
                        self.services[f"{scale}.{cell}.{mode}"] = (
                            service,
                            catalog,
                            deep,
                            (scale, dense),
                        )

    def shutdown(self) -> None:
        for service, *_ in self.services.values():
            service.shutdown()


def kernel_spans(spans: Spans, op: int, arrays: dict) -> None:
    """The Table-2 kernels, the SPH build and a numpy floor, on the 1m
    dense cell's own columns (sorted copies where a kernel needs them)."""
    for algorithm in JoinAlgorithm:
        sorted_input = algorithm is JoinAlgorithm.OJ
        build = arrays["r_id"] if sorted_input else arrays["r_id_shuffled"]
        probe = arrays["s_rid"] if sorted_input else arrays["s_rid_shuffled"]
        with spans.span(f"kernels.join_ms.{algorithm.name}", op):
            join(build, probe, algorithm)
    for algorithm in GroupingAlgorithm:
        keys = arrays["a_sorted"] if algorithm is GroupingAlgorithm.OG else arrays["a_joined"]
        with spans.span(f"kernels.group_ms.{algorithm.name}", op):
            group_by(keys, None, algorithm)
    with spans.span("indexes.perfect_hash_build_ms", op):
        StaticPerfectHash.for_keys(arrays["r_id_shuffled"])
    with spans.span("reference.numpy_paper_1m_ms", op):
        a_by_id = np.empty(arrays["r_id"].size, dtype=np.int64)
        a_by_id[arrays["r_id_shuffled"]] = arrays["r_a_shuffled"]
        np.bincount(a_by_id[arrays["s_rid_shuffled"]], minlength=GROUPS)


def run(seed: int, seconds: float, spans: Spans | None, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    checked = self_check(np.random.default_rng(seed + 1))
    data, oracles = {}, {}
    for scale, n_r, n_s in SCALES:
        for dense in (False, True):
            arrays = gen.paper_join(rng, n_r, n_s, GROUPS, dense)
            data[(scale, dense)] = arrays
            oracles[(scale, dense)] = paper_oracle(arrays)
            checked &= int(oracles[(scale, dense)][1].sum()) == n_s

    setup_seconds, grid = [], None
    for _ in range(SETUP_REPEATS):
        if grid is not None:
            grid.shutdown()
        started = time.perf_counter()
        grid = Grid(data)
        setup_seconds.append(time.perf_counter() - started)
    small = [name for name in grid.services if name.startswith("90k.")]
    large = [name for name in grid.services if name.startswith("1m.")]
    sequence = small * SMALL_REPEATS + large

    loop = Loop()
    generated: list[int] = []
    kernel_arrays = None
    if spans is not None:
        arrays = dict(data[("1m", True)])
        ids, order = key_index(arrays["r_id"])
        a_by_row = arrays["r_a"][order]
        arrays["a_sorted"] = lookup(ids, a_by_row, arrays["s_rid"])
        arrays["a_joined"] = lookup(ids, a_by_row, arrays["s_rid_shuffled"])
        kernel_arrays = arrays
    cache_before = [
        (service.plan_cache.hits, service.plan_cache.misses)
        for service, *_ in grid.services.values()
    ]

    def operation(name: str, op: int):
        service, catalog, deep, key = grid.services[name]
        if spans is None:
            return [service.execute(QUERY).table]
        with spans.span("op", op):
            outcome, _ = service_call(spans, op, service, QUERY, name)
            table, count = decomposed(spans, op, catalog, QUERY, deep)
        if loop.rounds == 0:
            generated.append(count)
        return [outcome.table, table]

    def one_round(loop: Loop) -> None:
        for name in sequence:
            key = grid.services[name][3]
            loop.op(
                name,
                lambda: operation(name, loop.attempted),
                lambda tables: all(
                    matches(table_columns(t), oracles[key]) for t in tables
                ),
            )
        if spans is not None:
            with loop.untimed():
                kernel_spans(spans, -1, kernel_arrays)

    loop.run(seconds, one_round)
    rss = peak_rss_mib()

    extras = {
        f"fig5.{name}_ms": (median(samples) * 1e3, "ms")
        for name, samples in loop.latencies.items()
    }
    per_layer_metrics = {}
    if spans is not None:
        hits = lookups = 0
        for (service, *_), (h0, m0) in zip(grid.services.values(), cache_before):
            hits += service.plan_cache.hits - h0
            lookups += service.plan_cache.hits - h0 + service.plan_cache.misses - m0
        per_layer_metrics = per_layer(spans, generated, hits, lookups)
        for name, samples in spans.self_times().items():
            if name.startswith(("kernels.", "indexes.", "reference.")):
                extras[name] = (median(samples) * 1e3, "ms")
        extras.update(class_medians(spans, "service.call", "fig5"))
    grid.shutdown()
    return {
        "loop": loop,
        "setup_seconds": setup_seconds,
        "rss_mib": rss,
        "checked": checked,
        "per_layer": per_layer_metrics,
        "extras": extras,
    }
