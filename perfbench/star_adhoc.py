"""Workload ``star-adhoc``: ad-hoc star joins sent as JSON lines to a
``QueryServer`` over one ``ServiceClient`` connection.

FACT (20,000 rows) joins 3, 4, 5 or 6 of six dimensions (mixed sorted
and unsorted, dense and sparse keys) and groups by the last joined
dimension's attribute with ``COUNT(*)`` and ``SUM(FACT.M)``. Every query
carries a fresh ``FACT.M`` range literal of fixed width, so it misses
the plan cache and the DP search runs each time. One class per join
count; a round sends each once.
"""

from __future__ import annotations

import json
import time

import numpy as np

import gen
from common import Loop, Spans, median, peak_rss_mib, SETUP_REPEATS
from layers import class_medians, decomposed, per_layer, service_call
from oracles import grouped, key_index, lookup, matches, response_columns, table_columns
from repro import (
    Catalog,
    Column,
    DataType,
    QueryServer,
    QueryService,
    ServiceClient,
    ServiceConfig,
    Table,
    evaluate_naive,
    plan_query,
)
from repro.storage.catalog import ForeignKey

FACT_ROWS = 20_000
JOIN_COUNTS = (3, 4, 5, 6)
#: width of the FACT.M range (half of its 0..999,999 domain).
RANGE_WIDTH = 500_000
#: stride between the range starts of consecutive queries; coprime with
#: RANGE_WIDTH, so no two of the first 500,000 queries share a literal.
LITERAL_STRIDE = 7919
#: rows a response may carry; above any group count here, so no
#: response is truncated.
MAX_ROWS = 100_000


class Literals:
    """Range starts in 0..RANGE_WIDTH-1, distinct for every query of a
    run, from a seeded offset."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._next = int(rng.integers(0, RANGE_WIDTH))

    def __call__(self) -> int:
        low = self._next
        self._next = (self._next + LITERAL_STRIDE) % RANGE_WIDTH
        return low


def star_sql(joins: int, low: int) -> str:
    clauses = " ".join(
        f"JOIN D{i} ON FACT.K{i} = D{i}.ID" for i in range(1, joins + 1)
    )
    return (
        f"SELECT D{joins}.A, COUNT(*), SUM(FACT.M) FROM FACT {clauses} "
        f"WHERE FACT.M >= {low} AND FACT.M < {low + RANGE_WIDTH} "
        f"GROUP BY D{joins}.A"
    )


def star_catalog(data: dict) -> Catalog:
    catalog = Catalog()
    for index, dim in enumerate(data["dims"], start=1):
        catalog.register(
            f"D{index}",
            Table([Column(name, values, DataType.INT64) for name, values in dim.items()]),
        )
    catalog.register(
        "FACT",
        Table([Column(name, values, DataType.INT64) for name, values in data["fact"].items()]),
    )
    for index in range(1, len(data["dims"]) + 1):
        catalog.add_foreign_key(ForeignKey("FACT", f"K{index}", f"D{index}", "ID"))
    return catalog


class Oracle:
    """COUNT and SUM per group of the filtered FACT rows; every FACT key
    has its dimension row, so the joins drop nothing."""

    def __init__(self, data: dict) -> None:
        self.measure = data["fact"]["M"]
        self.attribute = {}
        for index, dim in enumerate(data["dims"], start=1):
            ids, order = key_index(dim["ID"])
            self.attribute[index] = lookup(ids, dim["A"][order], data["fact"][f"K{index}"])

    def expected(self, joins: int, low: int) -> list[np.ndarray]:
        mask = (self.measure >= low) & (self.measure < low + RANGE_WIDTH)
        return grouped(self.attribute[joins][mask], self.measure[mask])


def self_check(rng: np.random.Generator) -> bool:
    data = gen.star(rng, 300)
    catalog = star_catalog(data)
    oracle = Oracle(data)
    ok = True
    literals = Literals(rng)
    for joins in JOIN_COUNTS:
        low = literals()
        naive = evaluate_naive(plan_query(star_sql(joins, low), catalog), catalog)
        ok &= matches(table_columns(naive), oracle.expected(joins, low))
    return ok


def response_ok(response: dict, expected: list[np.ndarray]) -> bool:
    complete = response["row_count"] == len(response["rows"]) == len(expected[0])
    return complete and not response["truncated"] and matches(
        response_columns(response), expected
    )


def result_bytes(response: dict) -> int:
    """Bytes of the response's result fields as JSON (the rest of a
    response carries timings and ids, whose length varies)."""
    return len(
        json.dumps(
            {k: response[k] for k in ("columns", "rows", "row_count")}
        ).encode()
    )


class Server:
    """One set-up: catalog, service, TCP server and a connected client."""

    def __init__(self, data: dict, literals: Literals) -> None:
        self.catalog = star_catalog(data)
        self.service = QueryService(self.catalog, ServiceConfig(deep=True, workers=1))
        self.server = QueryServer(self.service).start()
        self.client = ServiceClient("127.0.0.1", self.server.port)
        for joins in JOIN_COUNTS:
            self.client.query(star_sql(joins, literals()), max_rows=MAX_ROWS)

    def close(self) -> None:
        self.client.close()
        self.server.shutdown()
        self.service.shutdown()


def run(seed: int, seconds: float, spans: Spans | None, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    checked = self_check(np.random.default_rng(seed + 1))
    data = gen.star(rng, FACT_ROWS)
    oracle = Oracle(data)
    literals = Literals(rng)

    setup_seconds, server = [], None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.close()
        started = time.perf_counter()
        server = Server(data, literals)
        setup_seconds.append(time.perf_counter() - started)
    # The traced run splits each query into layers beside the server:
    # an in-process service with its own plan cache, then the public
    # calls one by one.
    local = (
        QueryService(server.catalog, ServiceConfig(deep=True, workers=1))
        if spans is not None
        else None
    )

    loop = Loop()
    generated: list[int] = []
    response_sizes: list[int] = []
    wire_overhead: list[float] = []
    cache = server.service.plan_cache
    cache_before = (cache.hits, cache.misses)

    def operation(joins: int, low: int, op: int):
        sql = star_sql(joins, low)
        if spans is None:
            return server.client.query(sql, max_rows=MAX_ROWS), None
        with spans.span("op", op):
            with spans.span("wire.call", op) as wire:
                response = server.client.query(sql, max_rows=MAX_ROWS)
                wire["class"] = f"joins{joins}"
            call, _ = service_call(spans, op, local, sql, f"joins{joins}")
            table, count = decomposed(spans, op, server.catalog, sql, True)
        if loop.rounds == 0:
            generated.append(count)
            response_sizes.append(result_bytes(response))
        # The server's own wall time for the same request, so the
        # difference is the client, the wire and serialisation.
        wire_overhead.append(wire["end"] - wire["start"] - response["wall_seconds"])
        return response, [call.table, table]

    def one_round(loop: Loop) -> None:
        for joins in JOIN_COUNTS:
            low = literals()
            expected = oracle.expected(joins, low)
            loop.op(
                f"joins{joins}",
                lambda: operation(joins, low, loop.attempted),
                lambda out: response_ok(out[0], expected)
                and all(matches(table_columns(t), expected) for t in out[1] or ()),
            )

    loop.run(seconds, one_round)
    rss = peak_rss_mib()

    extras = {
        f"star.{name}_ms": (median(samples) * 1e3, "ms")
        for name, samples in loop.latencies.items()
    }
    per_layer_metrics = {}
    if spans is not None:
        hits = cache.hits - cache_before[0]
        lookups = hits + cache.misses - cache_before[1]
        per_layer_metrics = per_layer(spans, generated, hits, lookups)
        extras.update(class_medians(spans, "wire.call", "star"))
        extras["wire.overhead_ms"] = (median(wire_overhead) * 1e3, "ms")
        extras["wire.response_bytes"] = (median(response_sizes), "count")
        local.shutdown()
    server.close()
    return {
        "loop": loop,
        "setup_seconds": setup_seconds,
        "rss_mib": rss,
        "checked": checked,
        "per_layer": per_layer_metrics,
        "extras": extras,
    }
