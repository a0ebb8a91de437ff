"""The traced run's view of one query: the program's public calls for
each layer, one span around each.

``decomposed`` runs a query the way the service does internally, but
from outside and on the optimiser's miss path (no plan cache), so each
layer gets its own span. ``per_layer`` turns the spans into the
metrics listed under ``per_layer`` in BENCHMARK.json; every workload
reports all of them.
"""

from __future__ import annotations

from collections import defaultdict

from common import Spans, median
from repro import execute, optimize_dqo, optimize_sqo, plan_query, to_operator

#: spans of the layers below the service, in call order.
LAYERS = ("sql.plan_query", "optimizer.optimize", "plan.to_operator", "engine.execute")


def decomposed(spans: Spans, op: int, catalog, sql: str, deep: bool):
    """Parse, optimise (no plan cache), lower and execute ``sql``;
    returns ``(result table, plans generated by the search)``."""
    with spans.span("sql.plan_query", op):
        logical = plan_query(sql, catalog)
    optimize = optimize_dqo if deep else optimize_sqo
    with spans.span("optimizer.optimize", op):
        result = optimize(logical, catalog)
    with spans.span("plan.to_operator", op):
        operator = to_operator(result.plan, catalog, validate=False)
    with spans.span("engine.execute", op):
        table = execute(operator)
    return table, result.stats.generated


def service_call(spans: Spans, op: int, service, sql: str, label: str):
    """One in-process service call, in a ``service.call`` span that
    remembers the operation class and whether the plan came from the
    plan cache. Returns the outcome and the span."""
    with spans.span("service.call", op) as record:
        outcome = service.execute(sql)
        record["class"] = label
        record["cached"] = bool(outcome.cached)
    return outcome, record


def class_medians(spans: Spans, name: str, prefix: str) -> dict:
    """Median duration per operation class of the spans called ``name``
    (which carry a ``class``): in the traced run, the comparable
    per-class figure, without the layer-by-layer re-run."""
    samples: dict[str, list[float]] = defaultdict(list)
    for record in spans.records:
        if record["name"] == name:
            samples[record["class"]].append(record["end"] - record["start"])
    return {
        f"{prefix}.{cls}_ms": (median(values) * 1e3, "ms")
        for cls, values in samples.items()
    }


def durations_by_op(spans: Spans) -> dict[int, dict[str, float]]:
    out: dict[int, dict[str, float]] = defaultdict(dict)
    for record in spans.records:
        out[record["op"]][record["name"]] = record["end"] - record["start"]
    return out


def per_layer(spans: Spans, generated: list[int], cache_hits: int, cache_lookups: int) -> dict:
    """The per-layer metrics every workload reports: median self time
    per layer, the mean plans generated per search (``generated`` holds
    one count per operation of the first round), the service's plan-cache
    hit ratio, and ``service.overhead_ms``: per operation, the service
    call minus the layers it runs (parse, lowering, execution, and the
    search when the service missed its plan cache).
    """
    by_op = durations_by_op(spans)
    overhead = []
    for record in spans.records:
        if record["name"] != "service.call":
            continue
        times = by_op[record["op"]]
        below = [
            name
            for name in LAYERS
            if not (record["cached"] and name == "optimizer.optimize")
        ]
        overhead.append(times["service.call"] - sum(times[name] for name in below))
    self_times = spans.self_times()
    metrics = {
        f"{name}_ms": (median(self_times[name]) * 1e3, "ms") for name in LAYERS
    }
    metrics["optimizer.plans_generated"] = (sum(generated) / len(generated), "count")
    metrics["optimizer.plancache_hit_ratio"] = (
        cache_hits / cache_lookups if cache_lookups else 0.0,
        "ratio",
    )
    metrics["service.overhead_ms"] = (median(overhead) * 1e3, "ms")
    return metrics
