"""Shared machinery of the benchmark: the timed closed loop, spans,
summary statistics and the result line.

Nothing here imports the program under test; the workloads do.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: how many times each workload sets itself up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: a run goes on until it has also attempted this many operations, so
#: that at least ten of them lie beyond the 90th percentile.
MIN_OPERATIONS = 100


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """In-memory span recorder for the traced run.

    Each span has a name, start and end (perf_counter seconds), the index
    of the span that encloses it, and the operation id it belongs to.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        index = len(self.records)
        record = {
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's.

        Children of one span run one after another, so their durations
        add up to the part of the parent's interval they cover.
        """
        child_time = defaultdict(float)
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        out: dict[str, list[float]] = defaultdict(list)
        for index, record in enumerate(self.records):
            duration = record["end"] - record["start"]
            out[record["name"]].append(duration - child_time[index])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records, handle)


class Loop:
    """A closed loop with one client: the next operation starts only
    after the previous one has returned and been checked.

    Checks and other untimed work are excluded from the loop's wall time;
    an operation that raises or returns a wrong answer counts as failed
    and contributes no latency sample.
    """

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        #: whole rounds completed; counts are taken from the first round
        #: only, so they repeat exactly for a seed however long the run.
        self.rounds = 0
        self._untimed = 0.0
        self._started = 0.0
        self._ended: float | None = None

    def op(self, cls: str, call, check):
        """Run ``call()`` as one operation of class ``cls``; ``check``
        receives its output and returns True when it is correct."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            out = call()
        except Exception as error:  # the loop must outlive a failing operation
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{cls}: {type(error).__name__}: {error}")
            return None
        elapsed = time.perf_counter() - started
        with self.untimed():
            ok = check(out)
        if not ok:
            self.failed += 1
            self.wrong += 1
            if len(self.errors) < 5:
                self.errors.append(f"{cls}: wrong answer")
            return None
        self.latencies[cls].append(elapsed)
        return out

    @contextmanager
    def untimed(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self._untimed += time.perf_counter() - started

    def run(self, seconds: float, one_round) -> None:
        """Run whole rounds until ``seconds`` of timed work have passed
        and at least MIN_OPERATIONS operations have been attempted."""
        self._started = time.perf_counter()
        while True:
            one_round(self)
            self.rounds += 1
            if self.wall_seconds >= seconds and self.attempted >= MIN_OPERATIONS:
                break
        self._ended = time.perf_counter()

    @property
    def wall_seconds(self) -> float:
        """Timed seconds so far, or of the whole run once it has ended."""
        end = self._ended if self._ended is not None else time.perf_counter()
        return end - self._started - self._untimed

    def end_to_end(self, setup_seconds: list[float], rss_mib: float) -> dict:
        samples = [t for values in self.latencies.values() for t in values]
        completed = len(samples)
        class_medians = [median(v) for v in self.latencies.values() if v]
        return {
            "ops_per_s": (completed / self.wall_seconds, "op/s"),
            "latency_ms": (statistics.geometric_mean(class_medians) * 1e3, "ms"),
            "latency_p90_ms": (float(np.percentile(samples, 90)) * 1e3, "ms"),
            "setup_s": (median(setup_seconds), "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The benchmark's last output line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
