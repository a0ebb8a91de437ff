"""The benchmark's one command.

    python3 perfbench/run.py --workload fig5-grid --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. The command re-launches itself with a pinned environment
(fixed ``PYTHONHASHSEED``, every ``REPRO_*`` variable set or cleared),
runs one workload in that child for ``--seconds`` of timed work, checks
every result, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give the versions and per-class figures. Traced runs
also write their spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKLOADS = ("fig5-grid", "star-adhoc", "disk-ingest")
#: the child's wall-clock limit; a run that exceeds it is killed.
CHILD_TIMEOUT_S = 170
#: set in the child only, so the child does not re-launch itself.
CHILD_MARK = "PERFBENCH_CHILD"
#: environment every run sees; other REPRO_* variables are removed.
PINNED = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_WORKERS": "1",
    "REPRO_BACKEND": "thread",
    "REPRO_STORAGE": "memory",
    "REPRO_BUFFER_BYTES": "16m",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pinned_environment(work: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED)
    env["REPRO_SPILL_DIR"] = os.path.join(work, "spill")
    env["TMPDIR"] = work
    env["PYTHONPATH"] = SOURCE
    env[CHILD_MARK] = "1"
    return env


def launch(argv) -> int:
    """Run the workload in a child with the pinned environment."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv],
        env=pinned_environment(work),
        cwd=ROOT,
    )
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)


def run_child(args) -> int:
    import numpy as np

    from common import Spans, result_line

    workload = __import__(args.workload.replace("-", "_"))
    print(
        f"python {platform.python_version()} numpy {np.__version__} "
        f"nproc {len(os.sched_getaffinity(0))} workload {args.workload} seed {args.seed} "
        f"seconds {args.seconds:g} trace {args.trace}"
    )
    spans = Spans() if args.trace else None
    outcome = workload.run(args.seed, args.seconds, spans, os.environ["TMPDIR"])
    loop = outcome["loop"]
    for error in loop.errors:
        print(f"failed: {error}")
    for name, (value, unit) in sorted(outcome["extras"].items()):
        print(f"{name} {value:.4f} {unit}")
    if spans is not None:
        out = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        spans.dump(os.path.join(out, f"spans-{args.workload}-seed{args.seed}.json"))
        metrics = outcome["per_layer"]
    else:
        metrics = loop.end_to_end(outcome["setup_seconds"], outcome["rss_mib"])
    correct = outcome["checked"] and loop.wrong == 0
    print(result_line(correct, loop.attempted, loop.failed, metrics))
    return 0


def main(argv) -> int:
    args = parse_args(argv)
    if os.environ.get(CHILD_MARK) != "1":
        return launch(argv)
    return run_child(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
