"""Run one workload of the repo benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload hlin-higgs-m8 --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics from a separate traced run.
Earlier lines give the environment and a readable table; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every fit passed every correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no repro sources under {src} or no {spec_path.name}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: accuracy and objective
    # only repeat exactly at a fixed thread count.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]

    import numpy
    import scipy

    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }
    print("env " + json.dumps(env, sort_keys=True))

    workload = bench.WORKLOADS[args.workload]
    measure = bench.measure_traced if args.trace else bench.measure
    run = measure(workload, args.seed, args.seconds)

    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing and run.correct:
        run.failures.append(f"metrics not measured: {missing}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)

    metrics = {}
    for m in wanted:
        if m["name"] not in run.metrics:
            continue
        value = run.metrics[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<36} {value:>16.6g} {m['unit']:<9} {m['better']} is better")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
