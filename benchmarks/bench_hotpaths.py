"""Perf-regression harness for the vectorized hot paths.

Times the optimized kernels against their legacy scalar counterparts —
the legacy paths are still live behind ``FixedPointCodec(vectorized=
False)``, so both sides run from the same commit — and writes
``BENCH_hotpaths.json`` (one record per measurement, see
``docs/PERFORMANCE.md`` for the schema).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke --check

``--check`` exits non-zero if any vectorized secure-sum configuration is
slower than its legacy twin — the CI ``perf-smoke`` job runs exactly
that, so a change that silently loses the speedup fails the build.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cluster.network import Network
from repro.core.partitioning import horizontal_partition
from repro.core.trainer import PrivacyPreservingSVM
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.secure_sum import SecureSumAggregator, SecureSummationProtocol
from repro.data.scaling import StandardScaler
from repro.data.splits import train_test_split
from repro.data.synthetic import make_cancer_like, make_linear_task
from repro.svm.qp import psd_factor, solve_box_qp

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_hotpaths.json"


def _training_parts():
    """Standardized horizontal split of the synthetic cancer-like set."""
    dataset = make_cancer_like(240, seed=11)
    train, _ = train_test_split(dataset, 0.5, seed=0)
    train = StandardScaler().fit(train.X).transform_dataset(train)
    return horizontal_partition(train, 4, seed=0)


def _timeit(fn, *, repeats: int) -> float:
    """Best-of-``repeats`` wall seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _record(results: list[dict], op: str, params: dict, wall_s: float, per_iter_bytes: float = 0.0):
    entry = {
        "op": op,
        "params": params,
        "wall_s": wall_s,
        "per_iter_bytes": per_iter_bytes,
    }
    results.append(entry)
    print(f"  {op:<28} {json.dumps(params):<60} {wall_s * 1e3:9.3f} ms")
    return entry


def bench_secure_sum(results: list[dict], *, smoke: bool) -> list[tuple[dict, dict]]:
    """Fresh/prg secure-sum rounds, vectorized vs legacy codec backend.

    Returns (vectorized, legacy) record pairs for the --check gate.
    """
    print("secure summation rounds:")
    configs = [("fresh", 8, 512)]
    if not smoke:
        configs += [("fresh", 8, 2048), ("prg", 8, 512), ("fresh", 16, 512)]
    else:
        configs += [("prg", 8, 512)]
    repeats = 2 if smoke else 5
    pairs = []
    for mode, n_participants, dim in configs:
        pair = []
        for vectorized in (True, False):
            codec = FixedPointCodec(max_terms=n_participants, vectorized=vectorized)
            network = Network(keep_log=False)
            participants = [f"m{i}" for i in range(n_participants)]
            protocol = SecureSummationProtocol(
                network, participants, "reducer", codec=codec, mode=mode, seed=0
            )
            rng = np.random.default_rng(0)
            values = {p: rng.normal(size=dim) for p in participants}
            expected = sum(values.values())
            out = protocol.sum_vectors(values)
            np.testing.assert_allclose(out, expected, atol=1e-8)
            bytes_before = network.bytes_sent()
            wall = _timeit(lambda: protocol.sum_vectors(values), repeats=repeats)
            per_round_bytes = (network.bytes_sent() - bytes_before) / repeats
            entry = _record(
                results,
                "secure_sum.round",
                {
                    "mode": mode,
                    "participants": n_participants,
                    "dim": dim,
                    "backend": "vectorized" if vectorized else "legacy",
                },
                wall,
                per_round_bytes,
            )
            pair.append(entry)
        pairs.append((pair[0], pair[1]))
    return pairs


def bench_codec_kernels(results: list[dict], *, smoke: bool) -> None:
    print("codec kernels:")
    dim = 1024 if smoke else 8192
    repeats = 3 if smoke else 7
    rng = np.random.default_rng(1)
    values = rng.normal(size=dim)
    for vectorized in (True, False):
        codec = FixedPointCodec(vectorized=vectorized)
        backend = "vectorized" if vectorized else "legacy"
        a = codec.random_vector_array(dim, np.random.default_rng(2))
        b = codec.random_vector_array(dim, np.random.default_rng(3))
        _record(
            results,
            "codec.encode",
            {"dim": dim, "backend": backend},
            _timeit(lambda: codec.encode_array(values), repeats=repeats),
        )
        _record(
            results,
            "codec.random_vector",
            {"dim": dim, "backend": backend},
            _timeit(
                lambda: codec.random_vector_array(dim, np.random.default_rng(4)),
                repeats=repeats,
            ),
        )
        _record(
            results,
            "codec.add",
            {"dim": dim, "backend": backend},
            _timeit(lambda: codec.add(a, b), repeats=repeats),
        )
        _record(
            results,
            "codec.decode",
            {"dim": dim, "backend": backend},
            _timeit(lambda: codec.decode(codec.encode_array(values)), repeats=repeats),
        )


def bench_box_qp(results: list[dict], *, smoke: bool) -> None:
    print("box QP solves:")
    n = 200 if smoke else 600
    repeats = 3 if smoke else 5
    rng = np.random.default_rng(5)
    A = rng.normal(size=(n, n))
    H = A @ A.T / n + 1e-3 * np.eye(n)
    # Workers factor their constant Hessian once, so factoring is untimed.
    factor = psd_factor(H)
    d = rng.normal(size=n)
    _record(
        results,
        "qp.solve_box_qp",
        {"n": n, "upper": 50.0},
        _timeit(lambda: solve_box_qp(factor, d, 0.0, 50.0), repeats=repeats),
    )
    # Warm-started resolve — the dominant shape inside ADMM iterations.
    x0 = solve_box_qp(factor, d, 0.0, 50.0).x
    d2 = d + 0.01 * rng.normal(size=n)
    _record(
        results,
        "qp.solve_box_qp_warm",
        {"n": n, "upper": 50.0},
        _timeit(lambda: solve_box_qp(factor, d2, 0.0, 50.0, x0=x0), repeats=repeats),
    )


def bench_end_to_end(
    results: list[dict], *, smoke: bool, ledger_dir: Path | None = None
) -> None:
    """Full horizontal-linear secure fit, vectorized vs legacy codec.

    Uses a high-dimensional task (the regime the paper's big-data
    setting targets) so the secure-summation rounds — not the tiny
    per-learner QPs — carry the iteration cost.  When ``ledger_dir`` is
    given, the last fitted model of each backend is persisted to the run
    ledger (``kind="bench"``) so perf runs are queryable alongside
    training runs via ``repro runs``.
    """
    print("end-to-end horizontal linear fit:")
    n_features = 256 if smoke else 512
    dataset = make_linear_task(240, n_features, noise=0.05, seed=7)
    parts = horizontal_partition(dataset, 4, seed=0)
    max_iter = 5 if smoke else 15
    for vectorized in (True, False):
        last_model: list[PrivacyPreservingSVM] = []

        def fit():
            # Fresh aggregator per fit: the adapter caches a protocol
            # bound to one Network, and each fit builds a new one.
            aggregator = SecureSumAggregator(
                codec=FixedPointCodec(max_terms=4, vectorized=vectorized),
                mode="fresh",
                seed=0,
            )
            model = PrivacyPreservingSVM(
                "horizontal",
                C=50.0,
                rho=100.0,
                max_iter=max_iter,
                seed=0,
                aggregator=aggregator,
            ).fit(parts)
            last_model[:] = [model]

        _record(
            results,
            "trainer.horizontal_linear_fit",
            {
                "learners": 4,
                "n_features": n_features,
                "max_iter": max_iter,
                "backend": "vectorized" if vectorized else "legacy",
            },
            _timeit(fit, repeats=1 if smoke else 2),
        )
        if ledger_dir is not None and last_model:
            backend = "vectorized" if vectorized else "legacy"
            run_id = last_model[0].save_run(
                str(ledger_dir), kind="bench", label=f"hotpaths/{backend}"
            )
            print(f"  bench run recorded: {run_id} ({ledger_dir}/)")


def bench_map_wave(results: list[dict], *, smoke: bool) -> None:
    print("parallel map wave:")
    parts = _training_parts()
    max_iter = 5 if smoke else 15
    for workers in (1, 4):
        def fit():
            PrivacyPreservingSVM(
                "horizontal",
                C=50.0,
                rho=100.0,
                max_iter=max_iter,
                seed=0,
                n_map_workers=workers,
            ).fit(parts)

        _record(
            results,
            "twister.map_wave_fit",
            {"learners": 4, "max_iter": max_iter, "n_map_workers": workers},
            _timeit(fit, repeats=1 if smoke else 2),
        )


def check_regressions(pairs: list[tuple[dict, dict]]) -> list[str]:
    """A vectorized secure-sum round must never be slower than legacy."""
    failures = []
    for vec, legacy in pairs:
        if vec["wall_s"] > legacy["wall_s"]:
            failures.append(
                f"secure_sum {vec['params']}: vectorized {vec['wall_s']:.4f}s "
                f"slower than legacy {legacy['wall_s']:.4f}s"
            )
        else:
            speedup = legacy["wall_s"] / max(vec["wall_s"], 1e-12)
            print(f"  ok: {json.dumps(vec['params'])} speedup {speedup:.1f}x")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized problem set (seconds, not minutes)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if vectorized secure-sum is slower than the legacy backend",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    parser.add_argument(
        "--ledger",
        nargs="?",
        const=REPO_ROOT / ".repro-runs",
        default=None,
        type=Path,
        metavar="DIR",
        help="persist end-to-end bench fits to the run ledger "
        "(default directory: .repro-runs/)",
    )
    args = parser.parse_args(argv)

    results: list[dict] = []
    pairs = bench_secure_sum(results, smoke=args.smoke)
    bench_codec_kernels(results, smoke=args.smoke)
    bench_box_qp(results, smoke=args.smoke)
    bench_map_wave(results, smoke=args.smoke)
    bench_end_to_end(results, smoke=args.smoke, ledger_dir=args.ledger)

    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {len(results)} records to {args.out}")

    if args.check:
        failures = check_regressions(pairs)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
