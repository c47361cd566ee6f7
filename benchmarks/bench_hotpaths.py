"""Perf-regression harness for the hot paths.

Times the secure-sum round, the codec kernels, the box-QP solver, the
map wave and a small end-to-end secure fit, and writes
``BENCH_hotpaths.json`` (one record per measurement, see
``docs/PERFORMANCE.md`` for the schema).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke --check

``--check`` first reads the records already at ``--out`` (by default
the committed ``BENCH_hotpaths.json``, a full run) as the baseline,
then exits non-zero if any new record with the same ``(op, params)`` is
more than ``CHECK_FACTOR`` = 3.0× slower than its baseline row, or if
no row matches at all.  The smoke and full runs share ten rows: the
``fresh`` and ``prg`` 8×512 secure-sum rounds, the ``fresh`` 16×2049
round (the ``hlin-wide-m16`` shape), the five codec kernel rows and the
two box-QP rows, which run at one size and best-of count in both modes.
Only the map-wave and end-to-end fits are smaller under ``--smoke``.
The factor leaves room for a slower machine than the one that wrote
the baseline while still catching a loss of the packed limb arithmetic
(3.5–3.8× on a secure-sum round) or of the one-pass ``combine``
netting (3.4–3.6× over chained two-term calls at 16×2049).
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
#: A record fails ``--check`` when its wall time exceeds this multiple
#: of the baseline row with the same ``(op, params)``.
CHECK_FACTOR = 3.0


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


def bench_secure_sum(results: list[dict], *, smoke: bool) -> None:
    """Fresh/prg secure-sum rounds over the packed residue codec."""
    print("secure summation rounds:")
    configs = [("fresh", 8, 512), ("prg", 8, 512), ("fresh", 16, 2049)]
    if not smoke:
        configs += [("fresh", 8, 2048), ("fresh", 16, 512)]
    # Same best-of count in both modes: the rows they share are what
    # ``--check`` compares.
    repeats = 5
    for mode, n_participants, dim in configs:
        codec = FixedPointCodec(max_terms=n_participants)
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
        _record(
            results,
            "secure_sum.round",
            {"mode": mode, "participants": n_participants, "dim": dim},
            wall,
            per_round_bytes,
        )


def bench_codec_kernels(results: list[dict]) -> None:
    """Codec kernels at one size in both modes, so ``--check`` matches them."""
    print("codec kernels:")
    dim = 8192
    repeats = 20
    rng = np.random.default_rng(1)
    values = rng.normal(size=dim)
    codec = FixedPointCodec()
    a = codec.random_vector_array(dim, np.random.default_rng(2))
    b = codec.random_vector_array(dim, np.random.default_rng(3))
    _record(
        results,
        "codec.encode",
        {"dim": dim},
        _timeit(lambda: codec.encode_array(values), repeats=repeats),
    )
    _record(
        results,
        "codec.random_vector",
        {"dim": dim},
        _timeit(
            lambda: codec.random_vector_array(dim, np.random.default_rng(4)),
            repeats=repeats,
        ),
    )
    _record(
        results,
        "codec.add",
        {"dim": dim},
        _timeit(lambda: codec.add(a, b), repeats=repeats),
    )
    # Netting 16 masks of the ``hlin-wide-m16`` width in one carry pass.
    terms = [codec.random_vector_array(2049, np.random.default_rng(5 + i)) for i in range(16)]
    _record(
        results,
        "codec.combine",
        {"terms": len(terms), "dim": 2049},
        _timeit(lambda: codec.combine(terms), repeats=repeats),
    )
    _record(
        results,
        "codec.decode",
        {"dim": dim},
        _timeit(lambda: codec.decode(codec.encode_array(values)), repeats=repeats),
    )


def bench_box_qp(results: list[dict]) -> None:
    """Box-QP solves at one size in both modes, so ``--check`` matches them."""
    print("box QP solves:")
    n = 600
    repeats = 5
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
    """Full horizontal-linear secure fit.

    Uses a high-dimensional task (the regime the paper's big-data
    setting targets) so the secure-summation rounds — not the tiny
    per-learner QPs — carry the iteration cost.  When ``ledger_dir`` is
    given, the last fitted model is persisted to the run ledger
    (``kind="bench"``) so perf runs are queryable alongside training
    runs via ``repro runs``.
    """
    print("end-to-end horizontal linear fit:")
    n_features = 256 if smoke else 512
    dataset = make_linear_task(240, n_features, noise=0.05, seed=7)
    parts = horizontal_partition(dataset, 4, seed=0)
    max_iter = 5 if smoke else 15
    last_model: list[PrivacyPreservingSVM] = []

    def fit():
        # Fresh aggregator per fit: the adapter caches a protocol bound
        # to one Network, and each fit builds a new one.
        aggregator = SecureSumAggregator(
            codec=FixedPointCodec(max_terms=4), mode="fresh", seed=0
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
        {"learners": 4, "n_features": n_features, "max_iter": max_iter},
        _timeit(fit, repeats=1 if smoke else 2),
    )
    if ledger_dir is not None and last_model:
        run_id = last_model[0].save_run(
            str(ledger_dir), kind="bench", label="hotpaths"
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


def _row_key(row: dict) -> tuple[str, str]:
    return row["op"], json.dumps(row["params"], sort_keys=True)


def check_regressions(baseline: list[dict], results: list[dict]) -> list[str]:
    """Rows more than ``CHECK_FACTOR`` × slower than their baseline row."""
    reference = {_row_key(row): row["wall_s"] for row in baseline}
    failures = []
    matched = 0
    for row in results:
        base = reference.get(_row_key(row))
        if base is None:
            continue
        matched += 1
        ratio = row["wall_s"] / max(base, 1e-12)
        label = f"{row['op']} {json.dumps(row['params'])}"
        if ratio > CHECK_FACTOR:
            failures.append(
                f"{label}: {row['wall_s']:.4f}s is {ratio:.1f}x the baseline "
                f"{base:.4f}s (limit {CHECK_FACTOR:.1f}x)"
            )
        else:
            print(f"  ok: {label} {ratio:.2f}x baseline")
    print(f"compared {matched} of {len(results)} records with the baseline")
    if not matched:
        failures.append("no record matches a baseline row; nothing was compared")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized problem set (seconds, not minutes)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 if any record is more than {CHECK_FACTOR:.1f}x slower than "
        "the matching row already at --out",
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

    # Read before this run overwrites the file.
    baseline = json.loads(args.out.read_text()) if args.check and args.out.is_file() else []
    results: list[dict] = []
    bench_secure_sum(results, smoke=args.smoke)
    bench_codec_kernels(results)
    bench_box_qp(results)
    bench_map_wave(results, smoke=args.smoke)
    bench_end_to_end(results, smoke=args.smoke, ledger_dir=args.ledger)

    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {len(results)} records to {args.out}")

    if args.check:
        failures = check_regressions(baseline, results)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
