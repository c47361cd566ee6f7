"""Microbenchmarks of the primitive operations (proper pytest-benchmark
timing loops, unlike the one-shot experiment regenerations).

These quantify the per-operation costs behind Table S2: one secure-sum
round, one Paillier encryption, one local dual QP solve, one SMO solve,
one knapsack solve (also at the vertical Reducer's 32000-row scale).
"""

import numpy as np
import pytest

from repro.cluster.network import Network
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.secure_sum import SecureSummationProtocol
from repro.data.synthetic import make_blobs
from repro.svm.kernels import LinearKernel, RBFKernel
from repro.svm.knapsack import solve_quadratic_knapsack
from repro.svm.qp import psd_factor, solve_box_qp
from repro.svm.smo import solve_svm_dual


@pytest.fixture(scope="module")
def keypair():
    return PaillierKeyPair.generate(bits=512, seed=0)


def test_secure_sum_round_m4_dim10(benchmark):
    network = Network(keep_log=False)
    participants = [f"m{i}" for i in range(4)]
    protocol = SecureSummationProtocol(network, participants, "r", seed=0)
    rng = np.random.default_rng(0)
    values = {p: rng.normal(size=10) for p in participants}
    result = benchmark(protocol.sum_vectors, values)
    np.testing.assert_allclose(result, sum(values.values()), atol=1e-8)


def test_secure_sum_round_prg_mode(benchmark):
    network = Network(keep_log=False)
    participants = [f"m{i}" for i in range(4)]
    protocol = SecureSummationProtocol(network, participants, "r", mode="prg", seed=0)
    rng = np.random.default_rng(0)
    values = {p: rng.normal(size=10) for p in participants}
    benchmark(protocol.sum_vectors, values)


def test_fixed_point_encode_dim100(benchmark):
    codec = FixedPointCodec()
    values = np.random.default_rng(0).normal(size=100)
    benchmark(codec.encode_array, values)


def test_paillier_encrypt(benchmark, keypair):
    rng = np.random.default_rng(0)
    benchmark(keypair.public_key.encrypt, 123456789, rng=rng)


def test_paillier_homomorphic_add(benchmark, keypair):
    rng = np.random.default_rng(0)
    a = keypair.public_key.encrypt(111, rng=rng)
    b = keypair.public_key.encrypt(222, rng=rng)
    benchmark(lambda: a + b)


def test_box_qp_n100(benchmark):
    rng = np.random.default_rng(0)
    A = rng.normal(size=(100, 100))
    factor = psd_factor(A @ A.T / 100 + np.eye(100))
    d = rng.normal(size=100)
    result = benchmark(solve_box_qp, factor, d, 0.0, 50.0)
    assert result.converged


def test_box_qp_warm_start_n100(benchmark):
    rng = np.random.default_rng(0)
    A = rng.normal(size=(100, 100))
    factor = psd_factor(A @ A.T / 100 + np.eye(100))
    d = rng.normal(size=100)
    x0 = solve_box_qp(factor, d, 0.0, 50.0).x
    # Perturb the linear term slightly — the ADMM-iteration pattern.
    d2 = d + 0.01 * rng.normal(size=100)
    result = benchmark(solve_box_qp, factor, d2, 0.0, 50.0, x0=x0)
    assert result.converged


def test_knapsack_n1000(benchmark):
    rng = np.random.default_rng(0)
    n = 1000
    a = np.full(n, 0.04)
    d = rng.normal(size=n)
    c = rng.choice([-1.0, 1.0], size=n)
    result = benchmark(solve_quadratic_knapsack, a, d, c, 0.0, 0.0, 50.0)
    assert result.constraint_residual < 1e-6


def test_knapsack_reducer_n32000(benchmark):
    # The vertical Reducer's shape at perfbench scale: a = M/rho, c = y,
    # box [0, C], d = M y cbar - 1 with M = 4, rho = 100, C = 50.
    rng = np.random.default_rng(0)
    n = 32_000
    y = rng.choice([-1.0, 1.0], size=n)
    cbar = rng.normal(0.0, 0.3, size=n) + 0.2 * y
    d = 4.0 * y * cbar - 1.0
    result = benchmark(solve_quadratic_knapsack, np.full(n, 0.04), d, y, 0.0, 0.0, 50.0)
    assert result.iterations <= 10
    assert result.constraint_residual < 1e-9


def test_smo_linear_n200(benchmark):
    ds = make_blobs(200, 5, delta=2.0, seed=0)
    K = LinearKernel().gram(ds.X)
    result = benchmark(solve_svm_dual, K, ds.y, 50.0)
    assert result.iterations > 0


def test_smo_rbf_n200(benchmark):
    ds = make_blobs(200, 5, delta=2.0, seed=0)
    K = RBFKernel(gamma=0.2).gram(ds.X)
    result = benchmark(solve_svm_dual, K, ds.y, 50.0)
    assert result.iterations > 0


def test_rbf_gram_500x500(benchmark):
    X = np.random.default_rng(0).normal(size=(500, 20))
    benchmark(RBFKernel(gamma=0.1).gram, X)
