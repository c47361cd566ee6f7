"""Shared fixtures for the test suite.

Datasets are small and seeded; cluster fixtures give each test an
isolated network/HDFS pair.  Anything slow (full paper-scale runs)
lives in ``benchmarks/``, not here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.hdfs import SimulatedHdfs
from repro.cluster.network import Network
from repro.data.dataset import Dataset
from repro.data.scaling import StandardScaler
from repro.data.splits import train_test_split
from repro.data.synthetic import make_blobs, make_cancer_like, make_linear_task, make_xor_task


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def blobs() -> Dataset:
    """Well-separated 2-D blobs: 120 points."""
    return make_blobs(120, 2, delta=4.0, seed=7)


@pytest.fixture
def linear_task() -> Dataset:
    """Separable 5-feature linear task: 200 points."""
    return make_linear_task(200, 5, margin=0.5, seed=3)


@pytest.fixture
def xor_task() -> Dataset:
    """The linearly inseparable XOR task: 240 points."""
    return make_xor_task(240, noise=0.15, seed=5)


@pytest.fixture
def cancer_split() -> tuple[Dataset, Dataset]:
    """Standardized 50/50 split of a 240-sample cancer-like set."""
    dataset = make_cancer_like(240, seed=11)
    train, test = train_test_split(dataset, 0.5, seed=0)
    scaler = StandardScaler().fit(train.X)
    return scaler.transform_dataset(train), scaler.transform_dataset(test)


@pytest.fixture
def network() -> Network:
    return Network()


@pytest.fixture
def cluster(network: Network) -> tuple[Network, SimulatedHdfs]:
    """A 4-datanode cluster."""
    hdfs = SimulatedHdfs(network)
    for i in range(4):
        hdfs.add_datanode(f"node{i}")
    return network, hdfs


def breakpoint_knapsack(a, d, c, r, lo, hi) -> np.ndarray:
    """Reference minimiser of the quadratic knapsack, by sorting breakpoints.

    ``phi(nu) = sum_i c_i clip(q_i - nu c_i/a_i, lo_i, hi_i) - r`` is
    linear between consecutive breakpoints (where a coordinate with
    ``c_i != 0`` meets a bound) and constant beyond them, for finite
    bounds.  Evaluate it at every sorted breakpoint, find the piece that
    holds its root and interpolate linearly.
    """
    q, s = -d / a, c / a
    lo, hi = np.broadcast_to(lo, q.shape), np.broadcast_to(hi, q.shape)

    def x_of(nu):
        return np.clip(q - nu * s, lo, hi)

    moving = s != 0.0
    ends = np.concatenate([(q - lo)[moving], (q - hi)[moving]])
    points = np.unique(ends / np.tile(s[moving], 2))  # sorted, duplicates merged
    if points.size == 0:  # phi is constant: x does not depend on nu
        return x_of(0.0)
    values = np.array([c @ x_of(nu) - r for nu in points])
    if values[0] <= 0.0:  # r is the largest achievable sum
        return x_of(points[0])
    if values[-1] >= 0.0:  # r is the smallest achievable sum
        return x_of(points[-1])
    k = np.flatnonzero(values >= 0.0)[-1]
    nu0, nu1 = points[k], points[k + 1]
    return x_of(nu0 + (nu1 - nu0) * values[k] / (values[k] - values[k + 1]))


@pytest.fixture(scope="session")
def knapsack_reference():
    """:func:`breakpoint_knapsack`, for tests that check exact minimisers."""
    return breakpoint_knapsack


class ScalarResidueCodec:
    """Reference fixed-point arithmetic in ``Z_q`` on plain Python ints.

    Independent of the packed ``ResidueVector`` backend: ``encode`` is
    ``round(x * 2^f) mod q`` (half to even), ``add``/``subtract`` reduce
    elementwise, ``decode`` lifts ``r >= q >> 1`` to ``r - q`` and takes
    the correctly-rounded ``int / int`` quotient, and ``random_vector``
    composes each row of one raw ``(n, W)`` ``uint64`` draw little-endian
    and reduces it mod ``q`` (``W`` as many words as ``q - 1`` needs for
    a power of two, one more otherwise).
    """

    def __init__(self, modulus: int, fractional_bits: int) -> None:
        self.modulus, self.scale = modulus, 1 << fractional_bits

    def encode(self, values) -> list[int]:
        return [round(float(x) * self.scale) % self.modulus for x in values]

    def add(self, a, b) -> list[int]:
        return [(int(x) + int(y)) % self.modulus for x, y in zip(a, b, strict=True)]

    def subtract(self, a, b) -> list[int]:
        return [(int(x) - int(y)) % self.modulus for x, y in zip(a, b, strict=True)]

    def decode(self, residues) -> np.ndarray:
        q = self.modulus
        lifted = [int(r) - q if int(r) >= q >> 1 else int(r) for r in residues]
        return np.array([r / self.scale for r in lifted], dtype=float)

    def random_vector(self, n: int, rng: np.random.Generator) -> list[int]:
        bits = (self.modulus - 1).bit_length()
        power_of_two = self.modulus & (self.modulus - 1) == 0
        n_words = max(1, -(-bits // 64)) if power_of_two else -(-bits // 64) + 1
        rows = rng.integers(0, 2**64, size=(n, n_words), dtype=np.uint64).tolist()
        return [
            sum(word << (64 * i) for i, word in enumerate(row)) % self.modulus
            for row in rows
        ]


@pytest.fixture(scope="session")
def residue_reference():
    """:class:`ScalarResidueCodec`, the oracle for the packed codec."""
    return ScalarResidueCodec
