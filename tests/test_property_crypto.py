"""Property-based tests (hypothesis) for the cryptographic substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.network import Network
from repro.crypto.fixed_point import FixedPointCodec
from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.secret_sharing import (
    additive_reconstruct,
    additive_share,
    shamir_reconstruct,
    shamir_share,
)
from repro.crypto.secure_sum import SecureSummationProtocol

bounded_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

# One module-level key pair: generation is the slow part.
_KEYPAIR = PaillierKeyPair.generate(bits=192, seed=1234)


class TestFixedPointProperties:
    @given(hnp.arrays(float, st.integers(1, 30), elements=bounded_floats))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_error_bound(self, values):
        codec = FixedPointCodec(fractional_bits=40)
        decoded = codec.decode(codec.encode_array(values))
        assert np.max(np.abs(decoded - values)) <= 2.0**-40 + 1e-12

    @given(
        hnp.arrays(float, 6, elements=bounded_floats),
        hnp.arrays(float, 6, elements=bounded_floats),
    )
    @settings(max_examples=60, deadline=None)
    def test_homomorphic_add(self, a, b):
        codec = FixedPointCodec()
        out = codec.decode(codec.add(codec.encode_array(a), codec.encode_array(b)))
        np.testing.assert_allclose(out, a + b, atol=1e-9)

    @given(hnp.arrays(float, 5, elements=bounded_floats), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_masking_is_invertible(self, values, seed):
        codec = FixedPointCodec()
        rng = np.random.default_rng(seed)
        mask = codec.random_vector_array(5, rng)
        encoded = codec.encode_array(values)
        assert codec.subtract(codec.add(encoded, mask), mask) == encoded


class TestSecureSumProperties:
    @given(
        st.integers(2, 6),
        st.integers(1, 8),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["fresh", "prg"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_sum_always_correct(self, n_parties, dim, seed, mode):
        rng = np.random.default_rng(seed)
        network = Network(keep_log=False)
        participants = [f"p{i}" for i in range(n_parties)]
        protocol = SecureSummationProtocol(
            network, participants, "agg", mode=mode, seed=seed
        )
        values = {p: rng.uniform(-1e3, 1e3, size=dim) for p in participants}
        result = protocol.sum_vectors(values)
        np.testing.assert_allclose(result, sum(values.values()), atol=1e-8)


class TestSecretSharingProperties:
    @given(st.integers(0, 2**100), st.integers(2, 10), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_additive_roundtrip(self, secret, n_shares, seed):
        rng = np.random.default_rng(seed)
        shares = additive_share(secret, n_shares, rng=rng)
        assert additive_reconstruct(shares) == secret % (1 << 128)

    @given(st.integers(0, 2**100), st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shamir_roundtrip_any_threshold_subset(self, secret, threshold, extra, seed):
        rng = np.random.default_rng(seed)
        n_shares = threshold + extra
        shares = shamir_share(secret, n_shares, threshold, rng=rng)
        chosen = list(rng.choice(n_shares, size=threshold, replace=False))
        assert shamir_reconstruct([shares[i] for i in chosen]) == secret


class TestPaillierProperties:
    @given(st.integers(-(2**60), 2**60), st.integers(-(2**60), 2**60))
    @settings(max_examples=30, deadline=None)
    def test_additive_homomorphism(self, a, b):
        pk = _KEYPAIR.public_key
        rng = np.random.default_rng(abs(a + b) % (2**31))
        c = pk.encrypt(a, rng=rng) + pk.encrypt(b, rng=rng)
        assert _KEYPAIR.decrypt(c) == a + b

    @given(st.integers(-(2**40), 2**40), st.integers(-(2**15), 2**15))
    @settings(max_examples=30, deadline=None)
    def test_scalar_homomorphism(self, m, k):
        pk = _KEYPAIR.public_key
        rng = np.random.default_rng(abs(m) % (2**31))
        assert _KEYPAIR.decrypt(pk.encrypt(m, rng=rng) * k) == m * k
