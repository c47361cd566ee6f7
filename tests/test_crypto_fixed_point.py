"""Unit tests for the fixed-point codec."""

import numpy as np
import pytest

from repro.crypto.fixed_point import FixedPointCodec


class TestRoundTrip:
    def test_exact_for_dyadic_values(self):
        codec = FixedPointCodec(fractional_bits=8)
        values = np.array([1.5, -2.25, 0.0, 100.0078125])
        np.testing.assert_array_equal(codec.decode(codec.encode_array(values)), values)

    def test_rounding_error_bounded(self, rng):
        codec = FixedPointCodec(fractional_bits=40)
        values = rng.normal(size=50)
        decoded = codec.decode(codec.encode_array(values))
        assert np.max(np.abs(decoded - values)) <= 2.0**-40

    def test_negative_values_centered_lift(self):
        codec = FixedPointCodec()
        out = codec.decode(codec.encode_array([-123.456]))
        assert out[0] == pytest.approx(-123.456, abs=1e-9)

    def test_empty_vector(self):
        codec = FixedPointCodec()
        assert codec.encode_array([]).to_ints() == []
        assert codec.decode([]).shape == (0,)


class TestArithmetic:
    def test_add_matches_real_addition(self, rng):
        codec = FixedPointCodec()
        a, b = rng.normal(size=10), rng.normal(size=10)
        total = codec.decode(codec.add(codec.encode_array(a), codec.encode_array(b)))
        np.testing.assert_allclose(total, a + b, atol=1e-9)

    def test_subtract_matches(self, rng):
        codec = FixedPointCodec()
        a, b = rng.normal(size=10), rng.normal(size=10)
        diff = codec.decode(codec.subtract(codec.encode_array(a), codec.encode_array(b)))
        np.testing.assert_allclose(diff, a - b, atol=1e-9)

    def test_mask_cancellation(self, rng):
        # The secure-sum identity: x + m - m decodes to x exactly.
        codec = FixedPointCodec()
        x = codec.encode_array([3.14159])
        mask = codec.random_vector_array(1, rng)
        masked = codec.add(x, mask)
        unmasked = codec.subtract(masked, mask)
        assert unmasked == x

    def test_many_term_sum_no_overflow(self, rng):
        codec = FixedPointCodec(max_terms=64)
        values = [rng.uniform(-100, 100, size=5) for _ in range(64)]
        total = codec.zeros_array(5)
        for v in values:
            total = codec.add(total, codec.encode_array(v))
        np.testing.assert_allclose(codec.decode(total), np.sum(values, axis=0), atol=1e-6)

    def test_length_mismatch(self):
        codec = FixedPointCodec()
        with pytest.raises(ValueError):
            codec.add([1], [1, 2])


class TestGuards:
    def test_overflow_guard(self):
        codec = FixedPointCodec(fractional_bits=40, modulus_bits=64, max_terms=4)
        with pytest.raises(OverflowError, match="overflow-safe bound"):
            codec.encode_array([1e9])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            FixedPointCodec().encode_array([np.nan])

    def test_modulus_must_exceed_fraction(self):
        with pytest.raises(ValueError):
            FixedPointCodec(fractional_bits=40, modulus_bits=41)

    def test_invalid_max_terms(self):
        with pytest.raises(ValueError):
            FixedPointCodec(max_terms=0)


class TestRandomVector:
    def test_values_in_group(self, rng):
        codec = FixedPointCodec(modulus_bits=96)
        vec = codec.random_vector_array(20, rng)
        assert all(0 <= v < codec.modulus for v in vec)

    def test_looks_uniform_top_bit(self, rng):
        codec = FixedPointCodec(modulus_bits=128)
        vec = codec.random_vector_array(2000, rng)
        top_bits = [v >> 127 for v in vec]
        assert 0.4 < np.mean(top_bits) < 0.6

    def test_negative_length_rejected(self, rng):
        with pytest.raises(ValueError):
            FixedPointCodec().random_vector_array(-1, rng)
