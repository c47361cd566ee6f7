"""Equivalence tests: the packed residue codec vs a scalar reference.

The packed backend (``uint64`` limb arrays for power-of-two moduli,
object arrays of Python ints for odd ones) must reproduce the exact
integers of ``ScalarResidueCodec`` in ``conftest.py`` — same residues,
same decoded floats, same masks from the same generator, which it must
leave in the same state — for the default power-of-two modulus, narrower
and wider ones, and an odd prime field.  Test names that say *legacy*
compare against that reference, which carries the arithmetic of the
retired ``list[int]`` backend.  The mask stream itself is pinned by
SHA-256 digests in ``fixtures/mask_stream_digests.json``; a deliberate
change to it re-pins them with ``PYTHONPATH=src python
tests/test_crypto_fixed_point_vectorized.py`` and says so in
CHANGES.md.  A regression here means protocol transcripts or training
trajectories silently changed.
"""

import hashlib
import json
import pathlib
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import default_rng

from repro.crypto.fixed_point import FixedPointCodec, ResidueVector
from repro.crypto.secret_sharing import MERSENNE_PRIME_127

CODEC_KWARGS = {
    "pow2-128-default": {},
    "pow2-64": {"modulus_bits": 64, "fractional_bits": 20},
    "pow2-96": {"modulus_bits": 96, "fractional_bits": 30},
    "explicit-pow2-128": {"modulus": 1 << 128},
    "mersenne-prime-127": {"modulus": MERSENNE_PRIME_127},
}
CODEC_CONFIGS = [pytest.param(kwargs, id=name) for name, kwargs in CODEC_KWARGS.items()]

DIGESTS_PATH = pathlib.Path(__file__).parent / "fixtures" / "mask_stream_digests.json"


def full_range_residues(codec: FixedPointCodec, n: int, seed: int) -> list[int]:
    """Uniform residues in ``[0, q)`` drawn independently of the codec."""
    draw = random.Random(seed)
    return [draw.randrange(codec.modulus) for _ in range(n)]


def mask_stream_digests(codec: FixedPointCodec) -> dict[str, str]:
    """SHA-256 of two consecutive mask draws per seed (lengths 64 and 3)."""
    out = {}
    for seed in (0, 1):
        rng = default_rng(seed)
        residues = [codec.random_vector_array(n, rng).to_ints() for n in (64, 3)]
        out[str(seed)] = hashlib.sha256(json.dumps(residues).encode()).hexdigest()
    return out


@pytest.fixture(params=CODEC_CONFIGS)
def codec(request):
    return FixedPointCodec(**request.param)


@pytest.fixture
def reference(codec, residue_reference):
    """The scalar reference for ``codec``'s group and scale."""
    return residue_reference(codec.modulus, codec.fractional_bits)


class TestEncodeDecodeEquivalence:
    def test_encode_array_matches_legacy_list(self, codec, reference, rng):
        values = rng.normal(size=257) * min(1.0, codec.max_magnitude / 10)
        values[0] = 0.0
        assert codec.encode_array(values).to_ints() == reference.encode(values)

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"modulus_bits": 64, "fractional_bits": 20, "max_terms": 1}, id="pow2-64"),
            pytest.param({"modulus_bits": 96, "fractional_bits": 30, "max_terms": 1}, id="pow2-96"),
            pytest.param({}, id="pow2-128-default"),
            pytest.param({"modulus": MERSENNE_PRIME_127, "max_terms": 4}, id="mersenne-prime-127"),
        ],
    )
    def test_encode_array_matches_scalar_across_int64_cut(self, kwargs, residue_reference):
        # Scaled magnitudes below 2^63 take the int64 path, the rest the
        # exact divmod path; a batch takes the int64 path only when all
        # of its values fit.
        codec = FixedPointCodec(**kwargs)
        reference = residue_reference(codec.modulus, codec.fractional_bits)
        scale = float(codec.scale)
        magnitudes = [2.0**63 - 2.0**10, 2.0**63, 2.0**70]
        halves = [0.5, 1.5, 2.5, 3.5, 2.0**40 + 0.5]
        values = [m / scale for m in magnitudes] + [h / scale for h in halves]
        values = [sign * v for v in values for sign in (1.0, -1.0)] + [-0.0, 0.0]
        encodable = [v for v in values if abs(v) < codec.max_magnitude]
        # Every modulus reaches the cut from below; the wider ones cross it.
        assert magnitudes[0] / scale in encodable
        if codec.modulus_bits > 64:
            assert magnitudes[-1] / scale in encodable
        small = [v for v in encodable if abs(v) * scale < 2.0**63]
        for batch in [[v] for v in encodable] + [encodable, small]:
            encoded = codec.encode_array(batch)
            assert encoded.to_ints() == reference.encode(batch), batch
            assert np.array_equal(
                codec.decode(encoded), reference.decode(reference.encode(batch))
            ), batch

    def test_decode_matches_legacy_on_small_residues(self, codec, reference, rng):
        values = rng.normal(size=129) * min(1.0, codec.max_magnitude / 10)
        expected = reference.decode(reference.encode(values))
        assert np.array_equal(codec.decode(codec.encode_array(values)), expected)

    def test_decode_matches_legacy_on_full_range_residues(self, codec, reference):
        # Masked shares are uniform over [0, q): the packed decode must
        # take its exact big-int path, not the single-limb float path.
        residues = full_range_residues(codec, 64, 5)
        expected = reference.decode(residues)
        assert np.array_equal(codec.decode(codec._from_ints(residues)), expected)
        assert np.array_equal(codec.decode(residues), expected)

    def test_roundtrip_is_exact_for_dyadic_values(self, codec):
        values = np.array([0.0, 1.0, -1.0, 0.5, -0.25, 3.75, -100.0])
        assert np.array_equal(codec.decode(codec.encode_array(values)), values)


class TestArithmeticEquivalence:
    def test_add_subtract_match_legacy(self, codec, reference):
        a = full_range_residues(codec, 257, 1)
        b = full_range_residues(codec, 257, 2)
        va, vb = codec._from_ints(a), codec._from_ints(b)
        assert codec.add(va, vb).to_ints() == reference.add(a, b)
        assert codec.subtract(va, vb).to_ints() == reference.subtract(a, b)

    def test_add_subtract_decode_match_reference_on_boundaries(self, codec, reference):
        # Carries, borrows and the centered lift change behaviour only at
        # limb edges and at q/2, which uniform draws almost never hit.
        q = codec.modulus
        edges = {0, 1, 2, q - 2, q - 1, (q >> 1) - 1, q >> 1, (q >> 1) + 1}
        for bits in range(64, q.bit_length(), 64):
            edges |= {(1 << bits) - 1, 1 << bits, (1 << bits) + 1}
        edges = sorted(e for e in edges if 0 <= e < q)
        a = [x for x in edges for _ in edges]
        b = [y for _ in edges for y in edges]
        va, vb = codec._from_ints(a), codec._from_ints(b)
        assert codec.add(va, vb).to_ints() == reference.add(a, b)
        assert codec.subtract(va, vb).to_ints() == reference.subtract(a, b)
        assert np.array_equal(codec.decode(va), reference.decode(a))

    def test_int_list_operands_return_residue_vector(self, codec, reference):
        # The threshold path adds Shamir shares as plain int lists; the
        # result is packed like any other.
        a = full_range_residues(codec, 33, 6)
        b = full_range_residues(codec, 33, 7)
        total, diff = codec.add(a, b), codec.subtract(a, b)
        assert isinstance(total, ResidueVector) and isinstance(diff, ResidueVector)
        assert total == codec._from_ints(reference.add(a, b))
        assert diff == codec._from_ints(reference.subtract(a, b))

    def test_mask_roundtrip_cancels(self, codec, rng):
        values = rng.normal(size=40) * min(1.0, codec.max_magnitude / 10)
        encoded = codec.encode_array(values)
        mask = codec.random_vector_array(40, default_rng(3))
        masked = codec.add(encoded, mask)
        unmasked = codec.subtract(masked, mask)
        assert unmasked == encoded
        assert np.array_equal(codec.decode(unmasked), codec.decode(encoded))

    def test_mixed_operand_types(self, codec, reference):
        ints = full_range_residues(codec, 9, 4)
        packed = codec._from_ints(ints)
        assert codec.add(packed, ints).to_ints() == reference.add(ints, ints)
        assert codec.subtract(ints, packed).to_ints() == [0] * 9

    def test_length_mismatch_rejected(self, codec):
        with pytest.raises(ValueError, match="length"):
            codec.add(codec.zeros_array(1), codec.zeros_array(2))


def boundary_residues(modulus: int) -> list[int]:
    """Residues at which carries, borrows and the centered lift change."""
    edges = {0, 1, modulus - 1, (modulus >> 1) - 1, modulus >> 1}
    for bits in range(64, modulus.bit_length(), 64):
        edges |= {(1 << bits) - 1, 1 << bits}
    return sorted(e for e in edges if 0 <= e < modulus)


class TestCombine:
    """``combine(plus, minus)`` against a fold of the scalar oracle."""

    @staticmethod
    def oracle(reference, n, plus, minus):
        total = [0] * n
        for term in plus:
            total = reference.add(total, term)
        for term in minus:
            total = reference.subtract(total, term)
        return total

    @pytest.mark.parametrize("name", sorted(CODEC_KWARGS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_oracle(self, name, residue_reference, data):
        codec = FixedPointCodec(**CODEC_KWARGS[name])
        reference = residue_reference(codec.modulus, codec.fractional_bits)
        residue = st.one_of(
            st.sampled_from(boundary_residues(codec.modulus)),
            st.integers(0, codec.modulus - 1),
        )
        n = data.draw(st.integers(1, 5), label="n")
        n_terms = data.draw(st.integers(1, 40), label="n_terms")
        n_plus = data.draw(st.integers(1, n_terms), label="n_plus")
        terms = data.draw(
            st.lists(
                st.lists(residue, min_size=n, max_size=n),
                min_size=n_terms,
                max_size=n_terms,
            ),
            label="terms",
        )
        # Each operand is passed either packed or as a plain int list.
        packed = data.draw(
            st.lists(st.booleans(), min_size=n_terms, max_size=n_terms), label="packed"
        )
        operands = [
            codec._from_ints(term) if pack else term
            for term, pack in zip(terms, packed)
        ]
        result = codec.combine(operands[:n_plus], operands[n_plus:])
        assert isinstance(result, ResidueVector)
        assert result.to_ints() == self.oracle(
            reference, n, terms[:n_plus], terms[n_plus:]
        )

    def test_minus_heavy_net_negative_carries(self, codec, reference):
        # One small plus term against 39 near-q minus terms drives every
        # half's accumulator far below zero before the carry pass.
        edges = boundary_residues(codec.modulus)
        plus = [[0, 1, codec.modulus >> 1] + edges]
        minus = [[codec.modulus - 1] * len(plus[0])] * 20 + [
            list(reversed(plus[0]))
        ] * 19
        got = codec.combine([codec._from_ints(t) for t in plus], minus)
        assert got.to_ints() == self.oracle(reference, len(plus[0]), plus, minus)

    def test_matches_chained_add_subtract_on_masks(self, codec):
        rng = default_rng(12)
        plus = [codec.random_vector_array(64, rng) for _ in range(9)]
        minus = [codec.random_vector_array(64, rng) for _ in range(7)]
        chained = plus[0]
        for term in plus[1:]:
            chained = codec.add(chained, term)
        for term in minus:
            chained = codec.subtract(chained, term)
        assert codec.combine(plus, minus) == chained

    def test_rejects_empty_plus_and_length_mismatch(self, codec):
        with pytest.raises(ValueError, match="plus"):
            codec.combine([])
        with pytest.raises(ValueError, match="plus"):
            codec.combine([], [codec.zeros_array(2)])
        with pytest.raises(ValueError, match="length"):
            codec.combine([codec.zeros_array(2), codec.zeros_array(3)])
        with pytest.raises(ValueError, match="length"):
            codec.combine([codec.zeros_array(2)], [[0, 0, 0]])


class TestRandomVectorStream:
    def test_backends_agree_over_consecutive_draws(self, codec, reference):
        packed_rng, reference_rng = default_rng(7), default_rng(7)
        for n in (33, 1, 17):
            packed = codec.random_vector_array(n, packed_rng)
            assert packed.to_ints() == reference.random_vector(n, reference_rng)
        # The generators must leave the stream in the identical state.
        assert int(packed_rng.integers(0, 2**63)) == int(reference_rng.integers(0, 2**63))

    def test_low_and_high_bit_of_every_limb_balanced(self, codec):
        # Each tested bit of a uniform residue is set with probability
        # 1/2 (within 2^-126 for the Mersenne prime), so over n = 4096
        # draws its count is Binomial(4096, 1/2) with sd 32; six sd
        # (|count - 2048| <= 192) leaves a false-alarm chance below 1e-8.
        n, bound = 4096, 192
        residues = codec.random_vector_array(n, default_rng(41)).to_ints()
        bits = (codec.modulus - 1).bit_length()
        for low in range(0, bits, 64):
            for bit in (low, min(low + 63, bits - 1)):
                count = sum((r >> bit) & 1 for r in residues)
                assert abs(count - n // 2) <= bound, (bit, count)

    @pytest.mark.parametrize("name", sorted(CODEC_KWARGS))
    def test_mask_stream_matches_golden_digest(self, name):
        digests = json.loads(DIGESTS_PATH.read_text())
        assert mask_stream_digests(FixedPointCodec(**CODEC_KWARGS[name])) == digests[name]

    def test_values_in_range(self, codec):
        vec = codec.random_vector_array(100, default_rng(17))
        assert all(0 <= v < codec.modulus for v in vec)

    def test_empty_and_negative(self, codec):
        assert codec.random_vector_array(0, default_rng(0)).to_ints() == []
        with pytest.raises(ValueError, match="non-negative"):
            codec.random_vector_array(-1, default_rng(0))


class TestResidueVectorContainer:
    def test_iter_getitem_len_eq(self, codec):
        ints = full_range_residues(codec, 12, 29)
        packed = codec._from_ints(ints)
        other = ResidueVector(np.array(ints, dtype=object), codec.modulus)
        assert len(packed) == 12
        assert [int(v) for v in packed] == ints
        assert [packed[i] for i in range(12)] == ints
        # Equality is value-based, independent of the backing layout.
        assert packed == other
        assert packed != codec._from_ints([(v + 1) % codec.modulus for v in ints])

    def test_pickle_roundtrip(self, codec):
        vec = codec.random_vector_array(20, default_rng(31))
        restored = pickle.loads(pickle.dumps(vec))
        assert isinstance(restored, ResidueVector)
        assert restored == vec
        assert codec.subtract(restored, vec).to_ints() == [0] * 20


if __name__ == "__main__":  # pragma: no cover - deliberate re-pin only
    DIGESTS_PATH.write_text(
        json.dumps(
            {name: mask_stream_digests(FixedPointCodec(**kwargs)) for name, kwargs in CODEC_KWARGS.items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
