"""Fixed-point encoding of real vectors into the additive group Z_q.

The masking-based secure summation protocol (and additive secret
sharing, and Paillier plaintexts) operate on integers modulo ``q``;
training produces real vectors.  :class:`FixedPointCodec` provides the
bridge:

* ``encode(x) = round(x * 2^fractional_bits) mod q`` (centered signed
  representation);
* ``decode`` lifts back to the centered range and divides the scale out.

Sums of up to ``max_terms`` encoded values decode exactly to the sum of
the rounded inputs as long as the magnitudes stay below
``max_magnitude`` — the codec checks this at encode time instead of
silently wrapping, because a wrapped consensus average would corrupt
training in ways that are very hard to debug.

Residues live in one packed type, :class:`ResidueVector`.  For
power-of-two moduli a vector is a fixed-width little-endian multi-limb
``uint64`` numpy array of shape ``(n, L)`` (``L = 2`` for the default
128-bit group) with one carry-propagating vectorized kernel,
``combine``, that nets any number of terms in one carry pass
(``add``/``subtract`` are its two-term cases), and batched
``encode``/``decode``.  Odd (prime) moduli use object-dtype
arrays of Python ints, which keeps the arithmetic exact where a fixed
limb count cannot.  Either layout holds the exact integers
``round(x * 2^fractional_bits) mod q``; ``tests/conftest.py`` keeps an
independent Python-int reference that the packed arithmetic is checked
against, and ``tests/fixtures/protocol_transcripts.json`` pins the
protocol messages built from it.  Masks come from one raw
``rng.integers(0, 2**64, size=(n, W), dtype=uint64)`` draw per vector:
the words are the limbs for power-of-two moduli, and for odd moduli
each row of ``W`` words (one more than the modulus needs) is reduced
mod ``q``, with bias below ``2^-64`` (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import sys
from typing import Iterator, Sequence, Union

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["FixedPointCodec", "ResidueVector"]

_WORD_BITS = 64
_WORD_MOD = 1 << _WORD_BITS
_FULL_MASK = np.uint64(2**64 - 1)
#: Positions of the low and high 32-bit half within a ``uint64`` limb
#: viewed as two ``uint32`` words (native byte order).
_LOW_HALF, _HIGH_HALF = (0, 1) if sys.byteorder == "little" else (1, 0)

#: Residue-vector operand accepted by the codec ops (lists are packed).
ResidueLike = Union["ResidueVector", Sequence[int]]


class ResidueVector:
    """A vector of residues modulo ``q`` in packed array form.

    Attributes
    ----------
    limbs:
        Either a ``uint64`` array of shape ``(n, L)`` holding each
        residue as ``L`` little-endian 64-bit limbs (power-of-two
        moduli), or an object-dtype array of shape ``(n,)`` holding
        arbitrary-precision Python ints (odd moduli).
    modulus:
        The group order ``q``; every stored residue is in ``[0, q)``.

    The vector iterates and compares as its Python-int residues, so
    wire payloads stay inspectable (``[int(v) for v in payload]``) and
    transcript-equality tests are representation-independent.
    """

    def __init__(self, limbs: np.ndarray, modulus: int) -> None:
        self.limbs = limbs
        self.modulus = modulus

    def __len__(self) -> int:
        return int(self.limbs.shape[0])

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_ints())

    def __getitem__(self, index: int) -> int:
        if self.limbs.dtype == object:
            return int(self.limbs[index])
        value = 0
        for i in range(self.limbs.shape[1] - 1, -1, -1):
            value = (value << _WORD_BITS) | int(self.limbs[index, i])
        return value

    def to_ints(self) -> list[int]:
        """The residues as arbitrary-precision Python ints."""
        if self.limbs.dtype == object:
            return [int(v) for v in self.limbs]
        return _limbs_to_ints(self.limbs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidueVector):
            return NotImplemented
        return self.modulus == other.modulus and self.to_ints() == other.to_ints()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResidueVector(n={len(self)}, "
            f"modulus_bits={self.modulus.bit_length()}, "
            f"dtype={self.limbs.dtype})"
        )


class FixedPointCodec:
    """Encode/decode float vectors for modular arithmetic.

    Parameters
    ----------
    fractional_bits:
        Precision: values are represented as multiples of
        ``2^-fractional_bits``.
    modulus_bits:
        Group size ``q = 2^modulus_bits``.
    max_terms:
        The largest number of encoded values that will ever be summed
        before decoding (the number of learners ``M`` for secure
        summation).  Determines the overflow-safe magnitude bound.
    modulus:
        Explicit (possibly odd) modulus overriding ``modulus_bits`` —
        e.g. the prime field a Shamir-based aggregator operates in.
    """

    def __init__(
        self,
        fractional_bits: int = 40,
        modulus_bits: int = 128,
        *,
        max_terms: int = 1024,
        modulus: int | None = None,
    ) -> None:
        if fractional_bits < 1:
            raise ValueError(f"fractional_bits must be >= 1, got {fractional_bits}")
        if max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {max_terms}")
        self.fractional_bits = int(fractional_bits)
        self.max_terms = int(max_terms)
        if modulus is not None:
            if modulus < 4:
                raise ValueError(f"modulus must be >= 4, got {modulus}")
            self.modulus = int(modulus)
            self.modulus_bits = self.modulus.bit_length()
        else:
            self.modulus = 1 << modulus_bits
            self.modulus_bits = int(modulus_bits)
        if self.modulus_bits <= fractional_bits + 2:
            raise ValueError("modulus must comfortably exceed the fixed-point scale")
        self.scale: int = 1 << fractional_bits
        # Any single value must satisfy |x| * scale * max_terms < q / 2.
        self.max_magnitude: float = self.modulus / (2.0 * self.scale * self.max_terms)
        # Power-of-two moduli are stored as uint64 limbs; this is their
        # geometry.
        self._power_of_two = self.modulus & (self.modulus - 1) == 0
        if self._power_of_two:
            bits = self.modulus.bit_length() - 1
            self._n_limbs = max(1, (bits + _WORD_BITS - 1) // _WORD_BITS)
            top_bits = bits - _WORD_BITS * (self._n_limbs - 1)
            self._top_mask = (
                _FULL_MASK if top_bits == _WORD_BITS else np.uint64((1 << top_bits) - 1)
            )
            self._sign_shift = np.uint64(top_bits - 1)
            self._mask_words = self._n_limbs
        else:
            self._n_limbs = 0
            self._top_mask = _FULL_MASK
            self._sign_shift = np.uint64(0)
            # One word beyond the modulus keeps the bias of the
            # reduction mod q below 2^-64.
            self._mask_words = (self.modulus_bits + _WORD_BITS - 1) // _WORD_BITS + 1

    def decode(self, residues: ResidueLike) -> np.ndarray:
        """Decode residues back to floats (centered lift, then unscale).

        Int-list operands (here and in :meth:`combine`, :meth:`add` and
        :meth:`subtract`) are reduced mod ``q`` and packed first; the
        result is always computed on a :class:`ResidueVector`.
        """
        return self._decode_array(self._coerce(residues))

    def add(self, a: ResidueLike, b: ResidueLike) -> ResidueVector:
        """Elementwise modular addition of two residue vectors."""
        return self.combine([a, b])

    def subtract(self, a: ResidueLike, b: ResidueLike) -> ResidueVector:
        """Elementwise modular subtraction of two residue vectors."""
        return self.combine([a], [b])

    def combine(
        self, plus: Sequence[ResidueLike], minus: Sequence[ResidueLike] = ()
    ) -> ResidueVector:
        """``sum(plus) - sum(minus) mod q`` in a single carry pass.

        For power-of-two moduli each ``(n, L)`` limb array is viewed as
        ``(n, 2L)`` 32-bit halves and accumulated (``+`` for ``plus``,
        ``-`` for ``minus``) into one ``int64`` buffer — exact for fewer
        than ``2^31`` terms — whose signed carries are then propagated
        once across the halves.  Odd moduli sum the object arrays exactly
        and reduce once.
        """
        plus_vectors = [self._coerce(v) for v in plus]
        minus_vectors = [self._coerce(v) for v in minus]
        if not plus_vectors:
            raise ValueError("combine needs at least one plus term")
        n = len(plus_vectors[0])
        for vector in plus_vectors + minus_vectors:
            if len(vector) != n:
                raise ValueError(f"length mismatch: {len(vector)} vs {n}")
        if not self._power_of_two:
            total = plus_vectors[0].limbs
            for vector in plus_vectors[1:]:
                total = total + vector.limbs
            for vector in minus_vectors:
                total = total - vector.limbs
            return ResidueVector(total % self.modulus, self.modulus)
        acc = plus_vectors[0].limbs.view(np.uint32).astype(np.int64)
        for vector in plus_vectors[1:]:
            acc += vector.limbs.view(np.uint32)
        for vector in minus_vectors:
            acc -= vector.limbs.view(np.uint32)
        order = [
            2 * limb + half
            for limb in range(self._n_limbs)
            for half in (_LOW_HALF, _HIGH_HALF)
        ]
        for low, high in zip(order, order[1:]):
            acc[:, high] += acc[:, low] >> 32  # floor shift: signed carry
        # The int64 -> uint32 cast keeps each half mod 2^32, and the
        # carry out of the top half is the multiple of 2^(64L) dropped.
        out = acc.astype(np.uint32).view(np.uint64)
        out[:, -1] &= self._top_mask
        return ResidueVector(out, self.modulus)

    def zeros_array(self, n: int) -> ResidueVector:
        """The all-zero residue vector of length ``n`` in packed form."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if self._power_of_two:
            return ResidueVector(
                np.zeros((n, self._n_limbs), dtype=np.uint64), self.modulus
            )
        return ResidueVector(np.array([0] * n, dtype=object), self.modulus)

    def encode_array(self, values: ArrayLike) -> ResidueVector:
        """Encode a float vector as a packed :class:`ResidueVector`.

        Exact: the scale is a power of two, so ``x * scale`` and the
        half-to-even rounding are exact float operations.  When every
        rounded value fits ``int64`` its two's-complement bits,
        sign-extended across the limbs, are the residue mod ``2^bits``;
        larger magnitudes, which only the overflow bound of big moduli
        admits, are sliced into limbs by exact ``divmod`` of the
        integral float.
        """
        arr = self._check_encodable(values)
        scaled = np.rint(arr * float(self.scale))
        if not self._power_of_two:
            ints = [int(v) % self.modulus for v in scaled]
            return ResidueVector(np.array(ints, dtype=object), self.modulus)
        limbs = np.empty((arr.shape[0], self._n_limbs), dtype=np.uint64)
        if np.all(np.abs(scaled) < 2.0**63):
            signed = scaled.astype(np.int64)
            limbs[:, 0] = signed.view(np.uint64)
            limbs[:, 1:] = (signed >> 63).view(np.uint64)[:, None]
            limbs[:, -1] &= self._top_mask
            return ResidueVector(limbs, self.modulus)
        negative = scaled < 0.0
        remainder = np.abs(scaled)
        for i in range(self._n_limbs):
            remainder, low = np.divmod(remainder, 2.0**_WORD_BITS)
            limbs[:, i] = _float_to_uint64(low)
        if np.any(negative):
            limbs = np.where(
                negative[:, None], self._negate_limbs(limbs), limbs
            )
        return ResidueVector(limbs, self.modulus)

    def random_vector_array(self, n: int, rng: np.random.Generator) -> ResidueVector:
        """A uniformly random residue vector (a one-time pad mask).

        One ``rng.integers`` call draws an ``(n, W)`` block of raw
        64-bit words.  For power-of-two moduli the words are the limbs
        (``W = L``, top limb masked); for odd moduli each row is
        composed little-endian into one integer of ``W`` words and
        reduced mod ``q``.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        words = rng.integers(
            0, _WORD_MOD, size=(n, self._mask_words), dtype=np.uint64
        )
        if self._power_of_two:
            words[:, -1] &= self._top_mask
            return ResidueVector(words, self.modulus)
        residues = [v % self.modulus for v in _limbs_to_ints(words)]
        return ResidueVector(np.array(residues, dtype=object), self.modulus)

    # -- internals -------------------------------------------------------

    def _check_encodable(self, values: ArrayLike) -> np.ndarray:
        arr = np.asarray(values, dtype=float).ravel()
        if not np.all(np.isfinite(arr)):
            raise ValueError("cannot encode non-finite values")
        too_big = np.abs(arr) >= self.max_magnitude
        if too_big.any():
            worst = float(np.max(np.abs(arr)))
            raise OverflowError(
                f"value magnitude {worst:g} exceeds the overflow-safe bound "
                f"{self.max_magnitude:g} for max_terms={self.max_terms}; "
                f"increase modulus_bits or reduce fractional_bits"
            )
        return arr

    def _from_ints(self, residues: Sequence[int]) -> ResidueVector:
        """Pack already-reduced Python-int residues."""
        if not self._power_of_two:
            return ResidueVector(np.array(residues, dtype=object), self.modulus)
        n = len(residues)
        limbs = np.empty((n, self._n_limbs), dtype=np.uint64)
        mask = _WORD_MOD - 1
        for row, residue in enumerate(residues):
            r = int(residue)
            for i in range(self._n_limbs):
                limbs[row, i] = (r >> (_WORD_BITS * i)) & mask
        return ResidueVector(limbs, self.modulus)

    def _coerce(self, value: ResidueLike) -> ResidueVector:
        if isinstance(value, ResidueVector):
            if value.modulus != self.modulus:
                raise ValueError(
                    f"residue vector modulus {value.modulus} does not match "
                    f"codec modulus {self.modulus}"
                )
            return value
        return self._from_ints([int(v) % self.modulus for v in value])

    def _negate_limbs(self, limbs: np.ndarray) -> np.ndarray:
        """Two's-complement negation modulo ``2^modulus_bits``."""
        out = ~limbs
        carry = np.ones(limbs.shape[0], dtype=np.uint64)
        for i in range(limbs.shape[1]):
            total = out[:, i] + carry
            carry = (total < carry).astype(np.uint64)
            out[:, i] = total
        out[:, -1] &= self._top_mask
        return out

    def _decode_array(self, vector: ResidueVector) -> np.ndarray:
        """Decode a packed vector: centered lift, then unscale.

        Fast path: when every centered magnitude fits one limb, the
        ``uint64 -> float64`` conversion and the power-of-two unscale
        are each correctly rounded, which composes to exactly the
        correctly-rounded ``int / int`` division of :meth:`_decode_exact`.
        Multi-limb magnitudes (astronomical masked shares, sums beyond
        2^64 ulps) and odd moduli take that exact per-element path
        instead — composing floats limb-by-limb could double-round.
        """
        limbs = vector.limbs
        if limbs.dtype == object:
            return self._decode_exact(vector.to_ints())
        negative = ((limbs[:, -1] >> self._sign_shift) & np.uint64(1)) == 1
        magnitude = limbs
        if np.any(negative):
            magnitude = np.where(
                negative[:, None], self._negate_limbs(limbs), limbs
            )
        if magnitude.shape[1] > 1 and np.any(magnitude[:, 1:]):
            return self._decode_exact(vector.to_ints())
        values = magnitude[:, 0].astype(np.float64) / float(self.scale)
        return np.where(negative, -values, values)

    def _decode_exact(self, residues: list[int]) -> np.ndarray:
        """Centered lift and correctly-rounded ``int / int`` unscale."""
        half = self.modulus >> 1
        lifted = [r - self.modulus if r >= half else r for r in residues]
        return np.array([r / self.scale for r in lifted], dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FixedPointCodec(fractional_bits={self.fractional_bits}, "
            f"modulus_bits={self.modulus_bits}, max_terms={self.max_terms})"
        )


def _limbs_to_ints(limbs: np.ndarray) -> list[int]:
    """Compose each row of little-endian ``uint64`` limbs into a Python int."""
    columns = limbs.T.tolist()
    acc: list[int] = columns[-1]
    for column in reversed(columns[:-1]):
        acc = [(a << _WORD_BITS) | v for a, v in zip(acc, column)]
    return acc


def _float_to_uint64(values: np.ndarray) -> np.ndarray:
    """Exact cast of integral floats in ``[0, 2^64)`` to ``uint64``.

    Split at ``2^63`` so the conversion never relies on the C behavior
    of casting an out-of-``int64``-range float to an unsigned type.
    """
    high = values >= 2.0**63
    if not np.any(high):
        return values.astype(np.uint64)
    shifted = np.where(high, values - 2.0**63, values).astype(np.uint64)
    return shifted + np.where(high, np.uint64(1) << np.uint64(63), np.uint64(0))
