"""Additive and Shamir secret sharing.

Secret sharing is the third classic way (besides pairwise masking and
homomorphic encryption) to realize the secure aggregation the paper
needs at the Reducer.  We provide both flavors so the benchmark harness
can compare trust models:

* **additive sharing** over Z_q — n-of-n: all shares are needed, any
  n-1 reveal nothing; identical privacy to the paper's masking protocol
  but shares can be routed through multiple aggregators;
* **Shamir sharing** over a prime field — t-of-n threshold: tolerates
  dropouts (up to n-t), which pairwise masking does not.

Both operate on Python integers; use
:class:`~repro.crypto.fixed_point.FixedPointCodec` to bridge from real
vectors.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.utils.rng import as_rng

__all__ = [
    "MERSENNE_PRIME_127",
    "additive_reconstruct",
    "additive_share",
    "shamir_lagrange_weights",
    "shamir_reconstruct",
    "shamir_share",
    "shamir_share_vector",
]

#: A Mersenne prime comfortably larger than any fixed-point encoding we
#: use; the default Shamir field.
MERSENNE_PRIME_127 = (1 << 127) - 1


def _rand_field_elements(
    rng: np.random.Generator, modulus: int, shape: tuple[int, ...]
) -> np.ndarray:
    """Uniform elements of Z_modulus as an object array of ``shape``.

    Each element composes ``W = ceil(bits / 63)`` 63-bit words, most
    significant first, and is reduced mod ``modulus``.  All words come
    from one ``rng.integers(0, 2**63, size=(*shape, W))`` block, which
    yields the same word stream, in the same order, as one scalar draw
    per word.
    """
    n_words = (modulus.bit_length() + 62) // 63
    words = rng.integers(0, 2**63, size=(*shape, n_words)).astype(object)
    value = words[..., 0]
    for k in range(1, n_words):
        value = (value << 63) | words[..., k]
    return value % modulus


def _rand_field_element(rng: np.random.Generator, modulus: int) -> int:
    return int(_rand_field_elements(rng, modulus, (1,))[0])


def additive_share(
    secret: int,
    n_shares: int,
    *,
    modulus: int = 1 << 128,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Split ``secret`` into ``n_shares`` uniform values summing to it mod q."""
    if n_shares < 2:
        raise ValueError(f"need at least 2 shares, got {n_shares}")
    rng = as_rng(rng)
    secret %= modulus
    shares = [_rand_field_element(rng, modulus) for _ in range(n_shares - 1)]
    last = (secret - sum(shares)) % modulus
    shares.append(last)
    return shares


def additive_reconstruct(shares: Iterable[int], *, modulus: int = 1 << 128) -> int:
    """Recombine additive shares."""
    if not shares:
        raise ValueError("no shares given")
    return sum(int(s) for s in shares) % modulus


def shamir_share(
    secret: int,
    n_shares: int,
    threshold: int,
    *,
    prime: int = MERSENNE_PRIME_127,
    rng: np.random.Generator | None = None,
) -> list[tuple[int, int]]:
    """Split ``secret`` into ``n_shares`` Shamir shares with ``threshold`` needed.

    Returns ``(x, f(x))`` pairs for x = 1..n over the field GF(prime),
    where f is a random degree-(threshold-1) polynomial with
    ``f(0) = secret``.
    """
    shares = shamir_share_vector([secret], n_shares, threshold, prime=prime, rng=rng)
    return [(x, int(share)) for x, share in enumerate(shares[:, 0], start=1)]


def shamir_share_vector(
    secrets: Iterable[int],
    n_shares: int,
    threshold: int,
    *,
    prime: int = MERSENNE_PRIME_127,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Shamir-share every element of ``secrets`` at once.

    Returns an object array of shape ``(n_shares, len(secrets))`` whose
    row ``x - 1`` holds ``f_e(x)`` over GF(prime) for each element's
    random degree-(threshold-1) polynomial ``f_e`` with
    ``f_e(0) = secret_e``.  The coefficients are drawn element by
    element from one block, the same stream as :func:`shamir_share`
    per element, and all polynomials are evaluated at x = 1..n_shares
    by one Vandermonde product.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if n_shares < threshold:
        raise ValueError(f"n_shares ({n_shares}) must be >= threshold ({threshold})")
    if n_shares >= prime:
        raise ValueError("field too small for that many shares")
    rng = as_rng(rng)
    constant = np.array([int(s) % prime for s in secrets], dtype=object)
    coeffs = _rand_field_elements(rng, prime, (len(constant), threshold - 1))
    # (n_shares, threshold) powers x^k times (threshold, n) coefficients.
    vandermonde = np.array(
        [[x**k for k in range(threshold)] for x in range(1, n_shares + 1)],
        dtype=object,
    )
    return (vandermonde @ np.column_stack([constant, coeffs]).T) % prime


def shamir_lagrange_weights(
    xs: Iterable[int], *, prime: int = MERSENNE_PRIME_127
) -> list[int]:
    """Lagrange-at-zero weights for the given share x-coordinates.

    Returns ``lambda_i`` such that ``sum_i lambda_i * f(x_i) == f(0)``
    modulo ``prime`` for any polynomial ``f`` of degree below
    ``len(xs)``.  Computing the weights once and reusing them across a
    whole share *vector* turns elementwise reconstruction into a single
    weighted modular sum (see
    :class:`~repro.crypto.threshold_sum.ThresholdSummationProtocol`),
    instead of re-deriving the inverses per element.
    """
    xs = [int(x) for x in xs]
    if not xs:
        raise ValueError("no share indices given")
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate share indices")
    weights: list[int] = []
    for i, x_i in enumerate(xs):
        num, den = 1, 1
        for j, x_j in enumerate(xs):
            if i == j:
                continue
            num = (num * (-x_j)) % prime
            den = (den * (x_i - x_j)) % prime
        weights.append((num * pow(den, -1, prime)) % prime)
    return weights


def shamir_reconstruct(
    shares: Iterable[tuple[int, int]], *, prime: int = MERSENNE_PRIME_127
) -> int:
    """Recover the secret from >= threshold Shamir shares.

    Lagrange interpolation at 0.  Raises on duplicate x coordinates.
    """
    shares = list(shares)
    if not shares:
        raise ValueError("no shares given")
    xs = [int(x) for x, _ in shares]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate share indices")
    secret = 0
    for i, (x_i, y_i) in enumerate(shares):
        num, den = 1, 1
        for j, (x_j, _) in enumerate(shares):
            if i == j:
                continue
            num = (num * (-x_j)) % prime
            den = (den * (x_i - x_j)) % prime
        secret = (secret + y_i * num * pow(den, -1, prime)) % prime
    return secret
