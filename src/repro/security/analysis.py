"""Leakage quantification: attacks executed against recorded views.

Three analyses back the paper's Section V arguments:

1. :func:`coalition_recovery_attempt` — the best possible inference a
   coalition (Reducer + corrupted Mappers) can make about one honest
   Mapper's local result from the masking protocol's transcript.  It
   recovers the target exactly **iff every other Mapper is corrupted**
   (in which case the sum itself already reveals it — no protocol can
   help); with >= 2 honest Mappers the residual is a one-time-padded
   value, i.e. garbage.
2. :func:`share_uniformity_statistic` — masked shares delivered to the
   Reducer should be indistinguishable from uniform group elements; we
   measure the empirical distribution of their high-order bits.
3. :func:`kernel_linear_system_attack` — the attack the paper cites
   against secure-dot-product kernel schemes ([8]/[29]): a learner that
   obtains kernel rows ``K(x_secret, x_j) = <x_secret, x_j>`` against
   >= k of its *own* samples solves a linear system and recovers
   ``x_secret`` exactly.  This motivates never materializing the joint
   kernel matrix, which the paper's scheme avoids by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.fixed_point import FixedPointCodec
from repro.security.adversary import AdversaryView
from repro.utils.validation import check_matrix, check_vector

__all__ = [
    "CoalitionRecovery",
    "coalition_recovery_attempt",
    "kernel_linear_system_attack",
    "plaintext_leak_check",
    "share_uniformity_statistic",
]


@dataclass(frozen=True)
class CoalitionRecovery:
    """Outcome of a coalition's recovery attempt against one Mapper.

    Attributes
    ----------
    target:
        The honest Mapper attacked.
    estimate:
        The coalition's best estimate of the target's private vector
        (decoded to floats).
    residual_masks_unknown:
        Number of pairwise pads the coalition could not cancel.  Zero
        means exact recovery; positive means the estimate is one-time-
        padded noise.
    """

    target: str
    estimate: np.ndarray
    residual_masks_unknown: int


def coalition_recovery_attempt(
    view: AdversaryView,
    target: str,
    participants: list[str],
    codec: FixedPointCodec,
    *,
    round_index: int = 0,
) -> CoalitionRecovery:
    """Attempt to recover ``target``'s input to a ``"fresh"``-mode secure sum.

    The coalition starts from the target's masked share (visible to the
    corrupted Reducer) and cancels every pairwise mask any coalition
    member generated for, or received from, the target.  Masks exchanged
    between the target and *honest* Mappers cannot be cancelled — they
    are the coalition-resistance pads.

    ``round_index`` selects which secure-sum invocation to attack when
    the log spans multiple iterations.
    """
    if target in view.corrupted:
        raise ValueError("the target must be an honest participant")
    others = [p for p in participants if p != target]

    # Locate the target's masked share for the requested round.
    shares = [m for m in view.messages if m.kind == "masked-share" and m.src == target]
    if round_index >= len(shares):
        raise ValueError(
            f"view contains {len(shares)} shares from {target!r}, "
            f"round_index {round_index} out of range"
        )

    # Masks the coalition knows: sent by target to a corrupted Mapper
    # (cancel the +mask in Sed) or sent to target by a corrupted Mapper
    # (cancel the -mask in Rev).  Masks of round r are the r-th mask
    # message on each ordered pair's wire.  The known masks are netted
    # off the share in one modular ``combine``.
    known_received = []
    known_sent = []
    unknown = 0
    for other in others:
        sent = [
            m for m in view.messages if m.kind == "mask" and m.src == target and m.dst == other
        ]
        if other in view.corrupted and round_index < len(sent):
            known_sent.append(sent[round_index].payload)
        else:
            unknown += 1
        received = [
            m for m in view.messages if m.kind == "mask" and m.src == other and m.dst == target
        ]
        if other in view.corrupted and round_index < len(received):
            known_received.append(received[round_index].payload)
        else:
            unknown += 1
    estimate = codec.combine([shares[round_index].payload, *known_received], known_sent)

    return CoalitionRecovery(
        target=target,
        estimate=codec.decode(estimate),
        residual_masks_unknown=unknown,
    )


def share_uniformity_statistic(view: AdversaryView, codec: FixedPointCodec) -> float:
    """Uniformity of the masked shares' top byte, as a chi-squared p-proxy.

    Collects every masked-share residue in the view, extracts the most
    significant byte, and returns the normalized chi-squared statistic
    against the uniform distribution (values near 1 are consistent with
    uniform; a plaintext leak would concentrate mass near byte 0 or 255
    because real encodings are tiny within the 2^128 group).
    """
    residues: list[int] = []
    for payload in view.payloads("masked-share"):
        residues.extend(int(v) for v in payload)
    if not residues:
        raise ValueError("view contains no masked shares")
    shift = codec.modulus_bits - 8
    top_bytes = np.array([r >> shift for r in residues])
    counts = np.bincount(top_bytes, minlength=256)
    expected = len(residues) / 256.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # Normalize by the degrees of freedom so ~1 means "uniform-looking".
    return chi2 / 255.0


def plaintext_leak_check(view: AdversaryView, true_values: dict[str, np.ndarray]) -> dict[str, float]:
    """How close the view's per-mapper payloads are to the true locals.

    For the plaintext aggregator the Reducer sees each ``w_m`` exactly
    (distance 0); for the secure protocol the masked share decodes to an
    unrelated group element (astronomical distance).  Returns the
    infinity-norm error of the best matching payload per mapper.
    """
    errors: dict[str, float] = {}
    for node, value in true_values.items():
        value = np.asarray(value, dtype=float).ravel()
        best = np.inf
        for message in view.messages:
            if message.src != node or message.kind not in ("consensus", "masked-share"):
                continue
            payload = message.payload
            if isinstance(payload, dict):
                flat = np.concatenate(
                    [np.asarray(payload[k], dtype=float).ravel() for k in sorted(payload)]
                )
            else:
                flat = np.asarray(payload, dtype=float).ravel()
            if flat.shape == value.shape:
                best = min(best, float(np.max(np.abs(flat - value))))
        errors[node] = best
    return errors


def kernel_linear_system_attack(known_samples, kernel_row) -> np.ndarray:
    """Recover a private point from linear-kernel evaluations (Section V).

    Given ``known_samples`` (an ``(m, k)`` matrix of the attacker's own
    data, ``m >= k``) and ``kernel_row[j] = <x_secret, known_samples[j]>``
    (the kernel entries a secure-dot-product scheme hands the attacker),
    solve the least-squares system for ``x_secret``.  With ``m >= k``
    independent samples the recovery is exact — the leak the paper warns
    about in schemes that reveal the kernel matrix.
    """
    A = check_matrix(known_samples, "known_samples")
    b = check_vector(kernel_row, "kernel_row", length=A.shape[0])
    if A.shape[0] < A.shape[1]:
        raise ValueError(
            f"attack needs at least k={A.shape[1]} known samples, got {A.shape[0]}"
        )
    solution, *_ = np.linalg.lstsq(A, b, rcond=None)
    return solution
