"""Dropout-robust secure summation via Shamir sharing (extension).

The paper's masking protocol (Section V) has an availability weakness:
if any single Mapper crashes between exchanging masks and sending its
masked share, the Reducer's sum is garbage — the crashed Mapper's
pairwise pads never cancel.  Production secure-aggregation systems fix
this with threshold secret sharing; this module implements that
extension on the same simulated substrate so the trade-off can be
measured (see the fault-injection tests):

1. each Mapper fixed-point-encodes its vector into the prime field and
   **Shamir-shares** every element among all M Mappers with threshold
   ``t`` (Mapper *j* holds the evaluations at x = j+1);
2. each Mapper sums, elementwise, all the shares it holds — Shamir
   sharing is linear, so these are shares *of the sum*;
3. alive Mappers send their aggregated share to the Reducer;
4. the Reducer Lagrange-interpolates from any ``t`` aggregated shares.

Privacy: any coalition of fewer than ``t`` Mappers (plus the Reducer,
who only ever sees shares of the *sum*) learns nothing about an
individual input.  Robustness: up to ``M - t`` Mappers may crash after
step 1 and the sum — still including their contributions — survives.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import Network
from repro.crypto.fixed_point import FixedPointCodec, ResidueVector
from repro.crypto.secret_sharing import (
    MERSENNE_PRIME_127,
    shamir_lagrange_weights,
    shamir_share_vector,
)
from repro.obs.audit import ProtocolAuditLog
from repro.utils.rng import as_rng, spawn_rngs

__all__ = ["ThresholdSumAggregator", "ThresholdSummationProtocol"]


class ThresholdSummationProtocol:
    """t-of-M dropout-robust secure summation.

    Parameters
    ----------
    network:
        The cluster fabric.
    participant_ids:
        Mapper node ids; their order fixes the Shamir x-coordinates.
    reducer_id:
        The Reducer node id.
    threshold:
        Minimum number of surviving Mappers needed to reconstruct.
    codec:
        Fixed-point codec; must operate in the protocol's prime field
        (constructed automatically when omitted).
    prime:
        The Shamir field.
    audit:
        Optional :class:`~repro.obs.audit.ProtocolAuditLog`; when given,
        each round's share distribution and reconstruction are recorded
        and the threshold/share-count invariants are checked live.
    """

    def __init__(
        self,
        network: Network,
        participant_ids: list[str],
        reducer_id: str,
        *,
        threshold: int | None = None,
        codec: FixedPointCodec | None = None,
        prime: int = MERSENNE_PRIME_127,
        seed: int | np.random.Generator | None = None,
        audit: ProtocolAuditLog | None = None,
    ) -> None:
        if len(participant_ids) < 2:
            raise ValueError("threshold summation needs at least 2 participants")
        if len(set(participant_ids)) != len(participant_ids):
            raise ValueError("participant ids must be unique")
        if reducer_id in participant_ids:
            raise ValueError("the reducer cannot be a participant")
        n = len(participant_ids)
        self.threshold = threshold if threshold is not None else (n // 2 + 1)
        if not 2 <= self.threshold <= n:
            raise ValueError(f"threshold must be in [2, {n}], got {self.threshold}")
        self.network = network
        self.participants = list(participant_ids)
        self.reducer_id = reducer_id
        self.prime = prime
        if codec is None:
            codec = FixedPointCodec(fractional_bits=40, max_terms=max(n, 2), modulus=prime)
        elif codec.modulus != prime:
            raise ValueError("codec modulus must equal the Shamir field prime")
        self.codec = codec
        self.audit = audit
        for node in [*self.participants, reducer_id]:
            network.register(node)
        self._rngs = dict(zip(self.participants, spawn_rngs(as_rng(seed), n)))

    def sum_vectors(
        self,
        values: dict[str, np.ndarray],
        *,
        dropouts: set[str] | frozenset[str] = frozenset(),
    ) -> np.ndarray:
        """Run one aggregation round.

        ``dropouts`` simulates Mappers that crash *after* distributing
        their input shares but *before* sending their aggregated share —
        the failure mode that breaks the masking protocol.  Their inputs
        are still included in the reconstructed sum.
        """
        if set(values) != set(self.participants):
            raise ValueError("values must cover exactly the participants")
        dropouts = set(dropouts)
        unknown = dropouts - set(self.participants)
        if unknown:
            raise ValueError(f"unknown dropout ids {sorted(unknown)}")
        alive = [p for p in self.participants if p not in dropouts]
        if len(alive) < self.threshold:
            raise ValueError(
                f"only {len(alive)} participants alive; threshold is {self.threshold}"
            )
        lengths = {len(np.asarray(v, dtype=float).ravel()) for v in values.values()}
        if len(lengths) != 1:
            raise ValueError(f"all vectors must share one length, got {sorted(lengths)}")
        (dim,) = lengths
        metrics = self.network.metrics
        tracer = self.network.tracer
        n = len(self.participants)

        with tracer.span(
            "crypto.threshold_sum",
            kind="crypto",
            n_participants=n,
            threshold=self.threshold,
            n_dropouts=len(dropouts),
            vector_length=dim,
        ):
            if self.audit is not None:
                self.audit.begin_round(
                    "threshold-sum",
                    self.participants,
                    threshold=self.threshold,
                    expected_senders=alive,
                )
            # Step 1: share each element among all participants: row j
            # of a source's share matrix is destination j's share list.
            incoming: dict[str, list[list[int]]] = {p: [] for p in self.participants}
            with tracer.span("crypto.share_distribution", kind="crypto"):
                for src in self.participants:
                    encoded = self.codec.encode_array(values[src])
                    shares = shamir_share_vector(
                        encoded, n, self.threshold, prime=self.prime, rng=self._rngs[src]
                    )
                    metrics.increment("crypto.shamir_shares_generated", dim * n)
                    for j, dst in enumerate(self.participants):
                        if dst == src:
                            incoming[dst].append(shares[j].tolist())
                        else:
                            self.network.send(
                                src, dst, shares[j].tolist(), kind="threshold-share"
                            )
                for dst in self.participants:
                    for _ in range(n - 1):
                        incoming[dst].append(
                            self.network.receive(dst, kind="threshold-share")
                        )

            # Step 2/3: alive participants aggregate their shares and
            # forward.  Shamir sharing is linear, so the elementwise sum
            # of held share vectors — one modular ``combine`` — is a
            # share vector of the summed secret.
            with tracer.span("crypto.share_aggregation", kind="crypto"):
                for p in alive:
                    aggregated = self.codec.combine(incoming[p])
                    x_coord = self.participants.index(p) + 1
                    self.network.send(
                        p, self.reducer_id, (x_coord, aggregated), kind="threshold-agg-share"
                    )
                    if self.audit is not None:
                        self.audit.share_sent(p)

            # Step 4: reconstruct from the first `threshold` aggregated
            # shares.  The Lagrange-at-zero weights depend only on the
            # x-coordinates, so they are computed once and applied to the
            # whole vector as a weighted modular sum — identical residues
            # to per-element interpolation.
            with tracer.span(
                "crypto.shamir_reconstruct", kind="crypto", node=self.reducer_id
            ):
                received: list[tuple[int, ResidueVector]] = []
                for _ in alive:
                    message = self.network.receive_message(
                        self.reducer_id, kind="threshold-agg-share"
                    )
                    received.append(message.payload)
                    if self.audit is not None:
                        self.audit.share_received(message.src)
                chosen = received[: self.threshold]
                weights = shamir_lagrange_weights(
                    [x for x, _ in chosen], prime=self.prime
                )
                totals = self.codec.combine(
                    [
                        ResidueVector(weight * share_vec.limbs % self.prime, self.prime)
                        for weight, (_, share_vec) in zip(weights, chosen)
                    ]
                )
            metrics.increment("crypto.threshold_sum_rounds", 1)
            if self.audit is not None:
                self.audit.reconstruction(len(chosen), ok=True)
                self.audit.end_round()
            return self.codec.decode(totals)


class ThresholdSumAggregator:
    """Twister :class:`~repro.cluster.twister.Aggregator` using Shamir shares.

    Drop-in alternative to
    :class:`~repro.crypto.secure_sum.SecureSumAggregator` with the
    t-of-M robustness profile: pass ``dropout_schedule`` (iteration
    index -> set of crashing mapper ids) to fault-injection experiments;
    the consensus still forms as long as >= ``threshold`` mappers
    survive each round.
    """

    def __init__(
        self,
        *,
        threshold: int | None = None,
        prime: int = MERSENNE_PRIME_127,
        seed: int | np.random.Generator | None = None,
        dropout_schedule: dict[int, set[str]] | None = None,
        audit: ProtocolAuditLog | None = None,
    ) -> None:
        self.threshold = threshold
        self.prime = prime
        self.seed = as_rng(seed)
        self.dropout_schedule = dropout_schedule or {}
        self.audit = audit
        self._protocol: ThresholdSummationProtocol | None = None
        self._round = 0

    def aggregate(
        self,
        outputs: dict[str, dict[str, np.ndarray]],
        reducer_id: str,
        network: Network,
    ) -> dict[str, np.ndarray]:
        """Shamir-aggregate mapper outputs, tolerating scheduled dropouts."""
        participants = sorted(outputs)
        if self._protocol is None or self._protocol.participants != participants:
            self._protocol = ThresholdSummationProtocol(
                network,
                participants,
                reducer_id,
                threshold=self.threshold,
                prime=self.prime,
                seed=self.seed,
                audit=self.audit,
            )
        keys = sorted(outputs[participants[0]])
        layout = [
            (k, np.asarray(outputs[participants[0]][k], dtype=float).shape) for k in keys
        ]
        flat = {
            p: np.concatenate(
                [np.asarray(outputs[p][k], dtype=float).ravel() for k in keys]
            )
            for p in participants
        }
        dropouts = self.dropout_schedule.get(self._round, set())
        self._round += 1
        summed = self._protocol.sum_vectors(flat, dropouts=dropouts)
        result: dict[str, np.ndarray] = {}
        offset = 0
        for key, shape in layout:
            size = int(np.prod(shape)) if shape else 1
            result[key] = summed[offset : offset + size].reshape(shape)
            offset += size
        return result
