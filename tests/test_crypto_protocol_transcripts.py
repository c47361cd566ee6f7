"""Golden pins: exact wire transcripts of the secure-summation protocols.

Each case runs two rounds of one aggregation protocol on seeded inputs
and reduces what happened to strings:

* one line per network message, in send order: kind, endpoints, wire
  size and the SHA-256 of the payload's residues (see
  :func:`payload_digest`), so every mask, pad seed and masked share is
  pinned;
* ``float.hex`` of every element of each round's decoded sum, so equal
  strings mean bit-identical sums.

The expected values live in ``fixtures/protocol_transcripts.json``.  A
deliberate change to the mask stream re-pins them with
``PYTHONPATH=src python tests/test_crypto_protocol_transcripts.py`` and
says so in CHANGES.md; the decoded sums must never move, since the masks
cancel exactly.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.cluster.network import Network
from repro.crypto.fixed_point import ResidueVector
from repro.crypto.secure_sum import SecureSummationProtocol
from repro.crypto.threshold_sum import ThresholdSummationProtocol

TRANSCRIPTS_PATH = pathlib.Path(__file__).parent / "fixtures" / "protocol_transcripts.json"
PARTICIPANTS = ["m0", "m1", "m2", "m3"]

CASES = {
    "secure-sum-fresh": lambda network: SecureSummationProtocol(
        network, PARTICIPANTS, "red", mode="fresh", seed=5
    ),
    "secure-sum-prg": lambda network: SecureSummationProtocol(
        network, PARTICIPANTS, "red", mode="prg", seed=5
    ),
    "threshold-sum": lambda network: ThresholdSummationProtocol(
        network, PARTICIPANTS, "red", threshold=3, seed=5
    ),
}


def canonical(payload):
    """The payload as plain JSON-able ints, independent of residue layout."""
    if isinstance(payload, ResidueVector):
        return payload.to_ints()
    if isinstance(payload, (list, tuple)):
        return [canonical(item) for item in payload]
    return int(payload)


def payload_digest(payload) -> str:
    return hashlib.sha256(json.dumps(canonical(payload)).encode()).hexdigest()


def observe(name: str) -> dict:
    network = Network()
    protocol = CASES[name](network)
    inputs = np.random.default_rng(17)
    sums = []
    for _ in range(2):
        values = {p: inputs.normal(scale=100.0, size=7) for p in PARTICIPANTS}
        sums.append([float(v).hex() for v in protocol.sum_vectors(values)])
    messages = [
        f"{m.kind} {m.src}->{m.dst} {m.size_bytes} {payload_digest(m.payload)}"
        for m in network.message_log
    ]
    return {"messages": messages, "sums": sums}


TRANSCRIPTS = json.loads(TRANSCRIPTS_PATH.read_text()) if TRANSCRIPTS_PATH.exists() else {}


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_matches_golden_pin(name):
    assert observe(name) == TRANSCRIPTS[name]


if __name__ == "__main__":  # pragma: no cover - deliberate re-pin only
    TRANSCRIPTS_PATH.write_text(
        json.dumps({n: observe(n) for n in sorted(CASES)}, indent=1) + "\n"
    )
