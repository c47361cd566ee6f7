"""Broken masking protocol: every invariant the checker guards is violated.

The received pairwise masks are *added* instead of subtracted (sign
flip), pad streams are reseeded from local state outside the exchange
phase, and construction accepts a single participant.
"""


class LeakySummationProtocol:
    def __init__(self, network, participant_ids, reducer_id, codec, rngs):
        self.network = network
        self.participants = list(participant_ids)
        self.reducer_id = reducer_id
        self.codec = codec
        self._rngs = rngs
        self._pair_rngs = {}

    def sum_vectors(self, values):
        n = len(values[self.participants[0]])
        net_mask = {p: [0] * n for p in self.participants}
        for sender in self.participants:
            for receiver in self.participants:
                if receiver == sender:
                    continue
                mask = self.codec.random_vector(n, self._rngs[sender])
                self.network.send(sender, receiver, mask, kind="mask")
                net_mask[sender] = self.codec.add(net_mask[sender], mask)
        for receiver in self.participants:
            for _ in range(len(self.participants) - 1):
                mask = self.network.receive(receiver, kind="mask")
                # Sign flip: Rev masks must be subtracted, not added.
                net_mask[receiver] = self.codec.add(net_mask[receiver], mask)
        for p in self.participants:
            share = self.codec.add(values[p], net_mask[p])
            self.network.send(p, self.reducer_id, share, kind="masked-share")

    def refresh_pads(self, fresh_seed):
        for i, a in enumerate(self.participants):
            for b in self.participants[i + 1 :]:
                self._pair_rngs[(a, b)] = self.codec.stream(fresh_seed)

    def sum_vectors_batched(self, values):
        # Batched netting: both copies of each pad enter combine's plus.
        n = len(values[self.participants[0]])
        added = {p: [] for p in self.participants}
        removed = {p: [] for p in self.participants}
        for (a, b), pair_rng in self._pair_rngs.items():
            pad = self.codec.random_vector_array(n, pair_rng)
            added[a].append(pad)
            # Sign flip: b's copy of the pad belongs in ``minus``.
            added[b].append(pad)
        for p in self.participants:
            share = self.codec.combine([values[p], *added[p]], removed[p])
            self.network.send(p, self.reducer_id, share, kind="masked-share")

    def sum_vectors_unmasked(self, values):
        n = len(values[self.participants[0]])
        for sender in self.participants:
            for receiver in self.participants:
                if receiver == sender:
                    continue
                # Masks are exchanged but never netted into any share.
                mask = self.codec.random_vector_array(n, self._rngs[sender])
                self.network.send(sender, receiver, mask, kind="mask")
        for p in self.participants:
            self.network.send(p, self.reducer_id, values[p], kind="masked-share")
