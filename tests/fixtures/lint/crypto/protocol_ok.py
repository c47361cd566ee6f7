"""Well-formed masking protocol: balanced masks, exchanged seeds, floor guard.

The batched round nets each pad once on ``combine``'s plus side and once
on its minus side.
"""


class BalancedSummationProtocol:
    def __init__(self, network, participant_ids, reducer_id, codec, rngs):
        if len(participant_ids) < 2:
            raise ValueError("secure summation needs at least 2 participants")
        self.network = network
        self.participants = list(participant_ids)
        self.reducer_id = reducer_id
        self.codec = codec
        self._rngs = rngs
        self._pair_rngs = {}

    def _exchange_pairwise_seeds(self):
        for i, a in enumerate(self.participants):
            for b in self.participants[i + 1 :]:
                seed = int(self._rngs[a].integers(0, 2**63 - 1))
                self.network.send(a, b, seed, kind="mask-seed")
                received = self.network.receive(b, kind="mask-seed")
                self._pair_rngs[(a, b)] = self.codec.stream(received)

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
                net_mask[receiver] = self.codec.subtract(net_mask[receiver], mask)
        for p in self.participants:
            share = self.codec.add(values[p], net_mask[p])
            self.network.send(p, self.reducer_id, share, kind="masked-share")

    def sum_vectors_batched(self, values):
        n = len(values[self.participants[0]])
        added = {p: [] for p in self.participants}
        removed = {p: [] for p in self.participants}
        for (a, b), pair_rng in self._pair_rngs.items():
            pad = self.codec.random_vector_array(n, pair_rng)
            added[a].append(pad)
            removed[b].append(pad)
        for p in self.participants:
            share = self.codec.combine([values[p], *added[p]], minus=removed[p])
            self.network.send(p, self.reducer_id, share, kind="masked-share")
