"""Seeded random networks for equivalence experiments and fuzz-style tests."""

from __future__ import annotations

import random
from fractions import Fraction

from .model import Kind, Network, NetworkBuilder, Polarity

EDGE_PROB = 0.6


def random_network(
    seed: int,
    n_inputs: int,
    n_aux: int,
    lam: Fraction = Fraction(1, 4),
    max_weight: int = 3,
    max_bias: int = 3,
) -> Network:
    """Random single-output network respecting the structural rules.

    Each non-input neuron gets a random polarity; weights carry the
    polarity's sign.  Inputs never receive edges; edge presence is an
    independent ``EDGE_PROB`` coin per allowed (pre, post) pair, self-loops
    included.
    """
    gen = random.Random(seed)
    b = NetworkBuilder(Fraction(lam))
    inputs = [
        b.add_neuron(f"in[{i}]", Kind.INPUT, Polarity.EXCITATORY, 0)
        for i in range(n_inputs)
    ]
    body: list[tuple[int, Polarity]] = []
    for i in range(n_aux):
        pol = Polarity.EXCITATORY if gen.random() < 0.7 else Polarity.INHIBITORY
        body.append((b.add_neuron(f"aux[{i}]", Kind.AUXILIARY, pol, gen.randint(0, max_bias)), pol))
    out = b.add_neuron("out", Kind.OUTPUT, Polarity.EXCITATORY, gen.randint(0, max_bias))
    body.append((out, Polarity.EXCITATORY))

    def sign(pol: Polarity) -> int:
        return 1 if pol is Polarity.EXCITATORY else -1

    for x in inputs:
        for post, _ in body:
            if gen.random() < EDGE_PROB:
                b.add_synapse(x, post, gen.randint(1, max_weight))
    for pre, pol in body:
        for post, _ in body:
            if gen.random() < EDGE_PROB:
                b.add_synapse(pre, post, sign(pol) * gen.randint(1, max_weight))
    return b.build()
