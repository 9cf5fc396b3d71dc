from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from neuroram.dynamics import firing_probability
from neuroram.errors import InvalidParameterError
from neuroram.model import Kind, NetworkBuilder, Polarity
from neuroram.montecarlo import BATCH, trial_states
from neuroram.ramnet import IndexInstance, build_neuro_ram, clamps_for
from neuroram.randomnets import random_network
from neuroram.transforms import (
    FeedforwardNetwork, ThresholdCircuit, _gate_ids, _offsets, circuit_states,
    distribution_equivalence, eval_threshold_circuit, sample_threshold_circuit, unroll,
)


def single_gate_net(weights, bias, lam=Fraction(1, 2)):
    """Inputs wired straight into one output gate; a weight 0 leaves its input unwired."""
    b = NetworkBuilder(lam)
    xs = [b.add_neuron(f"x{i}", Kind.INPUT, Polarity.EXCITATORY, 0)
          for i in range(len(weights))]
    z = b.add_neuron("z", Kind.OUTPUT, Polarity.EXCITATORY, bias)
    for x, w in zip(xs, weights):
        if w:
            b.add_synapse(x, z, w)
    return b.build()


def reference_gate_bits(ff, offsets, input_bits):
    """Every gate's bit in _gate_ids order, one gate at a time in exact
    integers: a gate fires iff drive - bias >= its offset."""
    net = ff.net
    values = [0] * len(net)
    for nid in ff.inputs:
        values[nid] = int(input_bits.get(nid, 0))
    for nid, eta in zip(_gate_ids(ff), offsets):
        total = -net.neurons[nid].bias
        for pre, w in net.incoming[nid]:
            if values[pre]:
                total += w
        values[nid] = 1 if total >= float(eta) else 0  # int vs float compares exactly
    return [values[nid] for nid in _gate_ids(ff)]


# --- unroll ----------------------------------------------------------------

def test_unroll_layer_and_count():
    net = random_network(2, n_inputs=3, n_aux=3, lam=Fraction(1, 4))
    ff = unroll(net, 4)
    assert len(ff.layers) == 3
    assert all(len(layer) == 4 for layer in ff.layers)  # l + 1 = 3 aux + output
    assert ff.auxiliary_count == (4 - 1) * (3 + 1) == 12


def test_unroll_is_layered_and_acyclic():
    net = random_network(12, n_inputs=2, n_aux=4, lam=Fraction(1, 4))
    ff = unroll(net, 5)
    layer_of = {nid: i + 1 for i, layer in enumerate(ff.layers) for nid in layer}
    for x in ff.inputs:
        layer_of[x] = 0
    layer_of[ff.out] = len(ff.layers) + 1
    for s in ff.net.synapses:
        assert layer_of[s.pre] == 0 or layer_of[s.pre] == layer_of[s.post] - 1
    # inputs keep in-degree zero
    assert all(not ff.net.incoming[x] for x in ff.inputs)


def test_unroll_self_loop_reaches_output():
    b = NetworkBuilder(Fraction(1, 4))
    x = b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    z = b.add_neuron("z", Kind.OUTPUT, Polarity.EXCITATORY, 1)
    b.add_synapse(x, z, 2)
    b.add_synapse(z, z, 2)
    ff = unroll(b.build(), 3)
    z_copy_last = ff.layers[-1][-1]
    weights = dict(ff.net.incoming[ff.out])
    assert weights[z_copy_last] == 2
    assert ff.net.neurons[z_copy_last].name.endswith("@2")


def test_unroll_rejects_degenerate_cases():
    net = random_network(3, n_inputs=2, n_aux=2)
    for t in (1, 2.5, True):
        with pytest.raises(InvalidParameterError):
            unroll(net, t)
    b = NetworkBuilder(Fraction(1))
    b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("z1", Kind.OUTPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("z2", Kind.OUTPUT, Polarity.EXCITATORY, 0)
    with pytest.raises(InvalidParameterError):
        unroll(b.build(), 3)


# --- threshold sampling ----------------------------------------------------

def test_sampling_is_deterministic_per_seed():
    ff = unroll(random_network(9, n_inputs=2, n_aux=2), 3)
    a = sample_threshold_circuit(ff, seed=3)
    b = sample_threshold_circuit(ff, seed=3)
    c = sample_threshold_circuit(ff, seed=4)
    assert a.offsets == b.offsets
    assert a.offsets != c.offsets


def test_single_gate_marginal_matches_sigmoid():
    # Gate with weighted input sum W and bias b: over sampled circuits the
    # firing fraction estimates sigmoid((W - b) / lam).
    net = single_gate_net((2, 3), bias=4, lam=Fraction(1, 2))
    ff = unroll(net, 2)
    bits = {nid: 1 for nid in ff.inputs}     # W = 5, margin +1
    samples = 100_000
    fired = int(circuit_states(ff, bits, samples, 0, [ff.out]).sum())
    expected = firing_probability(5 - 4, Fraction(1, 2))
    assert abs(fired / samples - expected) < 0.01


def test_tiny_scale_collapses_to_deterministic_threshold():
    net = single_gate_net((2, 2), bias=3, lam=Fraction(1, 10**12))
    ff = unroll(net, 2)
    for bits, want in (({0: 1, 1: 1}, 1), ({0: 1, 1: 0}, 0), ({0: 0, 1: 0}, 0)):
        remapped = {nid: bits[k] for k, nid in enumerate(ff.inputs)}
        got = circuit_states(ff, remapped, 50, 0, [ff.out])[:, 0].tolist()
        assert got == [want] * 50


@pytest.mark.parametrize("net, seeds", [
    (random_network(9, n_inputs=2, n_aux=2), (0, 7)),
    # potential 0 beside weights near and past 2**53: an offset added to the
    # bias as one float would round away
    *((single_gate_net((2**e, 1, 1), bias=2**e + 2, lam=Fraction(1, 4)), range(300))
      for e in (48, 50, 51, 60)),
], ids=["random", "e48", "e50", "e51", "e60"])
def test_sampled_circuit_is_the_first_circuit_states_draws(net, seeds):
    ff = unroll(net, 3)
    for seed in seeds:
        tc = sample_threshold_circuit(ff, seed)
        assert tc.offsets == tuple(next(_offsets(ff, BATCH + 37, seed))[0])
        for pattern in product((0, 1), repeat=len(ff.inputs)):
            bits = dict(zip(ff.inputs, pattern))
            first_bit = circuit_states(ff, bits, 3, seed, [ff.out])[0, 0]
            assert eval_threshold_circuit(tc, bits) == first_bit


def test_circuits_do_not_depend_on_the_trial_count():
    ff = unroll(random_network(2, n_inputs=3, n_aux=3), 4)
    bits = {nid: k % 2 for k, nid in enumerate(ff.inputs)}
    gates = _gate_ids(ff)
    short = circuit_states(ff, bits, BATCH + 37, 5, gates)
    long = circuit_states(ff, bits, 2 * BATCH + 5, 5, gates)
    assert np.array_equal(short, long[:BATCH + 37])


@pytest.mark.parametrize("seed, weights", [(2, 3), (9, 3), (11, 2**48), (11, 2**60)])
def test_evaluator_matches_the_per_gate_integer_loop(seed, weights):
    net = random_network(seed, n_inputs=3, n_aux=3, max_weight=weights, max_bias=weights)
    ff = unroll(net, 4)
    gates = _gate_ids(ff)
    offsets = next(_offsets(ff, 64, seed))
    for pattern in product((0, 1), repeat=len(ff.inputs)):
        bits = dict(zip(ff.inputs, pattern))
        got = circuit_states(ff, bits, 64, seed, gates)
        assert got.astype(int).tolist() == [reference_gate_bits(ff, row, bits) for row in offsets]


@pytest.mark.parametrize("e", [48, 50])
def test_zero_potential_stays_exact_beside_large_weights(e):
    # weights (2**e, 1, 1), bias 2**e + 2, every input on: potential 0, so
    # the circuit fires with probability 1/2 however large the weights.
    net = single_gate_net((2**e, 1, 1), bias=2**e + 2, lam=Fraction(1, 4))
    rep = distribution_equivalence(net, {u: 1 for u in net.input_ids}, t=2,
                                   trials=100_000, seed=4)
    assert abs(rep.p_circuit - 0.5) < 0.01
    assert rep.ok


def test_circuit_states_rejects_bad_arguments():
    ff = unroll(random_network(2, n_inputs=3, n_aux=3), 3)
    bits = {nid: 1 for nid in ff.inputs}
    for trials, seed, record in ((0, 0, [ff.out]), (10, -1, [ff.out]), (10, 0, [ff.inputs[0]])):
        with pytest.raises(InvalidParameterError):
            circuit_states(ff, bits, trials, seed, record)
    # on a one-input net gate 1 exists, and True and 1.0 compare equal to it
    one = unroll(random_network(2, n_inputs=1, n_aux=2), 3)
    assert one.layers[0][0] == 1
    for record in ([True], [1.0]):
        with pytest.raises(InvalidParameterError, match="each record id"):
            circuit_states(one, {0: 1}, 4, 0, record)
    tc = sample_threshold_circuit(ff, 0)
    for offsets in (tc.offsets[:-1], tc.offsets + (0.0,)):
        with pytest.raises(InvalidParameterError, match="one offset per gate"):
            ThresholdCircuit(ff, offsets)
    for clamps in ({ff.out: 1}, {ff.inputs[0]: 2}, {}):
        with pytest.raises(InvalidParameterError):
            circuit_states(ff, clamps, 10, 0, [ff.out])
        with pytest.raises(InvalidParameterError):
            eval_threshold_circuit(tc, clamps)


def test_eval_examples():
    net = single_gate_net((0,), bias=1, lam=Fraction(1))
    ff = unroll(net, 2)
    tc = ThresholdCircuit(ff, offsets=(-0.5, -0.5))  # thresholds 0.5
    assert eval_threshold_circuit(tc, {ff.inputs[0]: 1}) == 0  # all weights zero... bias>0

    net = single_gate_net((2,), bias=0)
    ff = unroll(net, 2)
    tc = ThresholdCircuit(ff, offsets=(0.0, 1.0))  # the output gate is last
    assert eval_threshold_circuit(tc, {ff.inputs[0]: 1}) == 1  # W=2 >= eta=1


def test_and_gate_truth_table():
    net = single_gate_net((2, 2), bias=3)
    ff = unroll(net, 2)
    tc = ThresholdCircuit(ff, offsets=(0.0, 0.0))  # output threshold 3
    table = [
        eval_threshold_circuit(tc, {ff.inputs[0]: a, ff.inputs[1]: b})
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]
    assert table == [0, 0, 0, 1]


# --- distribution equivalence ----------------------------------------------

def test_zero_potential_net_matches_half():
    # every potential forced to 0: both estimators sit at 1/2
    b = NetworkBuilder(Fraction(1, 4))
    b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("a", Kind.AUXILIARY, Polarity.EXCITATORY, 0)
    b.add_neuron("z", Kind.OUTPUT, Polarity.EXCITATORY, 0)
    net = b.build()
    rep = distribution_equivalence(net, {0: 0}, t=3, trials=100_000, seed=6)
    assert abs(rep.p_network - 0.5) < 0.01
    assert abs(rep.p_circuit - 0.5) < 0.01
    assert rep.ok


def test_equivalence_on_random_recurrent_net():
    net = random_network(2, n_inputs=3, n_aux=3, lam=Fraction(1, 4))
    clamps = {u: (1 if k % 2 == 0 else 0) for k, u in enumerate(net.input_ids)}
    rep = distribution_equivalence(net, clamps, t=4, trials=100_000, seed=15)
    assert 0.2 < rep.p_network < 0.8  # non-degenerate case
    assert rep.delta <= 0.01
    assert rep.ok


def test_equivalence_rejects_small_trial_counts():
    net = random_network(2, n_inputs=3, n_aux=3)
    with pytest.raises(InvalidParameterError):
        distribution_equivalence(net, {}, t=3, trials=100, seed=0)


def test_equivalence_clamps_exactly_the_inputs():
    net = random_network(2, n_inputs=3, n_aux=3, lam=Fraction(1, 4))
    first, *_ = net.input_ids
    with pytest.raises(InvalidParameterError, match="exactly the inputs"):
        distribution_equivalence(net, {first: 1}, t=4, trials=10_000, seed=0)
    aux = next(u.id for u in net.neurons if u.kind is Kind.AUXILIARY)
    full = {u: 1 for u in net.input_ids}
    with pytest.raises(InvalidParameterError, match="exactly the inputs"):
        distribution_equivalence(net, {**full, aux: 0}, t=4, trials=10_000, seed=0)


def test_joint_layer_distribution_total_variation():
    # Full joint law of the last layer's state, network vs sampled circuits,
    # within TV 0.02 at 1e5 samples (3 non-input neurons -> 8 atoms).
    net = random_network(11, n_inputs=3, n_aux=2, lam=Fraction(1, 4))
    t, samples = 3, 100_000
    clamps = {u: (1 if k != 1 else 0) for k, u in enumerate(net.input_ids)}
    body = [u.id for u in net.neurons if u.kind is not Kind.INPUT]

    states = trial_states(net, [(clamps, t)], samples, seed=21, record=body)
    snn_counts = Counter(tuple(int(b) for b in row) for row in states[:, t - 1, :])

    ff = unroll(net, t)
    remapped = {new: clamps[old] for old, new in zip(net.input_ids, ff.inputs)}
    circ = circuit_states(ff, remapped, samples, 5_000_000, list(ff.layers[-1]))
    circ_counts = Counter(tuple(int(b) for b in row) for row in circ)

    atoms = set(snn_counts) | set(circ_counts)
    tv = 0.5 * sum(
        abs(snn_counts.get(a, 0) - circ_counts.get(a, 0)) / samples for a in atoms
    )
    assert tv < 0.02, f"TV {tv:.4f}"


def test_equivalence_on_indexing_network():
    net, layout = build_neuro_ram(4, lam=Fraction(1, 32))
    inst = IndexInstance((1, 0, 1, 0), (1, 0))
    rep = distribution_equivalence(
        net, clamps_for(layout, inst), t=layout.rounds, trials=20_000, seed=3
    )
    assert rep.delta <= 0.01


def skip_edge_net():
    """x -> g -> h -> out, plus a skip edge g -> out (synapses[3])."""
    b = NetworkBuilder(Fraction(1, 64))
    x = b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    g = b.add_neuron("g", Kind.AUXILIARY, Polarity.EXCITATORY, 0)
    h = b.add_neuron("h", Kind.AUXILIARY, Polarity.EXCITATORY, 5)
    out = b.add_neuron("out", Kind.OUTPUT, Polarity.EXCITATORY, 1)
    for pre, post, w in ((x, g, 1), (g, h, 1), (h, out, 1), (g, out, 4)):
        b.add_synapse(pre, post, w)
    return b.build(), ((g,), (h,))


def test_feedforward_checks_its_own_layering():
    # circuits read only layered edges: they would drop the skip edge and
    # read P[out] = 0.0 where trial_states reads 1.0
    net, layers = skip_edge_net()
    with pytest.raises(InvalidParameterError, match=r"synapses\[3\]: expected an edge"):
        FeedforwardNetwork(net, layers)
    with pytest.raises(InvalidParameterError, match="feedforward.layers: "):
        FeedforwardNetwork(net, layers[:1])
    b = NetworkBuilder(Fraction(1, 4))
    b.add_neuron("z1", Kind.OUTPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("z2", Kind.OUTPUT, Polarity.EXCITATORY, 0)
    with pytest.raises(InvalidParameterError, match="feedforward: expected a network with "
                                                    "exactly one output, got 2"):
        FeedforwardNetwork(b.build(), ())
