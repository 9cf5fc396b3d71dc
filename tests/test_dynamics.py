import math
from fractions import Fraction

import numpy as np
import pytest

from neuroram.dynamics import (
    default_lambda, firing_probability, initial_state, potential, run, run_schedule, step,
)
from neuroram.errors import InvalidParameterError
from neuroram.model import Kind, NetworkBuilder, Polarity
from neuroram.randomnets import random_network


def two_neuron_net(bias=1, weight=2, lam=Fraction(1, 32)):
    b = NetworkBuilder(lam)
    b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("u", Kind.OUTPUT, Polarity.EXCITATORY, bias)
    b.add_synapse(0, 1, weight)
    return b.build()


def coin_net(lam=Fraction(1, 32)):
    # A single bias-0 neuron: potential 0 every round, a fair coin.
    b = NetworkBuilder(lam)
    b.add_neuron("coin", Kind.OUTPUT, Polarity.EXCITATORY, 0)
    return b.build()


# --- potential -------------------------------------------------------------

def test_potential_weighted_sum_minus_bias():
    net = two_neuron_net(bias=1, weight=2)
    fired = (1, 0)
    silent = (0, 0)
    assert potential(net, fired, 1) == 1
    assert potential(net, silent, 1) == -1


def test_potential_empty_sum_is_negated_bias():
    net = two_neuron_net(bias=7, weight=2)
    assert potential(net, (0, 0), 1) == -7


def test_potential_rejects_input_neuron():
    net = two_neuron_net()
    with pytest.raises(InvalidParameterError):
        potential(net, (0, 0), 0)


def test_potential_encoding_neuron_arithmetic():
    # One encoder at n=16: bucket-selector weight 2**6, first bucket bit 2**4,
    # bias 2**6 + 2**4 - 1 leaves potential exactly 1.
    b = NetworkBuilder(Fraction(1, 32))
    b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("sel", Kind.AUXILIARY, Polarity.EXCITATORY, 1)
    b.add_neuron("enc", Kind.OUTPUT, Polarity.EXCITATORY, 2**6 + 2**4 - 1)
    b.add_synapse(0, 2, 2**4)
    b.add_synapse(1, 2, 2**6)
    net = b.build()
    assert potential(net, (1, 1, 0), 2) == 1


# --- firing probability ----------------------------------------------------

def test_half_at_zero_potential_exactly():
    assert firing_probability(0, Fraction(1, 32)) == 0.5
    assert firing_probability(0, Fraction(7, 3)) == 0.5


def test_saturation():
    assert firing_probability(10**6, Fraction(1)) == 1.0
    assert firing_probability(-(10**6), Fraction(1)) == 0.0
    # well inside the clamp window the value is not collapsed
    assert firing_probability(30, Fraction(1)) < 1.0
    assert firing_probability(-30, Fraction(1)) > 0.0


def test_unit_potential_value():
    assert firing_probability(1, Fraction(1)) == pytest.approx(0.7310585786, abs=1e-6)


def test_antisymmetry():
    lam = Fraction(1, 4)
    for pot in range(-60, 61):
        p, q = firing_probability(pot, lam), firing_probability(-pot, lam)
        assert p + q == pytest.approx(1.0, abs=1e-12)


def test_monotone_on_grid():
    lam = Fraction(200)  # keeps a 10^4-wide integer grid inside the clamp window
    values = [firing_probability(pot, lam) for pot in range(-5000, 5000)]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("c", [2, 4])
def test_unit_margin_is_whp(n, c):
    lam = Fraction(1, c * (n.bit_length() - 1))
    eps = float(n) ** (-c * math.log2(math.e))
    assert firing_probability(1, lam) >= 1 - eps
    assert firing_probability(-1, lam) <= eps


def test_rejects_nonpositive_temperature():
    with pytest.raises(InvalidParameterError):
        firing_probability(0, Fraction(0))
    with pytest.raises(InvalidParameterError):
        firing_probability(0, Fraction(-1, 2))


def test_default_lambda():
    assert default_lambda(16) == Fraction(1, 16)
    with pytest.raises(InvalidParameterError):
        default_lambda(3)


# --- step / run ------------------------------------------------------------

def test_step_is_deterministic():
    net = random_network(5, n_inputs=2, n_aux=3)
    clamps = {0: 1, 1: 0}
    prev = initial_state(net, clamps)
    a = step(net, prev, 1, clamps, seed=99)
    b = step(net, prev, 1, clamps, seed=99)
    assert np.array_equal(a, b)


def test_step_clamped_inputs_copy_bits():
    net = two_neuron_net()
    row = step(net, initial_state(net, {0: 1}), 1, {0: 1}, seed=0)
    assert row[0] == 1
    row = step(net, row, 2, {0: 0}, seed=0)
    assert row[0] == 0


def test_step_saturated_silence():
    # All-zero previous round, biases >= 1, tiny temperature: nothing fires.
    b = NetworkBuilder(Fraction(1, 32))
    b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    for i in range(5):
        b.add_neuron(f"a{i}", Kind.AUXILIARY, Polarity.EXCITATORY, 1 + i)
    net = b.build()
    row = step(net, initial_state(net, {0: 0}), 1, {0: 0}, seed=4)
    assert row.tolist() == [0] * 6


def test_markov_transition_depends_only_on_state():
    # Reach round 5 along two different histories, overwrite both with the
    # same firing pattern: matched rng positions then give identical
    # successors, so the next-state law is a function of the state alone.
    net = random_network(8, n_inputs=1, n_aux=3)
    clamps = {0: 1}
    bits = (1, 0, 1, 1, 0)  # one bit per neuron (input, 3 aux, output)
    history_a = run(net, clamps, 5, seed=1)
    history_b = run(net, clamps, 5, seed=2)
    assert len(history_a) == len(history_b) == 6
    follow_a = step(net, bits, 6, clamps, seed=77)
    follow_b = step(net, bits, 6, clamps, seed=77)
    assert np.array_equal(follow_a, follow_b)


def test_run_round_zero_contract():
    net = random_network(21, n_inputs=3, n_aux=4)
    clamps = {u: 1 for u in net.input_ids}
    rows = run(net, clamps, 0, seed=0)
    assert rows.shape == (1, len(net))
    for u in net.neurons:
        expected = 1 if u.id in clamps else 0
        assert rows[0, u.id] == (expected if u.kind is Kind.INPUT else 0)


def test_run_repeatable():
    net = random_network(31, n_inputs=2, n_aux=5)
    clamps = {u: (u % 2) for u in net.input_ids}
    assert np.array_equal(run(net, clamps, 12, seed=6), run(net, clamps, 12, seed=6))
    assert not np.array_equal(run(net, clamps, 12, seed=6), run(net, clamps, 12, seed=7))


def test_run_rejects_clamped_non_input():
    # The error names the offending clamp.
    net = two_neuron_net()
    with pytest.raises(InvalidParameterError, match="clamped, got 1$"):
        run(net, {0: 1, 1: 1}, 3, seed=0)
    with pytest.raises(InvalidParameterError, match="bit for 0 must be 0 or 1, got 2$"):
        run(net, {0: 2}, 3, seed=0)


def test_coin_neuron_empirical_rate():
    # potential exactly 0 each round: empirical firing rate 0.5 +- 0.01 over 1e5 steps
    net = coin_net()
    rows = run(net, {}, 100_000, seed=123)
    rate = rows[1:, 0].sum() / 100_000
    assert abs(rate - 0.5) < 0.01


def test_run_schedule_matches_run_for_constant_clamps():
    net = random_network(41, n_inputs=2, n_aux=3)
    clamps = {u: 1 for u in net.input_ids}
    assert np.array_equal(run_schedule(net, [(clamps, 8)], seed=3), run(net, clamps, 7, seed=3))


def test_run_schedule_switches_clamps():
    net = two_neuron_net()
    rows = run_schedule(net, [({0: 1}, 2), ({0: 0}, 2)], seed=0)
    assert rows[:, 0].tolist() == [1, 1, 0, 0]
