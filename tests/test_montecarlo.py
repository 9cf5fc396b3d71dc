from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from neuroram.dynamics import default_lambda, firing_probability, run, run_schedule
from neuroram.errors import InvalidParameterError
from neuroram.model import Kind, NetworkBuilder, Polarity
from neuroram.montecarlo import BATCH, final_bit_counts, trial_states
from neuroram.ramnet import IndexInstance, _cached_ram, address_bits, index_hits
from neuroram.randomnets import random_network


def test_agrees_with_exact_engine_on_rates():
    # Same firing law, different randomness streams: empirical rates from the
    # vectorized engine and the exact engine must agree within Monte-Carlo noise.
    net = random_network(2, n_inputs=2, n_aux=3, lam=Fraction(1, 2))
    clamps = {u: 1 for u in net.input_ids}
    out = net.output_ids[0]
    rounds, trials = 5, 4000
    vec_rate = final_bit_counts(net, clamps, rounds, trials, seed=5, neuron=out) / trials
    exact_hits = sum(
        run(net, clamps, rounds, seed=k).fired(rounds, out) for k in range(trials)
    )
    assert abs(vec_rate - exact_hits / trials) < 0.04


def test_batching_is_transparent():
    net = random_network(4, n_inputs=1, n_aux=4)
    clamps = {0: 1}
    big = trial_states(net, [(clamps, 6)], BATCH + 37, seed=9, record=[net.output_ids[0]])
    small = trial_states(net, [(clamps, 6)], BATCH, seed=9, record=[net.output_ids[0]])
    assert np.array_equal(big[:BATCH], small)


def test_determinism():
    net = random_network(6, n_inputs=2, n_aux=2)
    clamps = {u: 0 for u in net.input_ids}
    a = trial_states(net, [(clamps, 4)], 100, seed=1, record=[0, 1, 2])
    b = trial_states(net, [(clamps, 4)], 100, seed=1, record=[0, 1, 2])
    assert np.array_equal(a, b)


def test_round_zero_and_clamps_recorded():
    net = random_network(7, n_inputs=2, n_aux=2)
    clamps = {net.input_ids[0]: 1, net.input_ids[1]: 0}
    states = trial_states(net, [(clamps, 3)], 10, seed=0, record=list(net.input_ids))
    assert states[:, :, 0].all()
    assert not states[:, :, 1].any()


def test_big_integer_coefficients_stay_exact():
    # Coefficients past float64 exactness are summed digit by digit.
    b = NetworkBuilder(Fraction(1, 2))
    b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("u", Kind.OUTPUT, Polarity.EXCITATORY, 2**60)
    b.add_synapse(0, 1, 2**60 + 1)
    net = b.build()
    states = trial_states(net, [({0: 1}, 5)], 8, seed=3, record=[1])
    again = trial_states(net, [({0: 1}, 5)], 8, seed=3, record=[1])
    assert states.shape == (8, 5, 1)
    assert np.array_equal(states, again)
    # the +1 cancellation (2**60 + 1 - 2**60) only survives exact arithmetic;
    # at lam=1/2 it fires often but not always
    assert 0 < states[:, 1:, 0].mean() < 1


@pytest.mark.parametrize("e", [70, 130, 1100])
def test_wide_column_rates_follow_the_exact_potential(e):
    # bias 2**e, weights 2**e + 1 and 2**e: the potentials -2**e, 1, 0 and
    # 2**e + 1 need every digit; a sum mod 2**64 would read -2**e as 0.
    lam = Fraction(1, 2)
    b = NetworkBuilder(lam)
    xs = [b.add_neuron(f"x{i}", Kind.INPUT, Polarity.EXCITATORY, 0) for i in range(2)]
    u = b.add_neuron("u", Kind.OUTPUT, Polarity.EXCITATORY, 2**e)
    b.add_synapse(xs[0], u, 2**e + 1)
    b.add_synapse(xs[1], u, 2**e)
    net = b.build()
    for bits in product((0, 1), repeat=2):
        pot = bits[0] * (2**e + 1) + bits[1] * 2**e - 2**e
        want = firing_probability(pot, lam)
        states = trial_states(net, [(dict(zip(xs, bits)), 5)], 2000, seed=e, record=[u])
        rate = states[:, 1:, 0].mean()
        if want in (0.0, 1.0):
            assert rate == want, (bits, rate)
        else:
            assert abs(rate - want) < 0.02, (bits, rate, want)


def test_indexing_n4096_through_the_trial_engine():
    # Encoder coefficients reach 2**66 here, so these runs go through the
    # wide-column digits.
    n = 4096
    net, layout = _cached_ram(n, False, default_lambda(n))
    gen = np.random.default_rng(4096)
    last = n - 1
    instances = [
        IndexInstance(tuple(int(v) for v in gen.integers(0, 2, n)),
                      tuple(int(v) for v in gen.integers(0, 2, layout.log_n))),
        IndexInstance(tuple(int(i == last) for i in range(n)), address_bits(n, last)),
        IndexInstance(tuple(int(i != 0) for i in range(n)), address_bits(n, 0)),
    ]
    for k, inst in enumerate(instances):
        assert index_hits(net, layout, inst, 8, seed=k) / 8 >= 0.99, k


def test_rejects_bad_args():
    net = random_network(6, n_inputs=1, n_aux=1)
    with pytest.raises(InvalidParameterError):
        trial_states(net, [({0: 1}, 3)], 0, seed=0, record=[0])
    with pytest.raises(InvalidParameterError):
        trial_states(net, [({net.output_ids[0]: 1}, 3)], 5, seed=0, record=[0])


_ENGINES = {
    "exact": run_schedule,
    "vectorized": lambda net, schedule, seed: trial_states(net, schedule, 5, seed, [0]),
}

# Both engines share one validator; these are the inputs it must reject.
# Neuron 0 is the input, neuron 1 the output.
_BAD_SCHEDULES = {
    "bit-2": ([({0: 2}, 3)], 0),
    "non-input": ([({1: 1}, 3)], 0),
    "id-past-end": ([({2: 1}, 3)], 0),
    "negative-id": ([({-1: 1}, 3)], 0),
    "empty": ([], 0),
    "zero-duration": ([({0: 1}, 2), ({0: 0}, 0)], 0),
    "negative-seed": ([({0: 1}, 3)], -1),
}


@pytest.mark.parametrize("case", _BAD_SCHEDULES)
@pytest.mark.parametrize("engine", _ENGINES)
def test_engines_reject_the_same_bad_schedules(engine, case):
    b = NetworkBuilder(Fraction(1, 32))
    b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("u", Kind.OUTPUT, Polarity.EXCITATORY, 1)
    b.add_synapse(0, 1, 2)
    schedule, seed = _BAD_SCHEDULES[case]
    with pytest.raises(InvalidParameterError):
        _ENGINES[engine](b.build(), schedule, seed)
