from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.stats import binom

from neuroram import dynamics, montecarlo
from neuroram.dynamics import firing_probability, run, run_schedule
from neuroram.errors import InvalidParameterError, ResourceBudgetError
from neuroram.model import Kind, NetworkBuilder, Polarity
from neuroram.montecarlo import (
    BATCH, MAX_RECORDED_BITS, _operator, final_bit_counts, trial_states,
)
from neuroram.ramnet import IndexInstance, address_bits, build_neuro_ram, index_hits
from neuroram.randomnets import random_network
from neuroram.serialize import network_from_json, network_to_json, save_network
from neuroram.similarity import build_similarity
from neuroram.transforms import circuit_states, sample_threshold_circuit, unroll


def test_agrees_with_exact_engine_on_rates():
    # Same firing law, different randomness streams: empirical rates from the
    # vectorized engine and the exact engine must agree within Monte-Carlo noise.
    net = random_network(2, n_inputs=2, n_aux=3, lam=Fraction(1, 2))
    clamps = {u: 1 for u in net.input_ids}
    out = net.output_ids[0]
    rounds, trials = 5, 4000
    vec_rate = final_bit_counts(net, clamps, rounds, trials, seed=5, neuron=out) / trials
    exact_hits = sum(
        run(net, clamps, rounds, seed=k)[rounds, out] for k in range(trials)
    )
    assert abs(vec_rate - exact_hits / trials) < 0.04


def test_batching_is_transparent():
    net = random_network(4, n_inputs=1, n_aux=4)
    # the two-window schedule changes the input drive between windows
    for schedule in ([({0: 1}, 6)], [({0: 1}, 3), ({0: 0}, 3)]):
        big = trial_states(net, schedule, BATCH + 37, seed=9, record=list(range(len(net))))
        small = trial_states(net, schedule, BATCH, seed=9, record=list(range(len(net))))
        assert np.array_equal(big[:BATCH], small)


def test_determinism():
    net = random_network(6, n_inputs=2, n_aux=2)
    clamps = {u: 0 for u in net.input_ids}
    # the two-window schedule flips input 0
    for schedule, trials in (([(clamps, 4)], 100),
                             ([(clamps, 2), ({**clamps, 0: 1}, 3)], BATCH + 37)):
        a = trial_states(net, schedule, trials, seed=1, record=[0, 1, 2])
        b = trial_states(net, schedule, trials, seed=1, record=[0, 1, 2])
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


def _mixed_sign_net(e):
    """Output u with bias 2**96 + 1 (middle digits zero), excitatory inputs
    x0 (weight 2**96 + 2**e + 1) and x1 (weight 1), and an inhibitory relay h
    (weight -(2**e + 1)) that copies input x2 from round 1 on."""
    lam = Fraction(1, 2)
    b = NetworkBuilder(lam)
    xs = [b.add_neuron(f"x{i}", Kind.INPUT, Polarity.EXCITATORY, 0) for i in range(3)]
    h = b.add_neuron("h", Kind.AUXILIARY, Polarity.INHIBITORY, 21)
    u = b.add_neuron("u", Kind.OUTPUT, Polarity.EXCITATORY, 2**96 + 1)
    b.add_synapse(xs[2], h, 42)  # pot +-21: saturated at lam = 1/2
    b.add_synapse(xs[0], u, 2**96 + 2**e + 1)
    b.add_synapse(xs[1], u, 1)
    b.add_synapse(h, u, -(2**e + 1))
    return b.build(), xs, u


@pytest.mark.parametrize("e", [40, 70, 130])
def test_mixed_sign_wide_coefficients_follow_the_exact_potential(e):
    # Digits of a negative weight carry its sign; with x0 and x2 on, the
    # potential cancels to x1 - 1 across every digit.
    net, xs, u = _mixed_sign_net(e)
    for bits in product((0, 1), repeat=3):
        pot = bits[0] * (2**96 + 2**e + 1) + bits[1] - bits[2] * (2**e + 1) - (2**96 + 1)
        want = firing_probability(pot, net.lam)
        states = trial_states(net, [(dict(zip(xs, bits)), 6)], 2000, seed=e, record=[u])
        rate = states[:, 2:, 0].mean()  # u sees x2 through h from round 2 on
        if want in (0.0, 1.0):
            assert rate == want, (bits, rate)
        else:
            assert abs(rate - want) < 0.02, (bits, rate, want)


def _wide_gate_net(lam):
    """Input x into output u: weight 2**60, bias 2**60 - 2**54."""
    b = NetworkBuilder(lam)
    b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("u", Kind.OUTPUT, Polarity.EXCITATORY, 2**60 - 2**54)
    b.add_synapse(0, 1, 2**60)
    return b.build()


def test_wide_neurons_need_a_temperature_below_2_to_45():
    # With x on, the potential 2**54 is past the clipped carry's exact range:
    # read as 2**52 at lambda = 2**54, u would fire with sigmoid(1/4) = 0.56
    # instead of sigmoid(1) = 0.73.
    for lam in (Fraction(2**45), Fraction(2**54)):
        net = _wide_gate_net(lam)
        with pytest.raises(InvalidParameterError, match=r"'u'.*temperature below 2\*\*45"):
            trial_states(net, [({0: 1}, 2)], 10, seed=0, record=[1])
        ff = unroll(net, 2)
        with pytest.raises(InvalidParameterError, match=r"'u@1'.*temperature below 2\*\*45"):
            circuit_states(ff, {ff.inputs[0]: 1}, 10, 0, [ff.out])
        # derandomize refuses the same net before it draws a circuit
        with pytest.raises(InvalidParameterError, match=r"'u@1'.*temperature below 2\*\*45"):
            sample_threshold_circuit(ff, 0)
    # the exact engine keeps the exact law, here at lambda = 2**54
    rate = np.mean([run(net, {0: 1}, 1, seed=k)[1, 1] for k in range(2000)])
    assert abs(rate - firing_probability(2**54, net.lam)) < 0.04
    # below 2**45 every clipped potential past 2**51 saturates the sigmoid
    cool = _wide_gate_net(Fraction(2**45 - 1))
    assert trial_states(cool, [({0: 1}, 2)], 10, seed=0, record=[1])[:, 1, 0].all()


def _coefficients_loop(net, free):
    """Per-synapse reference for the weights and bias of ``_operator``: row v
    of the weights is neuron v, over the columns of the ``free`` neurons."""
    span = [abs(u.bias) for u in net.neurons]
    for s in net.synapses:
        span[s.post] += abs(s.weight)
    wide = [u for u in free if span[u] >= 2**52]
    count = max((-(-span[u].bit_length() // 32) for u in wide), default=0)
    col = {u: i for i, u in enumerate(free)}

    def split(u, value):
        if u not in wide:
            return [(col[u], value)]
        return [(len(free) + k * len(wide) + wide.index(u),
                 (abs(value) >> 32 * k) % 2**32 * (1 if value >= 0 else -1)) for k in range(count)]

    bias = np.zeros(len(free) + count * len(wide))
    w = np.zeros((len(net), bias.size))
    for u in free:
        for c, v in split(u, net.neurons[u].bias):
            bias[c] = v
    for s in net.synapses:
        if not net.is_input(s.post):
            for c, v in split(s.post, s.weight):
                w[s.pre, c] = v
    return w, bias, np.array([col[u] for u in wide], dtype=np.int64)


def test_coefficients_match_the_per_synapse_loop():
    nets = [build_neuro_ram(16)[0], build_similarity(16, 0.25, 2.0, Fraction(1, 32))[0],
            _mixed_sign_net(70)[0], _mixed_sign_net(130)[0]]
    nets += [random_network(s, n_inputs=3, n_aux=6) for s in range(3)]
    for net in nets:
        inputs = list(net.input_ids)
        free = sorted(set(range(len(net))) - set(inputs))
        w_free, w_fixed, bias, wide, pos = _operator(net)
        want_w, want_bias, want_wide = _coefficients_loop(net, free)
        assert np.array_equal(w_free.T.toarray(), want_w[free])
        assert np.array_equal(w_fixed.T.toarray(), want_w[inputs])
        assert np.array_equal(bias, want_bias) and np.array_equal(wide, want_wide)
        assert np.array_equal(pos[free + inputs], np.arange(len(net)))


def test_indexing_n4096_through_the_trial_engine():
    # Encoder coefficients reach 2**66 here, so these runs go through the
    # wide-column digits.
    n = 4096
    net, layout = build_neuro_ram(n)
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


def _forward_marginals(net, schedule):
    """Exact Pr[u fires in round t] for every round t and neuron u, from the
    distribution over all 2**N states pushed through the firing law."""
    n = len(net)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # state s has bit u = (s >> u) & 1
    w = np.zeros((n, n), dtype=np.int64)
    for s in net.synapses:
        w[s.pre, s.post] = s.weight
    bias = np.array([u.bias for u in net.neurons], dtype=np.int64)
    per_round = [clamps for clamps, duration in schedule for _ in range(duration)]
    dist = np.zeros(2**n)
    dist[sum(bit << u for u, bit in per_round[0].items())] = 1.0
    marginals = [dist @ bits]
    for clamps in per_round[1:]:
        live = np.flatnonzero(dist)
        pot = bits[live] @ w - bias
        law = {int(v): firing_probability(int(v), net.lam) for v in np.unique(pot)}
        p = np.vectorize(law.__getitem__, otypes=[float])(pot)
        for u, bit in clamps.items():
            p[:, u] = bit
        # next[s'] = sum_s dist[s] * prod_u Pr[u's bit in s' | s], built bit by bit
        step = np.ones((live.size, 1))
        for u in range(n):
            step = np.concatenate([step * (1 - p[:, u:u + 1]), step * p[:, u:u + 1]], axis=1)
        dist = dist[live] @ step
        marginals.append(dist @ bits)
    return np.clip(marginals, 0.0, 1.0)  # sums of products may round past 1


# (seed, inputs, auxiliaries, lambda, schedule): every window clamps every
# input; in the multi-window schedules the bits change between windows.
_ORACLE_CASES = {
    "one-window-N8": (1, 2, 5, Fraction(1, 4), [({0: 1, 1: 0}, 7)]),
    "one-window-N12": (2, 3, 8, Fraction(1, 1), [({0: 1, 1: 0, 2: 1}, 6)]),
    "three-windows-N10": (3, 2, 7, Fraction(1, 2),
                          [({0: 1, 1: 1}, 3), ({0: 0, 1: 1}, 3), ({0: 1, 1: 0}, 3)]),
    "two-windows-N12": (5, 3, 8, Fraction(3, 2),
                        [({0: 0, 1: 1, 2: 1}, 4), ({0: 1, 1: 0, 2: 0}, 4)]),
    "two-windows-N9-cold": (8, 2, 6, Fraction(1, 8), [({0: 1, 1: 0}, 3), ({0: 0, 1: 1}, 4)]),
}


@pytest.mark.parametrize("case", _ORACLE_CASES)
@pytest.mark.parametrize("engine, trials", [("vectorized", 20_000), ("exact", 1_000)])
def test_per_round_marginals_match_the_exact_forward_distribution(engine, trials, case):
    seed, inputs, aux, lam, schedule = _ORACLE_CASES[case]
    net = random_network(seed, n_inputs=inputs, n_aux=aux, lam=lam)
    want = _forward_marginals(net, schedule)
    if engine == "vectorized":
        counts = trial_states(net, schedule, trials, seed, list(range(len(net)))).sum(axis=0)
    else:
        counts = sum(run_schedule(net, schedule, k) for k in range(trials))
    # two-sided binomial tail of every marginal, Bonferroni over all of them;
    # a saturated marginal (0 or 1) must be matched exactly
    tail = np.minimum(binom.cdf(counts, trials, want), binom.sf(counts - 1, trials, want))
    worst = np.unravel_index(np.argmin(tail), tail.shape)
    assert 2 * tail.min() >= 1e-3 / tail.size, (worst, counts[worst] / trials, want[worst])


@pytest.mark.parametrize("schedule", [[({0: 1}, 5)], [({0: 1}, 3), ({0: 0}, 4)]])
def test_exact_rows_have_the_trial_engine_layout(schedule):
    net = random_network(12, n_inputs=1, n_aux=4)
    rows = run_schedule(net, schedule, 7)
    trial = trial_states(net, schedule, 3, 7, list(range(len(net))))[0]
    assert rows.dtype == trial.dtype
    assert rows.shape == trial.shape


def test_rejects_bad_args():
    net = random_network(6, n_inputs=1, n_aux=1)
    with pytest.raises(InvalidParameterError):
        trial_states(net, [({0: 1}, 3)], 0, seed=0, record=[0])
    with pytest.raises(InvalidParameterError):
        trial_states(net, [({net.output_ids[0]: 1}, 3)], 5, seed=0, record=[0])
    for trials in (2.5, True):
        with pytest.raises(InvalidParameterError, match="trials"):
            trial_states(net, [({0: 1}, 3)], trials, seed=0, record=[0])


@pytest.mark.parametrize("record", [[-1], [3], [0, 99], [True], [1.0]])
def test_rejects_record_ids_outside_the_network(record):
    net = random_network(6, n_inputs=1, n_aux=1)  # 3 neurons
    with pytest.raises(InvalidParameterError, match="record"):
        trial_states(net, [({0: 1}, 3)], 5, seed=0, record=record)


_ENGINES = {
    "exact": run_schedule,
    "vectorized": lambda net, schedule, seed: trial_states(net, schedule, 5, seed, [0]),
}

# Both engines share one validator; these are the inputs it must reject on
# the network of _one_input_net.
_BAD_SCHEDULES = {
    "bit-2": ([({0: 2}, 3)], 0),
    "unhashable-bit": ([({0: [1]}, 3)], 0),
    "float-id": ([({0.0: 1}, 3)], 0),
    "non-input": ([({1: 1}, 3)], 0),
    "missing-input": ([({}, 3)], 0),
    "input-freed-in-window-2": ([({0: 1}, 2), ({}, 2)], 0),
    "id-past-end": ([({2: 1}, 3)], 0),
    "negative-id": ([({-1: 1}, 3)], 0),
    "empty": ([], 0),
    "zero-duration": ([({0: 1}, 2), ({0: 0}, 0)], 0),
    "negative-seed": ([({0: 1}, 3)], -1),
    "float-seed": ([({0: 1}, 3)], 1.5),
    "bool-seed": ([({0: 1}, 3)], True),
    "float-duration": ([({0: 1}, 2.5)], 0),
    "bool-duration": ([({0: 1}, True)], 0),
    "window-of-three": ([({0: 1}, 3, 1)], 0),
    "bare-clamps": ([{0: 1}], 0),
    "clamps-not-a-mapping": ([([1], 3)], 0),
}


def _one_input_net():
    """Neuron 0 is the input, neuron 1 the output."""
    b = NetworkBuilder(Fraction(1, 32))
    b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("u", Kind.OUTPUT, Polarity.EXCITATORY, 1)
    b.add_synapse(0, 1, 2)
    return b.build()


@pytest.mark.parametrize("case", _BAD_SCHEDULES)
@pytest.mark.parametrize("engine", _ENGINES)
def test_engines_reject_the_same_bad_schedules(engine, case):
    schedule, seed = _BAD_SCHEDULES[case]
    with pytest.raises(InvalidParameterError):
        _ENGINES[engine](_one_input_net(), schedule, seed)


@pytest.mark.parametrize("engine", ["exact", "vectorized"])
def test_engines_refuse_the_same_oversized_schedule(monkeypatch, engine):
    # Both engines record 2 bits per round here (every neuron of one trial),
    # so 2**27 + 1 rounds pass the budget by 2 bits.  Any simulation would
    # reach the patched entry points first.
    def simulated(*_):
        raise AssertionError("simulated past the budget")

    monkeypatch.setattr(dynamics, "initial_state", simulated)
    monkeypatch.setattr(montecarlo, "_operator", simulated)
    schedule = [({0: 1}, 3), ({0: 0}, MAX_RECORDED_BITS // 2 - 2)]
    net = _one_input_net()
    with pytest.raises(ResourceBudgetError, match=f"exceeds the budget of {MAX_RECORDED_BITS}"):
        if engine == "exact":
            run_schedule(net, schedule, 0)
        else:
            trial_states(net, schedule, 1, 0, [0, 1])


def test_operator_memo_is_transparent(tmp_path):
    # One network object runs three schedules in turn; each call must match
    # a fresh, never simulated copy.
    net = random_network(11, n_inputs=3, n_aux=6)
    schedules = [
        [({0: 1, 1: 0, 2: 1}, 5)],
        [({0: 1, 1: 1, 2: 0}, 3), ({0: 0, 1: 1, 2: 1}, 3)],
        [({0: 1, 1: 0, 2: 0}, 3), ({0: 0, 1: 1, 2: 0}, 3)],
    ]
    record = list(range(len(net)))
    for k in (0, 1, 2, 0, 2, 1, 1):
        fresh = network_from_json(network_to_json(net))
        got = trial_states(net, schedules[k], 300, seed=k, record=record)
        assert np.array_equal(got, trial_states(fresh, schedules[k], 300, seed=k, record=record)), k
    copy = network_from_json(network_to_json(net))
    assert net == copy
    save_network(net, tmp_path / "used.json")
    save_network(copy, tmp_path / "fresh.json")
    assert (tmp_path / "used.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_cached_operator_is_read_only():
    net, xs, u = _mixed_sign_net(70)
    trial_states(net, [({x: 1 for x in xs}, 3)], 4, seed=0, record=[u])
    w_free, w_fixed, bias, wide, pos = _operator(net)
    assert wide.size == 1
    for a in (w_free.data, w_fixed.data, bias, wide, pos):
        with pytest.raises(ValueError):
            a[0] += 1
