import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from neuroram.bits import dec
from neuroram.dynamics import run
from neuroram.errors import InvalidParameterError
from neuroram.model import Network, validate
from neuroram.montecarlo import trial_states
from neuroram.similarity import (
    LOCK_INACTIVE, LOCK_OK, LOCK_UNSTABLE,
    build_comparator_gadget, build_similarity, clamps_for, locked_index_check,
    locked_index_values, miss_bound_chain, sample_count, sampling_miss_count,
    similarity_positive_count,
)

LAM = Fraction(1, 32)


@pytest.fixture(scope="module")
def sim16():
    return build_similarity(16, 0.25, 2, LAM)


@pytest.fixture(scope="module")
def sim4():
    return build_similarity(4, 0.5, 2, LAM)


# --- probe count -----------------------------------------------------------

def test_sample_count_examples():
    assert sample_count(16, 0.25, 2) == 23
    assert sample_count(4, 0.5, 2) == 6


def test_sample_count_integer_case():
    # eps = 1 and c*ln(n) integral: exactly c*ln(n) rounded up
    import math
    n = 16
    c = 4 / math.log(n)  # c*ln(n) == 4 exactly up to float error
    assert sample_count(n, 1.0, max(c, 1.0)) == 4


def test_sample_count_rejects_bad_eps():
    with pytest.raises(InvalidParameterError):
        sample_count(16, 0.0)
    with pytest.raises(InvalidParameterError):
        sample_count(16, -0.5)
    with pytest.raises(InvalidParameterError):
        sample_count(16, 0.25, c=0.5)


# --- construction ----------------------------------------------------------

def test_build_validates_and_counts_pairs(sim16):
    net, layout = sim16
    assert validate(net) == []
    assert layout.k == 23
    assert len(layout.units_a) == len(layout.units_b) == 23
    assert len(layout.index) == 23
    assert len({u.name for u in net.neurons}) == len(net)


def test_neuron_names_are_the_role_map(sim4):
    net, layout = sim4
    roles = {u.name: u.id for u in net.neurons}
    assert len(roles) == len(net)
    unit = layout.units_a[0]
    assert roles["a0.trig[1]"] == unit.trigger[1]
    assert roles["a0.clk[3]"] == unit.clock[3]
    assert roles["b1.stop[1]"] == layout.units_b[1].stop[0]
    assert roles["x1[2]"] == layout.x1[2] == unit.data[2]
    assert roles["idx0[1]"] == layout.index[0][1] == unit.addr[1]
    assert roles["cmp_any[0]"] == layout.cmp_any[0] and roles["out"] == layout.out
    assert "a0.data[0]" not in roles and "a0.addr[0]" not in roles


def test_index_neurons_bias_zero_self_loop_two(sim16):
    net, layout = sim16
    for group in layout.index:
        for y in group:
            assert net.neurons[y].bias == 0
            weights = dict(net.incoming[y])
            assert weights[y] == 2
            assert weights[layout.lock] == -1


def test_lock_reads_every_input_with_weight_two(sim16):
    net, layout = sim16
    weights = dict(net.incoming[layout.lock])
    assert set(weights) == set(layout.x1) | set(layout.x2)
    assert set(weights.values()) == {2}
    assert net.neurons[layout.lock].bias == 1


def test_pairs_share_index_neurons(sim16):
    _, layout = sim16
    for k in range(layout.k):
        assert layout.units_a[k].addr == layout.index[k]
        assert layout.units_b[k].addr == layout.index[k]
        assert layout.units_a[k].start is not None  # delayed clock start


# --- comparator ------------------------------------------------------------

def test_comparator_truth_table():
    net = build_comparator_gadget(LAM)
    ids = {u.name: u.id for u in net.neurons}
    for o1, o2 in product((0, 1), repeat=2):
        rows = run(net, {ids["o1"]: o1, ids["o2"]: o2}, 2, seed=5)
        assert rows[1, ids["cmp_any"]] == (o1 | o2)
        assert rows[1, ids["cmp_both"]] == (o1 & o2)
        assert rows[2, ids["out"]] == (o1 ^ o2)


def test_output_integrates_pairs_fires_iff_some_pair_disagrees():
    # Two comparator pairs into one output: exactly-one-active pairs excite,
    # both-active pairs cancel, silent pairs contribute nothing.
    from neuroram.model import Kind, NetworkBuilder, Polarity

    b = NetworkBuilder(LAM)
    pair_outs = [b.add_neuron(f"o{i}", Kind.INPUT, Polarity.EXCITATORY, 0)
                 for i in range(4)]
    out = b.add_neuron("out", Kind.OUTPUT, Polarity.EXCITATORY, 1)
    for k in range(2):
        f_any = b.add_neuron(f"any{k}", Kind.AUXILIARY, Polarity.EXCITATORY, 1)
        f_both = b.add_neuron(f"both{k}", Kind.AUXILIARY, Polarity.INHIBITORY, 3)
        for o in pair_outs[2 * k: 2 * k + 2]:
            b.add_synapse(o, f_any, 2)
            b.add_synapse(o, f_both, 2)
        b.add_synapse(f_any, out, 2)
        b.add_synapse(f_both, out, -2)
    net = b.build()
    for bits in product((0, 1), repeat=4):
        rows = run(net, dict(zip(pair_outs, bits)), 2, seed=3)
        disagreement = (bits[0] ^ bits[1]) or (bits[2] ^ bits[3])
        assert rows[2, out] == int(disagreement), bits


# --- end to end ------------------------------------------------------------

def test_equal_inputs_stay_silent(sim16):
    net, layout = sim16
    x = tuple(int(i % 2 == 0) for i in range(16))
    assert similarity_positive_count(net, layout, x, x, 100, seed=31) <= 1


def test_complement_inputs_detected(sim16):
    net, layout = sim16
    x = tuple(int(i % 3 == 0) for i in range(16))
    far = tuple(1 - b for b in x)
    assert similarity_positive_count(net, layout, x, far, 100, seed=32) >= 99


def test_all_zero_inputs_output_zero(sim16):
    net, layout = sim16
    zero = (0,) * 16
    states = trial_states(net, [(clamps_for(layout, zero, zero), layout.read_round + 1)], 1,
                          seed=2, record=[layout.out, *layout.lock_record])
    assert states[0, layout.read_round, 0] == 0
    assert locked_index_check(states[0, :, 1:], layout) == LOCK_INACTIVE


@pytest.mark.parametrize("n, eps, c", [(4, 0.5, 4), (16, 0.25, 2)])
def test_bucket_tail_differences_detected(n, eps, c):
    # Inputs differ only at the last position of every bucket: the last read
    # step of each embedded unit must be observed at the read round.
    net, layout = build_similarity(n, eps, c, LAM)
    s = math.isqrt(n)
    x = tuple(int(i % 3 == 0) for i in range(n))
    tail = tuple(b ^ int(i % s == s - 1) for i, b in enumerate(x))
    assert similarity_positive_count(net, layout, x, tail, 200, seed=n) >= 0.99 * 200
    assert similarity_positive_count(net, layout, x, x, 200, seed=n + 1) <= 0.01 * 200


def test_exact_single_run_n4(sim4):
    net, layout = sim4

    def flagged(x1, x2):
        rows = run(net, clamps_for(layout, x1, x2), layout.read_round, seed=9)
        return rows[layout.read_round, layout.out]

    x1 = (0, 1, 0, 0)
    assert flagged(x1, x1) == 0
    assert flagged(x1, (1, 0, 1, 1)) == 1


# --- locked index ----------------------------------------------------------

def lock_rows(net, layout, x1, x2, trials, seed):
    """Per-trial rows of :func:`locked_index_check` from the trial engine."""
    return trial_states(net, [(clamps_for(layout, x1, x2), layout.read_round + 1)], trials,
                        seed, record=list(layout.lock_record))


def test_lock_holds_over_seeds(sim4):
    net, layout = sim4
    states = lock_rows(net, layout, (1, 0, 1, 0), (1, 1, 0, 0), 100, seed=0)
    ok = sum(locked_index_check(rows, layout) == LOCK_OK for rows in states)
    assert ok >= 99


def test_removing_lock_edges_unlocks(sim4):
    net, layout = sim4
    stripped = [s for s in net.synapses if s.pre != layout.lock]
    loose = Network(net.lam, net.neurons, stripped)
    states = lock_rows(loose, layout, (1, 0, 1, 0), (1, 1, 0, 0), 30, seed=0)
    unstable = sum(locked_index_check(rows, layout) == LOCK_UNSTABLE for rows in states)
    assert unstable >= 25


def test_lock_check_on_synthetic_rows(sim4):
    # No simulation: the lock fires in round 1 and every index bit holds a
    # fixed pattern from round 2 on, with rows running past the read round.
    _, layout = sim4
    rounds, width = layout.read_round + 4, len(layout.lock_record)
    rows = np.zeros((rounds, width), dtype=bool)
    rows[1:, 0] = True
    rows[2:, 1::2] = True
    rows[1, 1:] = ~rows[2, 1:]  # round 1 is still settling
    assert locked_index_check(rows, layout) == LOCK_OK

    silent = rows.copy()
    silent[1, 0] = False
    assert locked_index_check(silent, layout) == LOCK_INACTIVE

    for t in range(2, layout.read_round + 1):
        for col in (1, width - 1):
            flipped = rows.copy()
            flipped[t, col] ^= True
            assert locked_index_check(flipped, layout) == LOCK_UNSTABLE, (t, col)

    late = rows.copy()
    late[layout.read_round + 1:, 1:] ^= True
    assert locked_index_check(late, layout) == LOCK_OK


def test_index_uniformity_total_variation(sim16):
    # Locked values settle in round 1 and hold from round 2; 1e4 seeded trials
    # per probe must sit within TV 0.05 of uniform over {0..15}.
    net, layout = sim16
    x = tuple(int(i % 2) for i in range(16))
    record = [y for group in layout.index for y in group]
    states = trial_states(net, [(clamps_for(layout, x, x), 3)], 10_000, seed=77,
                          record=record)
    log_n = 4
    for k in range(layout.k):
        bits = states[:, 2, k * log_n: (k + 1) * log_n]
        values = (bits @ (1 << np.arange(log_n))).astype(int)
        counts = np.bincount(values, minlength=16)
        tv = 0.5 * np.abs(counts / 10_000 - 1 / 16).sum()
        assert tv < 0.05, f"probe {k}: TV {tv:.4f}"


def test_locked_index_values_match_round_two_bits(sim4):
    net, layout = sim4
    x = (1, 0, 0, 0)
    rows = lock_rows(net, layout, x, x, 1, seed=13)[0]
    values = locked_index_values(rows, layout)
    assert len(values) == layout.k
    col = {u: i for i, u in enumerate(layout.lock_record)}
    for k, group in enumerate(layout.index):
        assert values[k] == dec(tuple(int(rows[2, col[y]]) for y in group))


# --- sampling bound --------------------------------------------------------

def test_miss_bound_chain_arithmetic():
    miss, target = miss_bound_chain(16, 0.25, 2)
    assert miss == pytest.approx(0.75 ** 23)
    assert target == 16.0 ** -2
    assert miss <= target


def test_sampling_miss_rate_within_three_times_bound():
    k = sample_count(16, 0.25, 2)
    diff = (0, 5, 10, 12)  # ham = eps * n exactly
    misses = sampling_miss_count(16, k, diff, draws=10_000, seed=4)
    assert misses / 10_000 <= 3 * (0.75 ** k)


def test_sampling_miss_requires_difference():
    with pytest.raises(InvalidParameterError):
        sampling_miss_count(16, 5, (), 100, seed=0)


@pytest.mark.parametrize("position", [-1, 16])
def test_sampling_miss_rejects_positions_outside_the_pattern(position):
    # numpy would wrap -1 to the last position and raise IndexError on 16
    with pytest.raises(InvalidParameterError, match=rf"position {position} outside \[0, 16\)"):
        sampling_miss_count(16, 5, (3, position), 100, seed=0)
