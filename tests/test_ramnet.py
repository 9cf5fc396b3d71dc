from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from neuroram.bits import dec
from neuroram.dynamics import potential, run
from neuroram.errors import InvalidParameterError
from neuroram.model import Kind, Network, Polarity, Synapse, validate
from neuroram.montecarlo import trial_states
from neuroram.ramnet import (
    CLOCK_MISMATCH, CLOCK_NEVER_STARTED, CLOCK_OK,
    IndexInstance, address_bits, address_of, build_neuro_ram, check_weight_fact,
    clamps_for, clock_pattern_status, dimension, expected_clock_rounds,
    expected_encoding_potential, run_multi_input,
)

LAM = Fraction(1, 32)


@pytest.fixture(scope="module")
def ram4():
    return build_neuro_ram(4, lam=LAM)


@pytest.fixture(scope="module")
def ram16():
    return build_neuro_ram(16, lam=LAM)


def weight(net: Network, pre: int, post: int) -> int:
    for p, w in net.incoming[post]:
        if p == pre:
            return w
    return 0


# --- construction ----------------------------------------------------------

def test_dimension_accepts_powers_of_four_only():
    assert dimension(4) == 2 and dimension(16) == 4 and dimension(64) == 8
    for bad in (0, 2, 8, 12, 32):
        with pytest.raises(InvalidParameterError):
            dimension(bad)


def test_builder_rejects_bad_n():
    with pytest.raises(InvalidParameterError):
        build_neuro_ram(8)


def test_n4_weight_table(ram4):
    net, layout = ram4
    s = layout.sqrt_n
    assert weight(net, layout.data[0], layout.enc[0]) == 2**2 == 4
    assert net.neurons[layout.enc[0]].bias == 2**4 + 2**2 - 1 == 19
    assert weight(net, layout.bucket_sel[0], layout.enc[0]) == 2 ** (s + 2)
    # decoder taps: trigger reads clk[5j+2] with weight 2*sqrt(n)
    for j in range(s):
        assert weight(net, layout.clock[5 * j + 2], layout.trigger[j]) == 2 * s
        assert weight(net, layout.read_excite[j], layout.enc[0]) == 2 ** (s - j - 1)
        assert weight(net, layout.read_inhibit[j], layout.enc[0]) == -(2 ** (s - j))
    assert weight(net, layout.out, layout.out) == 2
    assert net.neurons[layout.out].bias == 1


def test_builder_output_validates_clean(ram4, ram16):
    for net, _ in (ram4, ram16):
        assert validate(net) == []
    net_reset, _ = build_neuro_ram(4, with_reset=True, lam=LAM)
    assert validate(net_reset) == []
    net64, layout64 = build_neuro_ram(64)
    assert validate(net64) == []
    assert check_weight_fact(net64, layout64)


def test_names_are_unique_and_auxiliaries_counted(ram16):
    net, layout = ram16
    assert len({u.name for u in net.neurons}) == len(net)
    actual_aux = sum(1 for u in net.neurons if u.kind is Kind.AUXILIARY)
    assert actual_aux == layout.aux_count == 17 * 4 + 2 * 4 + 1


def test_neuron_names_are_the_role_map():
    for reset in (False, True):
        net, layout = build_neuro_ram(16, with_reset=reset, lam=LAM)
        roles = {u.name: u.id for u in net.neurons}
        assert len(roles) == len(net)
        assert roles["clk[3]"] == layout.clock[3]
        assert roles["stop[1]"] == layout.stop[0]
        assert roles["trig[1]"] == layout.trigger[1]
        assert roles["data[5]"] == layout.data[5] and roles["addr[2]"] == layout.addr[2]
        assert roles["act"] == layout.activity and roles["out"] == layout.out
        assert ("reset" in roles) == reset and roles.get("reset") == layout.reset


def test_inhibitors_have_only_nonpositive_outgoing(ram16):
    net, layout = ram16
    inhibitory = {u.id for u in net.neurons if u.polarity is Polarity.INHIBITORY}
    assert set(layout.stop) <= inhibitory
    assert set(layout.read_inhibit) <= inhibitory
    assert set(layout.addr_off) <= inhibitory
    for s in net.synapses:
        if s.pre in inhibitory:
            assert s.weight < 0


def test_read_inhibit_has_no_self_loop_but_holder_does(ram16):
    net, layout = ram16
    for j in range(layout.sqrt_n):
        assert weight(net, layout.read_inhibit[j], layout.read_inhibit[j]) == 0
        assert weight(net, layout.read_hold[j], layout.read_hold[j]) == 4
        assert weight(net, layout.read_hold[j], layout.read_inhibit[j]) == 4


# --- weight fact -----------------------------------------------------------

def test_weight_fact_holds(ram4, ram16):
    for net, layout in (ram4, ram16):
        assert check_weight_fact(net, layout)


def test_weight_fact_detects_inflated_feedback(ram4):
    # Doubling the read-excite weights lands at 2**(s+2) - 4, still inside
    # the bound; quadrupling is the smallest power-of-two scaling that breaks it.
    net, layout = ram4
    doubled = [
        Synapse(s.pre, s.post, s.weight * 2)
        if s.pre in layout.read_excite and s.post in layout.enc
        else s
        for s in net.synapses
    ]
    assert check_weight_fact(Network(net.lam, net.neurons, doubled), layout)
    quadrupled = [
        Synapse(s.pre, s.post, s.weight * 4)
        if s.pre in layout.read_excite and s.post in layout.enc
        else s
        for s in net.synapses
    ]
    assert not check_weight_fact(
        Network(net.lam, net.neurons, quadrupled), layout
    )


# --- encoding identity -----------------------------------------------------

def test_encoding_potential_examples():
    assert expected_encoding_potential((1, 0, 0, 0)) == 16 == 2 * dec((0, 0, 0, 1))
    assert expected_encoding_potential((0, 0, 0, 0)) == 0
    assert expected_encoding_potential((1, 1)) == 6 == 2 * dec((1, 1))


def test_encoding_matches_builder_weights(ram16):
    net, layout = ram16
    s = layout.sqrt_n
    for bucket in product((0, 1), repeat=s):
        for i in range(s):
            total = sum(
                weight(net, layout.data[i * s + j], layout.enc[i]) * bucket[j]
                for j in range(s)
            )
            assert total == expected_encoding_potential(bucket)


# --- end-to-end indexing ---------------------------------------------------

def exact_output(net, layout, inst, seed):
    """Output bit at round ``layout.rounds`` of one exact run."""
    return run(net, clamps_for(layout, inst), layout.rounds, seed)[layout.rounds, layout.out]


def test_exact_index_exhaustive_n4_one_seed(ram4):
    for x in product((0, 1), repeat=4):
        for y in product((0, 1), repeat=2):
            inst = IndexInstance(x, y)
            assert exact_output(*ram4, inst, seed=17) == inst.truth


def test_exact_index_single_set_bit_n16(ram16):
    x = tuple(int(i == 5) for i in range(16))
    inst = IndexInstance(x, address_bits(16, 5))
    hits = sum(exact_output(*ram16, inst, seed=s) for s in range(20))
    assert hits == 20


def test_all_zero_data_outputs_zero(ram16):
    for y in ((0, 0, 0, 0), (1, 0, 1, 1)):
        inst = IndexInstance((0,) * 16, y)
        assert exact_output(*ram16, inst, seed=3) == 0


def test_round_zero_everything_but_inputs_silent(ram16):
    net, layout = ram16
    inst = IndexInstance(tuple(int(i % 2) for i in range(16)), (1, 0, 1, 0))
    row = run(net, clamps_for(layout, inst), 0, seed=0)[0]
    for u in net.neurons:
        if u.kind is not Kind.INPUT:
            assert row[u.id] == 0


def test_address_convention_roundtrip():
    for n in (4, 16, 64):
        for k in range(n):
            assert address_of(address_bits(n, k)) == k
    # high half of the vector selects the bucket
    assert address_of((1, 0, 0, 0)) == 4  # n=16: bucket 1, position 0


def test_instance_validation():
    with pytest.raises(InvalidParameterError):
        IndexInstance((0,) * 6, (0, 0))
    with pytest.raises(InvalidParameterError):
        IndexInstance((0,) * 4, (0, 0, 0))


# --- internal dynamics invariants ------------------------------------------

def test_bucket_selection_suppresses_other_encoders(ram16):
    net, layout = ram16
    gen = np.random.default_rng(42)
    for i in range(layout.sqrt_n):
        x = tuple(int(b) for b in gen.integers(0, 2, size=16))
        y = address_bits(16, i * layout.sqrt_n)  # bucket i, position 0
        states = trial_states(
            net, [(clamps_for(layout, IndexInstance(x, y)), layout.rounds + 1)],
            40, seed=1000 + i, record=list(layout.enc),
        )
        for k, e in enumerate(layout.enc):
            if k == i:
                continue
            assert not states[:, 3:, k].any(), f"enc[{k}] fired with bucket {i} selected"


def test_potential_reading_recurrence(ram16):
    # In a correct trial, the selected encoder's potential at round 5j+2 is
    # 1 - 2**(s-j) + sum_{j' >= j} bucket[j'] * 2**(s-j').
    net, layout = ram16
    s = layout.sqrt_n
    x = (1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1)
    bucket_idx = 2
    inst = IndexInstance(x, address_bits(16, bucket_idx * s + 1))
    rows = run(net, clamps_for(layout, inst), layout.rounds, seed=9)
    assert rows[layout.rounds, layout.out] == inst.truth
    e_sel = layout.enc[bucket_idx]
    bucket = x[bucket_idx * s: (bucket_idx + 1) * s]
    for j in range(s):
        expected = 1 - 2 ** (s - j) + sum(
            bucket[jj] * 2 ** (s - jj) for jj in range(j, s)
        )
        assert potential(net, rows[5 * j + 2], e_sel) == expected


def test_output_persists_once_fired(ram16):
    net, layout = ram16
    x = tuple(int(i != 3) for i in range(16))
    inst = IndexInstance(x, address_bits(16, 0))
    states = trial_states(
        net, [(clamps_for(layout, inst), layout.rounds + 1)], 100, seed=8,
        record=[layout.out],
    )
    ok = 0
    for k in range(100):
        fires = np.flatnonzero(states[k, :, 0])
        ok += fires.size > 0 and np.array_equal(
            fires, np.arange(fires[0], layout.rounds + 1)
        )
    assert ok >= 99


# --- clock -----------------------------------------------------------------

def exact_clock_status(net, layout, clamps, seed):
    """:func:`clock_pattern_status` on the clock rows of one exact run."""
    rows = run(net, clamps, layout.rounds, seed)
    return clock_pattern_status(rows[:, list(layout.clock)], layout)


def test_clock_ok_on_nonzero_input(ram4, ram16):
    for net, layout in (ram4, ram16):
        x = (1,) + (0,) * (layout.n - 1)
        clamps = clamps_for(layout, IndexInstance(x, (0,) * layout.log_n))
        for seed in range(5):
            assert exact_clock_status(net, layout, clamps, seed) == CLOCK_OK


def test_clock_never_started_on_zero_input(ram4):
    net, layout = ram4
    clamps = clamps_for(layout, IndexInstance((0,) * 4, (0, 0)))
    assert exact_clock_status(net, layout, clamps, seed=0) == CLOCK_NEVER_STARTED


def test_clock_mismatch_detected_when_chain_is_cut(ram4):
    net, layout = ram4
    cut = [s for s in net.synapses if not (s.pre == layout.clock[2] and s.post == layout.clock[3])]
    broken = Network(net.lam, net.neurons, cut)
    clamps = clamps_for(layout, IndexInstance((1, 1, 0, 0), (0, 0)))
    assert exact_clock_status(broken, layout, clamps, seed=0) == CLOCK_MISMATCH


def test_clock_pattern_status_on_trial_engine_rows(ram4, ram16):
    for net, layout in (ram4, ram16):
        x = (1,) + (0,) * (layout.n - 1)
        clamps = clamps_for(layout, IndexInstance(x, (0,) * layout.log_n))
        states = trial_states(net, [(clamps, layout.rounds + 1)], 20, seed=3,
                              record=list(layout.clock))
        assert all(clock_pattern_status(states[k], layout) == CLOCK_OK for k in range(20))
        assert clock_pattern_status(np.zeros_like(states[0]), layout) == CLOCK_NEVER_STARTED


def test_clock_pattern_status_flags_a_cut_chain_in_trial_rows(ram4):
    net, layout = ram4
    cut = [s for s in net.synapses if not (s.pre == layout.clock[2] and s.post == layout.clock[3])]
    broken = Network(net.lam, net.neurons, cut)
    clamps = clamps_for(layout, IndexInstance((1, 1, 0, 0), (0, 0)))
    states = trial_states(broken, [(clamps, layout.rounds + 1)], 20, seed=0,
                          record=list(layout.clock))
    assert all(clock_pattern_status(states[k], layout) == CLOCK_MISMATCH for k in range(20))


def test_expected_clock_pattern_shape(ram4):
    _, layout = ram4
    expected = expected_clock_rounds(layout, layout.rounds)
    assert expected[layout.clock[0]] == {1, 2}
    assert expected[layout.clock[1]] == {2}
    assert expected[layout.clock[9]] == {10}
    assert expected[layout.clock[10]] == set()  # fires beyond the horizon


# --- multiple presentations -------------------------------------------------

def test_multi_input_requires_reset(ram4):
    net, layout = ram4
    with pytest.raises(InvalidParameterError):
        run_multi_input(net, layout, [IndexInstance((1, 0, 0, 0), (0, 0))], 1, seed=0)


def test_multi_input_sequences():
    net, layout = build_neuro_ram(4, with_reset=True, lam=LAM)
    insts = [
        IndexInstance((1, 0, 0, 0), (0, 0)),  # 1
        IndexInstance((1, 0, 0, 0), (1, 0)),  # 0
        IndexInstance((0, 1, 1, 1), (1, 1)),  # 1
        IndexInstance((1, 1, 0, 1), (0, 1)),  # 1
    ]
    truths = [i.truth for i in insts]
    answers = run_multi_input(net, layout, insts, 50, seed=0)
    assert answers.shape == (50, 4)
    assert (answers == truths).all(axis=1).sum() >= 49


def test_multi_input_same_instance_same_answer():
    net, layout = build_neuro_ram(4, with_reset=True, lam=LAM)
    inst = IndexInstance((0, 1, 0, 0), (0, 1))
    answers = run_multi_input(net, layout, [inst, inst, inst], 1, seed=11)
    assert answers.tolist() == [[inst.truth] * 3]


def test_multi_input_n16_random_instances():
    net, layout = build_neuro_ram(16, with_reset=True, lam=LAM)
    gen = np.random.default_rng(5)
    insts = [
        IndexInstance(tuple(int(b) for b in gen.integers(0, 2, 16)),
                      tuple(int(b) for b in gen.integers(0, 2, 4)))
        for _ in range(3)
    ]
    truths = [i.truth for i in insts]
    answers = run_multi_input(net, layout, insts, 25, seed=0)
    assert (answers == truths).all(axis=1).sum() >= 24
