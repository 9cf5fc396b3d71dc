"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``pytest -s``
to see them all).  Every tolerance is pinned here, not configured elsewhere.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np

from neuroram.bits import dec
from neuroram.dynamics import firing_probability, run
from neuroram.model import Kind, NetworkBuilder, Polarity
from neuroram.montecarlo import trial_states
from neuroram.ramnet import (
    CLOCK_OK, IndexInstance, address_bits, build_neuro_ram, clamps_for,
    clock_pattern_status, expected_encoding_potential, index_hits,
)
from neuroram.randomnets import random_network
from neuroram.similarity import (
    build_similarity, sample_count, sampling_miss_count, similarity_positive_count,
)
from neuroram.transforms import circuit_states, distribution_equivalence, unroll
from neuroram.vclab import (
    count_dichotomies_detailed, grid_oracle_count, random_architecture,
)

LAM = Fraction(1, 32)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _combo_rates(n, combos, trials, seed):
    net, layout = build_neuro_ram(n, lam=LAM)
    rates = []
    for k, (x, y) in enumerate(combos):
        hits = index_hits(net, layout, IndexInstance(x, y), trials, seed + 7919 * k)
        rates.append(hits / trials)
    return rates


def test_criterion_1_indexing_correctness():
    t0 = time.perf_counter()
    combos4 = [
        (x, y)
        for x in product((0, 1), repeat=4)
        for y in product((0, 1), repeat=2)
    ]
    rates4 = _combo_rates(4, combos4, trials=100, seed=100)
    elapsed4 = time.perf_counter() - t0

    t1 = time.perf_counter()
    gen = np.random.default_rng(2024)
    combos16 = [
        (tuple(int(b) for b in gen.integers(0, 2, 16)),
         tuple(int(b) for b in gen.integers(0, 2, 4)))
        for _ in range(200)
    ]
    rates16 = _combo_rates(16, combos16, trials=50, seed=4000)
    elapsed16 = time.perf_counter() - t1

    ok = (
        min(rates4) >= 0.99 and elapsed4 < 30
        and min(rates16) >= 0.99 and elapsed16 < 120
    )
    report(1, "indexing correctness", ok,
           f"n=4 64 combos x100: min rate {min(rates4):.3f} in {elapsed4:.1f}s; "
           f"n=16 200 combos x50: min rate {min(rates16):.3f} in {elapsed16:.1f}s")


def test_criterion_2_clock_mechanism():
    results = {}
    for n in (4, 16):
        net, layout = build_neuro_ram(n, lam=LAM)
        x = tuple(int(i % 2 == 0) for i in range(n))
        inst = IndexInstance(x, (0,) * layout.log_n)
        states = trial_states(
            net, [(clamps_for(layout, inst), layout.rounds + 1)],
            100, seed=555 + n, record=list(layout.clock),
        )
        good = sum(clock_pattern_status(states[k], layout) == CLOCK_OK for k in range(100))
        results[n] = good / 100
    ok = all(rate >= 0.99 for rate in results.values())
    report(2, "clock mechanism", ok,
           "pulse-at-round-i+1 pattern rate " +
           ", ".join(f"n={n}: {r:.2f}" for n, r in results.items()) +
           " (ignition neuron fires rounds 1-2: its inhibition needs two rounds)")


def test_criterion_3_bucket_selection():
    net, layout = build_neuro_ram(16, lam=LAM)
    gen = np.random.default_rng(9)
    worst = 1.0
    for i in range(layout.sqrt_n):
        x = tuple(int(b) for b in gen.integers(0, 2, 16))
        y = address_bits(16, i * layout.sqrt_n)
        states = trial_states(
            net, [(clamps_for(layout, IndexInstance(x, y)), layout.rounds + 1)],
            100, seed=7000 + i, record=list(layout.enc),
        )
        clean = sum(
            not any(states[k, 3:, j].any() for j in range(layout.sqrt_n) if j != i)
            for k in range(100)
        )
        worst = min(worst, clean / 100)
    report(3, "bucket selection", worst >= 0.99,
           f"wrong-encoder silence from round 3: worst rate {worst:.2f}")


def test_criterion_4_encoding_identity():
    checked = 0
    for s in (2, 4):
        n = s * s
        net, layout = build_neuro_ram(n, lam=LAM)
        w = {
            (pre, post): weight
            for post in layout.enc
            for pre, weight in net.incoming[post]
        }
        for bucket in product((0, 1), repeat=s):
            want = expected_encoding_potential(bucket)
            assert want == 2 * dec(tuple(reversed(bucket)))
            for i in range(s):
                total = sum(
                    w.get((layout.data[i * s + j], layout.enc[i]), 0) * bucket[j]
                    for j in range(s)
                )
                assert total == want
                checked += 1
    report(4, "encoding identity", True,
           f"{checked} (bucket, encoder) pairs match exactly for sqrt(n) in {{2,4}}")


def test_criterion_5_unrolling_equivalence():
    net = random_network(2, n_inputs=3, n_aux=3, lam=Fraction(1, 4))
    ff = unroll(net, 4)
    clamps = {u: (1 if k % 2 == 0 else 0) for k, u in enumerate(net.input_ids)}
    rep = distribution_equivalence(net, clamps, t=4, trials=100_000, seed=51)
    ok = rep.delta <= 0.01 and ff.auxiliary_count == (4 - 1) * (3 + 1)
    report(5, "unrolling equivalence", ok,
           f"|{rep.p_network:.4f} - {rep.p_circuit:.4f}| = {rep.delta:.4f} <= 0.01; "
           f"auxiliaries {ff.auxiliary_count} == (t-1)(l+1) = 12")


def test_criterion_6_derandomization_equivalence():
    # single gate: firing fraction over sampled thresholds vs the sigmoid
    b = NetworkBuilder(Fraction(1, 2))
    xs = [b.add_neuron(f"x{i}", Kind.INPUT, Polarity.EXCITATORY, 0) for i in range(2)]
    z = b.add_neuron("z", Kind.OUTPUT, Polarity.EXCITATORY, 4)
    b.add_synapse(xs[0], z, 2)
    b.add_synapse(xs[1], z, 3)
    gate_ff = unroll(b.build(), 2)
    bits = {nid: 1 for nid in gate_ff.inputs}
    fired = int(circuit_states(gate_ff, bits, 100_000, 0, [gate_ff.out]).sum())
    marginal_delta = abs(fired / 100_000 - firing_probability(1, Fraction(1, 2)))

    small = random_network(11, n_inputs=3, n_aux=2, lam=Fraction(1, 4))
    clamps = {u: (1 if k != 1 else 0) for k, u in enumerate(small.input_ids)}
    rep_small = distribution_equivalence(small, clamps, t=3, trials=100_000, seed=61)

    ram, layout = build_neuro_ram(4, lam=LAM)
    inst = IndexInstance((1, 0, 1, 0), (1, 0))
    rep_ram = distribution_equivalence(
        ram, clamps_for(layout, inst), t=layout.rounds, trials=100_000, seed=62
    )

    ok = marginal_delta <= 0.01 and rep_small.delta <= 0.01 and rep_ram.delta <= 0.01
    report(6, "derandomization equivalence", ok,
           f"single-gate marginal delta {marginal_delta:.4f}; "
           f"small-net delta {rep_small.delta:.4f}; indexing-net delta {rep_ram.delta:.4f}")


def test_criterion_7_similarity_testing():
    t0 = time.perf_counter()
    net, layout = build_similarity(16, 0.25, 2, LAM)
    assert layout.k == 23
    equal = tuple(int(i % 2 == 0) for i in range(16))
    near_pos = (0, 5, 10, 12)  # distance 4, spread over buckets
    far = tuple(b ^ int(i in near_pos) for i, b in enumerate(equal))
    false_pos = similarity_positive_count(net, layout, equal, equal, 100, seed=71)
    detected = similarity_positive_count(net, layout, equal, far, 100, seed=72)
    elapsed = time.perf_counter() - t0
    ok = false_pos <= 1 and detected >= 99 and elapsed < 300
    report(7, "similarity testing", ok,
           f"equal inputs: {100 - false_pos}/100 silent; distance-4 inputs: "
           f"{detected}/100 flagged; {elapsed:.1f}s")


def test_criterion_8_sampling_bound():
    k = sample_count(16, 0.25, 2)
    bound = (1 - 0.25) ** k
    assert bound <= 16.0 ** -2
    misses = sampling_miss_count(16, k, (0, 5, 10, 12), draws=10_000, seed=81)
    rate = misses / 10_000
    report(8, "sampling bound", rate <= 3 * bound,
           f"miss rate {rate:.5f} <= 3 * (1-eps)^K = {3 * bound:.5f}")


def test_criterion_9_vc_counting():
    gen = np.random.default_rng(91)
    failures = []
    single_gate_ok = True
    for case in range(50):
        m = int(gen.integers(1, 4))
        d = int(gen.integers(2, 5))
        z = int(gen.integers(0, 7))
        arch = random_architecture(91_000 + case, m, d)
        domain = list(product((0, 1), repeat=d))
        perm = np.random.default_rng([91, case]).permutation(len(domain))
        samples = tuple(domain[i] for i in perm[: min(z, len(domain))])
        count, per_gate = count_dichotomies_detailed(arch, samples)
        if count != grid_oracle_count(arch, samples):
            failures.append((case, "oracle mismatch"))
        if len(samples) >= 2 and m >= 2 and count > len(samples) ** m:
            failures.append((case, "z^m exceeded"))
        if m == 1 and count > len(samples) + 1:
            single_gate_ok = False
    ok = not failures and single_gate_ok
    report(9, "vc counting", ok,
           f"50 random architectures: exact counts match the grid oracle; "
           f"failures: {failures or 'none'}")


def test_criterion_10_model_sanity():
    exact_half = firing_probability(0, LAM) == 0.5 and firing_probability(0, Fraction(3)) == 0.5

    lam = Fraction(200)
    grid = [firing_probability(pot, lam) for pot in range(-5000, 5000)]
    monotone = all(a < b for a, b in zip(grid, grid[1:]))

    deterministic = True
    for k in range(100):
        net = random_network(10_000 + k, n_inputs=2, n_aux=3)
        clamps = {u: (u % 2) for u in net.input_ids}
        if not np.array_equal(run(net, clamps, 8, seed=k), run(net, clamps, 8, seed=k)):
            deterministic = False
            break

    ok = exact_half and monotone and deterministic
    report(10, "model sanity", ok,
           f"sigmoid(0) == 0.5 exactly: {exact_half}; strict monotonicity on a "
           f"10^4 grid: {monotone}; bit-identical reruns on 100 nets: {deterministic}")
