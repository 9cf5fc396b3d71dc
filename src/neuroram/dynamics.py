"""Exact synchronous stochastic dynamics.

A network evolves in discrete rounds as a Markov chain.  The potential of a
non-input neuron in round t is the integer

    pot(u, t) = sum over synapses (v -> u) of w(v, u) * [v fired in t-1] - bias(u)

and u fires in round t with probability sigmoid(pot / lambda).  Potentials
are exact integers; only the sigmoid itself is evaluated in floating point,
with saturation clamping once |pot / lambda| exceeds 40 (error below 5e-18).

A neuron whose potential is exactly 0 fires with probability exactly 1/2,
and with lambda = 1/(c*log2(n)) a unit margin |pot| >= 1 drives the firing
probability within n**(-c*log2(e)) of 0 or 1 — the "with high probability"
regime the network constructions are designed around.

The input neurons carry the instance: every window of a schedule clamps
every input, and only the inputs, to a bit 0 or 1, and an input copies its
clamp bit each round.  Every other neuron fires by the stochastic rule (an
isolated bias-0 neuron is a fair coin; the similarity network uses exactly
this as its randomness source).
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .errors import InvalidParameterError, ResourceBudgetError
from .model import Kind, Network

# x = pot/lambda beyond which the sigmoid is clamped to 0 or 1.
SATURATION = 40

# Bits one run may record, rounds x bits per round: a 256 MiB bool array,
# 97x the largest call in the tests (10,000 trials x 3 rounds x 92 neurons).
MAX_RECORDED_BITS = 1 << 28

ClampSpec = Mapping[int, int]


def default_lambda(n: int) -> Fraction:
    """Temperature 1/(4*log2 n): unit margins misfire with probability < n**-5."""
    k = n.bit_length() - 1
    if n <= 1 or (1 << k) != n:
        raise InvalidParameterError(f"n must be a power of two > 1, got {n}")
    return Fraction(1, 4 * k)


def potential(net: Network, fired: Sequence, u: int) -> int:
    """Exact membrane potential of u computed from the previous round's bits."""
    if net.is_input(u):
        raise InvalidParameterError(f"neuron {u} is an input; inputs have no potential")
    pot = -net.neurons[u].bias
    for pre, w in net.incoming[u]:
        if fired[pre]:
            pot += w
    return pot


def firing_probability(pot: int, lam: Fraction) -> float:
    """sigmoid(pot / lambda), clamped to exactly 0.0 / 1.0 past the saturation margin."""
    lam = Fraction(lam)
    if lam <= 0:
        raise InvalidParameterError(f"temperature must be positive, got {lam}")
    x = Fraction(pot) / lam
    if x > SATURATION:
        return 1.0
    if x < -SATURATION:
        return 0.0
    return 1.0 / (1.0 + math.exp(-float(x)))


def _check_clamps(net: Network, clamps: ClampSpec) -> None:
    """The clamps must give every input, and only inputs, a bit 0 or 1."""
    inputs = set(net.input_ids)
    for u, bit in clamps.items():
        # int first: the Integral check alone costs about 1 us per clamp
        if not (isinstance(u, (int, numbers.Integral)) and u in inputs):
            raise InvalidParameterError(
                f"clamps must cover exactly the inputs; a non-input was clamped, got {u!r}")
        if bit not in (0, 1):
            raise InvalidParameterError(f"clamp bit for {u} must be 0 or 1, got {bit!r}")
    if missing := inputs - set(clamps):
        raise InvalidParameterError(
            f"clamps must cover exactly the inputs; input {min(missing)} has no bit")


def initial_state(net: Network, clamps: ClampSpec) -> np.ndarray:
    """Row 0: non-input neurons silent, inputs at their clamp bits."""
    _check_clamps(net, clamps)
    bits = np.zeros(len(net), dtype=bool)
    for u, bit in clamps.items():
        bits[u] = bit
    return bits


def step(net: Network, prev: Sequence, t: int, clamps: ClampSpec, seed: int) -> np.ndarray:
    """Compute row ``t`` from the previous round's bits ``prev``.

    The draw for neuron u in round t is addressed by (seed, t, u), so the
    result depends only on the previous bits, never on how they were
    reached, and repeated calls are bit-identical.
    """
    bits = initial_state(net, clamps)
    for u in net.neurons:
        if u.kind is not Kind.INPUT:
            p = firing_probability(potential(net, prev, u.id), net.lam)
            if p > 0.0 and rng.unit(seed, t, u.id) < p:
                bits[u.id] = True
    return bits


def check_count(name: str, value: object, least: int) -> None:
    """Reject a ``value`` that is not an integer (a bool is not) or is below ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def check_schedule(
    net: Network,
    schedule: Sequence[tuple[ClampSpec, int]],
    seed: int,
    round_bits: int,
) -> int:
    """Reject what neither engine may run, and return the last round.

    Shared by :func:`run_schedule` and ``trial_states``; ``round_bits`` is
    what one round records.  A run of more than :data:`MAX_RECORDED_BITS`
    bits raises :class:`ResourceBudgetError` before anything is simulated.
    """
    check_count("seed", seed, 0)
    if not schedule:
        raise InvalidParameterError("schedule must contain at least one window")
    for clamps, duration in schedule:
        check_count("window duration", duration, 1)
        _check_clamps(net, clamps)
    rounds = sum(duration for _, duration in schedule)
    if rounds * round_bits > MAX_RECORDED_BITS:
        raise ResourceBudgetError(
            f"recorded bits rounds x bits per round = {rounds} x {round_bits} "
            f"exceeds the budget of {MAX_RECORDED_BITS}")
    return rounds - 1


def run(net: Network, clamps: ClampSpec, rounds: int, seed: int) -> np.ndarray:
    """Simulate rounds 0..rounds under a fixed clamp; pure in (net, clamps, rounds, seed)."""
    check_count("rounds", rounds, 0)
    return run_schedule(net, [(clamps, rounds + 1)], seed)


def run_schedule(
    net: Network,
    schedule: Sequence[tuple[ClampSpec, int]],
    seed: int,
) -> np.ndarray:
    """Simulate with piecewise-constant clamps; returns bool rows (rounds+1, N).

    ``schedule`` is a sequence of (clamps, duration) windows; durations are
    in rounds and must be positive.  Round 0 belongs to the first window, so
    the total number of simulated rounds is sum(durations) - 1.  Row t holds
    every neuron's bit in round t, laid out like one trial of
    ``trial_states(net, schedule, trials, seed, list(range(N)))``, and the
    same budget on recorded bits applies.
    """
    check_schedule(net, schedule, seed, len(net))
    per_round = [clamps for clamps, duration in schedule for _ in range(duration)]
    rows = np.empty((len(per_round), len(net)), dtype=bool)
    rows[0] = initial_state(net, per_round[0])
    for t in range(1, len(per_round)):
        rows[t] = step(net, rows[t - 1], t, per_round[t], seed)
    return rows
