"""Vectorized trial engine.

Estimating empirical rates needs thousands of independent runs; doing that
through the exact per-neuron simulator is needlessly slow.  This engine
simulates batches of trials as dense state matrices against a sparse weight
matrix, with the exact engine's firing law; only the randomness stream
differs (seeded numpy Philox here, counter-based hashes there).

Potentials stay exact integers in float64.  A neuron whose |bias| + sum|w|
is below 2**52 sums its weights in one column; a wider one (the encoders
from n = 4096 on) sums each signed base-2**32 digit of its coefficients in
its own column, and Horner with the carry clipped to +-2**20 recombines
them.  That is exact while |pot| < 2**51, and otherwise correctly signed
past 2**51, which saturates the sigmoid below temperature 2**45.  Digit
sums stay exact below 2**19 incoming synapses per neuron.

Results are deterministic in (network, clamps, rounds, trials, seed) and
independent of how trials are split across batches or worker processes.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .dynamics import SATURATION, ClampSpec, check_schedule
from .errors import InvalidParameterError
from .model import Network

# Trials per RNG batch. Part of the reproducibility contract: changing it
# changes streams, so it is a constant, not a parameter.
BATCH = 512

# Per-neuron |bias| + sum|w| from which float64 potentials could round.
WIDE = 1 << 52
# CARRY * 2**DIGIT_BITS plus a digit sum below 2**51 stays below 2**53.
DIGIT_BITS = 32
CARRY = 1 << 20


def _coefficients(net: Network) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Weight matrix, bias vector and wide neuron ids; column u < N is neuron u
    (zero if wide), column N + k * len(wide) + j is digit k of wide neuron j."""
    n = len(net)
    span = [abs(u.bias) for u in net.neurons]
    for s in net.synapses:
        span[s.post] += abs(s.weight)
    wide = [u for u in range(n) if span[u] >= WIDE]
    count = max(((span[u].bit_length() + DIGIT_BITS - 1) // DIGIT_BITS for u in wide), default=0)
    col = {u: n + j for j, u in enumerate(wide)}

    def split(u: int, value: int) -> list[tuple[int, float]]:
        if u not in col:
            return [(u, float(value))]
        digits = [(abs(value) >> DIGIT_BITS * k) % (1 << DIGIT_BITS) for k in range(count)]
        return [(col[u] + k * len(wide), float(d if value >= 0 else -d))
                for k, d in enumerate(digits)]

    bias = np.zeros(n + count * len(wide), dtype=np.float64)
    for u in net.neurons:
        for c, v in split(u.id, u.bias):
            bias[c] = v
    entries = [(s.pre, c, v) for s in net.synapses for c, v in split(s.post, s.weight)]
    pre, cols, vals = np.array(entries, dtype=np.float64).reshape(-1, 3).T
    w = sparse.csr_matrix((vals, (pre.astype(np.int64), cols.astype(np.int64))),
                          shape=(n, bias.size))
    return w, bias, np.array(wide, dtype=np.int64)


def trial_states(
    net: Network,
    schedule: list[tuple[ClampSpec, int]],
    trials: int,
    seed: int,
    record: list[int],
) -> np.ndarray:
    """Simulate ``trials`` independent runs; returns bool array (trials, rounds+1, len(record)).

    ``schedule`` is a list of (clamps, duration) windows as in
    :func:`neuroram.dynamics.run_schedule`; a fixed clamp for T+1 rounds is
    ``[(clamps, T + 1)]``.
    """
    if trials <= 0:
        raise InvalidParameterError(f"trials must be positive, got {trials}")
    check_schedule(net, schedule, seed)
    per_round = []
    for clamps, duration in schedule:
        window = (np.array(list(clamps), dtype=np.int64),
                  np.array(list(clamps.values()), dtype=np.float64))
        per_round.extend([window] * duration)
    rounds = len(per_round) - 1

    n = len(net)
    w, bias, wide = _coefficients(net)
    inv_lam = float(1 / net.lam)
    rec = np.array(record, dtype=np.int64)

    out = np.empty((trials, rounds + 1, len(record)), dtype=bool)
    for lo in range(0, trials, BATCH):
        hi = min(lo + BATCH, trials)
        b = hi - lo
        gen = np.random.default_rng([seed, lo // BATCH])
        state = np.zeros((b, n), dtype=np.float64)
        idx0, bits0 = per_round[0]
        state[:, idx0] = bits0
        out[lo:hi, 0, :] = state[:, rec] > 0.5
        for t in range(1, rounds + 1):
            pot = state @ w
            pot -= bias
            if wide.size:
                digits = pot[:, n:].reshape(b, -1, wide.size)
                v = digits[:, -1]
                for k in range(digits.shape[1] - 2, -1, -1):
                    v = np.clip(v, -CARRY, CARRY) * float(1 << DIGIT_BITS) + digits[:, k]
                pot[:, wide] = v
            x = pot[:, :n] * inv_lam
            p = np.where(
                x > SATURATION, 1.0,
                np.where(x < -SATURATION, 0.0, 1.0 / (1.0 + np.exp(-np.clip(x, -SATURATION, SATURATION)))),
            )
            state = (gen.random((b, n)) < p).astype(np.float64)
            idx, bv = per_round[t]
            state[:, idx] = bv
            out[lo:hi, t, :] = state[:, rec] > 0.5
    return out


def final_bit_counts(
    net: Network,
    clamps: ClampSpec,
    rounds: int,
    trials: int,
    seed: int,
    neuron: int,
) -> int:
    """Number of trials in which ``neuron`` fired in round ``rounds`` under fixed clamps.

    The one "clamp, run, count final-round fires" path behind
    :func:`neuroram.ramnet.index_hits` and
    :func:`neuroram.similarity.similarity_positive_count`.
    """
    states = trial_states(net, [(clamps, rounds + 1)], trials, seed, [neuron])
    return int(states[:, rounds, 0].sum())
