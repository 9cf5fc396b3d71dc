"""Vectorized trial engine.

Estimating empirical rates needs thousands of independent runs; doing that
through the exact per-neuron simulator is needlessly slow.  This engine
simulates batches of trials as dense state matrices against a sparse weight
matrix, with the exact engine's firing law; only the randomness stream
differs (seeded numpy Philox here, counter-based hashes there).

Every schedule window clamps every input, so inputs are never simulated:
their synaptic drive, minus the bias, is one constant vector per window,
and round t adds the vector of round t-1's window, because round t's
potential sees round t-1's state.  Every other neuron is simulated, and
uniforms are drawn only for those, one (trials, simulated neurons) block
per round.  The weight operator this needs is built once per network, on
first use, and kept on the network.

Potentials stay exact integers in float64.  A neuron whose |bias| + sum|w|
is below 2**52 sums its weights in one column; a wider one (the encoders
from n = 4096 on) sums each signed base-2**32 digit of its coefficients in
its own column, and Horner with the carry clipped to +-2**20 recombines
them.  That is exact while |pot| < 2**51, and otherwise correctly signed
past 2**51, which saturates the sigmoid below temperature 2**45.  Digit
sums stay exact below 2**19 incoming synapses per neuron.

Results are deterministic in (network, clamps, rounds, trials, seed) and
independent of how trials are split across batches.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .dynamics import SATURATION, ClampSpec, check_count, check_schedule
from .dynamics import MAX_RECORDED_BITS  # noqa: F401 (re-exported: trial_states' budget)
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
DIGIT_MASK = (1 << DIGIT_BITS) - 1


def _digits(values: np.ndarray, count: int) -> np.ndarray:
    """Signed base-2**DIGIT_BITS digits of the integers in object array
    ``values``, least significant first: shape (count, len(values))."""
    magnitude, sign = np.abs(values), np.where(values < 0, -1, 1)
    out = np.empty((count, values.size), dtype=np.float64)
    for k in range(count):
        out[k] = ((magnitude >> DIGIT_BITS * k) & DIGIT_MASK).astype(np.int64) * sign
    return out


def _operator(net: Network) -> tuple:
    """(w_free, w_fixed, bias, wide, pos) for the state layout of
    :func:`trial_states`: the non-inputs ("free") first, then the inputs.

    ``w_free`` and ``w_fixed`` are the transposed weights from the free and
    from the input rows.  Column i is free neuron i (zero if it is wide),
    and column nf + k * len(wide) + j is digit k of wide neuron j; ``bias``
    holds each column's bias and ``wide`` the wide neurons' positions among
    the free.  Synapses into inputs are dropped, as in the exact engine.
    ``pos`` is the state row of each neuron.

    It is built once and kept in ``net._operator``; its arrays are
    read-only, as every call shares them.
    """
    if net._operator is not None:
        return net._operator
    n, inputs = len(net), list(net.input_ids)
    free = np.setdiff1d(np.arange(n), inputs)
    nf = free.size
    pre = np.fromiter((s.pre for s in net.synapses), np.int64, len(net.synapses))
    post = np.fromiter((s.post for s in net.synapses), np.int64, len(net.synapses))
    weight = np.array([s.weight for s in net.synapses], dtype=object)
    bias = np.array([u.bias for u in net.neurons], dtype=object)
    span = np.abs(bias)
    np.add.at(span, post, np.abs(weight))
    bias = bias[free]
    wide = np.flatnonzero(span[free] >= WIDE)
    count = -(-max((int(v).bit_length() for v in span[free[wide]]), default=0) // DIGIT_BITS)
    # col: the column of each narrow free neuron, -1 elsewhere; digit: the
    # first digit column of each wide one, -1 elsewhere
    col = np.full(n, -1, dtype=np.int64)
    col[free] = np.arange(nf)
    col[free[wide]] = -1
    digit = np.full(n, -1, dtype=np.int64)
    digit[free[wide]] = nf + np.arange(wide.size)

    narrow, into_wide = col[post] >= 0, digit[post] >= 0
    offsets = (wide.size * np.arange(count))[:, None]
    rows = np.concatenate([pre[narrow], np.tile(pre[into_wide], count)])
    cols = np.concatenate([col[post[narrow]], (digit[post[into_wide]] + offsets).ravel()])
    vals = np.concatenate([weight[narrow].astype(np.float64),
                           _digits(weight[into_wide], count).ravel()])
    w = sparse.csr_matrix((vals, (rows, cols)), shape=(n, nf + count * wide.size))
    bias = np.concatenate([np.where(col[free] >= 0, bias, 0).astype(np.float64),
                           _digits(bias[wide], count).ravel()])
    w_free, w_fixed = w[free].T.tocsr(), w[inputs].T.tocsr()
    pos = np.argsort(np.concatenate([free, inputs]))
    for a in (w_free.data, w_fixed.data, bias, wide, pos):
        a.setflags(write=False)
    net._operator = (w_free, w_fixed, bias, wide, pos)
    return net._operator


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
    ``[(clamps, T + 1)]``.  ``record`` lists the neuron ids, each in [0, N),
    whose bits are returned.  :func:`neuroram.dynamics.check_schedule`
    checks the schedule and seed for both engines, and a result of more
    than :data:`MAX_RECORDED_BITS` bits raises :class:`ResourceBudgetError`
    before anything is simulated.
    """
    check_count("trials", trials, 1)
    rounds = check_schedule(net, schedule, seed, trials * len(record))
    n = len(net)
    if any(not 0 <= u < n for u in record):
        raise InvalidParameterError(f"record ids must lie in [0, {n}), got {list(record)}")

    # The state has one bool row per neuron, non-inputs ("free") first, and
    # one column per trial.  Per round: (input drive - bias, input bits).
    nf = n - len(net.input_ids)
    w_free, w_fixed, bias, wide, pos = _operator(net)
    per_round = []
    for clamps, duration in schedule:
        bits = np.array([clamps[u] for u in net.input_ids], dtype=np.float64)
        per_round.extend([((w_fixed @ bits - bias)[:, None], (bits > 0.5)[:, None])] * duration)
    inv_lam = float(1 / net.lam)
    rec = pos[np.array(record, dtype=np.int64)]

    out = np.empty((trials, rounds + 1, len(record)), dtype=bool)
    for lo in range(0, trials, BATCH):
        hi = min(lo + BATCH, trials)
        b = hi - lo
        gen = np.random.default_rng([seed, lo // BATCH])
        fired = np.zeros((n, b), dtype=bool)
        for t in range(rounds + 1):
            if t:
                # Round t's potential sees round t-1's state, clamps included.
                pot = w_free @ fired[:nf].astype(np.float64)
                pot += per_round[t - 1][0]
                if wide.size:
                    digits = pot[nf:].reshape(-1, wide.size, b)
                    v = digits[-1]
                    for k in range(digits.shape[0] - 2, -1, -1):
                        v = np.clip(v, -CARRY, CARRY) * float(1 << DIGIT_BITS) + digits[k]
                    pot[wide] = v
                # p = sigmoid(pot / lam), exactly 0 below -SATURATION; clipping
                # at +SATURATION already rounds to exactly 1.
                neg = pot[:nf]
                neg *= -inv_lam
                silent = neg > SATURATION
                p = 1.0 / (1.0 + np.exp(np.clip(neg, -SATURATION, SATURATION, out=neg)))
                p[silent] = 0.0
                np.less(gen.random((b, nf)).T, p, out=fired[:nf])
            fired[nf:] = per_round[t][1]
            out[lo:hi, t, :] = fired[rec].T
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
