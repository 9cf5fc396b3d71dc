"""Constructive reductions: unrolling and derandomization.

``unroll`` turns a recurrent network observed at round t into a layered
acyclic one with the same output law: t-1 layers, each holding a copy of
every non-input neuron.  A copy in layer i receives the original's input
edges plus, for every edge u -> v, an edge from u's copy in layer i-1; the
fresh output neuron reads layer t-1 (including its own copy, if the
original output had a self-loop).  Layer-i copies only carry meaningful
state in round i, which is exactly when the next layer reads them, so the
distribution of the output at round t is untouched.

``sample_threshold_circuit`` then removes the stochastic units: each gate's
threshold is drawn once from a logistic distribution with the original
bias as mean and the temperature as scale.  The logistic CDF is the firing
sigmoid, so for any fixed presynaptic pattern the probability (over the
drawn threshold) that the deterministic gate fires equals the stochastic
firing probability -- the network's output distribution is realized as a
random draw of a deterministic linear threshold circuit.  It samples each
threshold by inverse CDF, eta = bias + scale * ln(p / (1 - p)), from the
same counter-based stream family as the simulator; ``distribution_equivalence``
draws from the same logistic law with numpy instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .dynamics import ClampSpec, check_count
from .errors import InvalidParameterError
from .model import Kind, Network, NetworkBuilder, Polarity
from .montecarlo import trial_states


@dataclass(frozen=True)
class FeedforwardNetwork:
    """Layered acyclic network produced by unrolling."""

    net: Network
    inputs: tuple[int, ...]
    layers: tuple[tuple[int, ...], ...]
    out: int

    @property
    def auxiliary_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def rounds(self) -> int:
        """Round at which the output matches the source network."""
        return len(self.layers) + 1


@dataclass(frozen=True)
class ThresholdCircuit:
    """Deterministic linear threshold circuit over an unrolled graph.

    Shares the feedforward network's edges and weights; each gate carries a
    real threshold and fires iff its weighted input sum is >= the threshold.
    """

    ff: FeedforwardNetwork
    thresholds: tuple[float, ...]  # indexed by neuron id; inputs carry nan


@dataclass(frozen=True)
class EquivalenceReport:
    p_network: float
    p_circuit: float
    delta: float
    sigma: float
    threshold: float
    trials: int
    rounds: int

    @property
    def ok(self) -> bool:
        return self.delta <= self.threshold


def unroll(net: Network, t: int) -> FeedforwardNetwork:
    """Unroll a single-output recurrent network observed at round t (t >= 2)."""
    if t < 2:
        raise InvalidParameterError(f"unrolling needs t >= 2, got {t}")
    if len(net.output_ids) != 1:
        raise InvalidParameterError(
            f"unrolling needs a single designated output, got {len(net.output_ids)}"
        )
    body = [u.id for u in net.neurons if u.kind is not Kind.INPUT]

    b = NetworkBuilder(net.lam)
    new_inputs = tuple(
        b.add_neuron(u.name, Kind.INPUT, Polarity.EXCITATORY, u.bias)
        for u in net.neurons
        if u.kind is Kind.INPUT
    )
    input_map = {old: new for old, new in zip(
        (u.id for u in net.neurons if u.kind is Kind.INPUT), new_inputs)}

    layers: list[tuple[int, ...]] = []
    copy_of: dict[int, int] = {}
    for layer in range(1, t):
        prev = dict(copy_of)
        copy_of = {}
        for old in body:
            u = net.neurons[old]
            copy_of[old] = b.add_neuron(f"{u.name}@{layer}", Kind.AUXILIARY,
                                        u.polarity, u.bias)
        for s in net.synapses:
            if s.post not in copy_of:
                continue
            if s.pre in input_map:
                b.add_synapse(input_map[s.pre], copy_of[s.post], s.weight)
            elif layer >= 2 and s.pre in prev:
                b.add_synapse(prev[s.pre], copy_of[s.post], s.weight)
        layers.append(tuple(copy_of[old] for old in body))

    old_out = net.output_ids[0]
    u = net.neurons[old_out]
    new_out = b.add_neuron(u.name, Kind.OUTPUT, u.polarity, u.bias)
    for s in net.synapses:
        if s.post != old_out:
            continue
        if s.pre in input_map:
            b.add_synapse(input_map[s.pre], new_out, s.weight)
        else:
            b.add_synapse(copy_of[s.pre], new_out, s.weight)

    return FeedforwardNetwork(
        net=b.build(), inputs=new_inputs, layers=tuple(layers), out=new_out
    )


def _gate_ids(ff: FeedforwardNetwork) -> list[int]:
    gates = [nid for layer in ff.layers for nid in layer]
    gates.append(ff.out)
    return gates


def sample_threshold_circuit(ff: FeedforwardNetwork, seed: int) -> ThresholdCircuit:
    """Draw one deterministic circuit: per-gate logistic threshold, weights unchanged."""
    check_count("seed", seed, 0)
    scale = float(ff.net.lam)
    thresholds = [math.nan] * len(ff.net)
    for pos, nid in enumerate(_gate_ids(ff)):
        p = rng.unit(seed, rng.BIAS_STREAM, pos)
        p = min(max(p, 2.0**-53), 1.0 - 2.0**-53)
        thresholds[nid] = float(ff.net.neurons[nid].bias) + scale * (
            math.log(p) - math.log1p(-p)
        )
    return ThresholdCircuit(ff=ff, thresholds=tuple(thresholds))


def eval_threshold_circuit(tc: ThresholdCircuit, input_bits: ClampSpec) -> int:
    """Deterministic layer-by-layer evaluation; returns the output gate's bit."""
    return eval_threshold_circuit_values(tc, input_bits)[tc.ff.out]


def eval_threshold_circuit_values(tc: ThresholdCircuit, input_bits: ClampSpec) -> list[int]:
    """Evaluation exposing every gate's bit, indexed by neuron id."""
    ff = tc.ff
    net = ff.net
    values = [0] * len(net)
    for nid in ff.inputs:
        values[nid] = int(input_bits.get(nid, 0))
    for nid in _gate_ids(ff):
        total = 0
        for pre, w in net.incoming[nid]:
            if values[pre]:
                total += w
        values[nid] = 1 if total >= tc.thresholds[nid] else 0
    return values


def _layer_matrices(ff: FeedforwardNetwork):
    """Dense per-layer weight blocks for vectorized circuit evaluation."""
    net = ff.net
    n_in = len(ff.inputs)
    input_pos = {nid: k for k, nid in enumerate(ff.inputs)}
    blocks = []
    prev_pos: dict[int, int] = {}
    for layer in ff.layers + ((ff.out,),):
        w_in = np.zeros((n_in, len(layer)), dtype=np.float64)
        w_prev = np.zeros((max(len(prev_pos), 1), len(layer)), dtype=np.float64)
        bias = np.zeros(len(layer), dtype=np.float64)
        for k, nid in enumerate(layer):
            bias[k] = float(net.neurons[nid].bias)
            for pre, w in net.incoming[nid]:
                if pre in input_pos:
                    w_in[input_pos[pre], k] += w
                elif pre in prev_pos:
                    w_prev[prev_pos[pre], k] += w
        blocks.append((w_in, w_prev, bias, len(layer)))
        prev_pos = {nid: k for k, nid in enumerate(layer)}
    return blocks


def _circuit_fire_count(
    ff: FeedforwardNetwork, input_bits: ClampSpec, trials: int, seed: int
) -> int:
    """Trials in which a freshly drawn circuit fires on the given input."""
    x = np.array([float(input_bits.get(nid, 0)) for nid in ff.inputs], dtype=np.float64)
    blocks = _layer_matrices(ff)
    scale = float(ff.net.lam)
    fired = 0
    batch = 4096
    for lo in range(0, trials, batch):
        b = min(batch, trials - lo)
        gen = np.random.default_rng([seed, 0x54433A, lo // batch])
        acts = np.zeros((b, 1), dtype=np.float64)
        for w_in, w_prev, bias, width in blocks:
            drive = x @ w_in + (acts @ w_prev if w_prev.size else 0.0)
            eta = gen.logistic(loc=bias, scale=scale, size=(b, width))
            acts = (drive >= eta).astype(np.float64)
        fired += int(acts[:, 0].sum())
    return fired


def distribution_equivalence(
    net: Network,
    input_bits: ClampSpec,
    t: int,
    trials: int,
    seed: int,
) -> EquivalenceReport:
    """Estimate Pr[output fires at round t] both ways and compare.

    Side one simulates the recurrent network; side two draws a fresh
    deterministic circuit from the unrolled graph per trial and evaluates
    it, drawing the logistic(bias, lambda) thresholds with numpy's
    ``Generator.logistic`` seeded by ``[seed, 0x54433A, batch]``, 4096
    trials per batch.  The two estimators target the same probability, so
    the report flags |delta| beyond four binomial standard deviations.
    """
    if trials < 10_000:
        raise InvalidParameterError(f"need at least 1e4 trials, got {trials}")
    if set(input_bits) != set(net.input_ids):
        raise InvalidParameterError(
            f"clamps must cover exactly the inputs {list(net.input_ids)}, got {sorted(input_bits)}"
        )
    ff = unroll(net, t)
    out = net.output_ids[0]
    states = trial_states(net, [(input_bits, t + 1)], trials, seed, [out])
    p_net = float(states[:, t, 0].mean())
    remapped = {new: input_bits[old] for old, new in zip(net.input_ids, ff.inputs)}
    p_circ = _circuit_fire_count(ff, remapped, trials, seed) / trials
    pooled = 0.5 * (p_net + p_circ)
    sigma = math.sqrt(max(pooled * (1.0 - pooled), 1e-12) * 2.0 / trials)
    return EquivalenceReport(
        p_network=p_net,
        p_circuit=p_circ,
        delta=abs(p_net - p_circ),
        sigma=sigma,
        threshold=4.0 * sigma,
        trials=trials,
        rounds=t,
    )
