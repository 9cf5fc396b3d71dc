"""Constructive reductions: unrolling and derandomization.

``unroll`` turns a recurrent network observed at round t into a layered
acyclic one with the same output law: t-1 layers, each holding a copy of
every non-input neuron.  A copy in layer i receives the original's input
edges plus, for every edge u -> v, an edge from u's copy in layer i-1; the
fresh output neuron reads layer t-1 (including its own copy, if the
original output had a self-loop).  Layer-i copies only carry meaningful
state in round i, which is exactly when the next layer reads them, so the
distribution of the output at round t is untouched.

The circuit half then removes the stochastic units: each gate's threshold
is its bias plus an offset drawn once from the logistic law with the
temperature as scale.  The logistic CDF is the firing sigmoid, so for any
fixed presynaptic pattern the probability (over the drawn offset) that
the deterministic gate fires equals the stochastic firing probability --
the network's output distribution is realized as a random draw of a
deterministic linear threshold circuit.  One sampler, ``_offsets``, and
one evaluator, ``_gate_bits``, serve every circuit path; a stored circuit
is its row of offsets, compared with drive - bias summed exactly on
:mod:`neuroram.montecarlo`'s operator; offsets stay below 37 * lambda <
2**51 in magnitude, so no float ever holds bias + offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import ClampSpec, check_count, initial_state
from .errors import InvalidParameterError, ResourceBudgetError
from .model import Kind, Network, NetworkBuilder, Polarity
# trial_states stays importable here: the benchmark harness checks that a
# traced distribution_equivalence restores transforms.trial_states.
from .montecarlo import BATCH, _operator, _recombine, final_bit_counts, trial_states  # noqa: F401

# Neurons plus synapses an unrolled network may copy, (t - 1) x (non-input
# neurons + their incoming synapses): about 1.4 kB each to unroll and save,
# so 0.7 GB at the bound, on the n = 16 indexing unit, the similarity tester
# and a dense random net alike.
MAX_UNROLL_SIZE = 1 << 19


@dataclass(frozen=True)
class FeedforwardNetwork:
    """Layered acyclic network produced by unrolling: ``net`` plus its
    auxiliary neurons in layers, the net's single output after the last;
    every synapse runs from an input or the previous layer into a gate."""

    net: Network
    layers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.net.output_ids) != 1:
            raise InvalidParameterError(f"feedforward: expected a network with exactly one "
                                        f"output, got {len(self.net.output_ids)}")
        aux = [u.id for u in self.net.neurons if u.kind is Kind.AUXILIARY]
        if (sorted(v for layer in self.layers for v in layer) != aux
                or len(set(map(len, self.layers))) > 1):
            raise InvalidParameterError("feedforward.layers: expected every auxiliary neuron "
                                        "exactly once, in layers of equal width")
        # circuits read only these edges (none enter an input), so any other would drop out
        depth = {nid: k for k, layer in enumerate((*self.layers, self.net.output_ids), 1)
                 for nid in layer}
        depth.update((nid, 0) for nid in self.net.input_ids)
        for i, s in enumerate(self.net.synapses):
            if depth[s.pre] not in (0, depth[s.post] - 1):
                raise InvalidParameterError(
                    f"synapses[{i}]: expected an edge from an input or the previous layer "
                    f"into a gate, got {s.pre} -> {s.post}")

    @property
    def inputs(self) -> tuple[int, ...]:
        return self.net.input_ids

    @property
    def out(self) -> int:
        return self.net.output_ids[0]

    @property
    def auxiliary_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def rounds(self) -> int:
        """Round at which the output matches the source network."""
        return len(self.layers) + 1

    @cached_property
    def _blocks(self) -> list:
        """(block, rows, wide, gates) per gate layer, the output last, cut once
        from the trial engine's operator: ``block`` weighs the previous layer
        into ``rows``, the layer's gates and then the digits of those at
        ``wide``; ``gates`` slices the gate order."""
        w_free, _, _, wide, pos = _operator(self.net)
        digits = np.arange(w_free.shape[1], w_free.shape[0]).reshape(-1, max(wide.size, 1))
        blocks, prev, lo = [], [], 0
        for layer in self.layers + ((self.out,),):
            cols = pos[list(layer)]
            local = np.flatnonzero(np.isin(cols, wide))
            rows = np.concatenate([cols, digits[:, np.searchsorted(wide, cols[local])].ravel()])
            blocks.append((w_free[rows][:, prev], rows, local, slice(lo, lo + cols.size)))
            prev, lo = cols, lo + cols.size
        return blocks


@dataclass(frozen=True)
class ThresholdCircuit:
    """Deterministic linear threshold circuit over an unrolled graph.

    Shares the feedforward network's edges and weights; ``offsets`` holds
    one drawn offset per gate in layer order, the output last.  A gate fires
    iff its weighted input sum minus its bias is >= its offset, so its
    threshold is exactly bias + offset.
    """

    ff: FeedforwardNetwork
    offsets: tuple[float, ...]

    def __post_init__(self):
        if len(self.offsets) != (gates := self.ff.auxiliary_count + 1):
            raise InvalidParameterError(
                f"expected one offset per gate ({gates}), got {len(self.offsets)}")


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
    """Unroll a single-output recurrent network observed at round t (t >= 2).

    A copy larger than :data:`MAX_UNROLL_SIZE` raises
    :class:`ResourceBudgetError` before any neuron is added."""
    check_count("t", t, 2)
    if len(net.output_ids) != 1:
        raise InvalidParameterError(
            f"unrolling needs a single designated output, got {len(net.output_ids)}"
        )
    body = [u.id for u in net.neurons if u.kind is not Kind.INPUT]
    layer_size = len(body) + sum(len(net.incoming[u]) for u in body)
    if (t - 1) * layer_size > MAX_UNROLL_SIZE:
        raise ResourceBudgetError(
            f"unrolled size (t - 1) x (neurons + synapses) = {t - 1} x {layer_size} "
            f"exceeds the budget of {MAX_UNROLL_SIZE}")

    b = NetworkBuilder(net.lam)
    input_map = {u.id: b.add_neuron(u.name, Kind.INPUT, Polarity.EXCITATORY, u.bias)
                 for u in net.neurons if u.kind is Kind.INPUT}

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

    return FeedforwardNetwork(net=b.build(), layers=tuple(layers))


def _gate_ids(ff: FeedforwardNetwork) -> list[int]:
    return [nid for layer in ff.layers for nid in layer] + [ff.out]


def _offsets(ff: FeedforwardNetwork, trials: int, seed: int):
    """Logistic(0, lambda) offsets of ``trials`` circuits in (circuits, gates)
    blocks of at most ``BATCH``; rows come from one stream in turn, so
    circuit k does not depend on ``trials``."""
    gen = np.random.default_rng([seed, 0x54433A])
    gates = len(_gate_ids(ff))
    for lo in range(0, trials, BATCH):
        yield gen.logistic(0.0, float(ff.net.lam), size=(min(BATCH, trials - lo), gates))


def _gate_bits(ff: FeedforwardNetwork, input_bits: ClampSpec, batches):
    """Bool (gates, circuits) bits per (circuits, gates) block of offsets in
    ``batches``: a gate fires iff its potential is >= its offset."""
    _, w_fixed, bias, _, _ = _operator(ff.net)
    drive = w_fixed @ initial_state(ff.net, input_bits)[list(ff.inputs)].astype(np.float64) - bias
    for offsets in batches:
        bits = np.empty(offsets.shape[::-1], dtype=bool)
        prev = np.zeros((0, len(offsets)))
        for block, rows, wide, gates in ff._blocks:
            pot = block @ prev + drive[rows, None]
            bits[gates] = _recombine(pot, wide, gates.stop - gates.start) >= offsets[:, gates].T
            prev = bits[gates].astype(np.float64)
        yield bits


def circuit_states(ff: FeedforwardNetwork, input_bits: ClampSpec, trials: int, seed: int,
                   record: list[int]) -> np.ndarray:
    """Evaluate ``trials`` circuits drawn for ``seed`` on one input; returns
    the bits of the ``record`` gates, bool array (trials, len(record)).

    Offsets come from numpy's ``Generator.logistic`` seeded by ``[seed,
    0x54433A]``; circuit 0 is :func:`sample_threshold_circuit`'s.
    ``input_bits`` clamps inputs as in :func:`neuroram.dynamics.initial_state`.
    """
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    col = {nid: k for k, nid in enumerate(_gate_ids(ff))}
    for u in record:
        check_count("each record id", u, 0)
    if not set(record) <= col.keys():
        raise InvalidParameterError(f"record ids must be gates of the circuit, got {list(record)}")
    return np.concatenate([bits[[col[u] for u in record]].T
                           for bits in _gate_bits(ff, input_bits, _offsets(ff, trials, seed))])


def sample_threshold_circuit(ff: FeedforwardNetwork, seed: int) -> ThresholdCircuit:
    """Draw one deterministic circuit, the first :func:`circuit_states` draws
    for ``seed``: one logistic offset per gate.  A net the trial engine's
    operator refuses (a wide gate at a temperature >= 2**45) is refused here
    too, before anything is drawn."""
    check_count("seed", seed, 0)
    _operator(ff.net)
    return ThresholdCircuit(ff=ff, offsets=tuple(next(_offsets(ff, 1, seed))[0].tolist()))


def eval_threshold_circuit(tc: ThresholdCircuit, input_bits: ClampSpec) -> int:
    """The output gate's bit with inputs clamped as in ``initial_state``."""
    return int(next(_gate_bits(tc.ff, input_bits, [np.array([tc.offsets])]))[-1, 0])


def distribution_equivalence(
    net: Network,
    input_bits: ClampSpec,
    t: int,
    trials: int,
    seed: int,
) -> EquivalenceReport:
    """Estimate Pr[output fires at round t] both ways and compare.

    Side one counts the recurrent network's hits with
    :func:`neuroram.montecarlo.final_bit_counts`; side two evaluates ``trials``
    circuits drawn from the unrolled graph with :func:`circuit_states`.  The
    two estimators target the same probability, so the report flags |delta|
    beyond four binomial standard deviations.
    """
    if trials < 10_000:
        raise InvalidParameterError(f"need at least 1e4 trials, got {trials}")
    ff = unroll(net, t)
    p_net = final_bit_counts(net, input_bits, t, trials, seed, net.output_ids[0]) / trials
    remapped = {new: input_bits[old] for old, new in zip(net.input_ids, ff.inputs)}
    p_circ = float(circuit_states(ff, remapped, trials, seed, [ff.out]).mean())
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
