from fractions import Fraction

import pytest

from neuroram.errors import InvalidParameterError
from neuroram.model import (
    Kind, Network, NetworkBuilder, Polarity, Synapse, validate,
)


def tiny_builder() -> NetworkBuilder:
    b = NetworkBuilder(Fraction(1, 32))
    b.add_neuron("in0", Kind.INPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("mid", Kind.AUXILIARY, Polarity.INHIBITORY, 1)
    b.add_neuron("out", Kind.OUTPUT, Polarity.EXCITATORY, 1)
    return b


def test_valid_network_has_no_violations():
    b = tiny_builder()
    b.add_synapse(0, 1, 2)
    b.add_synapse(1, 2, -3)
    assert validate(b.build()) == []


def test_inhibitory_positive_weight_flagged():
    b = tiny_builder()
    b.add_synapse(1, 2, 2)  # inhibitory source, positive weight
    with pytest.raises(InvalidParameterError, match="polarity-sign: mid->out"):
        b.build()


def test_synapse_into_input_flagged():
    with pytest.raises(InvalidParameterError, match="input-in-degree: out->in0"):
        Network(Fraction(1, 32), tiny_builder()._neurons, [Synapse(2, 0, 2)])


def test_negative_bias_flagged():
    b = NetworkBuilder(Fraction(1, 2))
    b.add_neuron("g", Kind.AUXILIARY, Polarity.EXCITATORY, -1)
    with pytest.raises(InvalidParameterError, match="bias-sign: g"):
        b.build()


def test_inhibitory_output_flagged():
    b = NetworkBuilder(Fraction(1, 2))
    b.add_neuron("out", Kind.OUTPUT, Polarity.INHIBITORY, 0)
    with pytest.raises(InvalidParameterError, match="io-polarity: out"):
        b.build()


def test_zero_weight_and_duplicates_flagged():
    neurons = tiny_builder()._neurons
    with pytest.raises(InvalidParameterError, match="zero-weight: in0->mid"):
        Network(Fraction(1), neurons, [Synapse(0, 1, 0)])
    with pytest.raises(InvalidParameterError, match="duplicate-synapse: in0->mid"):
        Network(Fraction(1), neurons, [Synapse(0, 1, 2), Synapse(0, 1, 3)])


def test_repeated_name_flagged():
    b = tiny_builder()
    b.add_neuron("mid", Kind.AUXILIARY, Polarity.EXCITATORY, 1)
    with pytest.raises(InvalidParameterError, match="duplicate-name: mid"):
        b.build()


def test_every_violation_is_listed():
    b = tiny_builder()
    b.add_neuron("mid", Kind.AUXILIARY, Polarity.EXCITATORY, -1)
    b.add_synapse(2, 0, 1)
    with pytest.raises(InvalidParameterError) as info:
        b.build()
    assert str(info.value) == (
        "invalid network: duplicate-name: mid: neuron names must be unique; "
        "bias-sign: mid: bias -1 < 0; "
        "input-in-degree: out->in0: input neurons take no incoming synapses")


def test_builder_build_rejects_duplicate_pair_and_zero_weight():
    b = tiny_builder()
    b.add_synapse(0, 1, 2)
    b.add_synapse(0, 1, 1)
    with pytest.raises(InvalidParameterError, match="duplicate-synapse: in0->mid"):
        b.build()
    b = tiny_builder()
    b.add_synapse(0, 1, 0)
    with pytest.raises(InvalidParameterError, match="zero-weight: in0->mid"):
        b.build()


def test_network_requires_positive_lambda_and_dense_ids():
    b = tiny_builder()
    with pytest.raises(InvalidParameterError):
        Network(Fraction(0), b._neurons, [])
    with pytest.raises(InvalidParameterError):
        Network(Fraction(1), list(reversed(b._neurons)), [])


def test_network_equality_ignores_synapse_order():
    neurons = tiny_builder()._neurons
    a = Network(Fraction(1, 2), neurons, [Synapse(0, 1, 2), Synapse(0, 2, 1)])
    c = Network(Fraction(1, 2), neurons, [Synapse(0, 2, 1), Synapse(0, 1, 2)])
    assert a == c
