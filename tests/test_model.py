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
    violations = validate(b.build())
    assert [v.rule for v in violations] == ["polarity-sign"]
    assert "mid" in violations[0].subject


def test_synapse_into_input_flagged():
    net = Network(
        Fraction(1, 32),
        tiny_builder()._neurons,
        [Synapse(2, 0, 2)],
    )
    violations = validate(net)
    assert [v.rule for v in violations] == ["input-in-degree"]


def test_negative_bias_flagged():
    b = NetworkBuilder(Fraction(1, 2))
    b.add_neuron("g", Kind.AUXILIARY, Polarity.EXCITATORY, -1)
    assert [v.rule for v in validate(b.build())] == ["bias-sign"]


def test_inhibitory_output_flagged():
    b = NetworkBuilder(Fraction(1, 2))
    b.add_neuron("out", Kind.OUTPUT, Polarity.INHIBITORY, 0)
    assert [v.rule for v in validate(b.build())] == ["io-polarity"]


def test_zero_weight_and_duplicates_flagged():
    neurons = tiny_builder()._neurons
    net = Network(Fraction(1), neurons, [Synapse(0, 1, 0)])
    assert [v.rule for v in validate(net)] == ["zero-weight"]
    net = Network(Fraction(1), neurons, [Synapse(0, 1, 2), Synapse(0, 1, 3)])
    assert "duplicate-synapse" in [v.rule for v in validate(net)]


def test_repeated_name_flagged():
    b = tiny_builder()
    b.add_neuron("mid", Kind.AUXILIARY, Polarity.EXCITATORY, 1)
    violations = validate(b.build())
    assert [(v.rule, v.subject) for v in violations] == [("duplicate-name", "mid")]


def test_builder_rejects_duplicate_pair_and_drops_zero():
    b = tiny_builder()
    b.add_synapse(0, 1, 0)  # no-op
    b.add_synapse(0, 1, 2)
    with pytest.raises(InvalidParameterError):
        b.add_synapse(0, 1, 1)
    assert len(b.build().synapses) == 1


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
