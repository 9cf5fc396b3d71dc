import json
import math
import re
from fractions import Fraction

import pytest

from neuroram.errors import SchemaError
from neuroram.model import Kind, NetworkBuilder, Polarity, validate
from neuroram.ramnet import build_neuro_ram
from neuroram.randomnets import random_network
from neuroram.serialize import (
    circuit_from_json, circuit_to_json, feedforward_from_json, feedforward_to_json,
    architecture_from_json, load_circuit, load_network, load_samples, network_from_json,
    network_to_json, save_network,
)
from neuroram.similarity import build_comparator_gadget, build_similarity
from neuroram.transforms import (
    eval_threshold_circuit, sample_threshold_circuit, unroll,
)


def test_roundtrip_indexing_network(tmp_path):
    net, _ = build_neuro_ram(16, with_reset=True, lam=Fraction(1, 32))
    path = tmp_path / "ram16.json"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded == net
    assert sorted((s.pre, s.post, s.weight) for s in loaded.synapses) == sorted(
        (s.pre, s.post, s.weight) for s in net.synapses
    )


@pytest.mark.parametrize("build", [
    lambda: build_neuro_ram(16)[0],
    lambda: build_neuro_ram(16, with_reset=True)[0],
    lambda: build_similarity(16, 0.25, 2)[0],
    build_comparator_gadget,
    lambda: random_network(7, 2, 2),
    lambda: unroll(random_network(7, 2, 2), 3).net,
], ids=["ram", "ram-reset", "similarity", "comparator", "random", "unrolled"])
def test_builders_validate_and_older_manifest_key_is_ignored(build):
    net = build()
    assert validate(net) == []
    doc = network_to_json(net)
    assert "manifest" not in doc
    doc["manifest"] = {u.name: u.id for u in net.neurons}  # as older files wrote it
    assert network_from_json(json.loads(json.dumps(doc))) == net


def test_big_integer_weights_survive(tmp_path):
    b = NetworkBuilder(Fraction(1, 32))
    b.add_neuron("x", Kind.INPUT, Polarity.EXCITATORY, 0)
    b.add_neuron("z", Kind.OUTPUT, Polarity.EXCITATORY, 2**70)
    b.add_synapse(0, 1, 2**66)
    net = b.build()
    doc = network_to_json(net)
    assert doc["synapses"][0]["weight"] == "73786976294838206464"
    assert network_from_json(json.loads(json.dumps(doc))) == net


def test_missing_lambda_names_the_field(tmp_path):
    net = random_network(1, n_inputs=1, n_aux=1)
    doc = network_to_json(net)
    del doc["lambda"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="lambda"):
        load_network(path)


def test_malformed_fields_name_their_paths():
    net = random_network(2, n_inputs=1, n_aux=1)
    doc = network_to_json(net)
    doc["neurons"][1]["bias"] = "seven"
    with pytest.raises(SchemaError, match=r"neurons\[1\].bias"):
        network_from_json(doc)

    doc = network_to_json(net)
    doc["neurons"][0]["kind"] = "sideways"
    with pytest.raises(SchemaError, match=r"neurons\[0\].kind"):
        network_from_json(doc)

    doc = network_to_json(net)
    doc["synapses"][0].pop("post")
    with pytest.raises(SchemaError, match=r"synapses\[0\]"):
        network_from_json(doc)


@pytest.mark.parametrize("field, value", [
    ("bias", "1_0"), ("bias", " 12 "), ("bias", "+3"), ("bias", "\u0661\u0662"), ("bias", "1.0"),
    ("name", ["x"]), ("name", 7), ("name", None),
], ids=["underscore", "spaces", "plus", "arabic-digits", "float-string",
        "name-list", "name-int", "name-null"])
def test_integer_and_name_fields_are_strict(field, value):
    doc = network_to_json(random_network(2, n_inputs=1, n_aux=1))
    doc["neurons"][1][field] = value
    with pytest.raises(SchemaError, match=re.escape(f"neurons[1].{field}: ")):
        network_from_json(doc)


def test_invalid_json_is_a_schema_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_network(path)


def test_unreadable_path_is_a_schema_error(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        load_network(tmp_path / "missing.json")
    with pytest.raises(SchemaError, match="cannot read"):
        load_network(tmp_path)


def test_architecture_and_samples_fields_name_their_paths(tmp_path):
    arch = architecture_from_json(
        {"inputs": 2, "gates": [{"sources": [0, 1], "weights": [1, "2.5"]}]})
    assert (arch.d, arch.output, arch.gates[0].weights) == (2, 0, (1.0, 2.5))
    with pytest.raises(SchemaError, match="missing field 'gates'"):
        architecture_from_json({})
    with pytest.raises(SchemaError, match=r"gates\[0\]: missing field 'weights'"):
        architecture_from_json({"inputs": 2, "gates": [{"sources": [0]}]})
    for weight in (None, "NaN", "-inf", math.inf):
        with pytest.raises(SchemaError, match=r"gates\[0\].weights"):
            architecture_from_json({"inputs": 2, "gates": [{"sources": [0], "weights": [weight]}]})
    with pytest.raises(SchemaError, match="inputs"):
        architecture_from_json({"inputs": "two", "gates": [{"sources": [0], "weights": [1]}]})

    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"samples": [[0, 1], [1, "1"]]}))
    assert load_samples(path) == [(0, 1), (1, 1)]
    path.write_text(json.dumps({"samples": [[0, 1], 3]}))
    with pytest.raises(SchemaError, match=r"samples\[1\]"):
        load_samples(path)
    path.write_text(json.dumps([]))
    with pytest.raises(SchemaError, match="root"):
        load_samples(path)


def test_lambda_rational_forms():
    net = random_network(3, n_inputs=1, n_aux=1, lam=Fraction(3, 7))
    doc = network_to_json(net)
    assert doc["lambda"] == "3/7"
    assert network_from_json(doc).lam == Fraction(3, 7)
    doc["lambda"] = "2"
    assert network_from_json(doc).lam == Fraction(2)
    doc["lambda"] = "0/5"
    with pytest.raises(SchemaError, match="lambda"):
        network_from_json(doc)


def test_feedforward_and_circuit_roundtrip():
    net = random_network(7, n_inputs=2, n_aux=2, lam=Fraction(1, 4))
    ff = unroll(net, 3)
    doc = json.loads(json.dumps(feedforward_to_json(ff)))
    ff2 = feedforward_from_json(doc)
    assert ff2.net == ff.net
    assert ff2.layers == ff.layers and ff2.inputs == ff.inputs and ff2.out == ff.out

    tc = sample_threshold_circuit(ff, seed=5)
    doc = json.loads(json.dumps(circuit_to_json(tc)))
    tc2 = circuit_from_json(doc)
    assert tc2.offsets == tc.offsets  # repr-exact float round trip
    bits = {nid: 1 for nid in ff.inputs}
    assert eval_threshold_circuit(tc2, bits) == eval_threshold_circuit(tc, bits)


@pytest.mark.parametrize("value", ["abc", [1.0], {"t": 1}, True, None, math.nan, -math.inf,
                                   "NaN", "inf", "1e400", 10**400])
def test_circuit_threshold_must_be_a_number(tmp_path, value):
    ff = unroll(random_network(7, n_inputs=2, n_aux=2, lam=Fraction(1, 4)), 3)
    doc = circuit_to_json(sample_threshold_circuit(ff, seed=5))
    k = len(doc["offsets"]) - 1  # the output gate
    doc["offsets"][k] = value
    path = tmp_path / "tc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: offsets[{k}]")):
        load_circuit(path)


def test_circuit_needs_one_offset_per_gate():
    ff = unroll(random_network(7, n_inputs=2, n_aux=2, lam=Fraction(1, 4)), 3)
    doc = circuit_to_json(sample_threshold_circuit(ff, seed=5))
    assert len(doc["offsets"]) == ff.auxiliary_count + 1
    doc["offsets"].append(0.5)
    with pytest.raises(SchemaError, match=re.escape("offsets: expected one offset per gate")):
        circuit_from_json(doc)
