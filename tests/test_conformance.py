"""Admission conformance: a network exists only if it obeys the model's
structural rules, so generated valid networks survive a JSON round trip and
the CLI, and one generated edit per rule makes the loader and the CLI refuse
the file, naming that rule."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from neuroram.cli import main
from neuroram.errors import SchemaError
from neuroram.model import Kind, Network, Neuron, Polarity, Synapse
from neuroram.serialize import network_from_json, network_to_json

CHECKED = settings(derandomize=True, database=None, deadline=None, max_examples=25)
BIG = 2**70  # past 64-bit words, as the indexing unit's weights are at large n
NAME_CHARS = "abxyz01[]@.->: ;\"\\\u00e9\u2192"  # role-name characters, JSON escapes, non-ASCII


@st.composite
def networks(draw):
    n_inputs = draw(st.integers(1, 3))
    kinds = ([Kind.INPUT] * n_inputs + [Kind.AUXILIARY] * draw(st.integers(0, 3))
             + [Kind.OUTPUT] * draw(st.integers(1, 2)))
    n = len(kinds)
    names = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=5), min_size=n, max_size=n,
                          unique=True))
    neurons = [
        Neuron(i, names[i], kind,
               draw(st.sampled_from(Polarity)) if kind is Kind.AUXILIARY
               else Polarity.EXCITATORY,
               draw(st.integers(0, BIG)))
        for i, kind in enumerate(kinds)
    ]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(n_inputs, n - 1)),
                          min_size=1, max_size=12, unique=True))
    synapses = [Synapse(pre, post, _sign(neurons[pre].polarity.value)
                        * draw(st.integers(1, BIG)))
                for pre, post in pairs]
    lam = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
    return Network(lam, neurons, synapses)


def _sign(polarity: str) -> int:
    return -1 if polarity == "inhibitory" else 1


def _neuron(doc, draw, kinds=("input", "auxiliary", "output")) -> int:
    return draw(st.sampled_from([u["id"] for u in doc["neurons"] if u["kind"] in kinds]))


def _source_sign(doc, pre: int) -> int:
    return _sign(doc["neurons"][pre]["polarity"])


def _set_synapse(doc, pre: int, post: int, weight: int) -> None:
    """Give ``pre -> post`` the ``weight``, adding the synapse if the pair has none."""
    for s in doc["synapses"]:
        if (s["pre"], s["post"]) == (pre, post):
            s["weight"] = str(weight)
            return
    doc["synapses"].append({"pre": pre, "post": post, "weight": str(weight)})


def _bias_sign(doc, draw):
    doc["neurons"][_neuron(doc, draw)]["bias"] = str(-draw(st.integers(1, BIG)))


def _polarity_sign(doc, draw):
    pre, post = _neuron(doc, draw), _neuron(doc, draw, ("auxiliary", "output"))
    _set_synapse(doc, pre, post, -_source_sign(doc, pre) * draw(st.integers(1, BIG)))


def _input_in_degree(doc, draw):
    pre, post = _neuron(doc, draw), _neuron(doc, draw, ("input",))
    _set_synapse(doc, pre, post, _source_sign(doc, pre) * draw(st.integers(1, BIG)))


def _duplicate_name(doc, draw):
    i, j = draw(st.lists(st.sampled_from(range(len(doc["neurons"]))), min_size=2, max_size=2,
                         unique=True))
    doc["neurons"][j]["name"] = doc["neurons"][i]["name"]


def _duplicate_synapse(doc, draw):
    s = draw(st.sampled_from(doc["synapses"]))
    weight = _source_sign(doc, s["pre"]) * draw(st.integers(1, BIG))
    doc["synapses"].insert(draw(st.integers(0, len(doc["synapses"]))),
                           {**s, "weight": str(weight)})


def _zero_weight(doc, draw):
    _set_synapse(doc, _neuron(doc, draw), _neuron(doc, draw, ("auxiliary", "output")), 0)


EDITS = {
    "bias-sign": _bias_sign,
    "polarity-sign": _polarity_sign,
    "input-in-degree": _input_in_degree,
    "duplicate-name": _duplicate_name,
    "duplicate-synapse": _duplicate_synapse,
    "zero-weight": _zero_weight,
}


@pytest.fixture(scope="module")
def net_path(tmp_path_factory):
    return tmp_path_factory.mktemp("conformance") / "net.json"


def _run(path, doc) -> tuple[int, str]:
    """Exit code and standard error of ``run`` on ``doc`` saved at ``path``."""
    path.write_text(json.dumps(doc))
    n_inputs = sum(u["kind"] == "input" for u in doc["neurons"])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--net", str(path), "--inputs", "1" * n_inputs, "--rounds", "1"])
    return code, err.getvalue()


@CHECKED
@given(net=networks())
def test_valid_networks_round_trip_and_run(net_path, net):
    doc = json.loads(json.dumps(network_to_json(net)))
    assert network_from_json(doc) == net
    assert _run(net_path, doc) == (0, "")


@pytest.mark.parametrize("rule", EDITS)
@CHECKED
@given(net=networks(), data=st.data())
def test_each_broken_rule_is_refused_by_name(net_path, rule, net, data):
    doc = json.loads(json.dumps(network_to_json(net)))
    EDITS[rule](doc, data.draw)
    with pytest.raises(SchemaError, match=f"^root: invalid network: {rule}: ") as info:
        network_from_json(doc)
    assert {r for r in EDITS if f"{r}: " in str(info.value)} == {rule}
    code, err = _run(net_path, doc)
    assert code == 2
    assert err.startswith(f"error: {net_path}: root: invalid network: {rule}: ")
