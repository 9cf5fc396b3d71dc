"""Bit-exact JSON persistence for networks and derived circuits.

Weights and biases travel as decimal strings so arbitrary-precision
integers survive the round trip; the temperature is a "p/q" rational
string.  Malformed files raise :class:`SchemaError` naming the offending
path.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import SchemaError
from .model import Kind, Network, Neuron, Polarity, Synapse
from .transforms import FeedforwardNetwork, ThresholdCircuit


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}: missing field '{key}'")
    return obj[key]


def _parse_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(f"{path}: expected integer or decimal string, got {value!r}")
    try:
        return int(value)
    except ValueError:
        raise SchemaError(f"{path}: not a decimal integer: {value!r}") from None


def _read_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"root: invalid JSON: {exc}") from None


def parse_rational(text: Any, path: str = "lambda") -> Fraction:
    if not isinstance(text, str):
        raise SchemaError(f"{path}: expected 'p/q' string, got {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{path}: not a rational: {text!r}") from None
    if value <= 0:
        raise SchemaError(f"{path}: must be positive, got {text!r}")
    return value


def network_to_json(net: Network) -> dict:
    return {
        "lambda": str(net.lam),
        "neurons": [
            {
                "id": u.id,
                "name": u.name,
                "kind": u.kind.value,
                "polarity": u.polarity.value,
                "bias": str(u.bias),
            }
            for u in net.neurons
        ],
        "synapses": [
            {"pre": s.pre, "post": s.post, "weight": str(s.weight)}
            for s in net.synapses
        ],
        "manifest": net.manifest,
    }


def network_from_json(doc: Any) -> Network:
    if not isinstance(doc, dict):
        raise SchemaError("root: expected an object")
    lam = parse_rational(_require(doc, "lambda", "root"))
    raw_neurons = _require(doc, "neurons", "root")
    if not isinstance(raw_neurons, list):
        raise SchemaError("neurons: expected a list")
    neurons = []
    for i, item in enumerate(raw_neurons):
        path = f"neurons[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(f"{path}: expected an object")
        try:
            kind = Kind(_require(item, "kind", path))
        except ValueError:
            raise SchemaError(f"{path}.kind: unknown kind {item.get('kind')!r}") from None
        try:
            polarity = Polarity(_require(item, "polarity", path))
        except ValueError:
            raise SchemaError(
                f"{path}.polarity: unknown polarity {item.get('polarity')!r}"
            ) from None
        neurons.append(
            Neuron(
                id=_parse_int(_require(item, "id", path), f"{path}.id"),
                name=str(_require(item, "name", path)),
                kind=kind,
                polarity=polarity,
                bias=_parse_int(_require(item, "bias", path), f"{path}.bias"),
            )
        )
    raw_synapses = _require(doc, "synapses", "root")
    if not isinstance(raw_synapses, list):
        raise SchemaError("synapses: expected a list")
    synapses = []
    for i, item in enumerate(raw_synapses):
        path = f"synapses[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(f"{path}: expected an object")
        synapses.append(
            Synapse(
                pre=_parse_int(_require(item, "pre", path), f"{path}.pre"),
                post=_parse_int(_require(item, "post", path), f"{path}.post"),
                weight=_parse_int(_require(item, "weight", path), f"{path}.weight"),
            )
        )
    manifest = doc.get("manifest")
    if manifest is not None:
        if not isinstance(manifest, dict):
            raise SchemaError("manifest: expected an object or null")
        manifest = {str(k): _parse_int(v, f"manifest[{k!r}]") for k, v in manifest.items()}
    try:
        return Network(lam, neurons, synapses, manifest)
    except ValueError as exc:
        raise SchemaError(f"root: {exc}") from None


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_json(net), indent=2) + "\n")


def load_network(path: str | Path) -> Network:
    return network_from_json(_read_json(path))


def feedforward_to_json(ff: FeedforwardNetwork) -> dict:
    doc = network_to_json(ff.net)
    doc["feedforward"] = {
        "inputs": list(ff.inputs),
        "layers": [list(layer) for layer in ff.layers],
        "out": ff.out,
    }
    return doc


def feedforward_from_json(doc: Any) -> FeedforwardNetwork:
    net = network_from_json(doc)
    raw = _require(doc, "feedforward", "root")
    if not isinstance(raw, dict):
        raise SchemaError("feedforward: expected an object")
    inputs = tuple(_parse_int(v, "feedforward.inputs") for v in _require(raw, "inputs", "feedforward"))
    layers = tuple(
        tuple(_parse_int(v, f"feedforward.layers[{i}]") for v in layer)
        for i, layer in enumerate(_require(raw, "layers", "feedforward"))
    )
    out = _parse_int(_require(raw, "out", "feedforward"), "feedforward.out")
    return FeedforwardNetwork(net=net, inputs=inputs, layers=layers, out=out)


def save_feedforward(ff: FeedforwardNetwork, path: str | Path) -> None:
    Path(path).write_text(json.dumps(feedforward_to_json(ff), indent=2) + "\n")


def load_feedforward(path: str | Path) -> FeedforwardNetwork:
    return feedforward_from_json(_read_json(path))


def circuit_to_json(tc: ThresholdCircuit) -> dict:
    doc = feedforward_to_json(tc.ff)
    doc["thresholds"] = [
        None if math.isnan(th) else th for th in tc.thresholds
    ]
    return doc


def circuit_from_json(doc: Any) -> ThresholdCircuit:
    ff = feedforward_from_json(doc)
    raw = _require(doc, "thresholds", "root")
    if not isinstance(raw, list) or len(raw) != len(ff.net):
        raise SchemaError("thresholds: expected one entry per neuron")
    thresholds = tuple(math.nan if v is None else float(v) for v in raw)
    return ThresholdCircuit(ff=ff, thresholds=thresholds)


def save_circuit(tc: ThresholdCircuit, path: str | Path) -> None:
    Path(path).write_text(json.dumps(circuit_to_json(tc), indent=2) + "\n")


def load_circuit(path: str | Path) -> ThresholdCircuit:
    return circuit_from_json(_read_json(path))
