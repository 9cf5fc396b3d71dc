"""Bit-exact JSON persistence for networks and derived circuits.

Weights and biases travel as decimal strings so arbitrary-precision
integers survive the round trip; the temperature is a "p/q" rational
string.  Malformed files raise :class:`SchemaError` naming the offending
path.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .errors import InvalidParameterError, SchemaError
from .model import Kind, Network, Neuron, Polarity, Synapse
from .transforms import FeedforwardNetwork, ThresholdCircuit
from .vclab import Gate, VarThresholdArchitecture


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}: missing field '{key}'")
    return obj[key]


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object")
    return value


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list")
    return value


_DECIMAL = re.compile(r"-?[0-9]+")


def _parse_int(value: Any, path: str) -> int:
    """A JSON integer, or a string of an optional '-' and decimal digits."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError(f"{path}: expected integer or decimal string, got {value!r}")
    try:
        if isinstance(value, int) or _DECIMAL.fullmatch(value):
            return int(value)
    except ValueError:  # past int()'s digit limit
        pass
    raise SchemaError(f"{path}: not a decimal integer: {value!r}")


def _parse_name(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string, got {value!r}")
    return value


def _parse_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    try:
        if math.isfinite(number := float(value)):
            return number
    except (ValueError, OverflowError):
        pass
    raise SchemaError(f"{path}: not a finite number: {value!r}")


def _read_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:  # invalid JSON or undecodable text
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None


def _load(path: str | Path, parse: Callable[[Any], Any]) -> Any:
    """``parse`` applied to the JSON in ``path``; its errors name the file."""
    doc = _read_json(path)
    try:
        return parse(doc)
    except (SchemaError, InvalidParameterError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


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
    }


def network_from_json(doc: Any) -> Network:
    _object(doc, "root")
    lam = parse_rational(_require(doc, "lambda", "root"))
    neurons = []
    for i, item in enumerate(_list(_require(doc, "neurons", "root"), "neurons")):
        path = f"neurons[{i}]"
        _object(item, path)
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
                name=_parse_name(_require(item, "name", path), f"{path}.name"),
                kind=kind,
                polarity=polarity,
                bias=_parse_int(_require(item, "bias", path), f"{path}.bias"),
            )
        )
    synapses = []
    for i, item in enumerate(_list(_require(doc, "synapses", "root"), "synapses")):
        path = f"synapses[{i}]"
        _object(item, path)
        synapses.append(
            Synapse(
                pre=_parse_int(_require(item, "pre", path), f"{path}.pre"),
                post=_parse_int(_require(item, "post", path), f"{path}.post"),
                weight=_parse_int(_require(item, "weight", path), f"{path}.weight"),
            )
        )
    try:
        return Network(lam, neurons, synapses)
    except ValueError as exc:
        raise SchemaError(f"root: {exc}") from None


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_json(net), indent=2) + "\n")


def load_network(path: str | Path) -> Network:
    return _load(path, network_from_json)


def feedforward_to_json(ff: FeedforwardNetwork) -> dict:
    doc = network_to_json(ff.net)
    doc["feedforward"] = {"layers": [list(layer) for layer in ff.layers]}
    return doc


def feedforward_from_json(doc: Any) -> FeedforwardNetwork:
    net = network_from_json(doc)
    raw = _object(_require(doc, "feedforward", "root"), "feedforward")
    layers = tuple(
        tuple(_parse_int(v, f"feedforward.layers[{i}]")
              for v in _list(layer, f"feedforward.layers[{i}]"))
        for i, layer in enumerate(_list(_require(raw, "layers", "feedforward"),
                                        "feedforward.layers"))
    )
    try:
        return FeedforwardNetwork(net=net, layers=layers)
    except InvalidParameterError as exc:
        raise SchemaError(str(exc)) from None


def save_feedforward(ff: FeedforwardNetwork, path: str | Path) -> None:
    Path(path).write_text(json.dumps(feedforward_to_json(ff), indent=2) + "\n")


def load_feedforward(path: str | Path) -> FeedforwardNetwork:
    return _load(path, feedforward_from_json)


def circuit_to_json(tc: ThresholdCircuit) -> dict:
    doc = feedforward_to_json(tc.ff)
    doc["offsets"] = list(tc.offsets)
    return doc


def circuit_from_json(doc: Any) -> ThresholdCircuit:
    ff = feedforward_from_json(doc)
    raw = _list(_require(doc, "offsets", "root"), "offsets")
    offsets = tuple(_parse_float(v, f"offsets[{k}]") for k, v in enumerate(raw))
    try:
        return ThresholdCircuit(ff=ff, offsets=offsets)
    except InvalidParameterError as exc:
        raise SchemaError(f"offsets: {exc}") from None


def save_circuit(tc: ThresholdCircuit, path: str | Path) -> None:
    Path(path).write_text(json.dumps(circuit_to_json(tc), indent=2) + "\n")


def load_circuit(path: str | Path) -> ThresholdCircuit:
    return _load(path, circuit_from_json)


def architecture_from_json(doc: Any) -> VarThresholdArchitecture:
    """``{"inputs": d, "gates": [{"sources": [...], "weights": [...]}, ...], "output": k}``;
    ``output`` defaults to the last gate."""
    _object(doc, "root")
    gates = []
    for k, item in enumerate(_list(_require(doc, "gates", "root"), "gates")):
        path = f"gates[{k}]"
        _object(item, path)
        gates.append(Gate(
            tuple(_parse_int(v, f"{path}.sources")
                  for v in _list(_require(item, "sources", path), f"{path}.sources")),
            tuple(_parse_float(v, f"{path}.weights")
                  for v in _list(_require(item, "weights", path), f"{path}.weights")),
        ))
    return VarThresholdArchitecture(
        d=_parse_int(_require(doc, "inputs", "root"), "inputs"),
        gates=tuple(gates),
        output=_parse_int(doc.get("output", len(gates) - 1), "output"),
    )


def load_architecture(path: str | Path) -> VarThresholdArchitecture:
    return _load(path, architecture_from_json)


def _samples_from_json(doc: Any) -> list[tuple[int, ...]]:
    raw = _list(_require(_object(doc, "root"), "samples", "root"), "samples")
    return [tuple(_parse_int(b, f"samples[{i}]") for b in _list(s, f"samples[{i}]"))
            for i, s in enumerate(raw)]


def load_samples(path: str | Path) -> list[tuple[int, ...]]:
    """Sample bit vectors from ``{"samples": [[0, 1, ...], ...]}``."""
    return _load(path, _samples_from_json)
