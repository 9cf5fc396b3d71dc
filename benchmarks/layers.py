"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are the modules of ``neuroram``.  ``cli`` and ``experiments`` wrap
the same calls and ``bits``, ``errors`` and ``randomnets`` do no timed work,
so none of them is wrapped.  The per-round split inside ``trial_states``
(matmul, sigmoid, RNG, compare) would need spans inside the library and is
not measured here.
"""

from __future__ import annotations

import math
import sys

from neuroram import dynamics, model, montecarlo, ramnet, serialize, similarity
from neuroram import transforms, vclab

from spans import Tracer

# Per-layer metric name -> unit, in report order.
PER_LAYER = {
    "montecarlo.trial_states_s": "s",
    "montecarlo.calls": "count",
    "montecarlo.batches": "count",
    "montecarlo.neuron_rounds": "count",
    "montecarlo.ns_per_neuron_round": "ns",
    "montecarlo.clamped_share": "ratio",
    "montecarlo.fallback_trials": "count",
    "dynamics.run_schedule_s": "s",
    "dynamics.ns_per_neuron_round": "ns",
    "rng.unit_ns": "ns",
    "ramnet.build_s": "s",
    "similarity.build_s": "s",
    "model.validate_s": "s",
    "serialize.save_s": "s",
    "serialize.load_s": "s",
    "serialize.bytes": "bytes",
    "similarity.count_s": "s",
    "similarity.fp_rate": "ratio",
    "similarity.detect_rate": "ratio",
    "similarity.tail_detect_rate": "ratio",
    "transforms.unroll_s": "s",
    "transforms.derandomize_s": "s",
    "transforms.equiv_s": "s",
    "transforms.equiv_network_s": "s",
    "transforms.equiv_circuit_s": "s",
    "equiv_trials_per_s": "1/s",
    "vclab.count_s": "s",
    "vclab.oracle_s": "s",
    "vclab.cases": "count",
    "vc_cases_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.layer_share": "ratio",
    "trace.overhead_pct": "%",
}

# (module, function, span name)
_WRAPPED = [
    (ramnet, "build_neuro_ram", "ramnet.build"),
    (similarity, "build_similarity", "similarity.build"),
    (model, "validate", "model.validate"),
    (serialize, "save_network", "serialize.save"),
    (serialize, "load_network", "serialize.load"),
    (serialize, "save_feedforward", "serialize.save"),
    (serialize, "load_feedforward", "serialize.load"),
    (montecarlo, "trial_states", "montecarlo.trial_states"),
    (dynamics, "run_schedule", "dynamics.run_schedule"),
    (similarity, "similarity_positive_count", "similarity.count"),
    (transforms, "unroll", "transforms.unroll"),
    (transforms, "sample_threshold_circuit", "transforms.derandomize"),
    (transforms, "distribution_equivalence", "transforms.equiv"),
    (vclab, "count_dichotomies_detailed", "vclab.count"),
    (vclab, "grid_oracle_count", "vclab.oracle"),
]


def _rounds(schedule) -> int:
    return sum(duration for _, duration in schedule) - 1


def _describe_trials(net, schedule, trials, *_, **__) -> dict:
    return {"neurons": len(net), "rounds": _rounds(schedule), "trials": trials,
            "clamped": len(schedule[0][0])}


def _describe_schedule(net, schedule, *_, **__) -> dict:
    return {"neurons": len(net), "rounds": _rounds(schedule)}


_DESCRIBE = {"montecarlo.trial_states": _describe_trials,
             "dynamics.run_schedule": _describe_schedule}


def targets() -> tuple[list, list[str]]:
    """Functions to wrap, and the names missing from the library."""
    found, missing = [], []
    for module, attr, name in _WRAPPED:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
        else:
            found.append((fn, name, _DESCRIBE.get(name)))
    return found, missing


def library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "neuroram" or name.startswith("neuroram."))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers derived from the recorded spans."""
    spans = tracer.spans
    own = tracer.self_time_of()
    self_s = tracer.self_times()

    def named(name):
        return [k for k, s in enumerate(spans) if s.name == name]

    def parent_name(k):
        p = spans[k].parent
        return spans[p].name if p is not None else None

    calls = named("montecarlo.trial_states")
    fallback = [k for k in named("dynamics.run_schedule")
                if parent_name(k) == "montecarlo.trial_states"]
    fell_back = {spans[k].parent for k in fallback}
    batch = getattr(montecarlo, "BATCH", 512)
    work = [spans[k].attrs for k in calls]
    neuron_rounds = sum(a["trials"] * a["rounds"] * a["neurons"] for a in work)
    clamped = sum(a["trials"] * a["rounds"] * a["clamped"] for a in work)
    exact_rounds = sum(spans[k].attrs["rounds"] * spans[k].attrs["neurons"] for k in fallback)

    equiv = set(named("transforms.equiv"))
    equiv_net = [k for k in calls if spans[k].parent in equiv]
    equiv_s = sum((spans[k].duration for k in equiv), 0.0)
    vc_s = self_s.get("vclab.count", 0.0) + self_s.get("vclab.oracle", 0.0)
    cases = len(named("vclab.count"))

    roots = tracer.roots()
    wall = sum((spans[k].duration for k in roots), 0.0)
    harness = sum(own[k] for k in roots)
    return {
        "montecarlo.trial_states_s": self_s.get("montecarlo.trial_states", 0.0),
        "montecarlo.calls": len(calls),
        "montecarlo.batches": sum(math.ceil(spans[k].attrs["trials"] / batch)
                                  for k in calls if k not in fell_back),
        "montecarlo.neuron_rounds": neuron_rounds,
        "montecarlo.ns_per_neuron_round":
            _ratio(self_s.get("montecarlo.trial_states", 0.0) * 1e9, neuron_rounds),
        "montecarlo.clamped_share": _ratio(clamped, neuron_rounds),
        "montecarlo.fallback_trials": len(fallback),
        "dynamics.run_schedule_s": self_s.get("dynamics.run_schedule", 0.0),
        "dynamics.ns_per_neuron_round":
            _ratio(self_s.get("dynamics.run_schedule", 0.0) * 1e9, exact_rounds),
        "ramnet.build_s": self_s.get("ramnet.build", 0.0),
        "similarity.build_s": self_s.get("similarity.build", 0.0),
        "model.validate_s": self_s.get("model.validate", 0.0),
        "serialize.save_s": self_s.get("serialize.save", 0.0),
        "serialize.load_s": self_s.get("serialize.load", 0.0),
        "similarity.count_s": self_s.get("similarity.count", 0.0),
        "transforms.unroll_s": self_s.get("transforms.unroll", 0.0),
        "transforms.derandomize_s": self_s.get("transforms.derandomize", 0.0),
        "transforms.equiv_s": equiv_s,
        "transforms.equiv_network_s": sum((spans[k].duration for k in equiv_net), 0.0),
        "transforms.equiv_circuit_s": sum((own[k] for k in equiv), 0.0),
        "equiv_trials_per_s": _ratio(sum(spans[k].attrs["trials"] for k in equiv_net), equiv_s),
        "vclab.count_s": self_s.get("vclab.count", 0.0),
        "vclab.oracle_s": self_s.get("vclab.oracle", 0.0),
        "vclab.cases": cases,
        "vc_cases_per_s": _ratio(cases, vc_s),
        "trace.wall_s": wall,
        "trace.layer_share": _ratio(wall - harness, wall),
    }
