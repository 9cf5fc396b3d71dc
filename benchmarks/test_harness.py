"""Self-test of the benchmark harness, at tiny sizes.

    python3 -m pytest -q benchmarks/test_harness.py

Covers span bookkeeping (nesting, self time, rebinding, overhead
arithmetic), the output checks and fail-rate accounting, and agreement of
the metric names with BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from neuroram import montecarlo, ramnet, transforms  # noqa: E402
from neuroram.errors import ResourceBudgetError  # noqa: E402
from neuroram.transforms import EquivalenceReport  # noqa: E402
from spans import Tracer, overhead_pct  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nesting_and_self_time():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("root"):
        clock.now += 1
        with tr.span("child"):
            clock.now += 2
            with tr.span("grandchild"):
                clock.now += 4
        with tr.span("child"):
            clock.now += 8
        clock.now += 16
    names = [s.name for s in tr.spans]
    assert names == ["root", "child", "grandchild", "child"]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert tr.self_time_of() == [17, 2, 4, 8]
    assert tr.self_times() == {"root": 17, "child": 10, "grandchild": 4}
    assert sum(tr.self_time_of()) == tr.spans[0].duration == 31
    assert tr.roots() == [0]


def test_span_closes_when_the_call_raises():
    tr = Tracer(FakeClock())
    with pytest.raises(ValueError):
        with tr.span("outer"):
            raise ValueError("boom")
    with tr.span("next"):
        pass
    assert tr.spans[0].end is not None and tr.spans[1].parent is None


def test_installed_rebinds_callers_and_restores():
    clock = FakeClock()

    def inner(x):
        clock.now += 3
        return x + 1

    lib = types.ModuleType("lib")
    lib.inner = inner
    user = types.ModuleType("user")
    user.inner = inner  # as after ``from lib import inner``

    def outer(x):
        clock.now += 1
        return user.inner(x) * 2

    user.outer = outer
    tr = Tracer(clock)
    with tr.installed([(inner, "lib.inner", lambda x: {"x": x}), (outer, "user.outer", None)],
                      [lib, user]):
        assert user.outer(1) == 4
    assert lib.inner is inner and user.inner is inner and user.outer is outer
    assert [(s.name, s.parent, s.attrs) for s in tr.spans] == [
        ("user.outer", None, {}), ("lib.inner", 0, {"x": 1})]
    assert tr.self_times() == {"user.outer": 1, "lib.inner": 3}


def test_overhead_arithmetic():
    assert overhead_pct(100.0, 95.0) == pytest.approx(5.0)
    assert overhead_pct(100.0, 104.0) == pytest.approx(-4.0)
    assert overhead_pct(3.0, 3.0) == 0.0


def test_layer_metrics_on_a_real_nested_call():
    """distribution_equivalence's own unroll and trial_states become child spans."""
    net, lay = ramnet.build_neuro_ram(4, lam=Fraction(1, 32))
    inst = ramnet.IndexInstance((1, 0, 1, 1), (1, 0))
    tr = Tracer()
    original = montecarlo.trial_states
    found, missing = layers.targets()
    assert not missing
    with tr.installed(found, layers.library_modules()), tr.span("measure"):
        transforms.distribution_equivalence(
            net, ramnet.clamps_for(lay, inst), lay.rounds, 10_000, 1)
    assert montecarlo.trial_states is original and transforms.trial_states is original
    m = layers.layer_metrics(tr)
    assert m["montecarlo.calls"] == 1
    assert m["montecarlo.batches"] == 20
    assert m["montecarlo.neuron_rounds"] == 10_000 * lay.rounds * len(net)
    assert m["montecarlo.clamped_share"] == pytest.approx(6 / len(net))
    assert m["montecarlo.fallback_trials"] == 0
    assert m["transforms.equiv_s"] == pytest.approx(
        m["transforms.equiv_network_s"] + m["transforms.equiv_circuit_s"]
        + m["transforms.unroll_s"])
    assert m["equiv_trials_per_s"] > 0
    assert 0 < m["trace.layer_share"] <= 1
    assert set(m) <= set(layers.PER_LAYER)


class _Report:
    def __init__(self, delta, ok=True):
        self.delta, self.ok = delta, ok


def test_checks_accept_and_reject():
    assert workloads.index_ok(507, 512) and not workloads.index_ok(506, 512)
    assert workloads.similarity_ok(False, 5, 512) and not workloads.similarity_ok(False, 6, 512)
    assert workloads.similarity_ok(True, 507, 512) and not workloads.similarity_ok(True, 506, 512)
    good = EquivalenceReport(0.5, 0.501, 0.001, 0.002, 0.008, 100_000, 3)
    assert workloads.equivalence_ok(good, 10, 10, True)
    assert not workloads.equivalence_ok(_Report(0.02), 10, 10, True)
    assert not workloads.equivalence_ok(_Report(0.001, ok=False), 10, 10, True)
    assert not workloads.equivalence_ok(good, 9, 10, True)
    assert not workloads.equivalence_ok(good, 10, 10, False)
    assert workloads.vc_ok(4, 4, (2, 2)) and not workloads.vc_ok(4, 5, (2, 2))
    assert not workloads.vc_ok(5, 5, (2, 2))


def test_wrong_verdicts_and_raises_count_as_failed():
    ledger = workloads.Ledger()
    ledger.check("right", lambda: workloads.index_ok(512, 512))
    ledger.check("wrong verdict", lambda: workloads.index_ok(100, 512))
    ledger.check("equal pair flagged", lambda: workloads.similarity_ok(False, 512, 512))

    def over_budget():
        raise ResourceBudgetError("grid too large")

    ledger.check("budget", over_budget)
    assert (ledger.attempted, ledger.failed) == (4, 3)
    assert ledger.fail_rate == 0.75
    assert any("ResourceBudgetError" in e for e in ledger.errors)


def test_tiny_index_step_passes_and_a_wrong_truth_fails(tmp_path, monkeypatch):
    wl = workloads.Indexing(7, tmp_path, n=4, trials=64, setup_reps=1, probe_rng=False)
    wl.setup()
    wl.verify_setup()
    ledger = workloads.Ledger()
    assert wl.step(0, ledger) == 64
    assert (ledger.attempted, ledger.failed) == (1, 0)
    # Flip every answer the engine gives: the check must catch it.
    real = montecarlo.trial_states
    monkeypatch.setattr(montecarlo, "trial_states", lambda *a, **k: ~real(*a, **k))
    wl.step(1, ledger)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_inputs_depend_only_on_the_seed(tmp_path):
    """Cases drawn after the window do not shift with the number of steps run."""
    draws = []
    for steps in (0, 3):
        wl = workloads.Certify(5, tmp_path)
        for _ in range(steps):
            workloads._bits(wl.gen, 16)
        draws.append([wl.random_seed] + [wl._vc_case()[1] for _ in range(3)])
    assert draws[0] == draws[1]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
