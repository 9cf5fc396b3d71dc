import json
import shlex
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from neuroram import experiments
from neuroram.cli import build_parser, main
from neuroram.experiments import ExperimentConfig, run_experiment, write_csv
from neuroram.montecarlo import MAX_RECORDED_BITS
from neuroram.errors import InvalidParameterError
from neuroram.model import Kind, Network, NetworkBuilder, Neuron, Polarity, Synapse, validate
from neuroram.ramnet import MAX_UNIT_BITS, IndexInstance, build_neuro_ram, index_hits
from neuroram.serialize import (
    load_circuit, load_feedforward, load_network, network_from_json, network_to_json,
    save_network,
)
from neuroram.randomnets import random_network
from neuroram.similarity import MAX_PROBES
from neuroram.transforms import MAX_UNROLL_SIZE, _offsets, circuit_states, eval_threshold_circuit


def test_build_and_index_pipeline(tmp_path, capsys):
    out = tmp_path / "ram.json"
    assert main(["build-neuroram", "--n", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    net = load_network(out)
    assert len(net.input_ids) == 6  # 4 data + 2 address

    code = main([
        "index", "--n", "4", "--x", "1010", "--y", "10",
        "--seed", "3", "--trials", "50", "--lambda", "1/32",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,x,y,truth,trials,successes"
    assert lines[1] == "4,1010,10,1,50,50"


def test_similarity_command(capsys):
    code = main([
        "similarity", "--n", "4", "--eps", "0.5", "--x1", "1010", "--x2", "0101",
        "--seed", "1", "--trials", "20", "--lambda", "1/32",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    header, row = lines
    assert header == "n,eps,hamming,trials,positives"
    assert row.startswith("4,0.5,4,20,")


def test_run_command_prints_trace(tmp_path, capsys):
    path = tmp_path / "net.json"
    save_network(random_network(4, n_inputs=2, n_aux=1, lam=Fraction(1, 32)), path)
    code = main(["run", "--net", str(path), "--inputs", "10", "--rounds", "3",
                 "--seed", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0] == "round,fired"
    assert len(lines) == 5
    assert lines[1].startswith("0,10")


def test_unroll_derandomize_equiv_pipeline(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    ff_path = tmp_path / "ff.json"
    tc_path = tmp_path / "tc.json"
    save_network(random_network(2, n_inputs=3, n_aux=3, lam=Fraction(1, 4)), net_path)

    assert main(["unroll", "--net", str(net_path), "--t", "4", "--out", str(ff_path)]) == 0
    ff = load_feedforward(ff_path)
    assert ff.auxiliary_count == 12

    assert main(["derandomize", "--net", str(ff_path), "--seed", "7",
                 "--out", str(tc_path)]) == 0
    tc = load_circuit(tc_path)
    assert tc.ff == ff
    assert tc.offsets == tuple(next(_offsets(ff, 1, 7))[0])
    for pattern in product((0, 1), repeat=len(ff.inputs)):
        bits = dict(zip(ff.inputs, pattern))
        assert eval_threshold_circuit(tc, bits) == circuit_states(ff, bits, 1, 7, [ff.out])[0, 0]

    code = main(["equiv", "--net", str(net_path), "--inputs", "101", "--t", "4",
                 "--trials", "20000", "--seed", "2"])
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert code == 0
    assert report["ok"] is True
    assert abs(report["p_network"] - report["p_circuit"]) == report["delta"]


def _unrolled(tmp_path):
    net_path = tmp_path / "net.json"
    ff_path = tmp_path / "ff.json"
    save_network(random_network(2, n_inputs=3, n_aux=3, lam=Fraction(1, 4)), net_path)
    assert main(["unroll", "--net", str(net_path), "--t", "4", "--out", str(ff_path)]) == 0
    return ff_path


def _regrouped(layers):
    flat = [nid for layer in layers for nid in layer]
    return [flat[:len(layers[0]) + 1], flat[len(layers[0]) + 1:]]


def _set_layers(edit):
    def apply(doc):
        doc["feedforward"]["layers"] = edit(doc["feedforward"]["layers"])
    return apply


def _add_synapse(pre, post):
    """Put a synapse first, signed as its source; ``pre`` and ``post`` map
    (layers, output id) to ids."""
    def apply(doc):
        layers, out = doc["feedforward"]["layers"], len(doc["neurons"]) - 1
        source = pre(layers, out)
        sign = "-" if doc["neurons"][source]["polarity"] == "inhibitory" else ""
        doc["synapses"].insert(0, {"pre": source, "post": post(layers, out),
                                   "weight": f"{sign}50"})
    return apply


def _add_output(doc):
    doc["neurons"].append({"id": len(doc["neurons"]), "name": "z2", "kind": "output",
                           "polarity": "excitatory", "bias": "0"})


@pytest.mark.parametrize("field, edit", [
    ("feedforward.layers", _set_layers(lambda layers: 5)),
    ("feedforward.layers[0]", _set_layers(lambda layers: [5])),
    ("feedforward.layers", _set_layers(lambda layers: [[0]])),
    ("feedforward.layers", _set_layers(lambda layers: layers[:-1])),
    ("feedforward.layers", _set_layers(lambda layers: layers + [layers[0]])),
    ("feedforward.layers", _set_layers(_regrouped)),
    ("feedforward", _add_output),
    ("synapses[0]", _add_synapse(lambda layers, out: layers[0][3], lambda layers, out: out)),
    ("synapses[0]", _add_synapse(lambda layers, out: layers[1][0],
                                 lambda layers, out: layers[0][0])),
    ("root: invalid network: input-in-degree",
     _add_synapse(lambda layers, out: layers[0][0], lambda layers, out: 0)),
], ids=["layers-int", "layer-int", "layers-one-input", "layers-missing", "layers-repeated",
        "layers-unequal", "two-outputs", "skip-edge", "backward-edge", "edge-into-input"])
def test_derandomize_rejects_inconsistent_feedforward_block(tmp_path, capsys, field, edit):
    doc = json.loads(_unrolled(tmp_path).read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["derandomize", "--net", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "tc.json")])
    assert code == 2
    assert f"{bad}: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "tc.json").exists()


def test_derandomize_writes_circuits_with_wide_gates(tmp_path):
    # weights (2**60, 1, 1), bias 2**60 + 2: the gate sums its potential in
    # digits, and potential 0 stays exact beside the offset
    b = NetworkBuilder(Fraction(1, 4))
    xs = [b.add_neuron(f"x{i}", Kind.INPUT, Polarity.EXCITATORY, 0) for i in range(3)]
    z = b.add_neuron("z", Kind.OUTPUT, Polarity.EXCITATORY, 2**60 + 2)
    for x, w in zip(xs, (2**60, 1, 1)):
        b.add_synapse(x, z, w)
    net_path, ff_path, tc_path = (tmp_path / name for name in ("net.json", "ff.json", "tc.json"))
    save_network(b.build(), net_path)
    assert main(["unroll", "--net", str(net_path), "--t", "2", "--out", str(ff_path)]) == 0
    for seed in range(8):
        assert main(["derandomize", "--net", str(ff_path), "--seed", str(seed),
                     "--out", str(tc_path)]) == 0
        tc, ff = load_circuit(tc_path), load_feedforward(ff_path)
        for pattern in product((0, 1), repeat=3):
            bits = dict(zip(ff.inputs, pattern))
            want = circuit_states(ff, bits, 1, seed, [ff.out])[0, 0]
            assert eval_threshold_circuit(tc, bits) == want


def test_derandomize_rejects_negative_seed(tmp_path, capsys):
    code = main(["derandomize", "--net", str(_unrolled(tmp_path)), "--seed", "-1",
                 "--out", str(tmp_path / "tc.json")])
    assert code == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not (tmp_path / "tc.json").exists()


def test_vc_commands(tmp_path, capsys):
    arch = {"inputs": 2, "gates": [{"sources": [0, 1], "weights": [1.0, 2.0]}]}
    samples = {"samples": [[0, 0], [1, 0], [0, 1]]}
    arch_path = tmp_path / "arch.json"
    samples_path = tmp_path / "s.json"
    arch_path.write_text(json.dumps(arch))
    samples_path.write_text(json.dumps(samples))

    assert main(["vc", "count", "--arch", str(arch_path),
                 "--samples", str(samples_path)]) == 0
    assert capsys.readouterr().out.strip() == "4"

    assert main(["vc", "bounds", "--m", "4", "--class-size", "2^15", "--n", "16"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["circuit_vc_upper"] == 24.0
    assert report["sauer_lower"] == pytest.approx(2.756, abs=1e-3)


def test_cli_reports_parameter_errors(capsys):
    code = main(["build-neuroram", "--n", "6", "--out", "/tmp/never.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_index_rejects_negative_seed(capsys):
    code = main(["index", "--n", "4", "--x", "1010", "--y", "10", "--seed", "-1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_index_names_data_length_mismatch(capsys):
    code = main(["index", "--n", "4096", "--x", "0", "--y", "0" * 12])
    err = capsys.readouterr().err
    assert code == 2
    assert "--x has 1 bits but --n is 4096" in err


def test_similarity_names_pattern_length_mismatch(capsys):
    code = main(["similarity", "--n", "4", "--eps", "0.5", "--x1", "1010", "--x2", "01"])
    assert code == 2
    assert "--x2 has 2 bits but --n is 4" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["1", "10101"])
def test_equiv_rejects_wrong_input_count(tmp_path, capsys, bits):
    path = tmp_path / "net.json"
    save_network(random_network(2, n_inputs=3, n_aux=3, lam=Fraction(1, 4)), path)
    code = main(["equiv", "--net", str(path), "--inputs", bits, "--t", "4",
                 "--trials", "10000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: network has 3 inputs, got {len(bits)} bits" in captured.err


_BROKEN_UNIT = {  # one edit of the n = 4 unit's JSON per rule, breaking that rule alone
    "bias-sign": lambda doc: doc["neurons"][6].update(bias="-1"),
    "polarity-sign": lambda doc: doc["synapses"][0].update(weight="-4"),  # data[0] -> enc[0]
    "input-in-degree": lambda doc: doc["synapses"].append({"pre": 6, "post": 0, "weight": "2"}),
    "duplicate-name": lambda doc: doc["neurons"][7].update(name=doc["neurons"][6]["name"]),
    "duplicate-synapse": lambda doc: doc["synapses"].append(dict(doc["synapses"][0])),
    "zero-weight": lambda doc: doc["synapses"][0].update(weight="0"),
}


@pytest.mark.parametrize("rule", _BROKEN_UNIT)
def test_commands_refuse_a_network_that_breaks_a_rule(tmp_path, capsys, rule):
    doc = network_to_json(build_neuro_ram(4, lam=Fraction(1, 32))[0])
    _BROKEN_UNIT[rule](doc)
    with pytest.raises(InvalidParameterError, match=f"^invalid network: {rule}: "):
        Network(Fraction(doc["lambda"]),
                [Neuron(u["id"], u["name"], Kind(u["kind"]), Polarity(u["polarity"]),
                        int(u["bias"])) for u in doc["neurons"]],
                [Synapse(s["pre"], s["post"], int(s["weight"])) for s in doc["synapses"]])
    bad, out = tmp_path / "bad.json", tmp_path / "ff.json"
    bad.write_text(json.dumps(doc))
    for argv in (["run", "--inputs", "101010", "--rounds", "3"],
                 ["unroll", "--t", "3", "--out", str(out)],
                 ["equiv", "--inputs", "101010", "--t", "3", "--trials", "10000"]):
        assert main([*argv, "--net", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: root: invalid network: {rule}: ")
    assert not out.exists()


def test_run_reports_missing_file(tmp_path, capsys):
    code = main(["run", "--net", str(tmp_path / "missing.json"), "--inputs", "1",
                 "--rounds", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "missing.json" in err


@pytest.mark.parametrize("arch_text, message", [
    ("{not json", "invalid JSON"),
    ("{}", "missing field 'gates'"),
    ('{"inputs": 2, "gates": [{"sources": [0, 1], "weights": ["NaN", 1]}]}',
     "not a finite number"),
])
def test_vc_count_reports_bad_architecture_file(tmp_path, capsys, arch_text, message):
    arch_path = tmp_path / "arch.json"
    samples_path = tmp_path / "s.json"
    arch_path.write_text(arch_text)
    samples_path.write_text(json.dumps({"samples": [[0, 0]]}))
    code = main(["vc", "count", "--arch", str(arch_path), "--samples", str(samples_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and message in err and str(arch_path) in err


def test_vc_count_rejects_non_binary_samples(tmp_path, capsys):
    arch_path = tmp_path / "arch.json"
    samples_path = tmp_path / "s.json"
    arch_path.write_text(json.dumps({"inputs": 2, "gates": [{"sources": [0, 1],
                                                             "weights": [1.0, 2.0]}]}))
    samples_path.write_text(json.dumps({"samples": [[2, 0], [0, 1]]}))
    code = main(["vc", "count", "--arch", str(arch_path), "--samples", str(samples_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "other than 0 or 1" in captured.err


def test_experiment_clock_and_csv_stability(tmp_path):
    cfg = ExperimentConfig(kind="clock", n=4, trials=30, seed=5,
                           lam=Fraction(1, 32), out=str(tmp_path / "a.csv"))
    report = run_experiment(cfg)
    assert report.passed
    write_csv(report, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    header = (tmp_path / "a.csv").read_text().splitlines()[0]
    assert header == "n,trial,pattern_ok"


def test_experiment_exhaustive_indexing():
    cfg = ExperimentConfig(kind="indexing-exhaustive", n=4, trials=100, seed=1,
                           lam=Fraction(1, 32))
    report = run_experiment(cfg)
    assert report.passed
    assert len(report.rows) == 64
    assert report.summary["min_rate"] >= 0.99


def test_experiment_clock_n16():
    cfg = ExperimentConfig(kind="clock", n=16, trials=100, seed=2,
                           lam=Fraction(1, 32))
    report = run_experiment(cfg)
    assert report.passed
    assert report.summary["pattern_rate"] >= 0.99


def test_experiment_vc_kind():
    cfg = ExperimentConfig(kind="vc", cases=10, seed=3)
    report = run_experiment(cfg)
    assert report.passed
    assert len(report.rows) == 10


def test_experiment_equivalence_kind():
    cfg = ExperimentConfig(kind="equivalence", trials=20_000, seed=2)
    report = run_experiment(cfg)
    assert report.passed
    assert report.summary["delta_within_0.01"]


def test_experiment_failure_sets_nonzero_exit(capsys):
    # A hot temperature makes indexing noisy; the harness must say so and
    # exit nonzero with a machine-readable summary.
    code = main([
        "experiment", "--kind", "indexing-exhaustive", "--n", "4",
        "--trials", "8", "--seed", "0", "--lambda", "4",
    ])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 1
    assert report["passed"] is False
    assert report["summary"]["min_rate"] < 0.99


def test_sampled_indexing_rows_are_index_hits_on_one_network(monkeypatch):
    # The experiment builds the unit once and gives combination k the seed
    # seed + 7919 * k; a hot temperature spreads the hit counts so a wrong
    # seed or network shows.
    built = []

    def build(*args, **kwargs):
        built.append(build_neuro_ram(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiments, "build_neuro_ram", build)
    cfg = ExperimentConfig(kind="indexing-sampled", n=16, cases=20, trials=10, seed=5,
                           lam=Fraction(1, 2))
    report = run_experiment(cfg)
    assert len(built) == 1
    net, layout = build_neuro_ram(16, lam=cfg.lam)
    assert len(report.rows) == 20
    assert len({row[5] for row in report.rows}) > 1
    for k, (n, x, y, truth, trials, hits, rate) in enumerate(report.rows):
        inst = IndexInstance(tuple(map(int, x)), tuple(map(int, y)))
        want = index_hits(net, layout, inst, cfg.trials, cfg.seed + 7919 * k)
        assert (n, truth, trials, hits, rate) == (16, inst.truth, 10, want, f"{want / 10:.6f}")


def test_exhaustive_indexing_refuses_large_n(capsys):
    # 2**64 data patterns: the budget check must come before any enumeration.
    assert main(["experiment", "--kind", "indexing-exhaustive", "--n", "64"]) == 2
    assert "n = 64 exceeds 16" in capsys.readouterr().err


_SIMILARITY_COMMANDS = pytest.mark.parametrize("command", [
    ["similarity", "--n", "4", "--x1", "1010", "--x2", "0101"],
    ["build-similarity", "--n", "4", "--out", "never.json"],
    ["experiment", "--kind", "similarity", "--n", "4"],
], ids=["similarity", "build-similarity", "experiment"])


@_SIMILARITY_COMMANDS
@pytest.mark.parametrize("c", ["nan", "inf"])
def test_similarity_rejects_non_finite_c(tmp_path, monkeypatch, capsys, command, c):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--eps", "0.5", "--c", c]) == 2
    assert capsys.readouterr().err.startswith(f"error: c must be finite and >= 1, got {c}")
    assert not (tmp_path / "never.json").exists()


@_SIMILARITY_COMMANDS
@pytest.mark.parametrize("probes", [["--eps", "0.5", "--c", "1e300"], ["--eps", "1e-300"]],
                         ids=["huge-c", "tiny-eps"])
def test_similarity_refuses_probe_counts_past_the_budget(tmp_path, monkeypatch, capsys,
                                                         command, probes):
    # A finite but huge K must be refused before any neuron is added.
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main([*command, *probes]) == 2
    assert time.perf_counter() - start < 5
    assert f"exceeds the budget of {MAX_PROBES}" in capsys.readouterr().err
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("command", [
    ["build-neuroram", "--n", "1048576", "--out", "never.json"],
    ["build-similarity", "--n", "16384", "--eps", "1", "--c", "1", "--out", "never.json"],
    ["build-similarity", "--n", "4096", "--eps", "0.25", "--out", "never.json"],
    ["experiment", "--kind", "clock", "--n", "1048576"],
], ids=["neuroram", "similarity-k10", "similarity-k67", "experiment-clock"])
def test_builders_refuse_networks_past_the_size_budget(tmp_path, monkeypatch, capsys, command):
    # each would need several GB; the budget refuses it before any neuron is added
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(command) == 2
    assert time.perf_counter() - start < 1
    assert f"exceeds the budget of {MAX_UNIT_BITS}" in capsys.readouterr().err
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("command", [
    ["unroll", "--net", "r16.json", "--t", "10000000", "--out", "never.json"],
    ["equiv", "--net", "r16.json", "--inputs", "0" * 20, "--t", "10000000"],
], ids=["unroll", "equiv"])
def test_unroll_refuses_copies_past_the_size_budget(tmp_path, monkeypatch, capsys, command):
    # 10**7 copies of the n = 16 unit would need terabytes; the budget
    # refuses them before any neuron is added
    monkeypatch.chdir(tmp_path)
    save_network(build_neuro_ram(16)[0], "r16.json")
    start = time.perf_counter()
    assert main(command) == 2
    assert time.perf_counter() - start < 1
    assert f"exceeds the budget of {MAX_UNROLL_SIZE}" in capsys.readouterr().err
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("command", [
    ["index", "--n", "16", "--x", "1011001110001111", "--y", "0110", "--trials", "1000000000"],
    ["similarity", "--n", "16", "--eps", "0.25", "--x1", "1" * 16, "--x2", "0" * 16,
     "--trials", "1000000000"],
    ["run", "--net", "r16.json", "--inputs", "0" * 20, "--rounds", "10000000000"],
], ids=["index", "similarity", "run"])
def test_trial_commands_refuse_records_past_the_budget(tmp_path, monkeypatch, capsys, command):
    # 10**9 trials would record about 20 GB of states, and 10**10 rounds of
    # the n = 16 unit's neurons about 1 TB; the budget refuses them before
    # any round runs
    monkeypatch.chdir(tmp_path)
    save_network(build_neuro_ram(16)[0], "r16.json")
    start = time.perf_counter()
    assert main(command) == 2
    assert time.perf_counter() - start < 1
    assert f"exceeds the budget of {MAX_RECORDED_BITS}" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["0", "1/0", "abc"])
def test_index_rejects_bad_lambda(capsys, lam):
    with pytest.raises(SystemExit) as exit_info:
        main(["index", "--n", "4", "--x", "1010", "--y", "10", "--lambda", lam])
    assert exit_info.value.code == 2
    assert "--lambda" in capsys.readouterr().err


def test_vc_bounds_refuses_huge_class_size(capsys):
    # 2^4000000000 would take gigabytes to materialize; it is refused at parse time.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exit_info:
        main(["vc", "bounds", "--m", "4", "--class-size", "2^4000000000", "--n", "16"])
    assert exit_info.value.code == 2
    assert time.perf_counter() - start < 1
    assert "2^4000000000 exceeds" in capsys.readouterr().err


def _readme_commands() -> list[str]:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("neuroram ")]


def test_readme_command_examples_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_readme_network_example_loads():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## File formats", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    net = network_from_json(json.loads(block))
    assert [u.name for u in net.neurons] == ["data[0]", "out"]
    assert validate(net) == []


@pytest.mark.parametrize("argv", [
    ["--kind", "indexing-sampled", "--n", "4", "--cases", "0"],
    ["--kind", "indexing-sampled", "--n", "4", "--seed", "-1"],
    ["--kind", "vc", "--cases", "-1"],
    ["--kind", "equivalence", "--trials", "-5"],
])
def test_experiment_rejects_bad_counts(capsys, argv):
    assert main(["experiment", *argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_experiment_rejects_unknown_kind():
    from neuroram.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        ExperimentConfig(kind="nope")
