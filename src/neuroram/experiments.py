"""Experiment orchestration and CSV reporting.

Every experiment is deterministic in its config (seed included); CSV output
is byte-stable for a fixed config and toolkit version.
"""

from __future__ import annotations

import csv
import time
from itertools import product
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .bits import format_bits, hamming
from .dynamics import check_count
from .errors import InvalidParameterError, ResourceBudgetError
from .montecarlo import trial_states
from .ramnet import (
    CLOCK_OK, IndexInstance, address_bits, build_neuro_ram, clamps_for,
    clock_pattern_status,
)
from . import ramnet
from .randomnets import random_network
from .similarity import build_similarity, similarity_positive_count
from .transforms import distribution_equivalence
from .vclab import (
    baum_product_bound, count_dichotomies_detailed, grid_oracle_count,
    random_architecture,
)

EXPERIMENT_KINDS = (
    "indexing-exhaustive",
    "indexing-sampled",
    "clock",
    "similarity",
    "equivalence",
    "vc",
)
EXHAUSTIVE_MAX_N = 16  # 2**16 * 16 = 1,048,576 instances


@dataclass
class ExperimentConfig:
    kind: str
    n: int = 4
    eps: float = 0.25
    c: float = 2.0
    lam: Fraction = Fraction(1, 32)
    trials: int = 100
    cases: int = 200          # sampled-index combinations / vc architectures
    seed: int = 0
    out: str | None = None    # CSV path

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InvalidParameterError(f"unknown experiment kind {self.kind!r}")
        check_count("trials", self.trials, 1)
        check_count("cases", self.cases, 1)
        check_count("seed", self.seed, 0)


@dataclass
class ExperimentReport:
    kind: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    passed: bool = False


def _run_indexing(cfg: ExperimentConfig, combos: list[tuple[tuple, tuple]]) -> ExperimentReport:
    report = ExperimentReport(
        kind=cfg.kind,
        columns=("n", "x", "y", "truth", "trials", "successes", "rate"),
    )
    net, layout = build_neuro_ram(cfg.n, lam=cfg.lam)
    rates = []
    for k, (x, y) in enumerate(combos):
        inst = IndexInstance(x, y)
        hits = ramnet.index_hits(net, layout, inst, cfg.trials, cfg.seed + 7919 * k)
        rate = hits / cfg.trials
        rates.append(rate)
        report.rows.append((cfg.n, format_bits(x), format_bits(y), inst.truth, cfg.trials,
                            hits, f"{rate:.6f}"))
    report.summary = {
        "cases": len(rates),
        "min_rate": min(rates),
        "mean_rate": sum(rates) / len(rates),
    }
    report.passed = report.summary["min_rate"] >= 0.99
    return report


def _indexing_exhaustive(cfg: ExperimentConfig) -> ExperimentReport:
    if cfg.n > EXHAUSTIVE_MAX_N:
        raise ResourceBudgetError(
            f"exhaustive indexing enumerates 2**n * n instances; n = {cfg.n} exceeds "
            f"{EXHAUSTIVE_MAX_N} (use indexing-sampled)"
        )
    log_n = cfg.n.bit_length() - 1
    combos = [
        (x, y)
        for x in product((0, 1), repeat=cfg.n)
        for y in product((0, 1), repeat=log_n)
    ]
    return _run_indexing(cfg, combos)


def _indexing_sampled(cfg: ExperimentConfig) -> ExperimentReport:
    gen = np.random.default_rng([cfg.seed, 0x494458])
    log_n = cfg.n.bit_length() - 1
    combos = []
    for _ in range(cfg.cases):
        x = tuple(int(b) for b in gen.integers(0, 2, size=cfg.n))
        y = tuple(int(b) for b in gen.integers(0, 2, size=log_n))
        combos.append((x, y))
    return _run_indexing(cfg, combos)


def _clock(cfg: ExperimentConfig) -> ExperimentReport:
    net, layout = build_neuro_ram(cfg.n, lam=cfg.lam)
    x = (1,) + (0,) * (cfg.n - 1)
    y = address_bits(cfg.n, 0)
    clamps = clamps_for(layout, IndexInstance(x, y))
    states = trial_states(net, [(clamps, layout.rounds + 1)], cfg.trials, cfg.seed,
                          list(layout.clock))
    report = ExperimentReport(kind="clock", columns=("n", "trial", "pattern_ok"))
    good = 0
    for k in range(cfg.trials):
        ok = clock_pattern_status(states[k], layout) == CLOCK_OK
        good += ok
        report.rows.append((cfg.n, k, int(ok)))
    rate = good / cfg.trials
    report.summary = {"trials": cfg.trials, "pattern_rate": rate}
    report.passed = rate >= 0.99
    return report


def _similarity(cfg: ExperimentConfig) -> ExperimentReport:
    net, layout = build_similarity(cfg.n, cfg.eps, cfg.c, cfg.lam)
    equal = tuple(int(i % 3 == 0) for i in range(cfg.n))
    far = tuple(1 - b for b in equal)
    report = ExperimentReport(
        kind="similarity",
        columns=("n", "eps", "hamming", "trials", "positives"),
    )
    pos_equal = similarity_positive_count(net, layout, equal, equal, cfg.trials, cfg.seed)
    pos_far = similarity_positive_count(net, layout, equal, far, cfg.trials, cfg.seed + 1)
    report.rows.append((cfg.n, cfg.eps, 0, cfg.trials, pos_equal))
    report.rows.append((cfg.n, cfg.eps, hamming(equal, far), cfg.trials, pos_far))
    report.summary = {
        "k": layout.k,
        "false_positive_rate": pos_equal / cfg.trials,
        "detection_rate": pos_far / cfg.trials,
    }
    report.passed = (
        pos_equal / cfg.trials <= 0.01 and pos_far / cfg.trials >= 0.99
    )
    return report


def _equivalence(cfg: ExperimentConfig) -> ExperimentReport:
    net = random_network(cfg.seed, n_inputs=3, n_aux=3, lam=Fraction(1, 4))
    input_bits = {u: (1 if u % 2 == 0 else 0) for u in net.input_ids}
    rep = distribution_equivalence(net, input_bits, t=4, trials=max(cfg.trials, 10_000),
                                   seed=cfg.seed)
    report = ExperimentReport(
        kind="equivalence",
        columns=("p_network", "p_circuit", "delta", "threshold"),
    )
    report.rows.append((
        f"{rep.p_network:.6f}", f"{rep.p_circuit:.6f}",
        f"{rep.delta:.6f}", f"{rep.threshold:.6f}",
    ))
    report.summary = {
        "p_network": rep.p_network,
        "p_circuit": rep.p_circuit,
        "delta": rep.delta,
        "delta_within_0.01": rep.delta <= 0.01,
    }
    report.passed = rep.ok and rep.delta <= 0.01
    return report


def _vc(cfg: ExperimentConfig) -> ExperimentReport:
    gen = np.random.default_rng([cfg.seed, 0x5643])
    report = ExperimentReport(
        kind="vc",
        columns=("case", "m", "d", "z", "count", "oracle", "product_bound", "ok"),
    )
    all_ok = True
    for case in range(cfg.cases):
        m = int(gen.integers(1, 4))
        d = int(gen.integers(2, 5))
        z = int(gen.integers(0, 7))
        arch = random_architecture(cfg.seed * 1_000_003 + case, m, d)
        order = np.random.default_rng([cfg.seed, case]).permutation(1 << d)
        domain = list(product((0, 1), repeat=d))
        samples = tuple(domain[i] for i in order[: min(z, len(domain))])
        count, per_gate = count_dichotomies_detailed(arch, samples)
        oracle = grid_oracle_count(arch, samples)
        bound = baum_product_bound(per_gate)
        ok = count == oracle and count <= bound
        if len(samples) >= 2 and m >= 2:
            ok = ok and count <= len(samples) ** m
        all_ok = all_ok and ok
        report.rows.append((case, m, d, len(samples), count, oracle, bound, int(ok)))
    report.summary = {"cases": cfg.cases, "all_ok": all_ok}
    report.passed = all_ok
    return report


_RUNNERS = {
    "indexing-exhaustive": _indexing_exhaustive,
    "indexing-sampled": _indexing_sampled,
    "clock": _clock,
    "similarity": _similarity,
    "equivalence": _equivalence,
    "vc": _vc,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    start = time.perf_counter()
    report = _RUNNERS[cfg.kind](cfg)
    report.summary["wall_time_s"] = round(time.perf_counter() - start, 3)
    if cfg.out:
        write_csv(report, cfg.out)
    return report


def write_csv(report: ExperimentReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.columns)
        writer.writerows(report.rows)
