"""The four benchmark workloads, their inputs and their output checks.

Every input (data bits, addresses, pattern pairs, random networks, VC
architectures and per-call seeds) is drawn from the workload seed; the
library only sees those inputs.  Library functions are always called through
their module (``montecarlo.trial_states(...)``), so the traced run's
rebinding of module attributes reaches them.

An operation is one engine call: a trial batch, an equivalence run or a VC
case.  It fails if it raises or its output misses a bound the paper
guarantees with a wide margin at these sizes.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from neuroram import dynamics, model, montecarlo, ramnet, randomnets, rng, serialize
from neuroram import similarity, transforms, vclab

INDEX_MIN_SUCCESS = 0.99  # acceptance criterion 1
SIM_MAX_FALSE_POSITIVE = 0.01  # acceptance criterion 7, equal inputs
SIM_MIN_DETECT = 0.99  # acceptance criterion 7, far inputs
EQUIV_MAX_DELTA = 0.01  # acceptance criterion 6

# Last position of each bucket at n = 16: the read step the similarity
# tester never observes (ROADMAP item 1).  Distance 4 = eps * n.
TAIL_POSITIONS = (3, 7, 11, 15)


class SetupError(RuntimeError):
    """The network the trials would run on is malformed or did not round-trip."""


def index_ok(hits: int, trials: int) -> bool:
    return hits >= INDEX_MIN_SUCCESS * trials


def similarity_ok(far: bool, positives: int, trials: int) -> bool:
    if far:
        return positives >= SIM_MIN_DETECT * trials
    return positives <= SIM_MAX_FALSE_POSITIVE * trials


def equivalence_ok(report, aux_count: int, expected_aux: int, round_trip_equal: bool) -> bool:
    return (report.ok and report.delta <= EQUIV_MAX_DELTA
            and aux_count == expected_aux and round_trip_equal)


def vc_ok(count: int, oracle: int, per_gate: tuple[int, ...]) -> bool:
    return count == oracle and count <= vclab.baum_product_bound(per_gate)


class Ledger:
    """Counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, what: str, op: Callable[[], bool]) -> None:
        """Run one operation; it fails if it raises or returns False."""
        self.attempted += 1
        try:
            ok = op()
        except Exception as exc:  # any raise, ResourceBudgetError included, is a failure
            traceback.print_exc(file=sys.stderr)
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            self.failed += 1
            return
        if not ok:
            self.errors.append(f"{what}: output check failed")
            self.failed += 1

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _bits(gen: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(b) for b in gen.integers(0, 2, n))


def _call_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2**31))


class Workload:
    setup_reps = 3
    min_steps = 1  # steps needed to run every kind of operation once

    def __init__(self, seed: int, tmp: Path):
        self.gen = np.random.default_rng([seed, 0x4E52])
        # Inputs drawn after the window, independent of how many steps fit in it.
        self.late_gen = np.random.default_rng([seed, 0x4E52, 1])
        self.tmp = tmp
        self.setup_bytes = 0
        self._checks: list[tuple[model.Network, model.Network, list]] = []

    def _persist(self, net: model.Network, name: str) -> model.Network:
        """Validate, save and reload, as ``build-* --out`` then ``--net`` do."""
        problems = model.validate(net)
        path = self.tmp / name
        serialize.save_network(net, path)
        loaded = serialize.load_network(path)
        self.setup_bytes += path.stat().st_size
        self._checks.append((net, loaded, problems))
        return loaded

    def setup(self) -> None:
        raise NotImplementedError

    def verify_setup(self) -> None:
        """Checked outside the timed set-up: valid networks, identical round trip."""
        for built, loaded, problems in self._checks:
            if problems:
                raise SetupError(f"invalid network: {problems[0]}")
            if loaded != built:
                raise SetupError("JSON round trip changed the network")
        self._checks.clear()

    def step(self, k: int, ledger: Ledger) -> int:
        """Run step k; returns the trials it completed."""
        raise NotImplementedError

    def after_window(self, ledger: Ledger) -> None:
        """Operations run after the measured window: checked, and traced in the
        traced run, but outside the end-to-end metrics."""

    def diagnose(self) -> dict[str, float]:
        """Untraced extras of the traced run."""
        return {}

    def layer_stats(self) -> dict[str, float]:
        return {"serialize.bytes": self.setup_bytes / self.setup_reps}


class Indexing(Workload):
    """Seeded random (x, y) through the indexing unit, one call per step."""

    def __init__(self, seed, tmp, n: int, trials: int, setup_reps: int, probe_rng: bool):
        super().__init__(seed, tmp)
        self.n = n
        self.trials = trials
        self.setup_reps = setup_reps
        self.probe_rng = probe_rng

    def setup(self) -> None:
        built, self.layout = ramnet.build_neuro_ram(self.n, lam=dynamics.default_lambda(self.n))
        self.net = self._persist(built, "net.json")

    def step(self, k: int, ledger: Ledger) -> int:
        lay = self.layout
        inst = ramnet.IndexInstance(_bits(self.gen, self.n), _bits(self.gen, lay.log_n))
        seed = _call_seed(self.gen)

        def op() -> bool:
            schedule = [(ramnet.clamps_for(lay, inst), lay.rounds + 1)]
            states = montecarlo.trial_states(self.net, schedule, self.trials, seed, [lay.out])
            hits = int((states[:, lay.rounds, 0] == bool(inst.truth)).sum())
            return index_ok(hits, self.trials)

        ledger.check(f"index n={self.n} call {k}", op)
        return self.trials

    def diagnose(self) -> dict[str, float]:
        if not self.probe_rng:
            return {}
        return {"rng.unit_ns": rng_unit_ns()}


def rng_unit_ns(calls: int = 20_000, reps: int = 5) -> float:
    """Median cost of one counter-based draw, the exact engine's per-neuron RNG."""
    per_call = []
    for r in range(reps):
        t = time.perf_counter()
        for i in range(calls):
            rng.unit(r, 1, i)
        per_call.append((time.perf_counter() - t) / calls)
    return statistics.median(per_call) * 1e9


class Similarity(Workload):
    """512-trial calls alternating an equal pair and a random pair at distance eps*n.

    Random far pairs exercise the average case only; they do not stand in
    for the adversarial guarantee (every pair at distance >= eps*n is
    flagged), which the traced run's tail diagnostic probes.
    """

    n, eps, c, trials = 64, 0.25, 2.0, 512
    min_steps = 2

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.positives = {False: 0, True: 0}
        self.counted = {False: 0, True: 0}

    def setup(self) -> None:
        built, self.layout = similarity.build_similarity(
            self.n, self.eps, self.c, dynamics.default_lambda(self.n))
        self.net = self._persist(built, "net.json")

    def step(self, k: int, ledger: Ledger) -> int:
        far = k % 2 == 1
        x1 = _bits(self.gen, self.n)
        x2 = x1
        if far:
            flip = set(self.gen.choice(self.n, int(self.eps * self.n), replace=False).tolist())
            x2 = tuple(b ^ int(i in flip) for i, b in enumerate(x1))
        seed = _call_seed(self.gen)

        def op() -> bool:
            pos = similarity.similarity_positive_count(
                self.net, self.layout, x1, x2, self.trials, seed)
            self.positives[far] += pos
            self.counted[far] += self.trials
            return similarity_ok(far, pos, self.trials)

        ledger.check(f"similarity {'far' if far else 'equal'} call {k}", op)
        return self.trials

    def diagnose(self) -> dict[str, float]:
        """Detection rate on the n = 16 pair that differs only at bucket tails; not gated."""
        net, layout = similarity.build_similarity(16, 0.25, 2.0, Fraction(1, 32))
        x1 = _bits(self.late_gen, 16)
        x2 = tuple(b ^ int(i in TAIL_POSITIONS) for i, b in enumerate(x1))
        pos = similarity.similarity_positive_count(
            net, layout, x1, x2, 512, _call_seed(self.late_gen))
        return {"similarity.tail_detect_rate": pos / 512}

    def layer_stats(self) -> dict[str, float]:
        def rate(far: bool) -> float:
            return self.positives[far] / self.counted[far] if self.counted[far] else 0.0

        return {**super().layer_stats(),
                "similarity.fp_rate": rate(False), "similarity.detect_rate": rate(True)}


class Certify(Workload):
    """Reduction chain on two small networks, then dichotomy counting.

    A step runs the chain (unroll, feedforward JSON round trip, circuit
    sampling, equivalence at 1e5 trials) on the n = 4 indexing unit and on a
    seeded random network.  After the measured window come ``vc_cases``
    seeded architectures drawn as in acceptance criterion 9.  Their cost is
    heavy-tailed (5 % of the cases take about 80 % of the time, and the
    largest set the peak RSS), so they are checked and traced but kept out
    of the end-to-end metrics.
    """

    setup_reps = 5
    equiv_trials = 100_000
    vc_cases = 300
    random_t = 6

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.random_seed = _call_seed(self.gen)

    def setup(self) -> None:
        ram, self.ram_layout = ramnet.build_neuro_ram(4, lam=Fraction(1, 32))
        self.ram = self._persist(ram, "ram.json")
        rand = randomnets.random_network(self.random_seed, n_inputs=3, n_aux=4, lam=Fraction(1, 4))
        self.rand = self._persist(rand, "random.json")

    def _chain(self, net: model.Network, clamps: dict[int, int], t: int, seed: int) -> bool:
        ff = transforms.unroll(net, t)
        path = self.tmp / "ff.json"
        serialize.save_feedforward(ff, path)
        loaded = serialize.load_feedforward(path)
        # Timed as the derandomize step; distribution_equivalence draws its own circuits.
        transforms.sample_threshold_circuit(loaded, seed)
        report = transforms.distribution_equivalence(net, clamps, t, self.equiv_trials, seed)
        aux = sum(1 for u in net.neurons if u.kind is model.Kind.AUXILIARY)
        return equivalence_ok(report, ff.auxiliary_count, (t - 1) * (aux + 1), loaded == ff)

    def _vc_case(self) -> tuple[vclab.VarThresholdArchitecture, tuple]:
        gen = self.late_gen
        m = int(gen.integers(1, 4))
        d = int(gen.integers(2, 5))
        z = int(gen.integers(0, 7))
        arch = vclab.random_architecture(_call_seed(gen), m, d)
        domain = list(product((0, 1), repeat=d))
        perm = gen.permutation(len(domain))
        return arch, tuple(domain[i] for i in perm[: min(z, len(domain))])

    def step(self, k: int, ledger: Ledger) -> int:
        inst = ramnet.IndexInstance(_bits(self.gen, 4), _bits(self.gen, 2))
        chains = [
            ("indexing n=4", self.ram, ramnet.clamps_for(self.ram_layout, inst),
             self.ram_layout.rounds),
            ("random network", self.rand,
             dict(zip(self.rand.input_ids, _bits(self.gen, len(self.rand.input_ids)))),
             self.random_t),
        ]
        for name, net, clamps, t in chains:
            seed = _call_seed(self.gen)
            ledger.check(f"equivalence {name} step {k}",
                         lambda: self._chain(net, clamps, t, seed))
        return len(chains) * self.equiv_trials

    def after_window(self, ledger: Ledger) -> None:
        for case in range(self.vc_cases):
            arch, samples = self._vc_case()

            def op() -> bool:
                count, per_gate = vclab.count_dichotomies_detailed(arch, samples)
                return vc_ok(count, vclab.grid_oracle_count(arch, samples), per_gate)

            ledger.check(f"vc case {case}", op)


WORKLOADS = ("index-1024", "index-4096", "similarity", "certify")


def make(name: str, seed: int, tmp: Path) -> Workload:
    if name == "index-1024":
        return Indexing(seed, tmp, n=1024, trials=512, setup_reps=5, probe_rng=False)
    if name == "index-4096":
        return Indexing(seed, tmp, n=4096, trials=1, setup_reps=3, probe_rng=True)
    if name == "similarity":
        return Similarity(seed, tmp)
    if name == "certify":
        return Certify(seed, tmp)
    raise ValueError(f"unknown workload {name!r}")
