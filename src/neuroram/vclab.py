"""Dichotomy counting for fixed-weight, variable-threshold circuits.

The object of study is a feedforward circuit whose edges and real weights
are frozen while every gate's threshold ranges over the reals.  On a finite
sample set this class induces finitely many labelings (dichotomies):
a single gate, seeing k distinct weighted sums on the samples, realizes
exactly k + 1 nested firing patterns, one per gap in the sorted sums plus
the all-fire choice.  ``count_dichotomies`` enumerates the gate choices in
topological order, conditioning each gate's achievable patterns on the
upstream choices, and counts distinct output labelings exactly.

An independent brute-force oracle (``grid_oracle_count``) re-derives the
count from a dense per-gate threshold grid built from all subset sums of
the gate's in-weights, evaluating the full circuit for every grid point
combination.  Upper/lower bound calculators for VC dimension round out the
lab; logs are base 2.
"""

from __future__ import annotations

import math
import random

import numpy as np
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .errors import InvalidParameterError, ResourceBudgetError

LOG2_E = math.log2(math.e)
MAX_LEAVES = 10_000_000  # search leaves or grid cells x samples per count
MAX_SUBSETS = 1_000_000  # candidate sample sets in vc_by_enumeration


@dataclass(frozen=True)
class Gate:
    """One threshold gate: sources < d are circuit inputs, d + k is gate k."""

    sources: tuple[int, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class VarThresholdArchitecture:
    """Fixed acyclic gate graph with a free threshold per gate."""

    d: int
    gates: tuple[Gate, ...]
    output: int

    def __post_init__(self):
        if self.d < 1 or not self.gates:
            raise InvalidParameterError("need at least one input and one gate")
        if not 0 <= self.output < len(self.gates):
            raise InvalidParameterError(f"output gate {self.output} out of range")
        for k, g in enumerate(self.gates):
            if len(g.sources) != len(g.weights) or not g.sources:
                raise InvalidParameterError(f"gate {k}: sources/weights mismatch or empty")
            for src in g.sources:
                if src < 0 or src >= self.d + k:
                    raise InvalidParameterError(
                        f"gate {k}: source {src} is not an input or earlier gate"
                    )

    @property
    def m(self) -> int:
        return len(self.gates)


def _check_samples(arch: VarThresholdArchitecture, samples: Sequence[tuple[int, ...]]):
    seen = set()
    for s in samples:
        if len(s) != arch.d:
            raise InvalidParameterError(f"sample {s} does not have {arch.d} bits")
        if any(bit not in (0, 1) for bit in s):
            raise InvalidParameterError(f"sample {s} has a bit other than 0 or 1")
        if s in seen:
            raise InvalidParameterError(f"duplicate sample {s}")
        seen.add(s)


def _gate_patterns(gate: Gate, sample_vals: list[list[float]]) -> list[tuple[int, ...]]:
    """Distinct firing patterns the gate can realize, given upstream values per sample."""
    sums = []
    for vals in sample_vals:
        sums.append(sum(w * vals[src] for src, w in zip(gate.sources, gate.weights)))
    cuts = sorted(set(sums))
    patterns = []
    for theta in cuts + [cuts[-1] + 1.0]:
        patterns.append(tuple(1 if s >= theta else 0 for s in sums))
    return patterns


def count_dichotomies(arch: VarThresholdArchitecture, samples: Sequence[tuple[int, ...]]) -> int:
    return count_dichotomies_detailed(arch, samples)[0]


def count_dichotomies_detailed(
    arch: VarThresholdArchitecture,
    samples: Sequence[tuple[int, ...]],
) -> tuple[int, tuple[int, ...]]:
    """Exact dichotomy count plus the per-gate maximum pattern count seen.

    The per-gate maxima feed the product bound: the count can never exceed
    their product, since the search tree has at most that many leaves.
    Searches that could pass :data:`MAX_LEAVES` leaves raise
    :class:`ResourceBudgetError`.
    """
    _check_samples(arch, samples)
    z = len(samples)
    if z == 0:
        return 1, tuple(1 for _ in arch.gates)
    if (z + 1) ** arch.m > MAX_LEAVES:
        raise ResourceBudgetError(
            f"(z+1)^m = {(z + 1) ** arch.m} exceeds the budget of {MAX_LEAVES}"
        )

    labelings: set[tuple[int, ...]] = set()
    gate_max = [0] * arch.m
    visited = 0

    # Per-sample value vectors indexed by source id (inputs then gates).
    base = [list(map(float, s)) + [0.0] * arch.m for s in samples]

    def descend(k: int) -> None:
        nonlocal visited
        if k == arch.m:
            visited += 1
            if visited > MAX_LEAVES:
                raise ResourceBudgetError(f"enumeration exceeded the budget of {MAX_LEAVES}")
            labelings.add(tuple(int(vals[arch.d + arch.output]) for vals in base))
            return
        patterns = _gate_patterns(arch.gates[k], base)
        gate_max[k] = max(gate_max[k], len(patterns))
        for pat in patterns:
            for vals, bit in zip(base, pat):
                vals[arch.d + k] = float(bit)
            descend(k + 1)
        for vals in base:
            vals[arch.d + k] = 0.0

    descend(0)
    return len(labelings), tuple(gate_max)


def baum_product_bound(per_gate_counts: Sequence[int]) -> int:
    """Product of per-gate dichotomy counts; bounds the circuit's count."""
    return math.prod(per_gate_counts)


def circuit_vc_upper(m: int) -> float:
    """3 * m * log2(m), valid for circuits with m >= 2 gates."""
    if m < 2:
        raise InvalidParameterError(f"bound requires m >= 2 gates, got {m}")
    return 3.0 * m * math.log2(m)


def sauer_lower(class_size: int, n: int) -> float:
    """log2(|class|) / (log2(n) + log2(e)) lower-bounds the VC dimension of a
    class of functions on log2(n)-bit inputs."""
    if class_size < 1:
        raise InvalidParameterError(f"class size must be >= 1, got {class_size}")
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    return math.log2(class_size) / (math.log2(n) + LOG2_E)


def grid_oracle_count(arch: VarThresholdArchitecture, samples: Sequence[tuple[int, ...]]) -> int:
    """Brute-force dichotomy count from dense per-gate threshold grids.

    Each gate's grid holds every achievable subset sum of its in-weights
    plus a point in every gap just above each sum, so every realizable cut
    appears regardless of what upstream gates do.  The full circuit is
    evaluated for every grid combination (vectorized over combinations).
    Deliberately independent of the conditional enumeration in
    :func:`count_dichotomies`.  Grids past :data:`MAX_LEAVES` cells times
    samples raise :class:`ResourceBudgetError`.
    """
    _check_samples(arch, samples)
    if not samples:
        return 1
    z = len(samples)
    grids = []
    for g in arch.gates:
        sums = sorted({
            sum(w for w, on in zip(g.weights, pick) if on)
            for pick in product((0, 1), repeat=len(g.weights))
        })
        gaps = [b - a for a, b in zip(sums, sums[1:])]
        eps = min(gaps) / 2 if gaps else 1.0
        grids.append(np.array(sorted({v for s in sums for v in (s, s + eps)})))
    combos = math.prod(len(g) for g in grids)
    if combos * z > MAX_LEAVES:
        raise ResourceBudgetError(f"grid size {combos} x {z} exceeds the budget of {MAX_LEAVES}")
    thetas = [m.reshape(-1) for m in np.meshgrid(*grids, indexing="ij")]
    x = np.array(samples, dtype=np.float64)
    gate_vals: list[np.ndarray] = []
    for k, g in enumerate(arch.gates):
        drive = np.zeros((combos, z))
        for src, w in zip(g.sources, g.weights):
            if src < arch.d:
                drive += w * x[:, src][None, :]
            else:
                drive += w * gate_vals[src - arch.d]
        gate_vals.append((drive >= thetas[k][:, None]).astype(np.float64))
    labels = gate_vals[arch.output].astype(np.int8)
    return int(np.unique(labels, axis=0).shape[0])


def vc_by_enumeration(arch: VarThresholdArchitecture, max_z: int) -> int:
    """Exact VC dimension on the {0,1}^d domain, capped at max_z.

    Searches for a shattered sample set of each size; stops at the first
    size with none, since shattering is closed under taking subsets.  More
    than :data:`MAX_SUBSETS` candidate sets raise :class:`ResourceBudgetError`.
    """
    domain = list(product((0, 1), repeat=arch.d))
    limit = min(max_z, len(domain))
    total_subsets = sum(math.comb(len(domain), zz) for zz in range(1, limit + 1))
    if total_subsets > MAX_SUBSETS:
        raise ResourceBudgetError(
            f"{total_subsets} candidate subsets exceed the budget of {MAX_SUBSETS}"
        )
    best = 0
    for zz in range(1, limit + 1):
        found = False
        for subset in combinations(domain, zz):
            if count_dichotomies(arch, subset) == (1 << zz):
                found = True
                break
        if not found:
            break
        best = zz
    return best


def random_architecture(seed: int, m: int, d: int) -> VarThresholdArchitecture:
    """Random test architecture: gaussian weights, dense-ish random wiring."""
    gen = random.Random(seed)
    gates = []
    for k in range(m):
        sources = [i for i in range(d) if gen.random() < 0.8]
        sources += [d + j for j in range(k) if gen.random() < 0.6]
        if not sources:
            sources = [gen.randrange(d)]
        weights = [gen.gauss(0.0, 1.0) for _ in sources]
        gates.append(Gate(tuple(sources), tuple(weights)))
    return VarThresholdArchitecture(d=d, gates=tuple(gates), output=m - 1)
