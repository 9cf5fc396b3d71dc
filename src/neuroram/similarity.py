"""Approximate-equality (similarity) testing network.

Distinguishes equal n-bit patterns from patterns at Hamming distance at
least eps*n by probing K = ceil(c*ln(n)/eps) uniformly random positions.
Each probe k owns log2(n) index neurons with bias 0 and a weight-2
self-loop: in round 1 they fire as fair coins, and an inhibitory lock
(bias 1, weight 2 from every input, weight -1 to every index neuron) then
freezes the drawn pattern in place -- the -1 is too weak to silence an
active self-loop (potential 2 - 1 = 1) but keeps silent neurons silent.
The frozen pattern addresses a pair of indexing units, one over each input
pattern; a per-pair comparator (an excitatory OR with bias 1 and an
inhibitory AND with bias 3, both reading the pair outputs with weight 2,
wired +2/-2 into the output) lifts the output exactly when some pair
disagrees.

Because the random index only settles in round 1, each embedded indexing
unit starts its clock through a one-round delay relay, shifting its
internal schedule by one round.  The output is therefore read at round
5*sqrt(n) + 3, the unit's 5*sqrt(n) + 1 rounds plus the comparator's two,
so that the last of the sqrt(n) read steps (probes addressing the last
position of a bucket) is observed too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import dec
from .dynamics import default_lambda
from .errors import InvalidParameterError, ResourceBudgetError
from .model import Kind, Network, NetworkBuilder, Polarity
from .montecarlo import final_bit_counts
from .ramnet import NeuroRamLayout, check_size, dimension, graft_indexing_unit

LOCK_OK = "ok"
LOCK_INACTIVE = "lock-inactive"
LOCK_UNSTABLE = "unstable"

MAX_PROBES = 256  # 512 indexing units; eps down to c*ln(n)/256 (0.033 at n = 64, c = 2)


@dataclass(frozen=True)
class SimilarityLayout:
    n: int
    eps: float
    c: float
    k: int
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    index: tuple[tuple[int, ...], ...]
    units_a: tuple[NeuroRamLayout, ...]
    units_b: tuple[NeuroRamLayout, ...]
    lock: int
    cmp_any: tuple[int, ...]
    cmp_both: tuple[int, ...]
    out: int

    @property
    def read_round(self) -> int:
        return 5 * dimension(self.n) + 3

    @property
    def lock_record(self) -> tuple[int, ...]:
        """The lock, then every index neuron in probe order: the ``record``
        that yields the rows of :func:`locked_index_check`."""
        return (self.lock,) + tuple(y for group in self.index for y in group)


def sample_count(n: int, eps: float, c: float = 2.0) -> int:
    """Number of random probes, ceil(c * ln(n) / eps); misses all of eps*n
    differing positions with probability at most n**-c.  More than
    :data:`MAX_PROBES` raise :class:`ResourceBudgetError`."""
    if not 0 < eps <= 1:
        raise InvalidParameterError(f"eps must be in (0, 1], got {eps}")
    if not (math.isfinite(c) and c >= 1):
        raise InvalidParameterError(f"c must be finite and >= 1, got {c}")
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    probes = c * math.log(n) / eps
    if probes > MAX_PROBES:
        raise ResourceBudgetError(
            f"K = ceil(c*ln(n)/eps) = {probes:.4g} probes exceeds the budget of {MAX_PROBES}"
        )
    return math.ceil(probes)


def build_similarity(
    n: int,
    eps: float,
    c: float = 2.0,
    lam: Fraction | None = None,
) -> tuple[Network, SimilarityLayout]:
    """Compose K index-generator groups, 2K indexing units, lock, comparators, output."""
    dimension(n)
    if lam is None:
        lam = default_lambda(n)
    k_probes = sample_count(n, eps, c)
    check_size(2 * k_probes, n)
    log_n = n.bit_length() - 1

    b = NetworkBuilder(Fraction(lam))
    x1 = tuple(b.add_neuron(f"x1[{i}]", Kind.INPUT, Polarity.EXCITATORY, 0) for i in range(n))
    x2 = tuple(b.add_neuron(f"x2[{i}]", Kind.INPUT, Polarity.EXCITATORY, 0) for i in range(n))

    lock = b.add_neuron("lock", Kind.AUXILIARY, Polarity.INHIBITORY, 1)
    for x in x1 + x2:
        b.add_synapse(x, lock, 2)

    index: list[tuple[int, ...]] = []
    units_a: list[NeuroRamLayout] = []
    units_b: list[NeuroRamLayout] = []
    cmp_any: list[int] = []
    cmp_both: list[int] = []

    out = b.add_neuron("out", Kind.OUTPUT, Polarity.EXCITATORY, 1)

    for k in range(k_probes):
        group = tuple(
            b.add_neuron(f"idx{k}[{j}]", Kind.AUXILIARY, Polarity.EXCITATORY, 0)
            for j in range(log_n)
        )
        for y in group:
            b.add_synapse(y, y, 2)
            b.add_synapse(lock, y, -1)
        index.append(group)

        unit_a = graft_indexing_unit(
            b, x1, group, prefix=f"a{k}.", delayed_start=True, output_kind=Kind.AUXILIARY
        )
        unit_b = graft_indexing_unit(
            b, x2, group, prefix=f"b{k}.", delayed_start=True, output_kind=Kind.AUXILIARY
        )
        units_a.append(unit_a)
        units_b.append(unit_b)

        f_any, f_both = _add_comparator(b, (unit_a.out, unit_b.out), out, f"[{k}]")
        cmp_any.append(f_any)
        cmp_both.append(f_both)

    layout = SimilarityLayout(
        n=n, eps=eps, c=c, k=k_probes, x1=x1, x2=x2,
        index=tuple(index), units_a=tuple(units_a), units_b=tuple(units_b),
        lock=lock, cmp_any=tuple(cmp_any), cmp_both=tuple(cmp_both), out=out,
    )
    return b.build(), layout


def _add_comparator(
    b: NetworkBuilder, pair: tuple[int, int], out: int, tag: str
) -> tuple[int, int]:
    """Add the OR/AND comparator over ``pair``, wired +2/-2 into ``out``
    (which may be added to ``b`` afterwards); returns (cmp_any, cmp_both)."""
    f_any = b.add_neuron(f"cmp_any{tag}", Kind.AUXILIARY, Polarity.EXCITATORY, 1)
    f_both = b.add_neuron(f"cmp_both{tag}", Kind.AUXILIARY, Polarity.INHIBITORY, 3)
    for pair_out in pair:
        b.add_synapse(pair_out, f_any, 2)
        b.add_synapse(pair_out, f_both, 2)
    b.add_synapse(f_any, out, 2)
    b.add_synapse(f_both, out, -2)
    return f_any, f_both


def build_comparator_gadget(lam: Fraction = Fraction(1, 32)) -> Network:
    """Just the pair comparator, its inputs ``o1``, ``o2`` standing in for the pair outputs."""
    b = NetworkBuilder(Fraction(lam))
    o1 = b.add_neuron("o1", Kind.INPUT, Polarity.EXCITATORY, 0)
    o2 = b.add_neuron("o2", Kind.INPUT, Polarity.EXCITATORY, 0)
    _add_comparator(b, (o1, o2), o2 + 3, "")  # out comes right after
    b.add_neuron("out", Kind.OUTPUT, Polarity.EXCITATORY, 1)
    return b.build()


def clamps_for(layout: SimilarityLayout, x1: tuple[int, ...], x2: tuple[int, ...]) -> dict[int, int]:
    if len(x1) != layout.n or len(x2) != layout.n:
        raise InvalidParameterError(f"both patterns must have {layout.n} bits")
    clamps = {nid: bit for nid, bit in zip(layout.x1, x1)}
    clamps.update({nid: bit for nid, bit in zip(layout.x2, x2)})
    return clamps


def similarity_positive_count(
    net: Network,
    layout: SimilarityLayout,
    x1: tuple[int, ...],
    x2: tuple[int, ...],
    trials: int,
    seed: int,
) -> int:
    """Trials (vectorized) in which the output fired at the read round."""
    return final_bit_counts(
        net, clamps_for(layout, x1, x2), layout.read_round, trials, seed, layout.out
    )


def locked_index_check(fired, layout: SimilarityLayout) -> str:
    """Each probe's index pattern must hold steady from round 2 to the read round.

    ``fired[t][i]`` says whether ``layout.lock_record[i]`` fired in round t:
    the shape of ``trial_states(..., record=list(layout.lock_record))[k]``.
    Rounds past ``layout.read_round`` are ignored.
    """
    rows = np.asarray(fired, dtype=bool)[: layout.read_round + 1]
    if not rows[1, 0]:
        return LOCK_INACTIVE
    index = rows[2:, 1:]
    return LOCK_UNSTABLE if (index != index[:1]).any() else LOCK_OK


def locked_index_values(fired, layout: SimilarityLayout, at_round: int = 2) -> tuple[int, ...]:
    """The index each probe settled on, read at ``at_round`` from rows shaped
    as for :func:`locked_index_check`."""
    bits = np.asarray(fired, dtype=bool)[at_round, 1:].reshape(layout.k, -1)
    return tuple(dec(tuple(int(b) for b in group)) for group in bits)


def sampling_miss_count(
    n: int,
    probes: int,
    diff_positions: tuple[int, ...],
    draws: int,
    seed: int,
) -> int:
    """Monte-Carlo of the probe argument alone, no network.

    Counts draws in which none of ``probes`` uniform indices lands in
    ``diff_positions``.
    """
    if not diff_positions:
        raise InvalidParameterError("need at least one differing position")
    if bad := [p for p in diff_positions if not 0 <= p < n]:
        raise InvalidParameterError(f"differing position {bad[0]} outside [0, {n})")
    gen = np.random.default_rng([seed, 0x53414D50])
    diff = np.zeros(n, dtype=bool)
    diff[list(diff_positions)] = True
    idx = gen.integers(0, n, size=(draws, probes))
    hits = diff[idx].any(axis=1)
    return int((~hits).sum())


def miss_bound_chain(n: int, eps: float, c: float = 2.0) -> tuple[float, float]:
    """((1-eps)**K, n**-c); the first is at most the second by construction of K."""
    k = sample_count(n, eps, c)
    return (1.0 - eps) ** k, float(n) ** (-c)
