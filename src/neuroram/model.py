"""Network data model.

A network is an immutable weighted directed graph of stochastic threshold
units.  Weights and biases are arbitrary-precision integers: the indexing
construction uses powers of two up to ``2**(sqrt(n)+2)``, which overflows
64-bit words for n > 1024, and exact integer potentials are what make the
simulator's probabilities reproducible.  The temperature is a positive
rational; it is the only place floating point enters the dynamics.

Structural rules, enforced when a ``Network`` is constructed, built or
loaded (:func:`validate` lists the violations):

* input neurons have in-degree zero,
* every neuron is excitatory (outgoing weights >= 0) or inhibitory
  (outgoing weights <= 0); inputs and outputs are excitatory,
* biases are non-negative integers,
* at most one synapse per ordered pair, no zero-weight synapses, and no
  repeated neuron name: the names are the network's role map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import InvalidParameterError


class Kind(str, Enum):
    INPUT = "input"
    OUTPUT = "output"
    AUXILIARY = "auxiliary"


class Polarity(str, Enum):
    EXCITATORY = "excitatory"
    INHIBITORY = "inhibitory"


@dataclass(frozen=True)
class Neuron:
    id: int
    name: str
    kind: Kind
    polarity: Polarity
    bias: int


@dataclass(frozen=True)
class Synapse:
    pre: int
    post: int
    weight: int


@dataclass(frozen=True)
class Violation:
    """One structural rule breach; data, not an exception."""

    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.subject}: {self.detail}"


class Network:
    """Immutable network; safe to share across threads and cache.

    ``incoming[v]`` lists ``(pre, weight)`` pairs, which is the access
    pattern of the dynamics.  Neuron names are the role names (``clk[3]``,
    ``trig[1]``, ...).  A network that breaks a structural rule is never
    made: construction raises, listing each :func:`validate` violation as
    ``rule: subject: detail``.  The private
    ``_operator`` slot memoizes the trial engine's weight operator, filled
    on first use; it is derived from the fields above and is excluded from
    equality, ``repr`` and JSON.
    """

    __slots__ = ("lam", "neurons", "synapses", "incoming", "input_ids",
                 "output_ids", "_operator")

    def __init__(
        self,
        lam: Fraction,
        neurons: Iterable[Neuron],
        synapses: Iterable[Synapse],
    ):
        lam = Fraction(lam)
        if lam <= 0:
            raise InvalidParameterError(f"temperature must be positive, got {lam}")
        self.lam = lam
        self.neurons = tuple(neurons)
        if [u.id for u in self.neurons] != list(range(len(self.neurons))):
            raise InvalidParameterError("neuron ids must be dense 0..N-1 in order")
        self.synapses = tuple(synapses)

        incoming: list[list[tuple[int, int]]] = [[] for _ in self.neurons]
        for s in self.synapses:
            if not (0 <= s.pre < len(self.neurons) and 0 <= s.post < len(self.neurons)):
                raise InvalidParameterError(f"synapse {s.pre}->{s.post} out of range")
            incoming[s.post].append((s.pre, s.weight))
        self.incoming = tuple(tuple(lst) for lst in incoming)
        self.input_ids = tuple(u.id for u in self.neurons if u.kind is Kind.INPUT)
        self.output_ids = tuple(u.id for u in self.neurons if u.kind is Kind.OUTPUT)
        self._operator = None
        if problems := validate(self):
            raise InvalidParameterError("invalid network: " + "; ".join(map(str, problems)))

    def __len__(self) -> int:
        return len(self.neurons)

    def is_input(self, u: int) -> bool:
        return self.neurons[u].kind is Kind.INPUT

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.lam == other.lam
            and self.neurons == other.neurons
            and sorted(self.synapses, key=lambda s: (s.pre, s.post)) ==
                sorted(other.synapses, key=lambda s: (s.pre, s.post))
        )

    def __repr__(self) -> str:
        return (f"Network(N={len(self.neurons)}, synapses={len(self.synapses)}, "
                f"lam={self.lam})")


@dataclass
class NetworkBuilder:
    """Accumulates neurons and synapses; :meth:`build` freezes them into a
    Network, which enforces the structural rules."""

    lam: Fraction
    _neurons: list[Neuron] = field(default_factory=list)
    _synapses: list[Synapse] = field(default_factory=list)

    def add_neuron(self, name: str, kind: Kind, polarity: Polarity, bias: int) -> int:
        nid = len(self._neurons)
        self._neurons.append(Neuron(nid, name, kind, polarity, int(bias)))
        return nid

    def add_synapse(self, pre: int, post: int, weight: int) -> None:
        self._synapses.append(Synapse(pre, post, int(weight)))

    def build(self) -> Network:
        return Network(self.lam, self._neurons, self._synapses)


def validate(net: Network) -> list[Violation]:
    """Check every structural invariant; an empty list means the network is well formed."""
    out: list[Violation] = []
    names: set[str] = set()
    for u in net.neurons:
        if u.name in names:
            out.append(Violation("duplicate-name", u.name, "neuron names must be unique"))
        names.add(u.name)
        if u.bias < 0:
            out.append(Violation("bias-sign", u.name, f"bias {u.bias} < 0"))
        if u.kind in (Kind.INPUT, Kind.OUTPUT) and u.polarity is not Polarity.EXCITATORY:
            out.append(Violation("io-polarity", u.name,
                                 f"{u.kind.value} neuron must be excitatory"))

    # per-neuron flags read once, as the synapse loop is the hot path at build and load
    name = [u.name for u in net.neurons]
    is_input = [u.kind is Kind.INPUT for u in net.neurons]
    excitatory = [u.polarity is Polarity.EXCITATORY for u in net.neurons]
    seen: set[tuple[int, int]] = set()
    for s in net.synapses:
        pre, post, w = s.pre, s.post, s.weight
        if w == 0:
            out.append(Violation("zero-weight", f"{name[pre]}->{name[post]}",
                                 "weight 0 encodes an absent synapse"))
        if is_input[post]:
            out.append(Violation("input-in-degree", f"{name[pre]}->{name[post]}",
                                 "input neurons take no incoming synapses"))
        if w < 0 if excitatory[pre] else w > 0:
            out.append(Violation("polarity-sign", f"{name[pre]}->{name[post]}",
                                 f"{net.neurons[pre].polarity.value} source with weight {w}"))
        if (pre, post) in seen:
            out.append(Violation("duplicate-synapse", f"{name[pre]}->{name[post]}",
                                 "more than one synapse for an ordered pair"))
        seen.add((pre, post))
    return out
