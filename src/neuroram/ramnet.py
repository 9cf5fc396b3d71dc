"""Random-access (indexing) network construction.

Given n data bits and a log2(n)-bit address, the network drives its output
to the addressed bit within 5*sqrt(n) rounds.  The construction encodes
each of the sqrt(n) buckets of sqrt(n) data bits into the potential of a
single encoder neuron through power-of-two weights, selects one encoder
with the high half of the address, and then decodes the encoder's potential
bit by bit: a clock chain paces sqrt(n) read steps of five rounds each, and
per-step feedback (excitation when the encoder stayed silent, inhibition
when it fired) shifts the encoder's effective threshold to expose the next
bit.  The low half of the address picks which read step may trigger the
output, which latches through a self-loop.

Wiring summary for data size n, s = sqrt(n) (all weights/biases integers):

* encoder[i]: bias 2**(s+2) + 2**s - 1; weight 2**(s-j) from data bit
  i*s + j; weight 2**(s+2) from bucket selector i.
* address relays: an excitatory and an inhibitory copy per address bit
  (bias 1, weight 2), feeding the selectors.
* selector for code w (bucket selectors read the high half, position
  selectors the low half): +2 from the excitatory relay of every 1-bit of
  w, -2 from the inhibitory relay of every 0-bit, +2 from the activity
  detector, bias 2*popcount(w) + 1.  The activity detector (bias 1,
  weight 2 from every data bit) keeps selector biases non-negative while
  preserving the match arithmetic: potential +1 on a match, <= -1 otherwise.
* clock: chain clk[0..5s] with weight-2 links, bias 1 everywhere; an
  inhibitory stop[l] shadows each link (l < 5s), stop[1] suppresses clk[1]
  with -2, and every stop[l] suppresses clk[0] with the negated total
  excitatory in-weight of clk[0], so the chain emits one pulse per round
  and cannot restart mid-cycle.  clk[0] is driven with weight 2 from every
  data bit, or from a one-round start relay when ``delayed_start`` is set
  (used when address bits only settle in round 1).
* read step j taps clk[5j+2] and owns four neurons: trigger (bias 2s+3;
  +2 from every encoder, +2 from position selector j, +2s from the tap;
  +2 into the output), read-excite (bias 1, +2 from the tap, self-loop 2,
  +2**(s-j-1) into every encoder), inhibitory read-inhibit (bias 3, +2
  from every encoder and the tap, -2**(s-j) into every encoder), and its
  excitatory holder (same inputs, self-loop 4, +4 into read-inhibit --
  persistence an inhibitor may not get from a self-loop).
* output: bias 1, self-loop 2.
* optional reset: bias 1, +2 from clk[5s-2], and an inhibitory edge to
  every read neuron and the output of twice their total excitatory
  in-weight; it clears latched state between back-to-back presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import binary, dec
from .dynamics import default_lambda
from .errors import InvalidParameterError, ResourceBudgetError
from .model import Kind, Network, NetworkBuilder, Polarity
from .montecarlo import final_bit_counts, trial_states

CLOCK_OK = "ok"
CLOCK_NEVER_STARTED = "never-started"
CLOCK_MISMATCH = "mismatch"

MAX_UNIT_BITS = 1 << 15  # indexing units x data bits per network; 0.7 GB peak to build and save


@dataclass(frozen=True)
class NeuroRamLayout:
    """Role map of one indexing unit; ids refer to the surrounding network."""

    n: int
    sqrt_n: int
    log_n: int
    data: tuple[int, ...]
    addr: tuple[int, ...]
    enc: tuple[int, ...]
    addr_on: tuple[int, ...]
    addr_off: tuple[int, ...]
    bucket_sel: tuple[int, ...]
    pos_sel: tuple[int, ...]
    activity: int
    clock: tuple[int, ...]
    stop: tuple[int, ...]
    trigger: tuple[int, ...]
    read_excite: tuple[int, ...]
    read_inhibit: tuple[int, ...]
    read_hold: tuple[int, ...]
    out: int
    start: int | None = None
    reset: int | None = None

    @property
    def rounds(self) -> int:
        """Rounds until the output is valid (5*sqrt(n), +1 with a delayed start)."""
        base = 5 * self.sqrt_n
        return base + 1 if self.start is not None else base

    @property
    def clock_offset(self) -> int:
        """Round in which clk[i] fires is i + 1 + clock_offset."""
        return 1 if self.start is not None else 0

    @property
    def aux_count(self) -> int:
        """Closed-form count of non-input, non-output neurons in the unit."""
        s, g = self.sqrt_n, self.log_n
        count = 17 * s + 2 * g + 1
        if self.start is not None:
            count += 1
        if self.reset is not None:
            count += 1
        return count


@dataclass(frozen=True)
class IndexInstance:
    """One indexing problem: data bits x and address bits y."""

    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self):
        n = len(self.x)
        dimension(n)
        if len(self.y) != n.bit_length() - 1:
            raise InvalidParameterError(
                f"address must have log2({n}) = {n.bit_length() - 1} bits, got {len(self.y)}"
            )

    @property
    def address(self) -> int:
        return address_of(self.y)

    @property
    def truth(self) -> int:
        return self.x[self.address]


def dimension(n: int) -> int:
    """sqrt(n) for valid sizes; n must be 4**m so sqrt(n) and log2(n)/2 are integers."""
    if n < 4 or n & (n - 1) or (n.bit_length() - 1) % 2:
        raise InvalidParameterError(f"n must be a power of 4 and >= 4, got {n}")
    return 1 << ((n.bit_length() - 1) // 2)


def check_size(units: int, n: int) -> None:
    """Refuse ``units`` indexing units over n data bits past :data:`MAX_UNIT_BITS`."""
    if units * n > MAX_UNIT_BITS:
        raise ResourceBudgetError(
            f"indexing units x data bits = {units} x {n} exceeds the budget of {MAX_UNIT_BITS}")


def address_of(y: tuple[int, ...]) -> int:
    """Global index sqrt(n)*dec(high half) + dec(low half) of an address vector."""
    half = len(y) // 2
    return (1 << half) * dec(y[:half]) + dec(y[half:])


def address_bits(n: int, index: int) -> tuple[int, ...]:
    """Address vector for a global index; inverse of :func:`address_of`."""
    s = dimension(n)
    if not 0 <= index < n:
        raise InvalidParameterError(f"index {index} out of range for n={n}")
    half = (n.bit_length() - 1) // 2
    return binary(index // s, half) + binary(index % s, half)


def graft_indexing_unit(
    b: NetworkBuilder,
    data: tuple[int, ...],
    addr: tuple[int, ...],
    prefix: str = "",
    delayed_start: bool = False,
    output_kind: Kind = Kind.OUTPUT,
    with_reset: bool = False,
) -> NeuroRamLayout:
    """Wire one indexing unit into ``b`` over existing data/address sources."""
    n = len(data)
    s = dimension(n)
    log_n = n.bit_length() - 1
    if len(addr) != log_n:
        raise InvalidParameterError(f"need {log_n} address sources, got {len(addr)}")
    half = log_n // 2

    def exc(name, bias, kind=Kind.AUXILIARY):
        return b.add_neuron(prefix + name, kind, Polarity.EXCITATORY, bias)

    def inh(name, bias):
        return b.add_neuron(prefix + name, Kind.AUXILIARY, Polarity.INHIBITORY, bias)

    enc = tuple(exc(f"enc[{i}]", (1 << (s + 2)) + (1 << s) - 1) for i in range(s))
    for i in range(s):
        for j in range(s):
            b.add_synapse(data[i * s + j], enc[i], 1 << (s - j))

    addr_on = tuple(exc(f"addr_on[{j}]", 1) for j in range(log_n))
    addr_off = tuple(inh(f"addr_off[{j}]", 1) for j in range(log_n))
    for j in range(log_n):
        b.add_synapse(addr[j], addr_on[j], 2)
        b.add_synapse(addr[j], addr_off[j], 2)

    activity = exc("act", 1)
    for x in data:
        b.add_synapse(x, activity, 2)

    def selector(name: str, code_value: int, relay_base: int) -> int:
        code = binary(code_value, half)
        sel = exc(name, 2 * sum(code) + 1)
        b.add_synapse(activity, sel, 2)
        for j, bit in enumerate(code):
            if bit:
                b.add_synapse(addr_on[relay_base + j], sel, 2)
            else:
                b.add_synapse(addr_off[relay_base + j], sel, -2)
        return sel

    bucket_sel = tuple(selector(f"bucket_sel[{i}]", i, 0) for i in range(s))
    pos_sel = tuple(selector(f"pos_sel[{j}]", j, half) for j in range(s))
    for i in range(s):
        b.add_synapse(bucket_sel[i], enc[i], 1 << (s + 2))

    start = None
    clock = tuple(exc(f"clk[{l}]", 1) for l in range(5 * s + 1))
    stop = tuple(inh(f"stop[{l}]", 1) for l in range(1, 5 * s))
    if delayed_start:
        start = exc("start", 1)
        for x in data:
            b.add_synapse(x, start, 2)
        b.add_synapse(start, clock[0], 2)
        clk0_drive = 2
    else:
        for x in data:
            b.add_synapse(x, clock[0], 2)
        clk0_drive = 2 * n
    for l in range(1, 5 * s + 1):
        b.add_synapse(clock[l - 1], clock[l], 2)
        if l < 5 * s:
            b.add_synapse(clock[l - 1], stop[l - 1], 2)
    b.add_synapse(stop[0], clock[1], -2)
    for l in range(1, 5 * s):
        b.add_synapse(stop[l - 1], clock[0], -clk0_drive)

    out = exc("out", 1, kind=output_kind)
    b.add_synapse(out, out, 2)

    trigger, read_excite, read_inhibit, read_hold = [], [], [], []
    for j in range(s):
        tap = clock[5 * j + 2]
        trig = exc(f"trig[{j}]", 2 * s + 3)
        rexc = exc(f"read_exc[{j}]", 1)
        rinh = inh(f"read_inh[{j}]", 3)
        hold = exc(f"read_hold[{j}]", 3)
        b.add_synapse(tap, trig, 2 * s)
        b.add_synapse(pos_sel[j], trig, 2)
        b.add_synapse(trig, out, 2)
        b.add_synapse(tap, rexc, 2)
        b.add_synapse(rexc, rexc, 2)
        b.add_synapse(tap, rinh, 2)
        b.add_synapse(tap, hold, 2)
        b.add_synapse(hold, hold, 4)
        b.add_synapse(hold, rinh, 4)
        for i in range(s):
            b.add_synapse(enc[i], trig, 2)
            b.add_synapse(enc[i], rinh, 2)
            b.add_synapse(enc[i], hold, 2)
            b.add_synapse(rexc, enc[i], 1 << (s - j - 1))
            b.add_synapse(rinh, enc[i], -(1 << (s - j)))
        trigger.append(trig)
        read_excite.append(rexc)
        read_inhibit.append(rinh)
        read_hold.append(hold)

    reset = None
    if with_reset:
        reset = inh("reset", 1)
        b.add_synapse(clock[5 * s - 2], reset, 2)
        # "Arbitrarily large" inhibition, concretely: twice the target's
        # total excitatory in-weight silences it regardless of drive.
        wipe = (
            [(t, 4 * s + 2) for t in trigger]
            + [(r, 4) for r in read_excite]
            + [(r, 2 * s + 6) for r in read_inhibit]
            + [(h, 2 * s + 6) for h in read_hold]
            + [(out, 2 * s + 2)]
        )
        for target, exc_total in wipe:
            b.add_synapse(reset, target, -2 * exc_total)

    return NeuroRamLayout(
        n=n, sqrt_n=s, log_n=log_n,
        data=tuple(data), addr=tuple(addr), enc=enc,
        addr_on=addr_on, addr_off=addr_off,
        bucket_sel=bucket_sel, pos_sel=pos_sel,
        activity=activity, clock=clock, stop=stop,
        trigger=tuple(trigger), read_excite=tuple(read_excite),
        read_inhibit=tuple(read_inhibit), read_hold=tuple(read_hold),
        out=out, start=start, reset=reset,
    )


def build_neuro_ram(
    n: int,
    with_reset: bool = False,
    lam: Fraction | None = None,
) -> tuple[Network, NeuroRamLayout]:
    """Standalone indexing network with its own input neurons."""
    dimension(n)
    check_size(1, n)
    if lam is None:
        lam = default_lambda(n)
    b = NetworkBuilder(Fraction(lam))
    data = tuple(
        b.add_neuron(f"data[{i}]", Kind.INPUT, Polarity.EXCITATORY, 0) for i in range(n)
    )
    log_n = n.bit_length() - 1
    addr = tuple(
        b.add_neuron(f"addr[{j}]", Kind.INPUT, Polarity.EXCITATORY, 0)
        for j in range(log_n)
    )
    layout = graft_indexing_unit(b, data, addr, with_reset=with_reset)
    return b.build(), layout


def check_weight_fact(net: Network, layout: NeuroRamLayout) -> bool:
    """Every encoder's excitatory in-weight, bucket selector aside, is at most 2**(s+2)."""
    polarity = {u.id: u.polarity for u in net.neurons}
    bound = 1 << (layout.sqrt_n + 2)
    for i, e in enumerate(layout.enc):
        total = 0
        for pre, w in net.incoming[e]:
            if pre == layout.bucket_sel[i]:
                continue
            if polarity[pre] is Polarity.EXCITATORY and w > 0:
                total += w
        if total > bound:
            return False
    return True


def expected_encoding_potential(bucket: tuple[int, ...]) -> int:
    """Potential a bucket pattern contributes to its encoder.

    Equals twice the integer encoded by the reversed pattern.
    """
    s = len(bucket)
    return sum(bit << (s - j) for j, bit in enumerate(bucket))


def clamps_for(layout: NeuroRamLayout, instance: IndexInstance) -> dict[int, int]:
    if len(instance.x) != layout.n:
        raise InvalidParameterError(f"expected {layout.n} data bits, got {len(instance.x)}")
    clamps = {nid: bit for nid, bit in zip(layout.data, instance.x)}
    clamps.update({nid: bit for nid, bit in zip(layout.addr, instance.y)})
    return clamps


def index_hits(net: Network, layout: NeuroRamLayout, instance: IndexInstance,
               trials: int, seed: int) -> int:
    """Trials (vectorized) whose output at round ``layout.rounds`` is the addressed bit."""
    fired = final_bit_counts(net, clamps_for(layout, instance), layout.rounds, trials, seed,
                             layout.out)
    return fired if instance.truth else trials - fired


def expected_clock_rounds(layout: NeuroRamLayout, horizon: int) -> dict[int, set[int]]:
    """Nominal fire rounds of each clock neuron within rounds 0..horizon.

    clk[i] fires once at round i + 1 (plus the start-relay offset).  clk[0]
    is the exception: its suppression loops back through stop[1] and lands
    two rounds after ignition, so it nominally fires twice, in rounds 1 and
    2 of its cycle.
    """
    off = layout.clock_offset
    expected: dict[int, set[int]] = {}
    for i, nid in enumerate(layout.clock):
        if i == 0:
            rounds = {1 + off, 2 + off}
        else:
            rounds = {i + 1 + off}
        expected[nid] = {t for t in rounds if t <= horizon}
    return expected


def clock_pattern_status(fired, layout: NeuroRamLayout) -> str:
    """Compare clock rows against the nominal one-pulse-per-round pattern.

    ``fired[t][i]`` says whether clk[i] fired in round t: the shape of
    ``trial_states(..., record=list(layout.clock))[k]``.  Rounds past
    ``layout.rounds`` are ignored.
    """
    rows = np.asarray(fired, dtype=bool)[: layout.rounds + 1]
    if not rows[:, 0].any():
        return CLOCK_NEVER_STARTED
    want = np.zeros_like(rows)
    for pos, rounds in enumerate(expected_clock_rounds(layout, len(rows) - 1).values()):
        want[sorted(rounds), pos] = True
    return CLOCK_OK if np.array_equal(rows, want) else CLOCK_MISMATCH


def run_multi_input(
    net: Network,
    layout: NeuroRamLayout,
    instances: list[IndexInstance],
    trials: int,
    seed: int,
) -> np.ndarray:
    """Present instances back to back; returns bool array (trials, windows)
    of the output bit read per window.

    Each instance is clamped for 5*sqrt(n) + 1 rounds and the output is
    sampled in the window's last round; the reset neuron clears latched
    state so the next window starts clean.
    """
    if layout.reset is None:
        raise InvalidParameterError("multi-input runs need a network built with with_reset")
    window = layout.rounds + 1
    schedule = [(clamps_for(layout, inst), window) for inst in instances]
    states = trial_states(net, schedule, trials, seed, [layout.out])
    return states[:, window - 1 :: window, 0]
