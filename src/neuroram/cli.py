"""Command-line surface.

Bit vectors are 0/1 strings with index 0 leftmost (least significant);
rationals are "p/q" strings.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .bits import format_bits, hamming, parse_bits
from .dynamics import run
from .errors import InvalidParameterError, ResourceBudgetError, SchemaError
from .experiments import EXPERIMENT_KINDS, ExperimentConfig, run_experiment
from .ramnet import IndexInstance, build_neuro_ram, index_hits
from .serialize import (
    load_architecture, load_feedforward, load_network, load_samples, parse_rational,
    save_circuit, save_feedforward, save_network,
)
from .similarity import build_similarity, similarity_positive_count
from .transforms import distribution_equivalence, sample_threshold_circuit, unroll
from .vclab import circuit_vc_upper, count_dichotomies, sauer_lower


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except SchemaError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


MAX_SIZE_BITS = 1 << 20  # largest "b^k" class size built; the Sauer bound needs only log2


def _size(text: str) -> int:
    # Accepts plain integers and "b^k".
    if "^" in text:
        base, _, exp = text.partition("^")
        base, exp = int(base), int(exp)
        if abs(base) > 1 and exp * math.log2(abs(base)) > MAX_SIZE_BITS:
            raise argparse.ArgumentTypeError(f"{text} exceeds {MAX_SIZE_BITS} bits")
        return base ** exp
    return int(text)


def _csv_line(values) -> str:
    return ",".join(str(v) for v in values)


def _pattern(args, flag: str) -> tuple[int, ...]:
    """The bits of ``--flag``, which must number ``--n``."""
    bits = parse_bits(getattr(args, flag))
    if len(bits) != args.n:
        raise InvalidParameterError(f"--{flag} has {len(bits)} bits but --n is {args.n}")
    return bits


def _input_clamps(net, text: str) -> dict[int, int]:
    """One clamp bit per input neuron of ``net``, in id order."""
    bits = parse_bits(text)
    if len(bits) != len(net.input_ids):
        raise InvalidParameterError(
            f"network has {len(net.input_ids)} inputs, got {len(bits)} bits"
        )
    return dict(zip(net.input_ids, bits))


def _save_valid(net, out: str, detail: str) -> int:
    """Save a network, valid by construction, and report its size."""
    save_network(net, out)
    print(f"wrote {out}: {len(net)} neurons, {detail}")
    return 0


def cmd_build_neuroram(args) -> int:
    net, _ = build_neuro_ram(args.n, with_reset=args.reset, lam=args.lam)
    return _save_valid(net, args.out, f"{len(net.synapses)} synapses")


def cmd_build_similarity(args) -> int:
    net, layout = build_similarity(args.n, args.eps, args.c, args.lam)
    return _save_valid(net, args.out, f"K={layout.k} probe pairs")


def cmd_index(args) -> int:
    x = _pattern(args, "x")
    net, layout = build_neuro_ram(args.n, lam=args.lam)
    inst = IndexInstance(x, parse_bits(args.y))
    hits = index_hits(net, layout, inst, args.trials, args.seed)
    print(_csv_line(("n", "x", "y", "truth", "trials", "successes")))
    print(_csv_line((args.n, args.x, args.y, inst.truth, args.trials, hits)))
    return 0


def cmd_similarity(args) -> int:
    x1, x2 = _pattern(args, "x1"), _pattern(args, "x2")
    net, layout = build_similarity(args.n, args.eps, args.c, args.lam)
    positives = similarity_positive_count(net, layout, x1, x2, args.trials, args.seed)
    print(_csv_line(("n", "eps", "hamming", "trials", "positives")))
    print(_csv_line((args.n, args.eps, hamming(x1, x2), args.trials, positives)))
    return 0


def cmd_run(args) -> int:
    net = load_network(args.net)
    rows = run(net, _input_clamps(net, args.inputs), args.rounds, args.seed)
    print(_csv_line(("round", "fired")))
    for t, row in enumerate(rows.astype(int).tolist()):
        print(_csv_line((t, format_bits(row))))
    return 0


def cmd_unroll(args) -> int:
    net = load_network(args.net)
    ff = unroll(net, args.t)
    save_feedforward(ff, args.out)
    print(
        f"wrote {args.out}: {len(ff.layers)} layers x {len(ff.layers[0])} neurons, "
        f"{ff.auxiliary_count} auxiliary"
    )
    return 0


def cmd_derandomize(args) -> int:
    ff = load_feedforward(args.net)
    tc = sample_threshold_circuit(ff, args.seed)
    save_circuit(tc, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_equiv(args) -> int:
    net = load_network(args.net)
    rep = distribution_equivalence(net, _input_clamps(net, args.inputs), args.t, args.trials,
                                   args.seed)
    print(json.dumps({
        "p_network": rep.p_network,
        "p_circuit": rep.p_circuit,
        "delta": rep.delta,
        "threshold": rep.threshold,
        "trials": rep.trials,
        "rounds": rep.rounds,
        "ok": rep.ok,
    }, indent=2))
    return 0 if rep.ok else 1


def cmd_vc(args) -> int:
    if args.vc_command == "count":
        print(count_dichotomies(load_architecture(args.arch), load_samples(args.samples)))
        return 0
    upper = circuit_vc_upper(args.m)
    lower = sauer_lower(args.class_size, args.n)
    print(json.dumps({
        "circuit_vc_upper": upper,
        "sauer_lower": lower,
    }, indent=2))
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        kind=args.kind, n=args.n, eps=args.eps, c=args.c,
        lam=args.lam if args.lam is not None else Fraction(1, 32),
        trials=args.trials, cases=args.cases, seed=args.seed, out=args.out,
    )
    report = run_experiment(cfg)
    print(json.dumps({"kind": report.kind, "summary": report.summary,
                      "passed": report.passed}, indent=2))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuroram",
        description="Stochastic spiking-network toolkit: indexing, similarity, "
                    "unrolling, derandomization, dichotomy counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-neuroram", help="construct an indexing network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reset", action="store_true")
    p.add_argument("--lambda", dest="lam", type=_rational, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_neuroram)

    p = sub.add_parser("build-similarity", help="construct a similarity network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--lambda", dest="lam", type=_rational, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_similarity)

    p = sub.add_parser("index", help="empirical indexing success rate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--lambda", dest="lam", type=_rational, default=None)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("similarity", help="empirical similarity-positive rate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--lambda", dest="lam", type=_rational, default=None)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("run", help="simulate a stored network, print the trace")
    p.add_argument("--net", required=True)
    p.add_argument("--inputs", required=True, help="clamp bits, one per input neuron")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("unroll", help="recurrent -> feedforward at round t")
    p.add_argument("--net", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_unroll)

    p = sub.add_parser("derandomize", help="sample a deterministic threshold circuit")
    p.add_argument("--net", required=True, help="feedforward network JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_derandomize)

    p = sub.add_parser("equiv", help="network vs sampled-circuit output distribution")
    p.add_argument("--net", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("vc", help="dichotomy counts and VC bounds")
    vsub = p.add_subparsers(dest="vc_command", required=True)
    pc = vsub.add_parser("count")
    pc.add_argument("--arch", required=True)
    pc.add_argument("--samples", required=True)
    pb = vsub.add_parser("bounds")
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--class-size", dest="class_size", type=_size, required=True)
    pb.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_vc)

    p = sub.add_parser("experiment", help="run a configured experiment, write CSV")
    p.add_argument("--kind", choices=EXPERIMENT_KINDS, required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--lambda", dest="lam", type=_rational, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, SchemaError, ResourceBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
