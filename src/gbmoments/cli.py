"""Command-line front end: JSON in, one JSON report out.

Every subcommand prints a single report object to stdout:

    {"subcommand": ..., "inputs": ..., "results": ..., "checks": [...],
     "pass": ..., "wall_time_s": ...}

The report is deterministic for fixed inputs except for the wall_time_s
field, which golden-file comparisons must strip.  Exit status: 0 if every
check passed (or there were none), 1 if a check failed, 2 for usage or
malformed input, 3 when a capacity limit was hit, 4 when the report could
not be written (stdout closed by its reader, or full).

Scalars are rendered as exact "p/q" strings (plain "p" for integers) in
rational mode and as 17-significant-digit floats otherwise.  Color ids are
0-based: when a diagram models the two-sided color set {-1, +1}, id 0 is -1
and id 1 is +1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import broken, fock, moments, qproduct
from . import words as W
from .cyclegraph import build_graph
from .partitions import (
    MAX_ENUM_PAIRS,
    MAX_VALUE_DIGITS,
    CapacityError,
    ColorArityError,
    colored_from_json,
    double_factorial,
    enumerate_colored,
    enumerate_pair_partitions,
    pair_partition_from_json,
    read_scalar,
)

USAGE_EXIT = 2
CAPACITY_EXIT = 3
OUTPUT_EXIT = 4
# pd-check families hold at most this many diagrams (5 points x 2 colors is 1,571)
MAX_GRAM_FAMILY = 2048
# enumerate lists at most 13!! partitions, all of 7 pairs (a ~58 MB report)
MAX_ENUM_LISTING = double_factorial(13)
# MAX_VALUE_DIGITS bounds the power N^e in an exact value's denominator
# before it is computed: t_N's (1/N)^e in eval, the N^P(w) under oracle's
# loop sum, the factor n^m of clt's error denominators (the --Q entries'
# denominators add more); and every exact value fmt_scalar prints, once
# computed (Thoma and tensor weights have no such closed form)
# the smallest integer with more than MAX_VALUE_DIGITS digits
UNPRINTABLE = 10**MAX_VALUE_DIGITS


def _printable(n: int) -> int:
    """n itself; CapacityError when it has more digits than Python prints."""
    if abs(n) >= UNPRINTABLE:
        raise CapacityError(f"the exact value would have more than {MAX_VALUE_DIGITS} digits")
    return n


def fmt_scalar(x) -> str | float:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(_printable(x.numerator))
        return f"{_printable(x.numerator)}/{_printable(x.denominator)}"
    if isinstance(x, int):
        return str(_printable(x))
    return float(f"{x:.17g}")


def parse_rational_list(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(read_scalar(part) for part in text.split(","))


def _check_power_digits(n: int, exponent: int):
    """Refuse, before computing it, a value whose denominator is up to
    n^exponent when that power could have more digits than Python prints;
    n = 0 is left to the computation, which refuses it as a usage error."""
    if n and exponent * len(str(abs(n))) > MAX_VALUE_DIGITS:
        raise CapacityError(f"the exact denominator would have more than {MAX_VALUE_DIGITS} digits")


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            # the decoder recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _check(name: str, expected, actual) -> dict:
    return {
        "name": name,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


def _t_handle_from_args(args) -> moments.TFunction:
    if args.t == "tn":
        return moments.tn_handle(args.N)
    if args.t == "thoma":
        tp = moments.ThomaParameter(args.alpha, args.beta)
        return moments.thoma_handle(tp)
    if args.t == "tensor":
        minus = moments.uncolored_handle(moments.ThomaParameter(args.alpha_minus, args.beta_minus))
        plus = moments.uncolored_handle(moments.ThomaParameter(args.alpha_plus, args.beta_plus))
        return moments.tensor_handle(minus, plus)
    raise ValueError(f"unknown weight family {args.t!r}")


# the options each weight family reads, recorded in the report's inputs
FAMILY_PARAMETERS = {
    "free": (),
    "tn": ("N",),
    "thoma": ("alpha", "beta"),
    "tensor": ("alpha_minus", "beta_minus", "alpha_plus", "beta_plus"),
    "q12": ("N", "q12"),
}


def _family_inputs(args, family: str) -> dict:
    """Reject any family option the family does not read and fill in the
    defaults of those it does (N = 2, empty sequences); returns the family's
    parameters as exact strings (lists of them for sequences)."""
    reads = FAMILY_PARAMETERS[family]
    for name in {name for names in FAMILY_PARAMETERS.values() for name in names} - set(reads):
        if getattr(args, name, None) is not None:
            raise ValueError(f"--{name.replace('_', '-')} is not read by the {family} weight")
    for name in reads:
        if getattr(args, name) is None:
            setattr(args, name, 2 if name == "N" else ())
    exact = lambda v: [fmt_scalar(x) for x in v] if isinstance(v, tuple) else fmt_scalar(v)
    return {name: exact(getattr(args, name)) for name in reads}


def _uncolored_t_from_args(args) -> moments.UncoloredTFunction:
    if args.t == "free":
        return moments.t_free
    if args.t == "tn":
        return moments.tn_uncolored_handle(args.N)
    if args.t == "thoma":
        return moments.uncolored_handle(moments.ThomaParameter(args.alpha, args.beta))
    raise ValueError(f"unknown weight family {args.t!r}")


def cmd_enumerate(args) -> tuple[dict, dict, list[dict]]:
    m, k = args.pairs, args.colors
    if m < 0 or k < 1:
        raise ValueError("need --pairs >= 0 and --colors >= 1")
    # m is bounded first, so a huge m costs no double factorial
    if m > MAX_ENUM_PAIRS or (expected := double_factorial(2 * m - 1) * k**m) > MAX_ENUM_LISTING:
        raise CapacityError(f"enumerate lists at most {MAX_ENUM_LISTING} partitions")
    items = enumerate_pair_partitions(m) if k == 1 else enumerate_colored(m, k)
    results = {"count": len(items), "partitions": [p.to_json() for p in items]}
    return {"pairs": m, "colors": k}, results, [_check("count", expected, len(items))]


def cmd_graph(args) -> tuple[dict, dict, list[dict]]:
    obj = _load_json(args.partition)
    p = colored_from_json(obj)
    analysis = build_graph(p)
    return {"partition": obj}, analysis.to_json(), []


def cmd_eval(args) -> tuple[dict, dict, list[dict]]:
    parameters = _family_inputs(args, args.t)
    obj = _load_json(args.partition)
    p = colored_from_json(obj)
    if args.t == "tn":
        _check_power_digits(args.N, moments.tn_exponent(p))
    handle = _t_handle_from_args(args)
    value = handle(p)
    return (
        {"partition": obj, "t": args.t, **parameters},
        {"value": fmt_scalar(value)},
        [],
    )


def cmd_oracle(args) -> tuple[dict, dict, list[dict]]:
    obj = _load_json(args.word)
    w = W.word_from_json(obj)
    # the dense oracle runs first, so what it refuses is refused before the sum
    dense = fock.vacuum_expectation_dense(w, args.N) if args.mode == "both" else None
    if W.compatible_count(w):
        _check_power_digits(args.N, fock.word_frame(w).paths)
    combinatorial = fock.rho_n_combinatorial(w, args.N)
    results = {"combinatorial": fmt_scalar(combinatorial)}
    checks = []
    if args.mode == "both":
        results["dense"] = fmt_scalar(dense)
        checks.append(_check("dense_equals_combinatorial", results["combinatorial"], results["dense"]))
    return {"word": obj, "N": args.N, "mode": args.mode}, results, checks


def _compare_row(p, n: int) -> dict:
    dense = fock.vacuum_expectation_dense(W.canonical_word(p), n)
    lam = fock.vacuum_expectation_lambda(p, n)
    formula = moments.t_colored(moments.thoma_n(n), p)
    ratio = moments.t_n(n, p)
    return {
        "partition": p.to_json(),
        "dense": fmt_scalar(dense),
        "lambda": fmt_scalar(lam),
        "character_formula": fmt_scalar(formula),
        "power_formula": fmt_scalar(ratio),
        "pass": dense == lam == formula == ratio,
    }


def cmd_compare(args) -> tuple[dict, dict, list[dict]]:
    if args.max_pairs < 1:
        raise ValueError("--max-pairs must be at least 1")
    fock.check_dense_params(args.N)
    # the one-color nest of m pairs drives the dense oracle to level m, and
    # every word of at most DENSE_MAX_LEVEL pairs stays within it
    if args.max_pairs > fock.DENSE_MAX_LEVEL:
        raise CapacityError(
            f"--max-pairs {args.max_pairs} drives the dense oracle above level {fock.DENSE_MAX_LEVEL}"
        )
    rows = [
        _compare_row(p, args.N)
        for m in range(1, args.max_pairs + 1)
        for p in enumerate_colored(m, 2)
    ]
    checks = [_check("all_agree", True, all(r["pass"] for r in rows))]
    checks += [
        _check(f"agreement_{json.dumps(r['partition'], sort_keys=True)}", True, False)
        for r in rows
        if not r["pass"]
    ]
    return (
        {"max_pairs": args.max_pairs, "N": args.N},
        {"instances": len(rows), "matrix": rows},
        checks,
    )


def cmd_clt(args) -> tuple[dict, dict, list[dict]]:
    parameters = _family_inputs(args, args.t)
    q = qproduct.QMatrix.of(_load_json(args.Q))
    v = pair_partition_from_json(_load_json(args.V))
    handle = _uncolored_t_from_args(args)
    ns = [int(x) for x in args.n.split(",")]
    for n in ns:
        _check_power_digits(n, v.m)
    limit = qproduct.t_q_limit(q, v)
    # clt_error_curve would compute the limit a second time
    curve = [(n, abs(qproduct.t_q_star_n(handle, q, n, v) - limit)) for n in ns]
    results = {
        "limit": fmt_scalar(limit),
        "errors": [{"n": n, "error": fmt_scalar(e)} for n, e in curve],
    }
    # the bound holds only where K = |Q| divides n; with no such n, no check
    bounded = [(n, e) for n, e in curve if n % q.size == 0]
    checks = []
    if bounded:
        within = all(e <= qproduct.clt_error_bound(v.m, n) for n, e in bounded)
        checks.append(_check("error_within_collision_bound", True, within))
    inputs = {"Q": args.Q, "V": args.V, "t": args.t, "n": ns, **parameters}
    return inputs, results, checks


def cmd_pd_check(args) -> tuple[dict, dict, list[dict]]:
    # --t and --q12 are exclusive; the report names tn for a q12 run
    args.t = args.t or "tn"
    parameters = _family_inputs(args, args.t if args.q12 is None else "q12")
    # every n <= max_points adds a diagram, so a huge max_points is refused
    # without summing its count
    if (
        args.max_points >= MAX_GRAM_FAMILY
        or broken.broken_count(args.max_points, args.colors) > MAX_GRAM_FAMILY
    ):
        raise CapacityError(f"the Gram family has more than {MAX_GRAM_FAMILY} diagrams")
    # no weight reads another count, and a zero-point family of a huge one
    # passes the guard yet builds 2 * colors leg groups
    if args.colors not in (1, 2):
        raise ValueError("pd-check reads --colors 1 or 2")
    family = broken.enumerate_broken(args.max_points, args.colors)
    if args.q12 is not None:
        if args.colors != 2:
            raise ValueError("--q12 needs a two-color family")
        q = qproduct.QMatrix.of([[Fraction(1), args.q12], [args.q12, Fraction(1)]])
        components = [moments.tn_uncolored_handle(args.N)] * 2
        handle = qproduct.q_product_handle(components, q)
    elif args.colors == 1:
        uncolored = _uncolored_t_from_args(args)
        handle = lambda p: uncolored(p.base)
    else:
        handle = _t_handle_from_args(args)
    min_pivot, ok = qproduct.gram_psd_check(family, handle)
    results = {"family_size": len(family), "min_pivot": fmt_scalar(min_pivot)}
    checks = [_check("psd", True, ok)]
    inputs = {"max_points": args.max_points, "colors": args.colors, "t": args.t}
    return {**inputs, **parameters}, results, checks


def cmd_stirling(args) -> tuple[dict, dict, list[dict]]:
    value, ok = qproduct.stirling_check(args.N)
    return (
        {"N": args.N},
        {"value": fmt_scalar(Fraction(value)), "pass": ok},
        [_check("vanishes", True, ok)],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmoments",
        description="Exact moments of colored-pair-partition Brownian motions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", help="enumerate (colored) pair partitions")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--colors", type=int, default=1)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="cycle-graph analysis of a 2-colored partition")
    p.add_argument("--partition", required=True, help="JSON file")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("eval", help="evaluate a moment weight on a partition")
    p.add_argument("--partition", required=True)
    p.add_argument("--t", choices=["tn", "thoma", "tensor"], required=True)
    _add_thoma_flags(p)
    for option in ("--alpha-minus", "--beta-minus", "--alpha-plus", "--beta-plus"):
        p.add_argument(option, type=parse_rational_list)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="vacuum expectation of a word")
    p.add_argument("--word", required=True, help="JSON file: [{b,i,k}, ...]")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--mode", choices=["combinatorial", "both"], default="both")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="formula-vs-oracle sweep")
    p.add_argument("--max-pairs", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("clt", help="averaged-product convergence curve")
    p.add_argument("--Q", required=True, help="JSON file: matrix rows")
    p.add_argument("--V", required=True, help="JSON file: pair partition")
    p.add_argument("--t", choices=["free", "tn"], required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--n", required=True, help="comma-separated sizes")
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("pd-check", help="Gram positive-semidefiniteness check")
    p.add_argument("--max-points", type=int, default=4)
    p.add_argument("--colors", type=int, default=1)
    weight = p.add_mutually_exclusive_group()
    weight.add_argument("--t", choices=["tn", "thoma"], help="default: tn")
    weight.add_argument("--q12", type=read_scalar,
                        help="use the coupling-matrix product of two t_N copies instead")
    _add_thoma_flags(p)
    p.set_defaults(func=cmd_pd_check)

    p = sub.add_parser("stirling", help="signed cycle-count cancellation")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_stirling)

    return parser


def _add_thoma_flags(p: argparse.ArgumentParser):
    p.add_argument("--N", type=int)
    p.add_argument("--alpha", type=parse_rational_list)
    p.add_argument("--beta", type=parse_rational_list)


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        # a too long rational option raises CapacityError out of parse_args
        args = parser.parse_args(argv)
        start = time.perf_counter()
        inputs, results, checks = args.func(args)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return CAPACITY_EXIT
    except (ColorArityError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    elapsed = time.perf_counter() - start
    all_pass = all(c["pass"] for c in checks)
    report = {
        "subcommand": args.subcommand,
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "pass": all_pass,
        "wall_time_s": round(elapsed, 6),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all_pass else 1


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        # point stdout at devnull, so the interpreter's last flush of what
        # is still buffered cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: the report could not be written: {exc}", file=sys.stderr)
        code = OUTPUT_EXIT
    sys.exit(code)


if __name__ == "__main__":
    main()
