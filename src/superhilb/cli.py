"""Command-line interface: reduction, stratification, transition maps and
splitness checks with deterministic text or JSON output.

Exit codes: 0 for a completed computation (a non-split verdict is a
successful computation), 2 for input or parse errors (an exponent beyond
the kernel's range of +-32767 among them, a `reduce --set` name that is
not among the ideal's parameters a, b, alpha, beta, a `--set` value of
the wrong parity, a literal or an answer with more digits than Python
converts, a `--degree-bound` whose solve has more unknowns than
`obstruction.MAX_UNKNOWNS`) and unreadable files, 3 for mathematical
precondition failures and every other package error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .charts import hilb21_atlas, verify_cocycle
from .errors import (
    ExponentOverflow,
    ExprSyntaxError,
    DuplicateVariable,
    InvertibleOddVariable,
    NegativePowerOfNonInvertible,
    NumberTooLong,
    SuperAlgebraError,
    TooManyUnknowns,
    UnknownVariable,
)
from .ideals import CanonicalIdeal, reduce_to_basis, stratification_generators
from .obstruction import (
    build_coboundary_system,
    is_coboundary,
    solve_laurent_system,
    split_check_11,
)
from .parser import RingDecl, parse_poly, parse_ring, pretty, pretty_localized
from .ring import ParityClass, SuperPoly

PARSE_ERRORS = (
    ExponentOverflow,
    ExprSyntaxError,
    DuplicateVariable,
    InvertibleOddVariable,
    NegativePowerOfNonInvertible,
    NumberTooLong,
    TooManyUnknowns,
    UnknownVariable,
)


def _printed(values, show=pretty) -> list:
    """The texts of values; NumberTooLong when one holds an integer
    longer than str() writes, so the answer is refused on one line."""
    try:
        return [show(value) for value in values]
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise NumberTooLong(f"the answer holds a number of more than "
                            f"{limit} digits, too long to print") from exc


def _emit(payload: dict, fmt: str, human_lines):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    ideal = CanonicalIdeal.generic(args.p, args.q)
    params = (*ideal.a, *ideal.b, *ideal.alpha, *ideal.beta)
    ring = RingDecl([ideal.x, ideal.theta, *params])
    if args.ring:
        with open(args.ring, "r", encoding="utf-8") as handle:
            ring = ring.merged(parse_ring(handle.read()))

    values = {}
    if args.params == "zero":
        values = {s: SuperPoly.zero() for s in params}
    for item in args.set or []:
        name, _, expr = item.partition("=")
        symbol = ring.lookup(name.strip())
        value = values[symbol] = parse_poly(expr.strip(), ring)
        want = ParityClass[symbol.parity.name]
        if value and value.parity_class() is not want:
            print(f"error: --set {symbol.name}: the value has parity "
                  f"{value.parity_class().value}, expected {want.value}",
                  file=sys.stderr)
            return 2
    ideal = ideal.with_values(values)

    vec = reduce_to_basis(parse_poly(args.poly, ring), ideal)
    cofactor_f, cofactor_g = _printed((vec.cofactor_f, vec.cofactor_g))
    payload = {
        "p": args.p,
        "q": args.q,
        "evens": _printed(vec.evens),
        "odds": _printed(vec.odds),
        "cofactor_f": cofactor_f,
        "cofactor_g": cofactor_g,
        "in_ideal": vec.is_zero(),
    }
    lines = [
        f"basis coordinates over 1, x, ..., x^{args.p - 1}"
        + (f", theta, ..., x^{args.q - 1}*theta" if args.q else ""),
    ]
    for i, text in enumerate(payload["evens"]):
        lines.append(f"  [x^{i}]        {text}")
    for j, text in enumerate(payload["odds"]):
        lines.append(f"  [x^{j}*theta]  {text}")
    lines.append(f"cofactor of f: {payload['cofactor_f']}")
    lines.append(f"cofactor of g: {payload['cofactor_g']}")
    lines.append(f"member of the ideal: {'yes' if vec.is_zero() else 'no'}")
    _emit(payload, args.format, lines)
    return 0


# ---------------------------------------------------------------------------
# strata


def cmd_strata(args) -> int:
    texts = _printed(stratification_generators(args.p, args.q))
    payload = {
        "p": args.p,
        "q": args.q,
        "generators": texts,
        "dimension": [args.p, args.p],
    }
    lines = [
        f"stratification generators for rank ({args.p}|{args.q}): "
        f"{len(texts)}",
    ]
    for text in texts:
        lines.append(f"  {text}")
    lines.append(f"residual parameter dimension: ({args.p}|{args.p})")
    _emit(payload, args.format, lines)
    return 0


# ---------------------------------------------------------------------------
# transition


def cmd_transition(args) -> int:
    pair = args.pair
    target, source = f"V{pair[0]}", f"V{pair[1]}"
    atlas = hilb21_atlas(args.k)
    tmap = atlas.transition(target, source)
    # hilb21_atlas certifies the V1<-V2 and V1<-V3 closed forms, raising
    # CertificateError before anything prints when one does not hold
    match = pair in ("12", "13")

    rules_payload = {}
    lines = [f"transition {target} <- {source} at twist k = {args.k}"]
    coords = tmap.target.coordinates
    texts = _printed([tmap.rule(c) for c in coords], pretty_localized)
    for coord, text in zip(coords, texts):
        rules_payload[coord.name] = text
        lines.append(f"  {coord.name} := {text}")
    if match:
        lines.append("reference closed form: MATCH")
    cocycle_ok, _ = verify_cocycle(atlas)
    lines.append(f"atlas cocycle consistent: {'yes' if cocycle_ok else 'no'}")
    payload = {
        "k": args.k,
        "pair": pair,
        "rules": rules_payload,
        "cocycle": cocycle_ok,
    }
    if match:
        payload["match"] = True
    _emit(payload, args.format, lines)
    return 0 if cocycle_ok else 3


# ---------------------------------------------------------------------------
# split-check


def cmd_split_check(args) -> int:
    ks = [args.k] if args.k is not None else args.k_range
    reports = []
    for k in sorted(ks):
        if args.target == "hilb11":
            verdict = split_check_11(k)
        else:
            atlas = hilb21_atlas(k)
            verdict = is_coboundary(k, atlas)
            if args.degree_bound is not None:
                system = build_coboundary_system(k, args.degree_bound, atlas)
                solvable = solve_laurent_system(system) is not None
                verdict.notes.append(
                    f"three-overlap solver at bound {args.degree_bound}: "
                    + ("solvable" if solvable else "no solution")
                )
        reports.append(verdict)

    for verdict in reports:
        payload = verdict.to_json_dict()
        lines = [
            f"target {verdict.target}, k = {verdict.twist_input}: "
            + ("split" if verdict.split else "non-split"),
        ]
        if verdict.twist is not None:
            lines.append(f"  twist: {verdict.twist}")
        if verdict.case_label:
            lines.append(f"  case: {verdict.case_label}")
        if verdict.degrees:
            lines.append(
                f"  wedge-square degrees: ({verdict.degrees[0]}, "
                f"{verdict.degrees[1]})"
            )
        for line in verdict.trace:
            lines.append(f"  trace: {line}")
        for note in verdict.notes:
            lines.append(f"  note: {note}")
        _emit(payload, args.format, lines)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _k_range(text: str) -> list:
    lo, _, hi = text.partition("..")
    try:
        ks = list(range(int(lo), int(hi) + 1))
    except ValueError:
        ks = []
    if not ks:
        raise argparse.ArgumentTypeError(
            f"expected A..B with integers A <= B, got {text!r}"
        )
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superhilb",
        description="Exact computations with point families on "
        "(1|1)-supercurves",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human"
    )
    # accepted before or after the subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("human", "json"), default=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser(
        "reduce", parents=[shared],
        help="reduce a polynomial onto the (p|q) monomial basis",
    )
    p_reduce.add_argument("--p", type=int, required=True)
    p_reduce.add_argument("--q", type=int, required=True)
    p_reduce.add_argument(
        "--params", choices=("symbolic", "zero"), default="symbolic"
    )
    p_reduce.add_argument(
        "--set", action="append", metavar="NAME=EXPR",
        help="assign a parameter (repeatable)",
    )
    p_reduce.add_argument("--ring", help="file with extra ring declarations")
    p_reduce.add_argument("poly", help="polynomial expression")
    p_reduce.set_defaults(func=cmd_reduce)

    p_strata = sub.add_parser(
        "strata", parents=[shared],
        help="flattening stratification generators",
    )
    p_strata.add_argument("--p", type=int, required=True)
    p_strata.add_argument("--q", type=int, required=True)
    p_strata.set_defaults(func=cmd_strata)

    p_trans = sub.add_parser(
        "transition", parents=[shared],
        help="print a rank-(2|1) atlas transition",
    )
    p_trans.add_argument("--k", type=int, required=True)
    p_trans.add_argument(
        "--pair", required=True,
        choices=("12", "13", "14", "23", "24", "34"),
    )
    p_trans.set_defaults(func=cmd_transition)

    p_split = sub.add_parser(
        "split-check", parents=[shared],
        help="decide splitness of a family of Hilbert charts",
    )
    p_split.add_argument(
        "--target", choices=("hilb11", "hilb21"), required=True
    )
    group = p_split.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--k-range", type=_k_range, metavar="A..B")
    p_split.add_argument(
        "--degree-bound", type=_nonnegative_int, default=None,
        help="extra truncation bound for the coboundary solver (hilb21)",
    )
    p_split.set_defaults(func=cmd_split_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "degree_bound", None) is not None
            and args.target != "hilb21"):
        parser.error("--degree-bound applies to --target hilb21 only")
    try:
        return args.func(args)
    except (*PARSE_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SuperAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
