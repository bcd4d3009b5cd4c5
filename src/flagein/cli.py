"""Command-line front end.

Subcommands inspect root data, evaluate curvature, run the Einstein
classification pipelines, and drive the Groebner / root-isolation engine on
polynomial files.  Output is a human table or canonical JSON (sorted keys,
two-space indent), with rationals as 'p/q' strings and floats at 15
significant digits in JSON, 6 decimals in tables.

Exit codes: 0 success, 2 usage, 3 budget exceeded, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .curvature import InvariantMetric, einstein_residual, kaehler_einstein_metric, ricci
from .errors import ConfigurationError, DomainError, FlageinError, InternalError, ParseError
from .isotropy import triple_tensor
from .polyalg.groebner import GroebnerBudget, buchberger
from .polyalg.poly import TermOrder, format_polynomial, parse_polynomial_file
from .polyalg.realroots import IsolatingInterval, interval_eval, refine_root, sturm_isolate
from .rootsys import killing_form, long_short_split, positive_roots, root_system
from .solver import (
    CASE_BUDGET,
    check_oracle_run,
    classify_full,
    json_scalar,
    newton_oracle,
    solution_set_to_dict,
    solve_general_case,
    solve_symmetric_ansatz,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _budget_overrides(args) -> GroebnerBudget:
    """The budget --budget-pairs and --budget-bits set; their defaults are the subcommand's budget."""
    for flag, value in (("--budget-pairs", args.budget_pairs), ("--budget-bits", args.budget_bits)):
        if value < 1:
            raise ConfigurationError(f"{flag} must be >= 1")
    return GroebnerBudget(args.budget_pairs, args.budget_bits)


def _table_number(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return f"{float(v):.6f}"


def emit_json(payload: dict, stream) -> None:
    stream.write(json.dumps(payload, sort_keys=True, indent=2))
    stream.write("\n")


def _parse_metric(text: str) -> InvariantMetric:
    """The metric a --metric value spells; ``ricci`` checks its length and
    positivity."""
    parts = [p.strip() for p in text.split(",")]
    values = []
    for p in parts:
        try:
            v = Fraction(p) if "/" in p or p.lstrip("+-").isdigit() else float(p)
        except (ValueError, ZeroDivisionError):
            v = math.nan
        # unparsable text, inf, nan and float overflow are all bad entries
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigurationError(f"bad metric entry {p!r}")
        values.append(v)
    return InvariantMetric(tuple(values))


def cmd_roots(args, out) -> int:
    spec = root_system(args.group)
    pos = positive_roots(spec)
    form = killing_form(spec)
    long_idx, short_idx = long_short_split(spec)
    if args.format == "json":
        emit_json(
            {
                "group": spec.type_label,
                "rank": spec.rank,
                "positiveRoots": [list(r.coeffs) for r in pos],
                "lengthsSquared": [json_scalar(form.length_sq(r)) for r in pos],
                "longIndices": [i + 1 for i in long_idx],
                "shortIndices": [i + 1 for i in short_idx],
                "gram": [[json_scalar(v) for v in row] for row in form.gram],
            },
            out,
        )
        return EXIT_OK
    out.write(f"positive roots of {spec.type_label} ({len(pos)}):\n")
    for i, r in enumerate(pos):
        kind = "long" if i in long_idx else "short"
        out.write(f"  m{i + 1}: {r}  (|.|^2 = {form.length_sq(r)}, {kind})\n")
    out.write("Killing gram matrix on simple roots:\n")
    for row in form.gram:
        out.write("  [" + ", ".join(str(v) for v in row) + "]\n")
    return EXIT_OK


def cmd_triples(args, out) -> int:
    spec = root_system(args.group)
    tensor = triple_tensor(spec)
    if args.format == "json":
        emit_json({"group": spec.type_label, "triples": tensor.to_records()}, out)
        return EXIT_OK
    if not tensor.entries:
        out.write(f"{spec.type_label}: no nonzero triples\n")
        return EXIT_OK
    out.write(f"nonzero structure-constant triples of {spec.type_label}/T:\n")
    for (i, j, k), v in tensor.entries:
        out.write(f"  [{k + 1}; {i + 1} {j + 1}] = {v}\n")
    return EXIT_OK


def cmd_ricci(args, out) -> int:
    spec = root_system(args.group)
    metric = _parse_metric(args.metric)
    tensor = triple_tensor(spec)
    components = ricci(metric, tensor)
    k, residual = einstein_residual(metric, tensor)
    if args.format == "json":
        emit_json(
            {
                "group": spec.type_label,
                "metric": [json_scalar(v) for v in metric.x],
                "ricci": [json_scalar(v) for v in components.r],
                "scalarCurvature": json_scalar(components.scalar_curvature),
                "k": json_scalar(k),
                "residual": json_scalar(residual),
            },
            out,
        )
        return EXIT_OK
    out.write(f"ricci components for {spec.type_label}, x = ({args.metric}):\n")
    for i, v in enumerate(components.r):
        out.write(f"  r{i + 1} = {_table_number(v)}\n")
    out.write(f"scalar curvature = {_table_number(components.scalar_curvature)}\n")
    out.write(f"k estimate = {_table_number(k)}, residual = {_table_number(residual)}\n")
    return EXIT_OK


def cmd_kaehler(args, out) -> int:
    spec = root_system(args.group)
    metric = kaehler_einstein_metric(spec)
    tensor = triple_tensor(spec)
    k, residual = einstein_residual(metric, tensor)
    if residual != 0:
        raise InternalError("Kaehler-Einstein metric failed the exact Einstein check")
    if args.format == "json":
        emit_json(
            {
                "group": spec.type_label,
                "metric": [json_scalar(v) for v in metric.x],
                "k": json_scalar(k),
                "residual": json_scalar(residual),
            },
            out,
        )
        return EXIT_OK
    values = ", ".join(str(v) for v in metric.x)
    out.write(f"Kaehler-Einstein metric of {spec.type_label}/T: ({values})\n")
    out.write(f"Einstein constant k = {k} (exact residual {residual})\n")
    return EXIT_OK


def cmd_einstein(args, out) -> int:
    check_oracle_run(args.starts, args.seed, args.precision)
    budget = _budget_overrides(args)
    spec = root_system(args.group)
    # check the report path before the run, so one that cannot be written fails
    # at once: it must be a writable file, or a new name in a writable directory;
    # the file is created or truncated only once the report exists
    if args.output:
        parent = os.path.dirname(args.output) or "."
        target = args.output if os.path.exists(args.output) else parent
        if os.path.isdir(args.output) or not (os.path.isdir(parent) and os.access(target, os.W_OK)):
            raise ConfigurationError(f"cannot write {args.output}: not a writable file path")
    if args.mode == "symmetric":
        result = solve_symmetric_ansatz(spec, budget)
    elif args.mode == "general":
        result = solve_general_case(spec, budget)
    elif args.mode == "full":
        result = classify_full(spec, starts=args.starts, seed=args.seed, tol=args.precision, budget=budget)
    else:
        result = newton_oracle(spec, starts=args.starts, seed=args.seed, tol=args.precision)
    payload = solution_set_to_dict(result)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                emit_json(payload, fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {args.output}: {exc}") from None
    if args.format == "json":
        emit_json(payload, out)
    else:
        out.write(f"group {result.group}, normalization: {result.normalization}\n")
        for case in result.cases:
            out.write(
                f"case [{case.name}] status={case.status}"
                + (f" degree={case.elimination_degree}" if case.elimination_degree else "")
                + (f" realRoots={case.real_roots}" if case.real_roots is not None else "")
                + (f" positiveRoots={case.positive_roots}" if case.positive_roots is not None else "")
                + "\n"
            )
            if case.notes:
                out.write(f"    {case.notes}\n")
        out.write(f"solutions ({len(result.solutions)}):\n")
        for s in result.solutions:
            xs = ", ".join(_table_number(v) for v in s.metric.x)
            out.write(
                f"  x = ({xs})  k = {_table_number(s.k)}  kaehler = {s.kaehler}"
                f"  [{s.provenance}] residual = {_table_number(s.residual)}\n"
            )
    return EXIT_BUDGET if result.status == "budget_exceeded" else EXIT_OK


def _root_digits(iv: IsolatingInterval) -> str:
    """The root in *iv* to 15 significant digits, exactly rounded.

    The enclosure is bisected until both of its ends round to the same
    digits, which the root then rounds to as well, or until it is the root
    itself.  A root on the tie between two adjacent roundings would keep the
    ends apart for ever, so that tie is tested first.
    """
    with localcontext() as ctx:
        ctx.prec = 15

        def digits(x: Fraction) -> Decimal:
            return Decimal(x.numerator) / x.denominator  # one exactly rounded division

        while not iv.is_exact:
            lo, hi = digits(iv.lo), digits(iv.hi)
            if lo == hi:
                break
            if lo.next_plus() == hi:
                tie = (Fraction(lo) + Fraction(hi)) / 2
                if not interval_eval(iv.poly, tie, tie)[0]:
                    return format(float(digits(tie)), ".15g")
            iv = refine_root(iv, (iv.hi - iv.lo) / 1024)
        # a 15-digit decimal survives the round trip through a float
        return format(float(digits(iv.lo)), ".15g")


def cmd_groebner(args, out) -> int:
    try:
        with open(args.file) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {args.file}: {exc}") from None
    variables = tuple(v.strip() for v in args.vars.split(",")) if args.vars else None
    polys = parse_polynomial_file(text, variables)
    if not polys:
        raise ConfigurationError("empty polynomial file")
    order = TermOrder(args.order, polys[0].vars)
    basis = buchberger(polys, order, _budget_overrides(args))
    isolation = None
    if basis.complete and args.isolate:
        target = next((g for g in basis.generators if g.support_vars() == (args.isolate,)), None)
        if target is None:
            raise ConfigurationError(f"basis has no generator univariate in {args.isolate}")
        intervals = sturm_isolate(target.univariate_in(args.isolate))
        isolation = {
            "variable": args.isolate,
            "polynomial": format_polynomial(target, TermOrder("lex", (args.isolate,))),
            "degree": target.degree_in(args.isolate),
            "positiveRoots": [_root_digits(iv) for iv in intervals if iv.hi > 0],
        }
    if args.format == "json":
        payload = {
            "status": basis.status,
            "order": args.order,
            "variables": list(order.variables),
            "generators": [format_polynomial(g, basis.order) for g in basis.generators],
            "pairsProcessed": basis.stats.pairs_processed,
        }
        if isolation:
            payload["isolation"] = isolation
        emit_json(payload, out)
    else:
        out.write(f"status: {basis.status} ({basis.stats.pairs_processed} pairs)\n")
        out.write(f"reduced basis under {args.order} ({len(basis.generators)} generators):\n")
        for g in basis.generators:
            out.write("  " + format_polynomial(g, basis.order) + "\n")
        if isolation:
            out.write(f"univariate in {isolation['variable']} (degree {isolation['degree']}):\n")
            out.write("  " + isolation["polynomial"] + "\n")
            out.write(f"positive real roots ({len(isolation['positiveRoots'])}):\n")
            for r in isolation["positiveRoots"]:
                out.write(f"  {r}\n")
    return EXIT_BUDGET if not basis.complete else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagein",
        description="Invariant Einstein metrics on full flag manifolds K/T",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json"), default="table")

    def add_budget(p, budget: GroebnerBudget):
        text = "Groebner {} limit (default: %(default)s)"
        p.add_argument("--budget-pairs", type=int, default=budget.max_pairs, help=text.format("pair"))
        p.add_argument("--budget-bits", type=int, default=budget.max_coeff_bits, help=text.format("coefficient-bit"))

    p = sub.add_parser("roots", help="positive roots, lengths, Killing gram matrix")
    p.add_argument("group")
    add_format(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("triples", help="nonzero structure-constant triples")
    p.add_argument("group")
    add_format(p)
    p.set_defaults(func=cmd_triples)

    p = sub.add_parser("ricci", help="Ricci components of a given metric")
    p.add_argument("group")
    p.add_argument("--metric", required=True, help="comma-separated positive entries")
    add_format(p)
    p.set_defaults(func=cmd_ricci)

    p = sub.add_parser("kaehler", help="the Kaehler-Einstein metric, integer-normalized")
    p.add_argument("group")
    add_format(p)
    p.set_defaults(func=cmd_kaehler)

    p = sub.add_parser("einstein", help="solve the Einstein system")
    p.add_argument("group")
    p.add_argument("--mode", choices=("symmetric", "general", "full", "oracle"), default="oracle")
    p.add_argument("--starts", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--precision",
        type=float,
        default=1e-10,
        help="oracle residual tolerance and positivity cutoff, used by --mode oracle and full: a "
        "Newton row is rejected as soon as a coordinate is <= it; the exact branches always refine "
        "roots to 1e-40",
    )
    add_budget(p, CASE_BUDGET)
    p.add_argument("--output", help="also write the JSON report to this path")
    add_format(p)
    p.set_defaults(func=cmd_einstein)

    p = sub.add_parser("groebner", help="reduced basis of a polynomial file")
    p.add_argument("file")
    p.add_argument("--order", choices=("lex", "grevlex"), default="lex")
    p.add_argument("--vars", help="comma-separated variable priority (highest first)")
    p.add_argument("--isolate", help="isolate positive real roots of the univariate generator")
    add_budget(p, GroebnerBudget())
    add_format(p)
    p.set_defaults(func=cmd_groebner)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # argparse takes a value like -1,1 for an option; bind it to --metric
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] == "--metric" and re.match(r"-\d", token):
            tokens[-1] = f"--metric={token}"
        else:
            tokens.append(token)
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, sys.stdout)
    except (ConfigurationError, DomainError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FlageinError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
