"""Command-line interface.

Subcommands: analyze, decompose, simple, radical, ideal, graph, quotient,
oracle.  Exit codes: 0 success, 1 parse/validation/usage error, 2 internal
consistency failure (a bug surfaced by a cross-check, never user input).
"""

from __future__ import annotations

import argparse
import sys

from .decompose import is_simple
from .documents import (export_dot, parse_basis_file, parse_document,
                        parse_vector)
from .errors import (BudgetExceededError, DimensionError, FieldError,
                     InternalConsistencyError, ParseError, PreconditionError)
from .fields import GF, QQ
from .graph import associated_graph
from .ideals import ideal_generated_by, quotient, radical
from .linalg import subspace_from_vectors, subspace_equal
from .oracle import (ClassicalChecks, EnumerationBudget, classical_checks,
                     enumerate_ideals, radical_oracle, simple_oracle)
from .report import build_report, field_json, render_json, render_text, section


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for internal consistency failures, so usage errors
    # must leave through code 1 instead of argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="evolalg",
                     description="Exact analysis of evolution algebras "
                                 "given by their structure matrices.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p):
        p.add_argument("--input", default="-", metavar="FILE",
                       help="algebra document ('-' for stdin)")
        p.add_argument("--field", choices=("rational", "prime"),
                       help="override the document's field")
        p.add_argument("--p", type=int, metavar="P",
                       help="modulus for --field prime")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    for name, blurb in (
        ("analyze", "full report: invariants, decomposition, simplicity"),
        ("decompose", "canonical parts, fragmentation blocks, certification"),
        ("simple", "simplicity verdict with reason codes"),
        ("radical", "annihilator, absorption radical, non-degeneracy"),
        ("ideal", "basis and dimension of the ideal generated by a vector"),
        ("graph", "DOT export of the associated graph"),
        ("quotient", "quotient algebra by an ideal given through a basis file"),
        ("oracle", "brute-force cross-checks over a prime field"),
    ):
        p = sub.add_parser(name, help=blurb)
        common(p)
        if name == "ideal":
            p.add_argument("--vector", required=True, metavar="C1,C2,...",
                           help="coordinates of the generating element")
        if name == "graph":
            p.add_argument("--dot", metavar="FILE",
                           help="write DOT here instead of stdout")
        if name == "quotient":
            p.add_argument("--ideal-basis", required=True, metavar="FILE",
                           help="file with one spanning vector per line")
        if name == "oracle":
            p.add_argument("--max-vectors", type=_positive_int, default=4096,
                           help="enumeration budget on |F_p|^n (default 4096)")
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _field_override(args):
    if args.field is None and args.p is None:
        return None
    if args.field == "rational":
        if args.p is not None:
            raise _UsageError("--p makes no sense with --field rational")
        return QQ
    if args.p is None:
        raise _UsageError("--field prime needs --p")
    try:
        return GF(args.p)
    except FieldError as exc:
        raise _UsageError(str(exc))


def _load_algebra(args):
    return parse_document(_read_text(args.input), field_override=_field_override(args))


def _emit(payload: dict, as_json: bool):
    if as_json:
        sys.stdout.write(render_json(payload))
    else:
        sys.stdout.write(render_text(payload))


def _matrix_rows(field, matrix):
    return [[field.format(x) for x in row] for row in matrix.entries]


def _cmd_report(args, name):
    algebra = _load_algebra(args)
    _emit(section(build_report(algebra), name), args.json)
    return 0


def _cmd_ideal(args):
    algebra = _load_algebra(args)
    vector = parse_vector(algebra.field, args.vector, algebra.dim)
    span = ideal_generated_by(algebra, vector)
    payload = {
        "field": field_json(algebra.field),
        "dim": algebra.dim,
        "vector": [algebra.field.format(x) for x in vector],
        "ideal_dim": span.dim,
        "ideal_basis": _matrix_rows(algebra.field, span.basis),
    }
    if args.json:
        sys.stdout.write(render_json(payload))
    else:
        lines = ["vector      [%s]" % " ".join(payload["vector"]),
                 "ideal dim   %d" % span.dim]
        for row in payload["ideal_basis"]:
            lines.append("basis       [%s]" % " ".join(row))
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_graph(args):
    algebra = _load_algebra(args)
    text = export_dot(associated_graph(algebra))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_quotient(args):
    algebra = _load_algebra(args)
    vectors = parse_basis_file(algebra.field, _read_text(args.ideal_basis), algebra.dim)
    ideal = subspace_from_vectors(algebra.field, algebra.dim, vectors)
    presentation = quotient(algebra, ideal)
    f = algebra.field
    payload = {
        "field": field_json(f),
        "dim": algebra.dim,
        "ideal_dim": ideal.dim,
        "chosen": list(presentation.chosen),
        "quotient_dim": presentation.quotient.dim,
        "quotient_structure": _matrix_rows(f, presentation.quotient.structure),
        "projection": _matrix_rows(f, presentation.projection),
    }
    if args.json:
        sys.stdout.write(render_json(payload))
    else:
        lines = ["ideal dim     %d" % ideal.dim,
                 "quotient dim  %d" % presentation.quotient.dim,
                 "chosen        {%s}" % ", ".join(str(i) for i in presentation.chosen)]
        for row in payload["quotient_structure"]:
            lines.append("structure     [%s]" % " ".join(row))
        for row in payload["projection"]:
            lines.append("projection    [%s]" % " ".join(row))
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_oracle(args):
    algebra = _load_algebra(args)
    budget = EnumerationBudget(max_vectors=args.max_vectors)
    ideals = enumerate_ideals(algebra, budget)
    fast_radical = radical(algebra)
    slow_radical = radical_oracle(algebra, budget, ideals=ideals)
    radical_match = subspace_equal(fast_radical, slow_radical)
    fast_simple = bool(is_simple(algebra))
    slow_simple = simple_oracle(algebra, budget, ideals=ideals)
    checks: ClassicalChecks = classical_checks(algebra, budget, ideals=ideals)
    payload = {
        "field": field_json(algebra.field),
        "dim": algebra.dim,
        "ideal_count": len(ideals),
        "radical_match": radical_match,
        "simple": fast_simple,
        "simple_match": fast_simple == slow_simple,
        "semiprime": checks.semiprime,
        "classically_nondegenerate": checks.classically_nondegenerate,
    }
    if args.json:
        sys.stdout.write(render_json(payload))
    else:
        lines = ["ideals enumerated           %d" % payload["ideal_count"],
                 "radical matches oracle      %s" % ("yes" if radical_match else "NO"),
                 "simple matches oracle       %s" % ("yes" if payload["simple_match"] else "NO"),
                 "semiprime                   %s" % ("yes" if checks.semiprime else "no"),
                 "classically nondegenerate   %s"
                 % ("yes" if checks.classically_nondegenerate else "no")]
        sys.stdout.write("\n".join(lines) + "\n")
    if not (radical_match and payload["simple_match"]):
        print("internal consistency failure: fast path disagrees with the oracle",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        if args.command in ("analyze", "decompose", "simple", "radical"):
            return _cmd_report(args, args.command)
        if args.command == "ideal":
            return _cmd_ideal(args)
        if args.command == "graph":
            return _cmd_graph(args)
        if args.command == "quotient":
            return _cmd_quotient(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        raise _UsageError("unknown command %r" % args.command)
    except InternalConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 2
    except (ParseError, FieldError, DimensionError, PreconditionError,
            BudgetExceededError, _UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
