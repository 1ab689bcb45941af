"""Command-line interface.

Subcommands: analyze, decompose, simple, radical, ideal, graph, quotient,
oracle.  Exit codes: 0 success, 1 parse/validation/usage error, 2 internal
consistency failure (a bug surfaced by a cross-check, never user input).

main parses the flags, loads the algebra and calls the subcommand's
handler from _COMMANDS; each handler writes its output through _emit (the
graph's DOT aside).  Every exit 2 leaves through one route: a handler, or
the library below it, raises InternalConsistencyError and main prints it.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .decompose import is_simple
from .documents import (export_dot, parse_basis_file, parse_document,
                        parse_vector)
from .errors import (BudgetExceededError, DimensionError, FieldError,
                     InternalConsistencyError, ParseError, PreconditionError)
from .fields import GF, QQ, parse_integer
from .graph import associated_graph
from .ideals import ideal_generated_by, quotient, radical
from .linalg import subspace_from_vectors, subspace_equal
from .oracle import (ClassicalChecks, EnumerationBudget, classical_checks,
                     enumerate_ideals, radical_oracle, simple_oracle)
from .report import (_braces, _brackets, _yesno, build_report, field_json,
                     render_json, render_table, render_text)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for a cross-check that caught the library
    # disagreeing with itself, so usage errors must leave through code 1
    # instead of argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _integer(text: str) -> int:
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
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
        p.add_argument("--p", type=_integer, metavar="P",
                       help="modulus for --field prime")

    for name, (blurb, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        common(p)
        if name != "graph":  # DOT is the graph's one output form
            p.add_argument("--json", action="store_true",
                           help="machine-readable output")
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


_NEGATIVE_VALUE = re.compile(r"-[0-9]")


def _join_vector_values(argv):
    """argv with each `--vector V` whose V starts with '-' and a digit
    joined into `--vector=V`.  argparse reads a token that starts with '-'
    as an option unless it is a plain negative number, so `--vector -1,0`
    would lose its value; the joined form is read as the value.  Only the
    ideal subcommand has --vector; argparse also takes the abbreviations
    --v ... --vecto, which no other option of ideal starts with."""
    if next((t for t in argv if not t.startswith("-")), None) != "ideal":
        return argv
    joined, k = [], 0
    while k < len(argv):
        token = argv[k]
        if token == "--":  # everything after it is positional
            return joined + argv[k:]
        if (token.startswith("--v") and "--vector".startswith(token)
                and k + 1 < len(argv) and _NEGATIVE_VALUE.match(argv[k + 1])):
            k += 1
            token += "=" + argv[k]
        joined.append(token)
        k += 1
    return joined


def _read_text(path: str) -> bytes:
    """stdin or a file as bytes; the parsers decode them as UTF-8."""
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
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


def _emit(args, payload: dict, text):
    """Write payload as JSON under --json, else the text that the
    zero-argument callable text builds; --json builds no text."""
    sys.stdout.write(render_json(payload) if args.json else text())


def _matrix_rows(matrix):
    return [list(map(str, row)) for row in matrix.entries]


def _cmd_report(args, algebra):
    report = build_report(algebra, args.command)
    _emit(args, report, lambda: render_text(report))


def _cmd_ideal(args, algebra):
    vector = parse_vector(algebra.field, args.vector, algebra.dim)
    span = ideal_generated_by(algebra, vector)
    payload = {
        "field": field_json(algebra.field),
        "dim": algebra.dim,
        "vector": list(map(str, vector)),
        "ideal_dim": span.dim,
        "ideal_basis": _matrix_rows(span.basis),
    }
    _emit(args, payload, lambda: render_table(
        [("vector", _brackets(payload["vector"])), ("ideal dim", str(span.dim))]
        + [("basis", _brackets(row)) for row in payload["ideal_basis"]], 10))


def _cmd_graph(args, algebra):
    text = export_dot(associated_graph(algebra))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_quotient(args, algebra):
    vectors = parse_basis_file(algebra.field, _read_text(args.ideal_basis), algebra.dim)
    ideal = subspace_from_vectors(algebra.field, algebra.dim, vectors)
    presentation = quotient(algebra, ideal)
    payload = {
        "field": field_json(algebra.field),
        "dim": algebra.dim,
        "ideal_dim": ideal.dim,
        "chosen": list(presentation.chosen),
        "quotient_dim": presentation.quotient.dim,
        "quotient_structure": _matrix_rows(presentation.quotient.structure),
        "projection": _matrix_rows(presentation.projection),
    }
    _emit(args, payload, lambda: render_table(
        [("ideal dim", str(ideal.dim)),
         ("quotient dim", str(presentation.quotient.dim)),
         ("chosen", _braces(presentation.chosen))]
        + [("structure", _brackets(row)) for row in payload["quotient_structure"]]
        + [("projection", _brackets(row)) for row in payload["projection"]], 12))


def _cmd_oracle(args, algebra):
    budget = EnumerationBudget(max_vectors=args.max_vectors)
    ideals = enumerate_ideals(algebra, budget)
    fast_radical = radical(algebra)
    slow_radical = radical_oracle(algebra, budget, ideals=ideals)
    radical_match = subspace_equal(fast_radical, slow_radical)
    fast_simple = bool(is_simple(algebra))
    slow_simple = simple_oracle(algebra, budget, ideals=ideals)
    simple_match = fast_simple == slow_simple
    checks: ClassicalChecks = classical_checks(algebra, budget, ideals=ideals)
    payload = {
        "field": field_json(algebra.field),
        "dim": algebra.dim,
        "ideal_count": len(ideals),
        "radical_match": radical_match,
        "simple": fast_simple,
        "simple_match": simple_match,
        "semiprime": checks.semiprime,
        "classically_nondegenerate": checks.classically_nondegenerate,
    }
    _emit(args, payload, lambda: render_table([
        ("ideals enumerated", str(len(ideals))),
        ("radical matches oracle", "yes" if radical_match else "NO"),
        ("simple matches oracle", "yes" if simple_match else "NO"),
        ("semiprime", _yesno(checks.semiprime)),
        ("classically nondegenerate", _yesno(checks.classically_nondegenerate))], 26))
    if not (radical_match and simple_match):
        raise InternalConsistencyError("fast path disagrees with the oracle")


# Each subcommand's help line and handler, in the order --help lists them.
_COMMANDS = {
    "analyze": ("full report: invariants, decomposition, simplicity", _cmd_report),
    "decompose": ("canonical parts, fragmentation blocks, certification", _cmd_report),
    "simple": ("simplicity verdict with reason codes", _cmd_report),
    "radical": ("annihilator, absorption radical, non-degeneracy", _cmd_report),
    "ideal": ("basis and dimension of the ideal generated by a vector", _cmd_ideal),
    "graph": ("DOT export of the associated graph", _cmd_graph),
    "quotient": ("quotient algebra by an ideal given through a basis file", _cmd_quotient),
    "oracle": ("brute-force cross-checks over a prime field", _cmd_oracle),
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_vector_values(argv))
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        algebra = parse_document(_read_text(args.input),
                                 field_override=_field_override(args))
        _COMMANDS[args.command][1](args, algebra)
    except InternalConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 2
    except (ParseError, FieldError, DimensionError, PreconditionError,
            BudgetExceededError, _UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
