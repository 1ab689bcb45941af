"""Command-line interface.

Subcommands: analyze, decompose, simple, radical, ideal, graph, quotient,
oracle.  Exit codes: 0 success, 1 parse/validation/usage error, 2 internal
consistency failure (a bug surfaced by a cross-check, never user input).

main parses the flags, loads the algebra and calls the subcommand's
handler from _COMMANDS; each handler writes its output through _emit (the
graph's DOT aside).  Every exit 2 leaves through one route: a handler, or
the library below it, raises InternalConsistencyError and main prints it.

An option's value may begin with '-' when a digit, or '.' and a digit,
follows (--vector -1,0, --input -1.alg); any other argument that begins
with '-' is an option.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .decompose import is_simple
from .documents import (export_dot, parse_basis_file, parse_document,
                        parse_vector)
from .errors import EvolAlgError, FieldError, InternalConsistencyError
from .fields import GF, QQ, _texts, parse_integer
from .graph import associated_graph
from .ideals import _generated, _quotient, radical
from .linalg import subspace_equal
from .oracle import (MAX_VECTORS, ClassicalChecks, classical_checks,
                     enumerate_ideals, radical_oracle, simple_oracle)
from .report import (_braces, _brackets, _yesno, build_report, field_json,
                     render_json, render_table, render_text)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # an argument that starts with '-' and a digit, or '-.' and a digit, is
    # a value, as in --vector -1,0 or --input -1.alg; set on every parser,
    # the top-level one too, so that no Python's own default decides
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

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
                           help="write DOT here instead of stdout ('-' for stdout)")
        if name == "quotient":
            p.add_argument("--ideal-basis", required=True, metavar="FILE",
                           help="file with one spanning vector per line")
        if name == "oracle":
            p.add_argument("--max-vectors", type=_positive_int, default=MAX_VECTORS,
                           help="enumeration budget on |F_p|^n (default %d)" % MAX_VECTORS)
    return parser


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
    return [*map(_texts, matrix.entries)]


def _cmd_report(args, algebra):
    report = build_report(algebra, args.command)
    _emit(args, report, lambda: render_text(report))


def _cmd_ideal(args, algebra):
    vector = parse_vector(algebra.field, args.vector, algebra.dim)
    span = _generated(algebra, vector)  # parse_vector gives canonical coordinates
    payload = {
        "field": field_json(algebra.field),
        "dim": algebra.dim,
        "vector": _texts(vector),
        "ideal_dim": span.dim,
        "ideal_basis": _matrix_rows(span.basis),
    }
    _emit(args, payload, lambda: render_table(
        [("vector", _brackets(payload["vector"])), ("ideal dim", str(span.dim))]
        + [("basis", _brackets(row)) for row in payload["ideal_basis"]], 10))


def _cmd_graph(args, algebra):
    text = export_dot(associated_graph(algebra))
    if args.dot and args.dot != "-":  # '-' is stdout, as it is stdin for --input
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_quotient(args, algebra):
    # parse_basis_file checks each row's width and returns canonical rows
    presentation = _quotient(algebra, parse_basis_file(
        algebra.field, _read_text(args.ideal_basis), algebra.dim))
    ideal_dim = algebra.dim - presentation.quotient.dim
    payload = {
        "field": field_json(algebra.field),
        "dim": algebra.dim,
        "ideal_dim": ideal_dim,
        "chosen": list(presentation.chosen),
        "quotient_dim": presentation.quotient.dim,
        "quotient_structure": _matrix_rows(presentation.quotient.structure),
        "projection": _matrix_rows(presentation.projection),
    }
    _emit(args, payload, lambda: render_table(
        [("ideal dim", str(ideal_dim)),
         ("quotient dim", str(presentation.quotient.dim)),
         ("chosen", _braces(presentation.chosen))]
        + [("structure", _brackets(row)) for row in payload["quotient_structure"]]
        + [("projection", _brackets(row)) for row in payload["projection"]], 12))


def _cmd_oracle(args, algebra):
    ideals = enumerate_ideals(algebra, args.max_vectors)
    radical_match = subspace_equal(radical(algebra), radical_oracle(algebra, args.max_vectors))
    fast_simple = bool(is_simple(algebra))
    simple_match = fast_simple == simple_oracle(algebra, args.max_vectors)
    checks: ClassicalChecks = classical_checks(algebra, args.max_vectors)
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
    try:
        args = parser.parse_args(argv)
        field = _field_override(args)
        if getattr(args, "ideal_basis", None) == args.input == "-":
            raise _UsageError("--input and --ideal-basis cannot both read stdin")
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        algebra = parse_document(_read_text(args.input), field_override=field)
        _COMMANDS[args.command][1](args, algebra)
    except InternalConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 2
    except (EvolAlgError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
