"""The textual algebra document, the DOT export, and small input parsers.

Grammar (full description in FORMAT.md):

    field rational          # or: field prime <p>
    dim <n>
    matrix
    <n rows of n whitespace-separated scalars>

'#' starts a comment, blank lines are skipped.  Numbers are spelt with
ASCII digits only.  The matrix entry at row k, column i is the
coefficient of e_k in e_i^2, i.e. column i spells out e_i^2.  Emission
is canonical, so parse and emit are mutually inverse byte for byte.

The rows of a document or basis file repeat few distinct token texts.
Each is looked up in one table from text to scalar, a dict that calls
field.parse on a miss and keeps the value, so field.parse runs once per
distinct token and a row is read by one map over the table's lookup,
which stays in C on every hit.  An invalid token is reported where it
first occurs.  The parsed scalars are canonical, so the algebra is built
on them without a second coercion.
"""

from __future__ import annotations

from .algebra import EvolutionAlgebra
from .errors import FieldError, ParseError
from .fields import GF, QQ, parse_integer
from .graph import AssociatedGraph


def _significant_lines(text):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("invalid UTF-8 byte 0x%02x" % text[exc.start],
                             text.count(b"\n", 0, exc.start) + 1) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_field_line(line, lineno):
    tokens = line.split()
    if tokens[0] != "field":
        raise ParseError("expected 'field ...', got %r" % line, lineno)
    if tokens[1:] == ["rational"]:
        return QQ
    if len(tokens) == 3 and tokens[1] == "prime":
        try:
            p = parse_integer(tokens[2])
        except ValueError:
            raise ParseError("modulus %r is not an integer" % tokens[2], lineno) from None
        try:
            return GF(p)
        except FieldError as exc:
            raise ParseError(str(exc), lineno) from None
    raise ParseError("expected 'field rational' or 'field prime <p>', got %r" % line, lineno)


class _ScalarTable(dict):
    """Token text -> field.parse(text), a pure function of the text, filled
    on a miss: the first lookup of a text parses it and stores the value.
    A text that field.parse refuses is never stored."""

    __slots__ = ("_parse",)

    def __init__(self, parse):
        super().__init__()
        self._parse = parse

    def __missing__(self, token):
        value = self[token] = self._parse(token)
        return value


def _row_parser(field, width, noun, numbered):
    """A function from (lineno, line) to the line's row of width scalars.
    All rows it reads share one _ScalarTable, so a row is one lookup per
    token and field.parse runs once per distinct text, on its first
    lookup.  A wrong count is reported as "expected <width> <noun>", and
    an invalid scalar by its message, after "entry <k>: " when numbered,
    where k is the position of the row's first token the table does not
    hold: the tokens before it were all stored, and the refused one was
    not."""
    table = _ScalarTable(field.parse)
    lookup = table.__getitem__

    def parse_row(lineno, line):
        tokens = line.split()
        if len(tokens) != width:
            raise ParseError("expected %d %s, found %d" % (width, noun, len(tokens)), lineno)
        try:
            return tuple(map(lookup, tokens))
        except FieldError as exc:
            if numbered:
                k = next(k for k, token in enumerate(tokens, 1) if token not in table)
                raise ParseError("entry %d: %s" % (k, exc), lineno) from None
            raise ParseError(str(exc), lineno) from None

    return parse_row


def parse_document(text, field_override=None) -> EvolutionAlgebra:
    """Parse an algebra document (str or bytes).

    field_override, when given, replaces the declared field before any
    scalar is interpreted; the declared header still has to be well formed.
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError("empty document")
    cursor = 0

    def take(what):
        nonlocal cursor
        if cursor >= len(lines):
            raise ParseError("unexpected end of document, expected %s" % what,
                             lines[-1][0] if lines else None)
        item = lines[cursor]
        cursor += 1
        return item

    lineno, line = take("a field line")
    field = _parse_field_line(line, lineno)
    if field_override is not None:
        field = field_override

    lineno, line = take("a dim line")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "dim":
        raise ParseError("expected 'dim <n>', got %r" % line, lineno)
    try:
        dim = parse_integer(tokens[1])
    except ValueError:
        raise ParseError("dimension %r is not an integer" % tokens[1], lineno) from None
    if dim < 1:
        raise ParseError("dimension must be at least 1, got %d" % dim, lineno)

    lineno, line = take("the matrix header")
    if line != "matrix":
        raise ParseError("expected 'matrix', got %r" % line, lineno)

    parse_row = _row_parser(field, dim, "entries", numbered=True)
    rows = [parse_row(*take("a matrix row")) for _ in range(dim)]

    if cursor != len(lines):
        raise ParseError("unexpected trailing content %r" % lines[cursor][1], lines[cursor][0])
    return EvolutionAlgebra._from_canonical(field, tuple(zip(*rows)))


def emit_document(algebra: EvolutionAlgebra) -> str:
    """Canonical text for an algebra; parse(emit(A)) == A byte-exactly."""
    f = algebra.field
    header = "field rational" if f.kind == "rational" else "field prime %d" % f.p
    out = [header, "dim %d" % algebra.dim, "matrix"]
    for row in algebra.structure.entries:
        out.append(" ".join(map(str, row)))
    return "\n".join(out) + "\n"


def export_dot(graph: AssociatedGraph) -> str:
    """DOT text with vertices v1..vn and one edge statement per arrow,
    both in ascending order; byte-stable across runs."""
    out = ["digraph evolution {"]
    for i in range(1, graph.n + 1):
        out.append("  v%d;" % i)
    for i in range(1, graph.n + 1):
        for j in sorted(graph.out_edges(i)):
            out.append("  v%d -> v%d;" % (i, j))
    out.append("}")
    return "\n".join(out) + "\n"


def parse_vector(field, text, dim: int) -> tuple:
    """Comma-separated scalar list, e.g. '1,0,-2/3'."""
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != dim:
        raise ParseError("expected %d coordinates, found %d" % (dim, len(tokens)))
    try:
        return tuple(field.parse(t) for t in tokens)
    except FieldError as exc:
        raise ParseError(str(exc)) from None


def parse_basis_file(field, text, dim: int):
    """One vector per significant line, whitespace-separated scalars, read
    through the same self-filling token table as the matrix of a document."""
    parse_row = _row_parser(field, dim, "coordinates", numbered=False)
    return [parse_row(lineno, line) for lineno, line in _significant_lines(text)]
