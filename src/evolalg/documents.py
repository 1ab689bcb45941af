"""The textual algebra document, the DOT export, and small input parsers.

Grammar (full description in FORMAT.md):

    field rational          # or: field prime <p>
    dim <n>
    matrix
    <n rows of n whitespace-separated scalars>

Lines end at \\n, \\r\\n or \\r alone.  '#' starts a comment, blank lines
are skipped.  Numbers are spelt with ASCII digits only.  The matrix entry
at row k, column i is the coefficient of e_k in e_i^2, i.e. column i
spells out e_i^2.  Emission is canonical, so parse and emit are mutually
inverse byte for byte, up to CPython's limit on digits in an int
conversion (4,300 by default): emit writes an entry of any size, and parse
refuses one with a longer numerator or denominator.

A chain-start index is a zero row of M_B, read by one string compare
when spelt "0 0 ... 0".  The other rows of a document or basis file are
read by one of two routes, both in C-level builtins.  By default each
token is looked up in one table from text to scalar, a dict that calls
field.parse on a miss and keeps the value, so field.parse runs once per
distinct token and a row is one map over the table's lookup.  That pays
where texts repeat, as in sparse matrices.  Over a prime field, where the
first row that is not the zero row holds more than width/2 distinct texts,
so that the texts rarely repeat, all rows are joined and read by one call
of the C JSON scanner, and reduced mod p only where an entry reaches p.
A block that holds anything but ASCII digits and single spaces, a leading
zero, more digits than CPython converts, or a row of the wrong count goes
whole through the table, which reports an invalid token where it first
occurs.  The parsed scalars are canonical, so the algebra is built on them
without a second coercion.
"""

from __future__ import annotations

import json

from .algebra import EvolutionAlgebra
from .errors import FieldError, ParseError
from .fields import GF, QQ, _texts, parse_integer
from .graph import AssociatedGraph


def _significant_lines(text):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the line ends before the bad byte, counted as below: a \r\n
            # is one end, and the bad byte is no \n that could pair with a
            # \r just before it
            before = text[:exc.start]
            ends = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
            raise ParseError("invalid UTF-8 byte 0x%02x" % text[exc.start], ends + 1) from None
    # not splitlines(): it also ends a line at U+2028, \v, \f and others
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
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


# on "[[" + rows of digits joined by commas, joined by "],[" + "]]" the C
# scanner can give only a list of lists of non-negative ints; it refuses a
# leading zero, an empty token and more digits than CPython converts
_decode = json.JSONDecoder().raw_decode


def _scanned(texts, width, p):
    """The rows of the lines texts, read by one call of the C JSON scanner
    as tuples of ints in [0, p), or None where the scanner does not read
    them.

    Lines made of nothing but ASCII digits and spaces, found by one
    isascii and one bytes.translate that deletes them from the lines
    joined by spaces, become a JSON array of arrays when joined by "],["
    with each space made a comma, and one scanner call reads it into lists
    of ints without making a string per token.  On such a text JSON
    accepts exactly the digit runs without a leading zero, each as what
    field.parse gives once reduced mod p; a row is reduced by one more map
    only when an entry reaches p.  The check runs on the lines before the
    separators go in, so a comma or a bracket in a line is refused, and no
    line can end a row or the array early.  The scanner refuses a leading
    zero, two spaces in a row and more digits than CPython converts, and a
    row read to other than width entries is refused after it."""
    block = " ".join(texts)
    if not block.isascii() or block.encode().translate(None, b"0123456789 "):
        return None
    try:
        rows = _decode("[[" + "],[".join(texts).replace(" ", ",") + "]]")[0]
    except ValueError:  # a leading zero, two spaces in a row, or over CPython's digit limit
        rows = ()
    # x % p for each x, where an entry reaches p
    return ([tuple(map(p.__rmod__, row)) if max(row) >= p else tuple(row) for row in rows]
            if set(map(len, rows)) == {width} else None)


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
    """A function from a list of (lineno, line) pairs to their rows, each a
    tuple of width scalars.

    A zero row " ".join(["0"] * width), a chain-start index, is one
    compare.  Over F_p, when the first line that is not a zero row holds
    more than width/2 distinct texts, the texts rarely repeat, and the
    block route of _scanned reads all the lines in one scanner call.  When
    it refuses them, and over QQ or where texts repeat, every line goes by
    the table route, which reads every value and reports every error: a
    zero row is one shared tuple, and any other line's tokens are looked
    up in one _ScalarTable that all rows share, so field.parse runs once
    per distinct text, on its first lookup.  Both routes give the same
    rows, so the choice is one of speed alone.

    A wrong count is reported as "expected <width> <noun>", and an invalid
    scalar by its message, after "entry <k>: " when numbered, where k is
    the position of the row's first token the table does not hold: the
    tokens before it were all stored, and the refused one was not."""
    table = _ScalarTable(field.parse)
    # made once a line is as long as the zero row, so a width that no line
    # reaches costs nothing
    zero_line = zero_row = None

    def is_zero(line):
        nonlocal zero_line, zero_row
        if zero_line is None and len(line) == 2 * width - 1:
            zero_line, zero_row = " ".join(["0"] * width), (field.zero,) * width
        return line == zero_line

    def parse_row(lineno, line):
        if is_zero(line):
            return zero_row
        tokens = line.split()
        if len(tokens) != width:
            raise ParseError("expected %d %s, found %d" % (width, noun, len(tokens)), lineno)
        try:
            return tuple(map(table.__getitem__, tokens))
        except FieldError as exc:
            if numbered:
                k = next(k for k, token in enumerate(tokens, 1) if token not in table)
                raise ParseError("entry %d: %s" % (k, exc), lineno) from None
            raise ParseError(str(exc), lineno) from None

    def parse_rows(lines):
        first = next((line for _, line in lines if not is_zero(line)), "")
        rows = (_scanned([line for _, line in lines], width, field.p)
                if field.kind == "prime" and 2 * len(set(first.split())) > width else None)
        return rows or [parse_row(lineno, line) for lineno, line in lines]

    return parse_rows


def parse_document(text, field_override=None) -> EvolutionAlgebra:
    """Parse an algebra document (str or bytes).

    field_override, when given, replaces the declared field before any
    scalar is interpreted; the declared header still has to be well formed.
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError("empty document")

    def line_at(k, what):
        if k >= len(lines):
            raise ParseError("unexpected end of document, expected %s" % what, lines[-1][0])
        return lines[k]

    lineno, line = line_at(0, "a field line")
    field = _parse_field_line(line, lineno)
    if field_override is not None:
        field = field_override

    lineno, line = line_at(1, "a dim line")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "dim":
        raise ParseError("expected 'dim <n>', got %r" % line, lineno)
    try:
        dim = parse_integer(tokens[1])
    except ValueError:
        raise ParseError("dimension %r is not an integer" % tokens[1], lineno) from None
    if dim < 1:
        raise ParseError("dimension must be at least 1, got %d" % dim, lineno)

    lineno, line = line_at(2, "the matrix header")
    if line != "matrix":
        raise ParseError("expected 'matrix', got %r" % line, lineno)

    rows = _row_parser(field, dim, "entries", numbered=True)(lines[3:3 + dim])
    if len(rows) < dim:  # reported after an error in a row that is present
        line_at(len(lines), "a matrix row")
    if len(lines) > 3 + dim:
        raise ParseError("unexpected trailing content %r" % lines[3 + dim][1], lines[3 + dim][0])
    return EvolutionAlgebra._from_canonical(field, tuple(zip(*rows)))


def emit_document(algebra: EvolutionAlgebra) -> str:
    """Canonical text for an algebra; parse(emit(A)) == A byte-exactly
    while no entry has a numerator or denominator of more digits than
    CPython converts (4,300 by default).  Such an entry is written in full,
    and parse_document refuses it ("scalar of N characters exceeds the
    digit limit")."""
    f = algebra.field
    header = "field rational" if f.kind == "rational" else "field prime %d" % f.p
    out = [header, "dim %d" % algebra.dim, "matrix"]
    for row in algebra.structure.entries:
        out.append(" ".join(_texts(row)))
    return "\n".join(out) + "\n"


def export_dot(graph: AssociatedGraph) -> str:
    """DOT text with vertices v1..vn and one edge statement per arrow,
    both in ascending order, the order of the graph's out-lists;
    byte-stable across runs."""
    out = ["digraph evolution {"]
    for i in range(1, graph.n + 1):
        out.append("  v%d;" % i)
    for i, targets in enumerate(graph._out, start=1):
        for j in targets:
            out.append("  v%d -> v%d;" % (i, j))
    out.append("}")
    return "\n".join(out) + "\n"


def parse_vector(field, text, dim: int) -> tuple:
    """Comma-separated scalar list, e.g. '1,0,-2/3', read through one
    _ScalarTable as the rows of documents and basis files are: field.parse
    runs once per distinct token."""
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != dim:
        raise ParseError("expected %d coordinates, found %d" % (dim, len(tokens)))
    try:
        return tuple(map(_ScalarTable(field.parse).__getitem__, tokens))
    except FieldError as exc:
        raise ParseError(str(exc)) from None


def parse_basis_file(field, text, dim: int):
    """One vector per significant line, whitespace-separated scalars, read
    through the same self-filling token table as the matrix of a document."""
    return _row_parser(field, dim, "coordinates", numbered=False)(list(_significant_lines(text)))
