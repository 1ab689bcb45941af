from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from evolalg import (GF, QQ, AssociatedGraph, EvolutionAlgebra, FieldError,
                     ParseError, associated_graph, documents)
from evolalg.documents import (emit_document, export_dot, parse_basis_file,
                               parse_document, parse_vector)
from support import (ALL_REFERENCE_BUILDERS, FIXED, fan_to_swap_pair,
                     is_canonical, make_rng, matrix, out_edge_sets, random_algebra)

GOLDEN_DOC = """\
# chain into a two-cycle with one dead branch
field rational
dim 4
matrix
0 0 0 0
1 0 0 0
1 0 0 5
0 0 -2 0
"""


def test_parse_golden_document():
    a = parse_document(GOLDEN_DOC)
    assert a == fan_to_swap_pair()
    assert out_edge_sets(associated_graph(a)) == ({2, 3}, set(), {4}, {3})
    # bytes are accepted as well
    assert parse_document(GOLDEN_DOC.encode()) == a


def test_parse_prime_document_and_override():
    text = "field prime 5\ndim 2\nmatrix\n-2 1/2\n7 0\n"
    a = parse_document(text)
    assert a.field == GF(5)
    assert a.structure.entries == ((3, 3), (2, 0))
    # the override reinterprets the scalars before parsing
    b = parse_document(GOLDEN_DOC, field_override=GF(3))
    assert b.field == GF(3)
    assert b.square_of_basis(3) == b.element((0, 0, 0, 1))  # -2 = 1 mod 3


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007)])
@FIXED
@given(tokens=st.lists(st.sampled_from(["0", "0", "1", "-2", "3/4", " 5", "5 ", "-0", "10007"]),
                       min_size=1, max_size=12))
def test_parse_vector_parses_each_distinct_token_once(field, tokens):
    calls = Counter()

    def parse(text):
        calls[text] += 1
        return field.parse(text)

    got = parse_vector(SimpleNamespace(parse=parse), ",".join(tokens), len(tokens))
    assert got == tuple(field.parse(t) for t in tokens)
    assert calls == Counter(set(t.strip() for t in tokens))


@pytest.mark.parametrize("field,text,dim,message", [
    (QQ, "1,x,3", 3, "invalid scalar 'x'"),
    (QQ, "1/0,1", 2, "zero denominator in '1/0'"),
    (GF(7), "1, 2/7", 2, "denominator of '2/7' vanishes mod 7"),
    (GF(7), "2/7,2/7", 2, "denominator of '2/7' vanishes mod 7"),
    (QQ, "1,2", 3, "expected 3 coordinates, found 2"),
    (GF(7), "1,2,3", 2, "expected 2 coordinates, found 3"),
])
def test_parse_vector_error_texts(field, text, dim, message):
    with pytest.raises(ParseError) as err:
        parse_vector(field, text, dim)
    assert str(err.value) == message and err.value.line is None


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("field rational\ndim 0\nmatrix\n", "at least 1"),
    ("field rational\ndim 1\nmatrix\n1/0\n", "denominator"),
    ("field prime 6\ndim 1\nmatrix\n1\n", "not prime"),
    ("field prime x\ndim 1\nmatrix\n1\n", "not an integer"),
    ("field rational\ndim 2\nmatrix\n1 2 3\n0 1\n", "expected 2 entries"),
    # the first row is all new texts, so the scanner reads the block, and
    # the table reports the count of the second row
    ("field prime 7\ndim 2\nmatrix\n1 2\n3 4 5\n", "line 5: expected 2 entries, found 3"),
    ("field rational\ndim 2\nmatrix\n1 2\n", "unexpected end"),
    # every row present is read before a missing one is reported
    ("field rational\ndim 3\nmatrix\n1 0 0\n0 x 0\n", "line 5: entry 2: invalid scalar 'x'"),
    ("field prime 7\ndim 3\nmatrix\n1 2 3\n0 0 0\n",
     "line 5: unexpected end of document, expected a matrix row"),
    # a width far past any line builds no zero row of that width
    ("field rational\ndim %d\nmatrix\n0 0\n" % 10 ** 30, "line 4: expected %d entries" % 10 ** 30),
    ("field rational\ndim 1\nmatrix\n1\nextra\n", "trailing"),
    ("field rational\ndim 1\nmatrx\n1\n", "line 3: expected 'matrix', got 'matrx'"),
    ("field rational\ndim 2 2\nmatrix\n1\n", "line 2: expected 'dim <n>', got 'dim 2 2'"),
    ("field complex\ndim 1\nmatrix\n1\n", "field"),
    ("dim 1\nmatrix\n1\n", "field"),
    ("field rational\ndim 1\nmatrix\n0.5\n", "invalid scalar"),
])
def test_parse_rejects_malformed_documents(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert fragment in str(err.value)


def test_parse_error_reports_line_numbers():
    text = "field rational\ndim 2\nmatrix\n1 0\n0 1/0\n"
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.line == 5
    assert "entry 2" in str(err.value)


def test_round_trip_on_reference_algebras():
    for build in ALL_REFERENCE_BUILDERS:
        a = build()
        text = emit_document(a)
        assert parse_document(text) == a
        assert emit_document(parse_document(text)) == text  # byte-exact


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)])
def test_round_trip_on_random_algebras(field):
    rng = make_rng(606060)
    for _ in range(40):
        a = random_algebra(rng, field, rng.randrange(1, 7))
        assert parse_document(emit_document(a)) == a


def test_round_trip_holds_up_to_the_digit_limit():
    # emission writes an entry of any size in full, and parsing refuses one
    # with more digits than CPython converts (4,300 by default), so the
    # round trip holds up to that limit and no further
    at_limit = EvolutionAlgebra.from_squares(QQ, [[-(10 ** 4300 - 1), 0],
                                                  [Fraction(1, 10 ** 4300 - 1), 1]])
    text = emit_document(at_limit)
    assert parse_document(text) == at_limit and emit_document(parse_document(text)) == text
    past = emit_document(EvolutionAlgebra.from_squares(QQ, [[10 ** 5000]]))
    assert past == "field rational\ndim 1\nmatrix\n1" + "0" * 5000 + "\n"
    with pytest.raises(ParseError, match="^line 4: entry 1: scalar of 5001 characters "
                                         "exceeds the digit limit$"):
        parse_document(past)


def test_export_dot_golden():
    edgeless = AssociatedGraph.from_edges(2, [])
    assert export_dot(edgeless) == "digraph evolution {\n  v1;\n  v2;\n}\n"

    g = AssociatedGraph.from_edges(4, [(1, 2), (1, 3), (3, 4), (4, 3)])
    expected = ("digraph evolution {\n"
                "  v1;\n  v2;\n  v3;\n  v4;\n"
                "  v1 -> v2;\n  v1 -> v3;\n  v3 -> v4;\n  v4 -> v3;\n"
                "}\n")
    assert export_dot(g) == expected
    assert export_dot(g) == export_dot(g)  # byte-stable

    # a frozenset of {9, 2} iterates 9 first; the edges still print ascending,
    # on the checked constructor and on the graph read off an algebra alike
    nine = AssociatedGraph([{9, 2}] + [set()] * 8)
    square = tuple(int(j in (2, 9)) for j in range(1, 10))
    a = EvolutionAlgebra.from_squares(GF(7), [square] + [(0,) * 9] * 8)
    for graph in (nine, associated_graph(a)):
        assert graph == nine
        assert export_dot(graph).endswith("  v9;\n  v1 -> v2;\n  v1 -> v9;\n}\n")


def test_parser_survives_random_garbage():
    # any byte salad must come back as a ParseError, never something else
    rng = make_rng(424242)
    alphabet = "field prime rational dim matrix 0123456789/-# \n.x"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        try:
            parse_document(text)
        except ParseError:
            pass


def test_non_utf8_bytes_are_a_parse_error():
    with pytest.raises(ParseError, match="line 1: invalid UTF-8 byte 0xff"):
        parse_document(b"\xff")
    with pytest.raises(ParseError, match="line 2: invalid UTF-8 byte 0xe9"):
        parse_document(b"field rational\ndim 1 # caf\xe9\nmatrix\n1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_basis_file(QQ, b"1 0\n\xff 1\n", 2)
    # valid UTF-8 bytes parse like the text they encode
    assert parse_document(GOLDEN_DOC.encode("utf-8")) == parse_document(GOLDEN_DOC)


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_invalid_utf8_byte_is_placed_on_the_line_the_parser_numbers(end):
    # the bad byte is on line 5 under every line end; the same document
    # with x in its place is refused on line 5 too, after decoding
    lines = [b"field rational", b"# note", b"dim 1", b"matrix", b"\xff", b""]
    with pytest.raises(ParseError) as err:
        parse_document(end.join(lines))
    assert (err.value.line, str(err.value)) == (5, "line 5: invalid UTF-8 byte 0xff")
    lines[4] = b"x"
    with pytest.raises(ParseError) as err:
        parse_document(end.join(lines))
    assert err.value.line == 5
    # mixed ends: \r\n, \r, \r, \n, \r before the byte on line 6
    with pytest.raises(ParseError, match="^line 6: invalid UTF-8 byte 0xe9$"):
        parse_document(b"field rational\r\n\r\rdim 1\nmatrix\r\xe9\r\n")
    with pytest.raises(ParseError, match="^line 3: invalid UTF-8 byte 0xff$"):
        parse_basis_file(QQ, b"1 0\r\r\n\xff 1\r", 2)


def test_one_leading_byte_order_mark_is_skipped():
    # EF BB BF, as Windows editors start a file, in bytes and in text; an
    # invalid byte after it is still placed on its line, and a second mark
    # is text
    bom = b"\xef\xbb\xbf"
    data = GOLDEN_DOC.encode("utf-8")
    assert parse_document(bom + data) == parse_document(bom.decode() + GOLDEN_DOC) \
        == parse_document(data)
    assert parse_basis_file(QQ, bom + b"1 0\n0 1\n", 2) == [(1, 0), (0, 1)]
    with pytest.raises(ParseError, match="^line 2: invalid UTF-8 byte 0xff$"):
        parse_document(bom + b"field rational\n\xff\n")
    with pytest.raises(ParseError, match="^line 1: expected 'field ...'"):
        parse_document(bom + bom + data)


def test_parse_vector_and_basis_file():
    assert parse_vector(QQ, "1,0,-2/3", 3) == (QQ.one, QQ.zero, QQ.parse("-2/3"))
    with pytest.raises(ParseError):
        parse_vector(QQ, "1,2", 3)
    with pytest.raises(ParseError):
        parse_vector(QQ, "1,x,3", 3)

    text = "# basis of the entangled ideal\n1 1 0\n0 1 1\n"
    assert parse_basis_file(QQ, text, 3) == [(1, 1, 0), (0, 1, 1)]
    with pytest.raises(ParseError):
        parse_basis_file(QQ, "1 2\n", 3)


@pytest.mark.parametrize("text,fragment", [
    ("field rational\ndim 1\nmatrix\n\u0663\n", "line 4: entry 1: invalid scalar"),
    ("field rational\ndim 1\nmatrix\n1/\uff12\n", "line 4: entry 1: invalid scalar"),
    ("field rational\ndim 2\nmatrix\n1 0\n0 \uff11\n", "line 5: entry 2: invalid scalar"),
    ("field prime 1_1\ndim 1\nmatrix\n1\n", "line 1: modulus '1_1' is not an integer"),
    ("field prime \u0667\ndim 1\nmatrix\n1\n", "line 1: modulus"),
    ("field rational\ndim 1_0\nmatrix\n", "line 2: dimension '1_0' is not an integer"),
    ("field rational\ndim \uff12\nmatrix\n1 0\n0 1\n", "line 2: dimension"),
], ids=["arabic-indic-entry", "fullwidth-denominator", "fullwidth-entry",
        "separator-modulus", "arabic-indic-modulus", "separator-dim", "fullwidth-dim"])
def test_numbers_are_ascii_digits_only(text, fragment):
    # int() and the regex class \d would take any Unicode decimal digit,
    # int() also '_' separators
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert fragment in str(err.value)


def test_signs_and_leading_zeros_stay_valid_in_headers():
    a = parse_document("field prime +07\ndim 02\nmatrix\n+1 01\n-0 2/2\n")
    assert a == parse_document("field prime 7\ndim 2\nmatrix\n1 1\n0 1\n")


# spellings of a few values, several per value, so that a document repeats
# token texts and also spells one value in more than one way
SPELLINGS = ("0", "-0", "+0", "00", "0/3", "1", "+1", "01", "2/2", "-1",
             "-01", "2", "+2", "4/2", "1/2", "2/4", "-3/6", "7", "10", "1/7")
INVALID = ("x", "1/0", "0.5", "--1", "1_0", "\u0663", "\uff11")
FIELDS = (QQ, GF(2), GF(3), GF(7), GF(10007))
# the canonical zero row of width n >= 2 spelt otherwise: each is read by
# split() and the token table, as any other row
ZERO_NEAR_MISSES = {
    "00": lambda n: " ".join(["00"] + ["0"] * (n - 1)),
    "-0": lambda n: " ".join(["0"] * (n - 1) + ["-0"]),
    "0/3": lambda n: " ".join(["0/3"] + ["0"] * (n - 1)),
    "two spaces": lambda n: "0  " + " ".join(["0"] * (n - 1)),
    "tab": lambda n: "0\t" + " ".join(["0"] * (n - 1)),
    "one short": lambda n: " ".join(["0"] * (n - 1)),
    "one long": lambda n: " ".join(["0"] * (n + 1)),
    "comment": lambda n: " ".join(["0"] * n) + " # comment",
}


@st.composite
def token_rows(draw):
    """An n x n grid of tokens drawn from a small pool, so tokens repeat;
    an invalid token, when there is one, may occur several times."""
    n = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=5))
    if draw(st.booleans()):
        pool.append(draw(st.sampled_from(INVALID)))
    return [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]


@st.composite
def document_lines(draw):
    """The lines of token_rows, some of them made the canonical zero row:
    the first now and then, and one right after a row of new texts, digit
    strings no row holds, so that over GF(10007) that row picks the block
    route when it is the first that is not the zero row; and, where
    n >= 2, some made a near miss of it."""
    rows = draw(token_rows())
    n = len(rows)
    lines = [" ".join(row) for row in rows]
    zero = " ".join(["0"] * n)
    if draw(st.booleans()):
        lines[0] = zero
    if n == 1:
        return lines
    for k in draw(st.sets(st.integers(min_value=0, max_value=n - 2), max_size=2)):
        lines[k] = " ".join(str(1000 + n * k + j) for j in range(n))
        lines[k + 1] = zero
    for k in draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2)):
        lines[k] = ZERO_NEAR_MISSES[draw(st.sampled_from(sorted(ZERO_NEAR_MISSES)))](n)
    return lines


def document_text(field, rows):
    return document_of_lines(field, [" ".join(row) for row in rows])


def document_of_lines(field, lines):
    header = "field rational" if field.kind == "rational" else "field prime %d" % field.p
    return "\n".join([header, "dim %d" % len(lines), "matrix"] + lines) + "\n"


def reference_rows(field, rows, first_line, numbered):
    """field.parse on every token in order: the rows, or the ParseError of
    the first token it refuses."""
    out = []
    for r, row in enumerate(rows):
        values = []
        for pos, token in enumerate(row, start=1):
            try:
                values.append(field.parse(token))
            except FieldError as exc:
                message = "entry %d: %s" % (pos, exc) if numbered else str(exc)
                return ParseError(message, first_line + r)
        out.append(tuple(values))
    return out


def counted_parses(monkeypatch, field):
    calls = []
    parse = type(field).parse

    def counting_parse(self, text):
        calls.append(text)
        return parse(self, text)

    monkeypatch.setattr(type(field), "parse", counting_parse)
    return calls


@FIXED
@given(field=st.sampled_from(FIELDS), lines=document_lines())
@example(field=QQ, lines=[ZERO_NEAR_MISSES["00"](3), "0 0 0", "1 0 0"])
@example(field=GF(2), lines=["0 0 0", ZERO_NEAR_MISSES["-0"](3), "1 0 1"])
@example(field=GF(7), lines=["1 2 3", ZERO_NEAR_MISSES["0/3"](3), "0 0 0"])
@example(field=GF(10007), lines=["11 12 13", ZERO_NEAR_MISSES["two spaces"](3), "0 0 0"])
@example(field=GF(10007), lines=["0 0 0", ZERO_NEAR_MISSES["tab"](3), "4 5 6"])
@example(field=QQ, lines=["0 0 0", "1 1 1", ZERO_NEAR_MISSES["one short"](3)])
@example(field=GF(7), lines=["11 12 13", ZERO_NEAR_MISSES["one long"](3), "0 0 0"])
@example(field=GF(10007), lines=["11 12 13", ZERO_NEAR_MISSES["comment"](3), "1 2 3"])
def test_parse_document_equals_a_per_token_parse(field, lines):
    # reference: field.parse on every entry, in document order; the first
    # row of the wrong count, or the first token that field.parse refuses,
    # names the line (and the entry) of the error
    rows = [line.split("#", 1)[0].split() for line in lines]
    n = len(rows)
    short = next((r for r, row in enumerate(rows) if len(row) != n), None)
    expected = reference_rows(field, rows[:short], 4, numbered=True)
    if short is not None and not isinstance(expected, ParseError):
        expected = ParseError("expected %d entries, found %d" % (n, len(rows[short])), 4 + short)
    text = document_of_lines(field, lines)
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.line, str(err.value)) == (expected.line, str(expected))
        return
    entries = parse_document(text).structure.entries
    assert entries == tuple(expected)
    # equal values are not enough: 1 == Fraction(1), so check the types too
    assert all(is_canonical(field, x) for row in entries for x in row)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_field_parse_runs_once_per_distinct_matrix_token(monkeypatch, field):
    calls = counted_parses(monkeypatch, field)
    rows = [["0", "1", "0", "-1"], ["0", "0", "+1", "1"],
            ["1/2", "0", "0", "0"], ["0", "1", "1/2", "0"]]
    a = parse_document(document_text(field, rows))
    assert sorted(calls) == sorted({t for row in rows for t in row})
    assert a.structure.entries[1][2] == field.one  # "+1" and "1" agree


@pytest.mark.parametrize("field", [QQ, GF(2), GF(10007)])
def test_canonical_zero_rows_are_read_with_no_field_parse(monkeypatch, field):
    # a chain-start index is a zero row of M_B, written "0 0 ... 0": that
    # text comes back as one shared row of zeros, with no split and no
    # field.parse, in a document and in a basis file
    calls = counted_parses(monkeypatch, field)
    a = parse_document(document_text(field, [["0"] * 4] * 4))
    assert a.structure.entries == ((field.zero,) * 4,) * 4 and calls == []
    assert all(is_canonical(field, x) for row in a.structure.entries for x in row)
    assert parse_basis_file(field, "0 0 0\n# none\n0 0 0\n", 3) == [(field.zero,) * 3] * 2
    assert calls == []
    # another spelling of it is read by the table, which parses each text once
    assert parse_basis_file(field, "00 0 0\n0  0 0\n", 3) == [(field.zero,) * 3] * 2
    assert sorted(calls) == ["0", "00"]


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_parse_document_coerces_no_entry(monkeypatch, field):
    calls = []
    coerce = type(field).coerce

    def counting_coerce(self, value):
        calls.append(value)
        return coerce(self, value)

    monkeypatch.setattr(type(field), "coerce", counting_coerce)
    rows = [["0", "1", "0", "-1"], ["0", "0", "+1", "8"],
            ["1/2", "0", "0", "0"], ["0", "1", "1/2", "0"]]
    a = parse_document(document_text(field, rows))
    assert calls == []
    # the public constructor still coerces, and builds the same algebra
    raw = matrix([[field.parse(t) for t in row] for row in rows])
    assert EvolutionAlgebra(field, raw) == a
    assert len(calls) == 16
    assert a.square_of_basis(1) == (field.zero, field.zero, field.parse("1/2"), field.zero)


@pytest.mark.parametrize("text,entries", [
    # the text after U+2028 in a comment is still comment
    ("field prime 5\n# note\u2028dim 3\ndim 2\nmatrix\n1 0\n0 1\n", ((1, 0), (0, 1))),
    # \v inside a row separates two entries of one row
    ("field prime 5\ndim 2\nmatrix\n3\v4\n0 1\n", ((3, 4), (0, 1))),
    # \r\n and a lone \r end a line each
    ("field prime 5\r\ndim 2\rmatrix\r\n1 2\r3 4\r\n", ((1, 2), (3, 4))),
], ids=["separator-in-comment", "vertical-tab-in-row", "carriage-returns"])
def test_lines_end_at_newline_or_carriage_return_alone(text, entries):
    assert parse_document(text).structure.entries == entries


def test_line_numbers_count_the_line_ends_the_utf8_error_counts():
    # \f, U+2029, U+001C and U+0085 end no line: the error on the fifth
    # line is reported there, as the invalid byte in its place is
    head = "field prime 5\x0c\ndim 2 # a\u2029b\x1cc\x85d\nmatrix\n1 0\n"
    with pytest.raises(ParseError) as err:
        parse_document(head + "0 x\n")
    assert str(err.value) == "line 5: entry 2: invalid scalar 'x'"
    with pytest.raises(ParseError) as err:
        parse_document(head.encode() + b"0 \xff\n")
    assert str(err.value) == "line 5: invalid UTF-8 byte 0xff"


# tokens each route must read as field.parse does, or refuse with its
# message: leading zeros, signs, fractions, digit strings at and over
# CPython's 4300-digit limit, Unicode digits that int() takes and
# field.parse refuses, '_' separators, a zero denominator, and the comma
# and brackets that the block route puts between entries and rows
ODD_TOKENS = ("007", "4" * 4300, "5" * 4301, "\u0663", "\uff11", "\u00b2", "+1", "-0",
              "1_0", "2/2", "1/0", "1,2", "[3", "4]")
# those last three: a block check made on the text with the separators in
# lets a closing bracket through, and reads a wrong block
SEPARATORS = ODD_TOKENS[-3:]
# texts a row of repeated tokens is made of: digits alone, first, which the
# block route reads, and others, which send the block to the table route
REPEATED = ("0", "1", "-1", "+0", "1/2")
ROUTE_FIELDS = (QQ, GF(2), GF(7), GF(10007), GF(2 ** 61 - 1))


@st.composite
def route_rows(draw, field, width, count):
    """count rows of width tokens, runs of one to four rows of mostly
    distinct texts of ASCII digits (often at or above p, and p - 1 or p
    now and then) between single rows of one repeated text, so that the
    first row that is not the zero row picks either route.  Half the
    blocks are clean: no token has a leading zero and the repeated texts
    are digits, so that over F_p the block route reads the block when it
    picks it.  Half the others are clean but for one token of SEPARATORS
    at a random place, and start with a run, so that over F_p the block
    route picks them and the separator reaches the scanner with nothing
    else odd beside it.  In the rest, leading zeros make texts distinct
    where p is small, odd tokens go into random rows at random places, and
    so does a second space or a tab before a token."""
    kind = "clean" if draw(st.booleans()) else draw(st.sampled_from(("one separator", "odd")))
    clean = kind != "odd"
    top = (3 * field.p if field.kind == "prime" else 1000) + width
    values = st.integers(min_value=0, max_value=top)
    if field.kind == "prime":
        values |= st.sampled_from((field.p - 1, field.p))
    # leading zeros are rare, so that a row can be refused for another cause
    zeros = st.just(0) if clean else st.sampled_from((0,) * 14 + (1, 2))
    distinct = st.tuples(zeros, values).map(
        lambda zeros_value: "0" * zeros_value[0] + str(zeros_value[1]))
    repeated = st.sampled_from(REPEATED[:2] if clean else REPEATED)
    run = kind == "one separator" or draw(st.booleans())
    rows = []
    while len(rows) < count:
        size = draw(st.integers(min_value=1, max_value=4)) if run else 1
        for _ in range(min(size, count - len(rows))):
            rows.append(draw(st.lists(distinct, min_size=width, max_size=width, unique=True))
                        if run else [draw(repeated)] * width)
        run = not run
    if kind == "one separator":
        row = rows[draw(st.integers(min_value=0, max_value=count - 1))]
        row[draw(st.integers(min_value=0, max_value=width - 1))] = draw(
            st.sampled_from(SEPARATORS))
    odd = 0 if clean else count
    for _ in range(draw(st.integers(min_value=0, max_value=odd))):
        row = rows[draw(st.integers(min_value=0, max_value=count - 1))]
        row[draw(st.integers(min_value=0, max_value=width - 1))] = draw(
            st.sampled_from(ODD_TOKENS))
    for _ in range(draw(st.integers(min_value=0, max_value=odd))):
        row = rows[draw(st.integers(min_value=0, max_value=count - 1))]
        k = draw(st.integers(min_value=0, max_value=width - 1))
        row[k] = draw(st.sampled_from((" ", "\t"))) + row[k]
    return rows


# no shrink phase: shrinking a failure re-draws blocks that hold the
# 4,300- and 4,301-digit tokens, for minutes
@settings(FIXED, phases=set(Phase) - {Phase.shrink})
@given(data=st.data())
def test_both_row_routes_equal_a_per_token_parse(data):
    field = data.draw(st.sampled_from(ROUTE_FIELDS))
    width = data.draw(st.integers(min_value=1, max_value=7))
    basis = data.draw(st.booleans())
    count = data.draw(st.integers(min_value=1, max_value=9)) if basis else width
    rows = data.draw(route_rows(field, width, count))
    # the tokens are what split() finds in the joined rows
    tokens = [" ".join(row).split() for row in rows]
    if basis:
        text = "".join(" ".join(row) + "\n" for row in rows)
        expected = reference_rows(field, tokens, 1, numbered=False)
        read = lambda: parse_basis_file(field, text, width)  # noqa: E731
    else:
        text = document_text(field, rows)
        expected = reference_rows(field, tokens, 4, numbered=True)
        read = lambda: list(parse_document(text).structure.entries)  # noqa: E731
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as err:
            read()
        assert (err.value.line, str(err.value)) == (expected.line, str(expected))
        return
    got = read()
    assert got == expected
    assert all(is_canonical(field, x) for row in got for x in row)


def test_dense_prime_document_is_read_by_one_scanner_call(monkeypatch):
    field = GF(10007)
    rng = make_rng(120120)
    rows = [[str(rng.randrange(field.p)) for _ in range(120)] for _ in range(120)]
    # digits at and past p, which the block route reduces
    rows[3][5], rows[70][0] = str(field.p), str(3 * field.p + 5)
    expected = [tuple(map(field.parse, row)) for row in rows]
    decoded = []
    decode = documents._decode
    monkeypatch.setattr(documents, "_decode", lambda text: decoded.append(text) or decode(text))
    calls = counted_parses(monkeypatch, field)
    assert parse_document(document_text(field, rows)).structure.entries == tuple(expected)
    assert calls == [] and len(decoded) == 1
    # a basis file of the same rows takes the same route, and its rows are tuples
    basis = "".join(" ".join(row) + "\n" for row in rows)
    assert parse_basis_file(field, basis, 120) == expected
    assert calls == [] and len(decoded) == 2
    # a leading zero in row 60: the scanner refuses the block once, and
    # the table reads every row, parsing each distinct text once
    rows[59][7] = "0" + rows[59][7]
    del decoded[:]
    assert parse_document(document_text(field, rows)).structure.entries == tuple(expected)
    assert len(decoded) == 1
    assert sorted(calls) == sorted({t for row in rows for t in row})


def reference_block(field, lines, first_line, width):
    """reference_rows of the lines' tokens, or the wrong count of the first
    line that holds other than width tokens, when no token before it is
    refused."""
    rows = [line.split() for line in lines]
    short = next((r for r, row in enumerate(rows) if len(row) != width), None)
    expected = reference_rows(field, rows[:short], first_line, numbered=True)
    if short is not None and not isinstance(expected, ParseError):
        return ParseError("expected %d entries, found %d" % (width, len(rows[short])),
                          first_line + short)
    return expected


# each kind of line that makes the block route refuse a block, written
# from its 8 tokens, and what _decode does with the block: a tab, a
# non-ASCII digit, a comma or a bracket is found by the translate check,
# so the block never reaches _decode, and a short row is read to the
# wrong count.  Checked after the "],[" separators
# went in, the comma line would be read as 8 entries, the bracket pair as
# 8 entries one of them a list, and the closing bracket would end the
# block after that line
BLOCK_REFUSALS = {
    "leading zero": (lambda t: " ".join(t[:3] + ["0" + t[3]] + t[4:]), ["refused"]),
    "doubled space": (lambda t: " ".join(t[:3]) + "  " + " ".join(t[3:]), ["refused"]),
    "tab": (lambda t: " ".join(t[:3]) + "\t" + " ".join(t[3:]), []),
    "over the digit limit": (lambda t: " ".join(t[:3] + ["1" * 4301] + t[4:]), ["refused"]),
    "non-ASCII digit": (lambda t: " ".join(t[:3] + ["\u0663"] + t[4:]), []),
    "comma": (lambda t: " ".join(t[:2] + [t[2] + "," + t[3]] + t[4:]), []),
    "bracket pair": (lambda t: " ".join(t[:3] + ["[" + t[3], t[4] + "]"] + t[4:]), []),
    "opening bracket": (lambda t: " ".join(["[" + t[0]] + t[1:]), []),
    "closing bracket": (lambda t: " ".join(t[:7] + [t[7] + "]"]), []),
    "one entry short": (lambda t: " ".join(t[:7]), ["read"]),
}


@pytest.mark.parametrize("kind", BLOCK_REFUSALS)
def test_a_block_the_scanner_refuses_is_read_whole_by_the_table(monkeypatch, kind):
    line_of, scans = BLOCK_REFUSALS[kind]
    field, width = GF(10007), 8
    texts = iter(map(str, make_rng(808).sample(range(1, field.p), 3 * width)))
    first, odd, last = ([next(texts) for _ in range(width)] for _ in range(3))
    lines = [" ".join(first), line_of(odd), " ".join(last)]
    # a per-token parse of each line, or the error of its first bad token
    # or wrong count
    expected = reference_block(field, lines, 4, width)
    outcomes = []
    decode = documents._decode

    def logged_decode(text):
        try:
            value = decode(text)
        except ValueError:
            outcomes.append("refused")
            raise
        outcomes.append("read")
        return value

    monkeypatch.setattr(documents, "_decode", logged_decode)
    calls = counted_parses(monkeypatch, field)
    parse_rows = documents._row_parser(field, width, "entries", numbered=True)
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as err:
            parse_rows(list(enumerate(lines, 4)))
        assert (err.value.line, str(err.value)) == (expected.line, str(expected))
    else:
        assert parse_rows(list(enumerate(lines, 4))) == expected
    assert outcomes == scans
    # the table read the first row, each text once
    assert set(first) <= set(calls) and len(calls) == len(set(calls))


def test_sparse_prime_document_parses_each_distinct_token_once(monkeypatch):
    field = GF(10007)
    rng = make_rng(144144)
    rows = [[str(rng.randrange(1, field.p)) if rng.random() < 0.03 else "0"
             for _ in range(120)] for _ in range(120)]
    expected = [tuple(map(field.parse, row)) for row in rows]
    calls = counted_parses(monkeypatch, field)
    assert parse_document(document_text(field, rows)).structure.entries == tuple(expected)
    assert sorted(calls) == sorted({t for row in rows for t in row})
