import pytest
from hypothesis import given
from hypothesis import strategies as st

from evolalg import (GF, QQ, AssociatedGraph, EvolutionAlgebra, FieldError,
                     ParseError, associated_graph)
from evolalg.documents import (emit_document, export_dot, parse_basis_file,
                               parse_document, parse_vector)
from support import (ALL_REFERENCE_BUILDERS, FIXED, fan_to_swap_pair,
                     make_rng, matrix, out_edge_sets, random_algebra)

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


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("field rational\ndim 0\nmatrix\n", "at least 1"),
    ("field rational\ndim 1\nmatrix\n1/0\n", "denominator"),
    ("field prime 6\ndim 1\nmatrix\n1\n", "not prime"),
    ("field prime x\ndim 1\nmatrix\n1\n", "not an integer"),
    ("field rational\ndim 2\nmatrix\n1 2 3\n0 1\n", "expected 2 entries"),
    ("field rational\ndim 2\nmatrix\n1 2\n", "unexpected end"),
    ("field rational\ndim 1\nmatrix\n1\nextra\n", "trailing"),
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
FIELDS = (QQ, GF(2), GF(3), GF(7))


@st.composite
def token_rows(draw):
    """An n x n grid of tokens drawn from a small pool, so tokens repeat;
    an invalid token, when there is one, may occur several times."""
    n = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=5))
    if draw(st.booleans()):
        pool.append(draw(st.sampled_from(INVALID)))
    return [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]


def document_text(field, rows):
    header = "field rational" if field.kind == "rational" else "field prime %d" % field.p
    return "\n".join([header, "dim %d" % len(rows), "matrix"]
                     + [" ".join(row) for row in rows]) + "\n"


@FIXED
@given(field=st.sampled_from(FIELDS), rows=token_rows())
def test_parse_document_equals_a_per_token_parse(field, rows):
    # reference: field.parse on every entry, in document order; the first
    # token that it refuses names the line and the entry of the error
    expected, error = [], None
    for r, row in enumerate(rows):
        for pos, token in enumerate(row, start=1):
            try:
                field.parse(token)
            except FieldError as exc:
                error = error or ParseError("entry %d: %s" % (pos, exc), 4 + r)
        expected.append(tuple(field.parse(t) for t in row) if error is None else None)
    text = document_text(field, rows)
    if error is not None:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.line, str(err.value)) == (error.line, str(error))
        return
    entries = parse_document(text).structure.entries
    assert entries == tuple(expected)
    # equal values are not enough: 1 == Fraction(1), so compare types too
    assert {type(x) for row in entries for x in row} == {type(field.zero)}


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_field_parse_runs_once_per_distinct_matrix_token(monkeypatch, field):
    calls = []
    parse = type(field).parse

    def counting_parse(self, text):
        calls.append(text)
        return parse(self, text)

    monkeypatch.setattr(type(field), "parse", counting_parse)
    rows = [["0", "1", "0", "-1"], ["0", "0", "+1", "1"],
            ["1/2", "0", "0", "0"], ["0", "1", "1/2", "0"]]
    a = parse_document(document_text(field, rows))
    assert sorted(calls) == sorted({t for row in rows for t in row})
    assert a.structure.entries[1][2] == field.one  # "+1" and "1" agree


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
