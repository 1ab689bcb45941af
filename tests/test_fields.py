import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from evolalg import GF, QQ, FieldError
from evolalg import fields
from evolalg.fields import _SCALAR_RE, MODULUS_BOUND, is_prime
from support import FIXED, is_canonical


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_rational_parse_and_format_round_trip():
    for text, value in [("0", Fraction(0)), ("7", Fraction(7)),
                        ("-2", Fraction(-2)), ("1/2", Fraction(1, 2)),
                        ("-3/4", Fraction(-3, 4)), ("+5/10", Fraction(1, 2))]:
        assert QQ.parse(text) == value
    # canonical: reduced, denominator positive
    assert str(QQ.parse("4/6")) == "2/3"
    assert str(QQ.parse("-4/6")) == "-2/3"
    for text in ["0", "7", "-2", "1/2", "-3/4"]:
        assert str(QQ.parse(text)) == text


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5", "1/-2", "2/", "/3", "1 2"])
def test_rational_parse_rejects_garbage(bad):
    with pytest.raises(FieldError):
        QQ.parse(bad)


def test_rational_arithmetic_is_exact():
    a = QQ.parse("1/3")
    b = QQ.parse("1/6")
    assert QQ.coerce(a + b) == a + b == Fraction(1, 2)
    assert QQ.coerce(a * b) == a * b == Fraction(1, 18)
    assert QQ.coerce(1 / Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.coerce(-a + a) == QQ.zero and not -a + a
    with pytest.raises(ZeroDivisionError):
        1 / QQ.zero


def test_rational_coerce_bans_floats():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce("1/2") == Fraction(1, 2)
    with pytest.raises(FieldError):
        QQ.coerce(0.5)


def test_integral_rationals_are_ints():
    # an integer is an int, in whatever form it comes: a bool, a Fraction
    # of denominator 1, or a text with a denominator that divides it
    for value, expected in [(True, 1), (False, 0), (Fraction(6, 3), 2), (Fraction(-4, 1), -4),
                            ("4/2", 2), ("-0/5", 0), (7, 7), ("1/2", Fraction(1, 2))]:
        got = QQ.coerce(value)
        assert got == expected and type(got) is type(expected)
    assert type(QQ.parse("-9/3")) is int and type(QQ.zero) is type(QQ.one) is int
    assert str(QQ.coerce(True)) == "1"


@contextmanager
def unlimited_int_text():
    """CPython's int <-> str conversions with no limit on digits, for a
    reference text; the limit is put back afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def huge_int(digits, offset, seed):
    """A signed int of about `digits` digits: 10^digits + offset (where
    the digit count steps up) when seed is 0, else one drawn below
    10^digits by a Random(seed)."""
    rng = random.Random(seed)
    value = 10 ** digits + offset if not seed else rng.randrange(10 ** digits)
    return rng.choice([1, -1]) * value


# (digits, offset, seed) of an int: hypothesis prints its arguments, and
# repr of an int over CPython's digit limit fails, so the tests draw these
# small parameters and build the ints themselves
HUGE_INTS = st.tuples(st.integers(min_value=0, max_value=12000), st.integers(-1, 1),
                      st.sampled_from([0, 0, 1, 2, 3]))


def assert_text_is_str(x):
    # _text and _texts write what str writes with no digit limit, and
    # leave the process-wide limit as it was
    limit = sys.get_int_max_str_digits()
    got, row = fields._text(x), fields._texts([QQ.zero, x, QQ.one])
    assert sys.get_int_max_str_digits() == limit
    with unlimited_int_text():
        assert got == str(x) and row == ["0", str(x), "1"]
        assert QQ.parse(got) == x


@FIXED
@given(num=HUGE_INTS, den=st.none() | HUGE_INTS)
def test_scalar_text_is_str_at_any_size(num, den):
    x = huge_int(*num)
    if den is not None:
        x = QQ.coerce(Fraction(x, huge_int(*den) or 1))
    assert_text_is_str(x)


def test_scalar_text_golden_over_the_digit_limit():
    # 12 (10^4300 - 1) - 1, the det of [[10^4300 - 1, 1], [1, 12]]
    assert fields._text(12 * 10 ** 4300 - 13) == "11" + "9" * 4298 + "87"
    assert fields._text(-10 ** 4400) == "-1" + "0" * 4400
    assert fields._text(Fraction(1, 10 ** 5000 + 1)) == "1/1" + "0" * 4999 + "1"
    assert_text_is_str(Fraction(10 ** 4300 + 1, 3 * 10 ** 4400 - 1))
    assert fields._text(-12 * 10 ** 4300 + 13) == "-11" + "9" * 4298 + "87"
    assert fields._text(Fraction(-10 ** 4400 - 1, 3)) == "-1" + "0" * 4399 + "1/3"
    # under the lowest limit CPython accepts, every part is split further
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert fields._text(-10 ** 700 + 1) == "-" + "9" * 700
        assert fields._text(Fraction(7, 10 ** 641)) == "7/1" + "0" * 641
        assert_text_is_str(Fraction(-(10 ** 1900 + 3), 7 * 10 ** 2000 + 1))
        assert_text_is_str(12 * 10 ** 4300 - 13)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97])
def test_prime_field_axioms_exhaustively(p):
    f = GF(p)
    assert f.one == f.coerce(1) == 1
    for a in range(p):
        assert f.coerce(a + f.coerce(-a)) == f.zero
        if a:
            assert f.coerce(a * f.coerce(Fraction(1, a))) == f.one
        for b in range(p):
            assert f.coerce(a + b) == f.coerce(b + a) in range(p)
            assert f.coerce(a * b) == f.coerce(b * a) in range(p)
            assert f.coerce(a * f.coerce(b + 1)) == f.coerce(f.coerce(a * b) + a)
    with pytest.raises(FieldError):
        f.coerce(Fraction(1, p))  # zero has no inverse


@pytest.mark.parametrize("bad_p", [0, 1, 4, 6, 9, 15, -7])
def test_non_prime_modulus_rejected(bad_p):
    with pytest.raises(FieldError):
        GF(bad_p)


def test_prime_field_parses_signed_and_fractional_scalars():
    f = GF(5)
    assert f.parse("-2") == 3
    assert f.parse("7") == 2
    assert f.parse("1/2") == 3  # inverse of 2 mod 5
    assert f.parse("-3/4") == f.coerce(2 * pow(4, -1, 5))
    with pytest.raises(FieldError):
        f.parse("1/5")  # denominator vanishes mod 5
    with pytest.raises(FieldError):
        f.parse("1/0")


def test_prime_field_coerce_reduces_fractions():
    f = GF(3)
    assert f.coerce(Fraction(1, 2)) == 2  # 2 is its own inverse mod 3
    assert f.coerce(-1) == 2
    with pytest.raises(FieldError):
        f.coerce(Fraction(1, 3))


@FIXED
@given(st.integers(min_value=-10, max_value=10 ** 6))
def test_is_prime_matches_trial_division_below_a_million(n):
    assert is_prime(n) == trial_division_is_prime(n)


@FIXED
@given(st.one_of(
    st.integers(min_value=10 ** 6, max_value=MODULUS_BOUND - 1),
    # random integers are rarely prime, so also take the primes near them
    # and products of two primes
    st.integers(min_value=10 ** 6, max_value=MODULUS_BOUND // 2).map(sympy.prevprime),
    st.tuples(st.integers(min_value=2, max_value=10 ** 12),
              st.integers(min_value=2, max_value=10 ** 12))
      .map(lambda pq: sympy.nextprime(pq[0]) * sympy.nextprime(pq[1]))))
def test_is_prime_matches_sympy_below_the_modulus_bound(n):
    assert is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes_to_small_bases(n):
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37 respectively
    assert not is_prime(n)


def test_modulus_range():
    assert GF(1000000000000000003).p == 1000000000000000003
    too_large = sympy.nextprime(MODULUS_BOUND)
    with pytest.raises(FieldError, match="too large"):
        GF(too_large)
    # the bound itself is a strong pseudoprime to every base is_prime uses
    with pytest.raises(FieldError):
        GF(MODULUS_BOUND)
    # the refusal counts the digits, also past the 4300 that str() takes
    for digits in (25, 4300, 4301, 6000):
        with pytest.raises(FieldError, match="^modulus of %d digits is too large" % digits):
            GF(4 * 10 ** (digits - 1) + 7)


def test_modulus_refusal_golden_past_the_digit_limit():
    # 10^5000 + 1 has more digits than str() takes: they are counted on
    # the text that _text writes for an int of any size
    with pytest.raises(FieldError) as refusal:
        GF(10 ** 5000 + 1)
    assert str(refusal.value) == ("modulus of 5001 digits is too large: "
                                  "prime fields need p < 3317044064679887385961981")


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_over_long_scalar_is_a_field_error(field):
    with pytest.raises(FieldError, match="limit"):
        field.parse("1" * 5000)
    with pytest.raises(FieldError, match="limit"):
        field.parse("1/" + "3" * 5000)


def regex_split_scalar(text):
    """The regex route of fields._split_scalar on its own: the reference
    its ASCII-digit fast path must agree with."""
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise FieldError("invalid scalar %r" % (text,))
    try:
        num = int(m.group(1))
        den = None if m.group(2) is None else int(m.group(2))
    except ValueError:
        raise FieldError("scalar of %d characters exceeds the digit limit" % len(text)) from None
    if den == 0:
        raise FieldError("zero denominator in %r" % (text,))
    return num, den


def parse_outcome(field, text):
    try:
        value = field.parse(text)
    except FieldError as exc:
        return "FieldError", str(exc)
    return type(value), value


SCALAR_ALPHABET = "0123456789+-/ \t_٣１²a"


def digit_strings_at_the_limit():
    """ASCII digit strings of 4299..4301 characters (CPython converts at
    most 4300 digits), now and then followed by a denominator or a blank."""
    return st.builds(lambda size, head, tail: (head + "9" * size)[:size] + tail,
                     st.sampled_from([4299, 4300, 4301]),
                     st.text(alphabet="0123456789", max_size=6),
                     st.sampled_from(["", "", "/7", "/0", " ", "a"]))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(10007)])
@FIXED
@example(text="1" * 4300)
@example(text="1" * 4301)
@example(text="0" * 4301)
@given(text=st.one_of(st.text(alphabet=SCALAR_ALPHABET, max_size=12),
                      st.text(alphabet="0123456789", min_size=1, max_size=30),
                      digit_strings_at_the_limit()))
def test_scalar_fast_path_agrees_with_the_regex_route(field, text):
    fast = parse_outcome(field, text)
    with mock.patch.object(fields, "_split_scalar", regex_split_scalar):
        reference = parse_outcome(field, text)
    assert fast == reference


CANONICAL_FIELDS = [QQ, GF(2), GF(7), GF(10007), GF(2 ** 61 - 1), GF(2 ** 64 + 13)]


def raw_values(field):
    """Values coerce takes: bools, ints, and Fractions with a denominator
    the modulus does not divide; over F_p also multiples of p and values
    a few p away from zero."""
    fractions = st.builds(Fraction, st.integers(), st.integers(min_value=1))
    if field.kind == "rational":
        return st.one_of(st.booleans(), st.integers(), fractions)
    p = field.p
    return st.one_of(st.booleans(), st.integers(), st.integers(-3 * p, 3 * p),
                     st.integers(-3, 3).map(p.__mul__),
                     fractions.filter(lambda x: x.denominator % p))


@pytest.mark.parametrize("field", CANONICAL_FIELDS)
@FIXED
@given(data=st.data())
def test_canonical_scalars_are_falsy_at_zero_alone_and_parse_their_text(field, data):
    # the contract every caller of the field relies on: a zero test is a
    # truth test, and the text of a scalar is str
    value = data.draw(raw_values(field))
    scalars = [field.zero, field.one, field.coerce(value)]
    if not isinstance(value, bool):
        scalars.append(field.parse(str(value)))
        assert scalars[-1] == scalars[-2]
    for x in scalars:
        assert is_canonical(field, x)
        assert (not x) == (x == field.zero)
        assert field.parse(str(x)) == x


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007), GF(2 ** 61 - 1)])
@FIXED
@given(data=st.data(), huge=st.lists(st.tuples(HUGE_INTS, st.none() | HUGE_INTS), max_size=3))
def test_texts_is_text_per_entry(field, data, huge):
    # _texts writes only the nonzero entries; the rows hold zeros,
    # negatives and Fractions, and over QQ ints and Fraction parts past
    # the digit limit, built from drawn parameters as above
    row = [*map(field.coerce, data.draw(st.lists(st.just(0) | raw_values(field), max_size=12)))]
    if field.kind == "rational":
        row += [huge_int(*num) if den is None else QQ.coerce(Fraction(huge_int(*num),
                                                                      huge_int(*den) or 1))
                for num, den in huge]
    row = [row[k] for k in data.draw(st.permutations(range(len(row))))]
    expected = [fields._text(x) for x in row]
    assert fields._texts(row) == fields._texts(tuple(row)) == expected


@FIXED
@given(values=st.lists(st.integers()) | st.lists(st.one_of(
           st.integers(), st.builds(Fraction, st.integers()),
           st.builds(Fraction, st.integers(), st.integers(min_value=1, max_value=10 ** 6)))),
       as_tuple=st.booleans())
def test_rational_canonical_is_the_per_entry_rule(values, as_tuple):
    # a list or a tuple, ints alone among them, takes the per-entry rule,
    # a Fraction of denominator 1 becoming its numerator
    expected = [x.numerator if x.denominator == 1 else x for x in values]
    given_values = tuple(values) if as_tuple else values
    got = QQ._canonical(given_values)
    assert type(got) is list and got == expected
    assert [*map(type, got)] == [*map(type, expected)]
    assert all(is_canonical(QQ, x) for x in got)
