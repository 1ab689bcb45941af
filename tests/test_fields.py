from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from evolalg import GF, QQ, FieldError
from evolalg import fields
from evolalg.fields import _SCALAR_RE, MODULUS_BOUND, is_prime
from support import FIXED


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
        assert type(x) is type(field.zero)
        assert (not x) == (x == field.zero)
        assert field.parse(str(x)) == x
