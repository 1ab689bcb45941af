from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from evolalg import GF, QQ, FieldDescriptor, FieldError, field_from_descriptor
from evolalg.fields import MODULUS_BOUND, is_prime

FIXED = settings(derandomize=True, deadline=None)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_rational_parse_and_format_round_trip():
    for text, value in [("0", Fraction(0)), ("7", Fraction(7)),
                        ("-2", Fraction(-2)), ("1/2", Fraction(1, 2)),
                        ("-3/4", Fraction(-3, 4)), ("+5/10", Fraction(1, 2))]:
        assert QQ.parse(text) == value
    # canonical: reduced, denominator positive
    assert QQ.format(QQ.parse("4/6")) == "2/3"
    assert QQ.format(QQ.parse("-4/6")) == "-2/3"
    for text in ["0", "7", "-2", "1/2", "-3/4"]:
        assert QQ.format(QQ.parse(text)) == text


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5", "1/-2", "2/", "/3", "1 2"])
def test_rational_parse_rejects_garbage(bad):
    with pytest.raises(FieldError):
        QQ.parse(bad)


def test_rational_arithmetic_is_exact():
    a = QQ.parse("1/3")
    b = QQ.parse("1/6")
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.sub(a, b) == Fraction(1, 6)
    assert QQ.mul(a, b) == Fraction(1, 18)
    assert QQ.div(a, b) == 2
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_rational_coerce_bans_floats():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce("1/2") == Fraction(1, 2)
    with pytest.raises(FieldError):
        QQ.coerce(0.5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97])
def test_prime_field_axioms_exhaustively(p):
    f = GF(p)
    for a in range(p):
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == f.one
        for b in range(p):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.add(b, 1)) == f.add(f.mul(a, b), a)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("bad_p", [0, 1, 4, 6, 9, 15, -7])
def test_non_prime_modulus_rejected(bad_p):
    with pytest.raises(FieldError):
        GF(bad_p)


def test_prime_field_parses_signed_and_fractional_scalars():
    f = GF(5)
    assert f.parse("-2") == 3
    assert f.parse("7") == 2
    assert f.parse("1/2") == 3  # inverse of 2 mod 5
    assert f.parse("-3/4") == f.mul(2, f.inv(4))
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


def test_field_descriptor_round_trip():
    assert field_from_descriptor(QQ.descriptor) == QQ
    assert field_from_descriptor(GF(7).descriptor) == GF(7)
    with pytest.raises(FieldError):
        FieldDescriptor("prime", 8)
    with pytest.raises(FieldError):
        FieldDescriptor("rational", 5)
    with pytest.raises(FieldError):
        FieldDescriptor("complex")


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
    with pytest.raises(FieldError, match="too large"):
        FieldDescriptor("prime", too_large)
    # the bound itself is a strong pseudoprime to every base is_prime uses
    with pytest.raises(FieldError):
        GF(MODULUS_BOUND)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_over_long_scalar_is_a_field_error(field):
    with pytest.raises(FieldError, match="limit"):
        field.parse("1" * 5000)
    with pytest.raises(FieldError, match="limit"):
        field.parse("1/" + "3" * 5000)
