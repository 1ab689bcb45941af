"""Exact scalars over the rationals and over prime fields F_p.

A field object (``QQ`` or ``GF(p)``) does two things: ``parse`` reads a
scalar's text and ``coerce`` takes a Python value (int, bool, Fraction or
text) into the field.  Each returns a canonical scalar, a plain Python
value on which equality, hashing and tuple comparison behave canonically:

* rationals are ``fractions.Fraction`` (always gcd-reduced, denominator
  positive),
* F_p residues are ints in ``[0, p)``.

Everything else is plain Python on those values.  A canonical scalar is
zero exactly when it is falsy.  Sums and products use Python's operators;
over F_p their results are reduced by ``coerce``, the one reduction.  The
text of a scalar is ``str``, and ``parse(str(x)) == x``.  The field object
also carries ``kind``, the modulus ``p`` of a prime field, and the
canonical ``zero`` and ``one``; the linalg kernels read the kind and the
modulus and eliminate on plain ints (see linalg).  No floating point is
accepted anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FieldError

_SCALAR_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


MODULUS_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases 2..41, which is exact for
    n < MODULUS_BOUND (Sorenson and Webster 2017); prime fields refuse
    larger moduli."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digit_count(n: int) -> int:
    """The number of decimal digits of n > 0.  str(n) refuses more than
    CPython's 4300 digits, so start from the bit length: 30103/100000
    overestimates log10(2) by under 1e-8, so the start is at most the
    count, and at most two below it."""
    digits = max(n.bit_length() * 30103 // 100000 - 1, 1)
    while 10 ** digits <= n:
        digits += 1
    return digits


def parse_integer(text: str) -> int:
    """int(text) for text of the form [+-]?[0-9]+, else ValueError; int()
    alone also takes other Unicode digits, '_' and surrounding space."""
    if _INTEGER_RE.fullmatch(text) is None:
        raise ValueError("invalid integer %r" % (text,))
    return int(text)


def _split_scalar(text: str):
    """(numerator, denominator or None) of a scalar text.  A text of ASCII
    digits alone, the common matrix entry, is read by int() directly; any
    other text, and one beyond CPython's digit limit, takes the regex."""
    if text.isascii() and text.isdigit():
        try:
            return int(text), None
        except ValueError:  # over the digit limit: the regex route says so
            pass
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise FieldError("invalid scalar %r" % (text,))
    try:
        num = int(m.group(1))
        den = None if m.group(2) is None else int(m.group(2))
    except ValueError:  # CPython's limit on digits in an int conversion
        raise FieldError("scalar of %d characters exceeds the digit limit" % len(text)) from None
    if den == 0:
        raise FieldError("zero denominator in %r" % (text,))
    return num, den


class Rationals:
    """The field of arbitrary-precision rationals; scalars are Fraction.
    Every instance is equal to every other."""

    __slots__ = ()
    kind = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value  # immutable and already reduced
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        raise FieldError("cannot use %r as a rational scalar (floats are banned)" % (value,))

    def parse(self, text: str) -> Fraction:
        num, den = _split_scalar(text)
        return Fraction(num) if den is None else Fraction(num, den)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The field F_p for a small prime p; scalars are ints in [0, p).
    Two instances are equal when their moduli are, and p is read-only."""

    __slots__ = ("p",)
    kind = "prime"
    zero = 0
    one = 1  # 1 % p is 1 for every prime p

    def __init__(self, p: int):
        # refused before the primality test: is_prime is exact only below
        # the bound, and Miller-Rabin on a modulus of thousands of digits
        # takes seconds
        if p >= MODULUS_BOUND:
            raise FieldError("modulus of %d digits is too large: prime fields need p < %d"
                             % (_digit_count(p), MODULUS_BOUND))
        if not is_prime(p):
            raise FieldError("%r is not prime" % (p,))
        object.__setattr__(self, "p", p)

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise FieldError("denominator of %s vanishes mod %d" % (value, self.p))
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        if isinstance(value, str):
            return self.parse(value)
        raise FieldError("cannot use %r as an F_%d scalar" % (value, self.p))

    def parse(self, text: str) -> int:
        num, den = _split_scalar(text)
        if den is None:
            return num % self.p
        if den % self.p == 0:
            raise FieldError("denominator of %r vanishes mod %d" % (text, self.p))
        return num * pow(den, -1, self.p) % self.p

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p,))

    def __reduce__(self):
        return PrimeField, (self.p,)

    def __repr__(self):
        return "PrimeField(p=%r)" % (self.p,)


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
