"""Exact scalar arithmetic over the rationals and over prime fields F_p.

Scalars stay plain Python values so that equality, hashing and tuple
comparison behave canonically:

* rationals are ``fractions.Fraction`` (always gcd-reduced, denominator
  positive),
* F_p residues are ints in ``[0, p)``.

Parsing, coercion and formatting go through a field object (``QQ`` or
``GF(p)``), and so does the scalar arithmetic outside linalg.  The linalg
kernels do not: they read the field's kind and modulus and eliminate on
plain ints (see linalg).  No floating point is accepted anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Rationals:
    """The field of arbitrary-precision rationals; scalars are Fraction."""

    kind = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value  # immutable and already reduced
        if isinstance(value, bool):
            return Fraction(int(value))
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        raise FieldError("cannot use %r as a rational scalar (floats are banned)" % (value,))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return a * self.inv(b)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str) -> Fraction:
        num, den = _split_scalar(text)
        return Fraction(num) if den is None else Fraction(num, den)

    def format(self, a) -> str:
        return str(a)


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a small prime p; scalars are ints in [0, p)."""

    p: int

    kind = "prime"
    zero = 0

    def __post_init__(self):
        # refused before the primality test: is_prime is exact only below
        # the bound, and Miller-Rabin on a modulus of thousands of digits
        # takes seconds
        if self.p >= MODULUS_BOUND:
            raise FieldError("modulus %d is too large: prime fields need p < %d"
                             % (self.p, MODULUS_BOUND))
        if not is_prime(self.p):
            raise FieldError("%r is not prime" % (self.p,))

    @property
    def one(self):
        return 1 % self.p

    def coerce(self, value) -> int:
        if isinstance(value, bool):
            return int(value) % self.p
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise FieldError("denominator of %s vanishes mod %d" % (value, self.p))
            return self.mul(value.numerator % self.p, self.inv(value.denominator % self.p))
        if isinstance(value, str):
            return self.parse(value)
        raise FieldError("cannot use %r as an F_%d scalar" % (value, self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, text: str) -> int:
        num, den = _split_scalar(text)
        value = num % self.p
        if den is not None:
            if den % self.p == 0:
                raise FieldError("denominator of %r vanishes mod %d" % (text, self.p))
            value = self.mul(value, self.inv(den % self.p))
        return value

    def format(self, a) -> str:
        return str(a % self.p)


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
