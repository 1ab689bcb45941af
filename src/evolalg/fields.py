"""Exact scalars over the rationals and over prime fields F_p.

A field object (``QQ`` or ``GF(p)``) does two things: ``parse`` reads a
scalar's text and ``coerce`` takes a Python value (int, bool, Fraction or
text) into the field.  Each returns a canonical scalar, a plain Python
value on which equality, hashing and tuple comparison behave canonically:

* a rational is an ``int`` when it is an integer, and otherwise a
  ``fractions.Fraction`` with denominator above 1 (gcd-reduced,
  denominator positive),
* F_p residues are ints in ``[0, p)``.

So the integers that make up most documents are plain ints over both
fields, and truth tests, ``str`` and ``numerator``/``denominator`` on
them run in C.  A Fraction equals the int of the same value and hashes
like it, so equality, hashing and sorting are the same for either form;
only a result must be handed out in canonical form, and over QQ it is
``x.numerator`` for an x of denominator 1.  A bool is an int whose text
is ``True``, so ``coerce`` takes it to 0 or 1.

Everything else is plain Python on those values.  A canonical scalar is
zero exactly when it is falsy.  Sums and products use Python's operators,
and two routines make their results canonical again: ``coerce`` reduces
one value, and the private ``_canonical`` a list of sums at once (mod p
over F_p; over QQ a Fraction of denominator 1 becomes its numerator, and
a list of ints alone, found by one C-level pass over the types, is handed
back as it is).
Outside the elimination kernels of linalg and the block scanner of
documents, the package reduces through these two alone.  The text of a
scalar is ``str``, and ``parse(str(x)) == x``; writers go through
``_text`` and ``_texts``, which write an int part of more digits than
CPython's ``str`` converts by splitting it at powers of ten.  ``_texts``
writes a row at a cost per nonzero entry: a zero is the text "0" in both
fields, so it is written without a call of ``str``.  The field
object also carries ``kind``, the modulus ``p`` of a prime field, and
the canonical ``zero`` and ``one``; the linalg kernels read the kind and
the modulus and eliminate on plain ints (see linalg).  No floating point
is accepted anywhere.

Both fields are namedtuples, as the package's other records are:
immutable, equal and hashed as the tuple of their fields, and pickled by
them.  ``PrimeField`` has the one field ``p``, equals ``(p,)`` and is
validated in ``__new__``; ``Rationals`` has none, so all its instances
are equal, and equal to ``()``, and it defines ``__bool__``, since a
namedtuple with no fields would be falsy.

A raw value becomes canonical where it enters, once: the parsers, the
EvolutionAlgebra constructors and ``element``, the routines that take a
vector (``subspace_from_vectors``, ``Subspace.contains``, those of
ideals and ``QuotientPresentation.project``, all through the one check
``linalg._vector``), and ``det``/``rref``, which coerce each entry of a
caller's matrix.  Inside the package every scalar is canonical already,
so internal calls hand it to the span and membership cores
(``linalg._span``, ``Subspace._holds``) without another ``coerce``, and
the one matrix the package hands to ``det``, a block slice, is a
``linalg._Canonical``: a matrix the package built, taken as it is.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from itertools import compress

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


def _digits(n: int) -> str:
    """str(n) for an int n >= 0 of any size, by int arithmetic alone: n is
    split by divmod with 10^half into two parts of about half its digits
    each, until a part is below 10^600, which str writes under any digit
    limit (sys.set_int_max_str_digits accepts none below 640)."""
    if n < 10 ** 600:
        return str(n)
    half = n.bit_length() * 3 // 20
    high, low = divmod(n, 10 ** half)
    return _digits(high) + _digits(low).zfill(half)


def _text(x) -> str:
    """str(x) for a canonical scalar x, also where an int part of x has
    more digits than CPython's str converts (sys.get_int_max_str_digits):
    every writer of scalar text goes through here or through _texts.  Such
    a part is written by _digits."""
    try:
        return str(x)
    except ValueError:
        if type(x) is int:
            return "-" + _digits(-x) if x < 0 else _digits(x)
        return _text(x.numerator) + "/" + _digits(x.denominator)


def _texts(row) -> list:
    """[_text(x) for x in row], for a sequence row of canonical scalars,
    at a cost per nonzero entry: the list starts as "0" everywhere, the
    text of zero in both fields, and str writes only the entries that
    compress finds nonzero, or _text where one is over the digit limit."""
    texts = ["0"] * len(row)
    try:
        for k in compress(range(len(row)), row):
            texts[k] = str(row[k])
    except ValueError:
        return [*map(_text, row)]
    return texts


class Rationals(namedtuple("Rationals", "")):
    """The field of arbitrary-precision rationals; a scalar is an int when
    it is an integer and a Fraction otherwise.  Every instance is equal to
    every other, and to ()."""

    __slots__ = ()
    kind = "rational"
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, int):  # int() of an exact int is the int itself
            return int(value)
        if isinstance(value, Fraction):
            # immutable and already reduced
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, str):
            return self.parse(value)
        raise FieldError("cannot use %r as a rational scalar (floats are banned)" % (value,))

    def parse(self, text: str):
        num, den = _split_scalar(text)
        if den is None:
            return num
        return Fraction(num, den) if num % den else num // den

    def _canonical(self, values) -> list:
        """Sums and products of canonical rationals made canonical again: a
        Fraction the arithmetic left with denominator 1 becomes its
        numerator, and an int stays as it is (its numerator).  A list of
        ints alone, found by one C-level pass over the entries' types, is
        returned as it is."""
        if type(values) is list and set(map(type, values)) <= {int}:
            return values
        return [x.numerator if x.denominator == 1 else x for x in values]

    def __bool__(self):
        # a namedtuple with no fields is otherwise falsy
        return True


class PrimeField(namedtuple("PrimeField", "p")):
    """The field F_p for a small prime p; scalars are ints in [0, p)."""

    __slots__ = ()
    kind = "prime"
    zero = 0
    one = 1  # 1 % p is 1 for every prime p

    def __new__(cls, p: int):
        # refused before the primality test: is_prime is exact only below
        # the bound, and Miller-Rabin on a modulus of thousands of digits
        # takes seconds
        if p >= MODULUS_BOUND:
            raise FieldError("modulus of %d digits is too large: prime fields need p < %d"
                             % (len(_text(p)), MODULUS_BOUND))
        if not is_prime(p):
            raise FieldError("%r is not prime" % (p,))
        return super().__new__(cls, p)

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

    def _canonical(self, values) -> list:
        """Sums and products of residues (ints) reduced mod p."""
        p = self.p
        return [x % p for x in values]


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
