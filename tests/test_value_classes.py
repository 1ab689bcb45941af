"""What a caller may rely on of the package's record and value classes.

Each is built by its field names, positionally or by keyword; it is
immutable and pickles; two instances are equal exactly when their fields are, and its
hash is that of the tuple of its fields, so fields and algebras key dicts
and sets iterate in the same order for a given hash seed.  Its repr is the
call that builds it, and FieldError messages print the fields' reprs.
"""

import inspect
import pickle
import re
from fractions import Fraction

import pytest

from evolalg import (GF, QQ, ClassicalChecks, DecompositionReport, DimensionError,
                     EvolutionAlgebra, FieldError, Matrix, PrimeField, QuotientPresentation,
                     Rationals, Subspace)
from evolalg.decompose import (BlockReport, CanonicalPart, IrreducibilityResult,
                               SimplicityResult)
from evolalg.fields import MODULUS_BOUND


def raises(error, message):
    return pytest.raises(error, match="^%s$" % re.escape(message))


def algebras_key_dicts(field):
    with pytest.raises(AttributeError):
        field.kind = "prime"
    a, b = (EvolutionAlgebra.from_squares(field, [[1, 2], [0, 1]]) for _ in range(2))
    assert a is not b and {a: "a"}[b] == "a"


def rationals_are_one_truthy_value(field):
    algebras_key_dicts(field)
    # a namedtuple with no fields is falsy unless it says otherwise
    assert bool(QQ) and QQ == Rationals() == ()


def prime_field_refusals(field):
    algebras_key_dicts(field)
    with raises(FieldError, "8 is not prime"):
        PrimeField(8)
    with raises(FieldError, "modulus of 25 digits is too large: prime fields need p < %d"
                % MODULUS_BOUND):
        PrimeField(MODULUS_BOUND)


def matrix_shape_refusals(_):
    for args, message in [((-1, 0, ()), "negative matrix shape"),
                          ((2, 1, ((1,),)), "expected 2 rows, got 1"),
                          ((1, 2, ((1,),)), "expected 2 columns, got 1")]:
        with raises(DimensionError, message):
            Matrix(*args)


def simplicity_truthiness(verdict):
    assert not verdict and SimplicityResult(True, ())


def irreducibility_truthiness(verdict):
    assert not verdict and IrreducibilityResult(True, False)


def nothing(_):
    pass


UNIT = Matrix(1, 1, ((1,),))
LINE = EvolutionAlgebra.from_squares(QQ, [[1]])

# (class, constructor arguments, the arguments of an unequal instance or
# None, repr, the class's own checks)
CASES = [
    (Rationals, (), None, "Rationals()", rationals_are_one_truthy_value),
    (PrimeField, (7,), (11,), "PrimeField(p=7)", prime_field_refusals),
    (Matrix, (1, 1, ((1,),)), (1, 1, ((2,),)), "Matrix(rows=1, cols=1, entries=((1,),))",
     matrix_shape_refusals),
    (Subspace, (GF(7), 2, Matrix(1, 2, ((1, 3),))), (QQ, 2, Matrix(1, 2, ((1, 3),))),
     "Subspace(field=PrimeField(p=7), ambient_dim=2, "
     "basis=Matrix(rows=1, cols=2, entries=((1, 3),)))", nothing),
    (CanonicalPart, ("chain_start", frozenset({1}), frozenset({1, 2})),
     ("principal_cycle", frozenset({1}), frozenset({1, 2})),
     "CanonicalPart(kind='chain_start', seed=frozenset({1}), derived=frozenset({1, 2}))",
     nothing),
    (BlockReport, (frozenset({1, 2}), True, False, Fraction(0)),
     (frozenset({1, 2}), True, False, Fraction(3)),
     "BlockReport(indices=frozenset({1, 2}), nondegenerate=True, simple=False, "
     "det=Fraction(0, 1))", nothing),
    (DecompositionReport, ((), True), ((), False),
     "DecompositionReport(blocks=(), optimal_certified=True)", nothing),
    (SimplicityResult, (False, ("zero product",)), (False, ()),
     "SimplicityResult(simple=False, reasons=('zero product',))", simplicity_truthiness),
    (IrreducibilityResult, (False, True), (False, False),
     "IrreducibilityResult(connected=False, conclusive=True)", irreducibility_truthiness),
    (QuotientPresentation, ((1,), LINE, UNIT), ((2,), LINE, UNIT),
     "QuotientPresentation(chosen=(1,), quotient=EvolutionAlgebra(Rationals(), dim=1), "
     "projection=Matrix(rows=1, cols=1, entries=((1,),)))", nothing),
    (ClassicalChecks, (True, False), (True, True),
     "ClassicalChecks(semiprime=True, classically_nondegenerate=False)", nothing),
]


@pytest.mark.parametrize("cls, args, other, text, own_checks", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class_contract(cls, args, other, text, own_checks):
    bound = inspect.signature(cls).bind(*args)
    bound.apply_defaults()
    names, values = list(bound.arguments), list(bound.arguments.values())
    x, y = cls(*args), cls(**bound.arguments)
    assert [getattr(x, name) for name in names] == values
    assert x == y and not x != y and x is not y
    assert hash(x) == hash(y) == hash(tuple(values))
    assert {x: "x"}[y] == "x"
    if other is not None:
        assert x != cls(*other) and not x == cls(*other)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(y, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert pickle.loads(pickle.dumps(x)) == x
    assert repr(x) == text
    own_checks(x)
