import pytest

from evolalg import (GF, QQ, BudgetExceededError, EnumerationBudget,
                     EvolutionAlgebra, FieldError, absorption_oracle,
                     classical_checks, enumerate_ideals, enumerate_subspaces,
                     has_absorption_property, is_nondegenerate, is_simple,
                     radical, radical_oracle, simple_oracle, subspace_equal,
                     subspace_from_vectors)
from evolalg.oracle import MAX_SUBSPACES, subspace_count
from support import (all_chains_die, double_loop, make_rng,
                     nilpotent_line_nondegenerate, pair_cycle_mixing,
                     random_algebra)


def gaussian_binomial(n, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_subspace_enumeration_is_complete_and_duplicate_free(p, n):
    subspaces = list(enumerate_subspaces(GF(p), n))
    expected = sum(gaussian_binomial(n, k, p) for k in range(n + 1))
    assert len(subspaces) == expected
    assert len(set(subspaces)) == expected  # canonical bases, no repeats
    # spot-check: every enumerated basis is already canonical
    for s in subspaces:
        rebuilt = subspace_from_vectors(GF(p), n, s.vectors())
        assert subspace_equal(s, rebuilt)


def test_enumerate_ideals_golden():
    zero_product = EvolutionAlgebra.from_squares(GF(2), [(0, 0), (0, 0)])
    ideals = enumerate_ideals(zero_product)
    assert len(ideals) == 5  # every subspace of F_2^2

    simple = pair_cycle_mixing(GF(2))
    ideals = enumerate_ideals(simple)
    assert sorted(s.dim for s in ideals) == [0, 2]

    loops = double_loop(GF(2))
    ideals = enumerate_ideals(loops)
    lines = [s for s in ideals if s.dim == 1]
    axes = {s.vectors()[0] for s in lines}
    assert (1, 0) in axes and (0, 1) in axes


def test_budget_and_field_guards():
    with pytest.raises(FieldError):
        enumerate_ideals(pair_cycle_mixing(QQ))
    big = EvolutionAlgebra.from_squares(GF(5), [(1,) * 6] * 6)
    with pytest.raises(BudgetExceededError):
        enumerate_ideals(big, EnumerationBudget(max_vectors=100))
    # a roomier budget admits the same instance
    small = EvolutionAlgebra.from_squares(GF(2), [(1, 0), (0, 1)])
    assert enumerate_ideals(small, EnumerationBudget(max_vectors=4))


@pytest.mark.parametrize("p,n", [(2, 0), (2, 5), (3, 4), (7, 3), (10007, 2)])
def test_subspace_count_sums_gaussian_binomials(p, n):
    assert subspace_count(p, n) == sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def test_subspace_cap_refuses_instances_the_vector_budget_admits():
    # GF(2)^8: 256 vectors, 417199 subspaces; GF(2)^7 (29212) still passes
    assert subspace_count(2, 7) <= MAX_SUBSPACES < subspace_count(2, 8)
    eight = EvolutionAlgebra.from_squares(GF(2), [(1,) * 8] * 8)
    with pytest.raises(BudgetExceededError, match="subspaces"):
        enumerate_ideals(eight, EnumerationBudget(max_vectors=10 ** 6))


def test_radical_oracle_golden():
    nondeg = pair_cycle_mixing(GF(2))
    assert radical_oracle(nondeg).dim == 0

    dead = all_chains_die(GF(2))
    assert radical_oracle(dead).dim == 6
    assert subspace_equal(radical_oracle(dead), radical(dead))

    # a sink plus an untouched loop: the radical is exactly the sink line
    half = EvolutionAlgebra.from_squares(GF(2), [(0, 0), (0, 1)])
    oracle_rad = radical_oracle(half)
    assert subspace_equal(oracle_rad, subspace_from_vectors(GF(2), 2, [(1, 0)]))
    assert subspace_equal(oracle_rad, radical(half))


def test_simple_oracle_golden():
    assert simple_oracle(pair_cycle_mixing(GF(2)))
    assert not simple_oracle(double_loop(GF(2)))
    zero_product = EvolutionAlgebra.from_squares(GF(2), [(0, 0), (0, 0)])
    assert not simple_oracle(zero_product)  # the square of the algebra is 0


def test_classical_checks_golden():
    # semiprime yet classically degenerate: e1 (A e1) = 0
    checks = classical_checks(pair_cycle_mixing(GF(2)))
    assert checks.semiprime and not checks.classically_nondegenerate

    # non-degenerate with a square-zero line through e2+e3
    checks = classical_checks(nilpotent_line_nondegenerate(GF(3)))
    a = nilpotent_line_nondegenerate(GF(3))
    assert is_nondegenerate(a)
    assert not checks.semiprime

    zero_product = EvolutionAlgebra.from_squares(GF(2), [(0, 0), (0, 0)])
    assert not classical_checks(zero_product).semiprime


def test_fast_paths_agree_with_oracles_on_random_corpus():
    rng = make_rng(515151)
    for field in (GF(2), GF(3)):
        for _ in range(30):
            a = random_algebra(rng, field, rng.randrange(1, 4))
            ideals = enumerate_ideals(a)
            assert subspace_equal(radical(a), radical_oracle(a, ideals=ideals))
            assert bool(is_simple(a)) == simple_oracle(a, ideals=ideals)
            for s in ideals:
                absorbing = has_absorption_property(a, s)
                assert absorbing == absorption_oracle(a, s)
                if absorbing:
                    # absorbing ideals are spanned by standard basis vectors
                    for row in s.vectors():
                        assert sum(1 for x in row if x) == 1
            checks = classical_checks(a, ideals=ideals)
            if checks.classically_nondegenerate:
                assert checks.semiprime
            if checks.semiprime:
                assert is_nondegenerate(a)
