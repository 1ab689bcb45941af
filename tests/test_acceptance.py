"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with -s to see them).  All comparisons are exact; there are no
tolerances anywhere.
"""

import functools
import json

from evolalg import (GF, QQ, InternalConsistencyError,
                     absorption_oracle, annihilator, associated_graph,
                     classical_checks, enumerate_ideals,
                     has_absorption_property, ideal_closure,
                     ideal_generated_by, ideal_generated_by_square,
                     is_ideal, is_irreducible, is_nondegenerate, is_simple,
                     mu_n, optimal_decomposition, quotient, radical,
                     radical_oracle, simple_oracle, subspace_equal,
                     subspace_from_vectors)
from evolalg.cli import main as cli_main
from evolalg.documents import emit_document, export_dot, parse_document
from evolalg.linalg import coordinate_subspace
from support import (ALL_REFERENCE_BUILDERS, double_loop, entangled_squares,
                     fan_to_swap_pair, graph_core_loop_tail,
                     graph_core_triple, graph_core_with_side_loop,
                     graph_cycle_with_entry, graph_fan_swap,
                     inverse_permutation, make_rng, pair_cycle_mixing,
                     nilpotent_line_nondegenerate, out_edge_sets, random_algebra,
                     random_element, random_permutation, relabel,
                     shared_loop_target, swap_pair_plus_loop,
                     two_loops_two_sinks, two_sinks_and_pair, vec_add, vec_scale)


def finish(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print("criterion %d: %s - %s" % (number, status, name))
    assert not failures, "%d failure(s):\n%s" % (len(failures), "\n".join(failures))


def check(failures, condition, message):
    if not condition:
        failures.append(message)


@functools.cache
def oracle_corpus():
    """Fixed 260-instance corpus of dim <= 3 algebras over F2/F3, plus every
    reference algebra reduced mod 2 and mod 3, built once: criteria 2, 6
    and 7 share its algebras, and with them each one's enumerated ideals."""
    rng = make_rng(1002)
    corpus = []
    for k in range(260):
        field = GF(2) if k % 2 == 0 else GF(3)
        corpus.append(random_algebra(rng, field, rng.randrange(1, 4)))
    for build in ALL_REFERENCE_BUILDERS:
        for p in (2, 3):
            corpus.append(build(GF(p)))
    return tuple(corpus)


def decomposition_corpus():
    rng = make_rng(1003)
    corpus = []
    for k in range(500):
        field = QQ if k % 2 == 0 else GF(5)
        corpus.append(random_algebra(rng, field, rng.randrange(2, 9)))
    return corpus


def test_criterion_1_golden_example_suite():
    failures = []

    g = associated_graph(fan_to_swap_pair())
    check(failures, out_edge_sets(g) == ({2, 3}, set(), {4}, {3}),
          "adjacency of the fan-into-cycle example is off")

    a = two_sinks_and_pair()
    expected_ann = subspace_from_vectors(QQ, 6, [a.basis_element(1), a.basis_element(3)])
    check(failures, subspace_equal(annihilator(a), expected_ann),
          "annihilator should be spanned by e1 and e3")

    e_graph = graph_fan_swap()
    check(failures, e_graph.descendents_m(3, 1) == {4}, "one-step set of vertex 3")
    check(failures, e_graph.descendents(3) == {3, 4}, "descendents of vertex 3")
    f_graph = graph_cycle_with_entry()
    check(failures, f_graph.descendents(2) == {2, 3, 4}, "descendents of vertex 2")

    core = graph_core_triple()
    check(failures,
          {i for i in range(1, 5) if core.is_cyclic_index(i)} == {1, 2, 3},
          "cyclic indices of the triangle-core graph")
    check(failures, core.principal_cycles() == ({1, 2, 3},),
          "triangle core should be entirely principal")
    check(failures, core.chain_start_indices() == frozenset(),
          "triangle-core graph has no chain starts")

    side = graph_core_with_side_loop()
    check(failures,
          {i for i in range(1, 6) if side.is_cyclic_index(i)} == {2, 3, 4, 5},
          "cyclic indices of the side-loop graph")
    check(failures,
          side.cycle_of(2) == side.cycle_of(3) == side.cycle_of(5) == {2, 3, 5},
          "shared cycle of 2, 3, 5")
    check(failures, side.cycle_of(4) == {4}, "the side loop is its own cycle")
    check(failures, side.principal_cycles() == ({4},),
          "only the side loop is principal")
    check(failures, side.chain_start_indices() == {1}, "chain start of the side-loop graph")

    tail = graph_core_loop_tail()
    check(failures,
          {i for i in range(1, 7) if tail.is_cyclic_index(i)} == {2, 3, 4, 6},
          "cyclic indices of the loop-tail graph")
    check(failures, tail.principal_cycles() == (),
          "no principal index in the loop-tail graph")
    check(failures, tail.chain_start_indices() == {1}, "chain start of the loop-tail graph")

    b = entangled_squares()
    span = ideal_generated_by_square(b, 1)
    check(failures, span.dim == 2, "ideal generated by e1^2 should be a plane")
    check(failures, is_ideal(b, span), "that plane should be an ideal")

    c = swap_pair_plus_loop()
    sub = subspace_from_vectors(QQ, 3, [(1, 1, 0), (0, 0, 1)])
    check(failures, not is_ideal(c, sub), "the natural-basis subalgebra is not an ideal")

    check(failures, not is_simple(double_loop()), "two disjoint loops are not simple")
    check(failures, bool(is_irreducible(shared_loop_target())),
          "the shared-target algebra is irreducible")

    finish(1, "golden worked examples", failures)


def test_criterion_2_oracle_equivalence_gate():
    failures = []
    for idx, a in enumerate(oracle_corpus()):
        ideals = enumerate_ideals(a)
        if not subspace_equal(radical(a), radical_oracle(a)):
            failures.append("instance %d: radical disagrees with enumeration" % idx)
        if bool(is_simple(a)) != simple_oracle(a):
            failures.append("instance %d: simplicity disagrees with enumeration" % idx)
        for s in ideals:
            absorbing = has_absorption_property(a, s)
            if absorbing != absorption_oracle(a, s):
                failures.append("instance %d: absorption disagrees on a dim-%d ideal"
                                % (idx, s.dim))
            if absorbing and any(sum(map(bool, row)) != 1 for row in s.vectors()):
                failures.append("instance %d: an absorbing dim-%d ideal is not spanned by"
                                " unit vectors" % (idx, s.dim))
    finish(2, "brute-force oracle equivalence (zero mismatches)", failures)


def test_criterion_3_decomposition_validity_and_uniqueness():
    failures = []
    corpus = decomposition_corpus()
    nondegenerate = []
    for idx, a in enumerate(corpus):
        f = a.field
        graph = associated_graph(a)
        report = optimal_decomposition(a)
        seen = set()
        for block in report.blocks:
            if block.indices & seen:
                failures.append("instance %d: blocks overlap" % idx)
            seen |= block.indices
            if not is_ideal(a, coordinate_subspace(f, a.dim, block.indices)):
                failures.append("instance %d: block fails the ideal test" % idx)
        if seen != set(range(1, a.dim + 1)):
            failures.append("instance %d: blocks miss part of the index set" % idx)
        for x, bx in enumerate(report.blocks):
            for by in report.blocks[x + 1:]:
                for i in bx.indices:
                    for j in by.indices:
                        product = a.multiply(a.basis_element(i), a.basis_element(j))
                        if any(product):
                            failures.append("instance %d: cross-block product" % idx)
        if tuple(b.indices for b in report.blocks) != graph.weak_components():
            failures.append("instance %d: blocks differ from weak components" % idx)
        if report.optimal_certified:
            nondegenerate.append((idx, a, {frozenset(b.indices) for b in report.blocks}))

    check(failures, len(nondegenerate) >= 30,
          "non-degenerate subset too small to exercise uniqueness")
    rng = make_rng(1004)
    for idx, a, base in nondegenerate:
        for _ in range(20):
            perm = random_permutation(rng, a.dim)
            inv = inverse_permutation(perm)
            shuffled = relabel(a, perm)
            expected = {frozenset(inv[k - 1] for k in block) for block in base}
            got = {frozenset(b.indices)
                   for b in optimal_decomposition(shuffled).blocks}
            if got != expected:
                failures.append("instance %d: partition not permutation-equivariant" % idx)
                break
    finish(3, "decomposition validity on 500 random algebras + uniqueness", failures)


def test_criterion_4_degenerate_regression():
    failures = []
    a = two_loops_two_sinks()
    report = optimal_decomposition(a)
    check(failures,
          [sorted(b.indices) for b in report.blocks] == [[1, 2], [3, 5], [4]],
          "fragmentation blocks are not [{1,2},{3,5},{4}]")
    check(failures, report.optimal_certified is False,
          "a degenerate algebra must not certify optimality")
    check(failures,
          is_ideal(a, subspace_from_vectors(QQ, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])),
          "lin{e1,e2} should be an ideal")
    check(failures,
          is_ideal(a, subspace_from_vectors(QQ, 5, [(0, 0, 1, 0, 1)])),
          "lin{e3+e5} should be an ideal")
    finish(4, "degenerate non-uniqueness regression", failures)


def test_criterion_5_generated_ideal_identities():
    failures = []
    rng = make_rng(1005)
    for k in range(200):
        field = QQ if k % 2 == 0 else GF(5)
        a = random_algebra(rng, field, rng.randrange(1, 7))
        x = random_element(rng, field, a.dim)
        if not subspace_equal(ideal_generated_by(a, x), ideal_closure(a, x)):
            failures.append("pair %d: closed form differs from iterative closure" % k)
        graph = associated_graph(a)
        for i in range(1, a.dim + 1):
            for n in range(1, a.dim + 1):
                expected = subspace_from_vectors(
                    field, a.dim,
                    [a.square_of_basis(j) for j in sorted(graph.descendents_m(i, n))])
                if not subspace_equal(mu_n(a, a.square_of_basis(i), n), expected):
                    failures.append("pair %d: depth-%d span of e%d^2 is off" % (k, n, i))
    finish(5, "generated ideals: closed form vs iterated multiplication", failures)


def test_criterion_6_radical_tower():
    failures = []
    corpus = (list(oracle_corpus()) + decomposition_corpus()
              + [build() for build in ALL_REFERENCE_BUILDERS])
    for idx, a in enumerate(corpus):
        ann = annihilator(a)
        rad = radical(a)
        if not all(rad.contains(v) for v in ann.vectors()):
            failures.append("instance %d: annihilator escapes the radical" % idx)
        if (rad.dim == 0) != (ann.dim == 0):
            failures.append("instance %d: radical and annihilator vanish differently" % idx)
        if annihilator(quotient(a, rad).quotient).dim != 0:
            failures.append("instance %d: quotient by the radical is degenerate" % idx)
    finish(6, "radical tower on the whole corpus", failures)


def test_criterion_7_classical_notions_chain():
    failures = []
    for idx, a in enumerate(oracle_corpus()):
        checks = classical_checks(a)
        if checks.classically_nondegenerate and not checks.semiprime:
            failures.append("instance %d: classically nondegenerate but not semiprime" % idx)
        if checks.semiprime and not is_nondegenerate(a):
            failures.append("instance %d: semiprime but degenerate" % idx)

    first = classical_checks(pair_cycle_mixing(GF(2)))
    check(failures, first.semiprime and not first.classically_nondegenerate,
          "mixing pair should be semiprime yet classically degenerate")
    second_alg = nilpotent_line_nondegenerate(GF(3))
    second = classical_checks(second_alg)
    check(failures, is_nondegenerate(second_alg) and not second.semiprime,
          "nilpotent-line algebra should be non-degenerate yet not semiprime")
    finish(7, "classical nondegeneracy/semiprimeness implication chain", failures)


def test_criterion_8_algebra_laws():
    failures = []
    rng = make_rng(1008)
    for k in range(1000):
        field = (QQ, GF(2), GF(5))[k % 3]
        a = random_algebra(rng, field, rng.randrange(1, 7))
        x = random_element(rng, field, a.dim)
        y = random_element(rng, field, a.dim)
        z = random_element(rng, field, a.dim)
        if a.multiply(x, y) != a.multiply(y, x):
            failures.append("triple %d: commutativity" % k)
        if a.multiply(x, a.multiply(y, x)) != a.multiply(a.multiply(x, y), x):
            failures.append("triple %d: flexibility" % k)
        left = a.multiply(vec_add(field, x, z), y)
        right = vec_add(field, a.multiply(x, y), a.multiply(z, y))
        if left != right:
            failures.append("triple %d: additivity" % k)
        c = random_element(rng, field, 1)[0]
        if a.multiply(vec_scale(field, c, x), y) != vec_scale(field, c, a.multiply(x, y)):
            failures.append("triple %d: scalar homogeneity" % k)

    finish(8, "product laws on 1000 random triples", failures)


def test_criterion_9_cli_contract(tmp_path, capsys, monkeypatch):
    failures = []

    rng = make_rng(1009)
    for k in range(100):
        field = (QQ, GF(2), GF(7))[k % 3]
        a = random_algebra(rng, field, rng.randrange(1, 7))
        text = emit_document(a)
        if parse_document(text) != a or emit_document(parse_document(text)) != text:
            failures.append("document %d: round trip broke" % k)

    for graph in (graph_fan_swap(), graph_core_with_side_loop()):
        renders = {export_dot(graph) for _ in range(3)}
        if len(renders) != 1:
            failures.append("DOT export not byte-stable")

    doc = tmp_path / "sample.alg"
    doc.write_text(emit_document(two_loops_two_sinks()))

    code = cli_main(["analyze", "--input", str(doc), "--json"])
    out = capsys.readouterr().out
    check(failures, code == 0, "exit 0 expected on success")
    check(failures, json.loads(out)["optimal_certified"] is False,
          "analyze output should flag the degenerate example")

    bad = tmp_path / "bad.alg"
    bad.write_text("field rational\ndim 1\nmatrix\n1/0\n")
    code = cli_main(["analyze", "--input", str(bad)])
    capsys.readouterr()
    check(failures, code == 1, "exit 1 expected on a malformed scalar")

    code = cli_main(["analyze", "--input", str(tmp_path / "nope.alg")])
    capsys.readouterr()
    check(failures, code == 1, "exit 1 expected on a missing file")

    code = cli_main(["analyze", "--input", str(doc), "--bogus-flag"])
    capsys.readouterr()
    check(failures, code == 1, "exit 1 expected on an unknown flag")

    code = cli_main(["oracle", "--input", str(doc), "--field", "prime", "--p", "2",
                     "--max-vectors", "1"])
    capsys.readouterr()
    check(failures, code == 1, "exit 1 expected when the budget refuses the instance")

    import evolalg.report as report_module

    def explode(_):
        raise InternalConsistencyError("induced failure for the exit-code check")

    monkeypatch.setattr(report_module, "optimal_decomposition", explode)
    code = cli_main(["analyze", "--input", str(doc)])
    capsys.readouterr()
    check(failures, code == 2, "exit 2 expected on an internal consistency failure")
    monkeypatch.undo()

    finish(9, "CLI contract: round trips, DOT stability, exit codes", failures)
