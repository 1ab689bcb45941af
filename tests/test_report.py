import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evolalg.cli
import evolalg.decompose
import evolalg.linalg
from evolalg import (GF, QQ, AssociatedGraph, EvolutionAlgebra, algebra_from_graph,
                     ideal_generated_by, optimal_decomposition)
from evolalg.cli import main
from evolalg.documents import emit_document, parse_document
from evolalg.ideals import annihilator, radical
from evolalg.report import ANALYZE_KEYS, SECTION_KEYS, build_report, render_json
from support import (FIXED, algebras, interleaved_blocks, make_rng, random_algebra,
                     weighted_digraph_algebras)


def fresh(algebra):
    """An equal algebra with nothing memoised yet."""
    return EvolutionAlgebra(algebra.field, algebra.structure)


@FIXED
@given(st.sampled_from([QQ, GF(2), GF(7)]).flatmap(
    lambda f: st.one_of(algebras(f), weighted_digraph_algebras(f))))
def test_each_section_is_the_analyze_report_filtered_to_its_keys(a):
    # every section is built on its own algebra object first, so it
    # computes its keys with nothing left behind by another section
    sections = {name: build_report(fresh(a), name) for name in SECTION_KEYS}
    full = build_report(a)
    assert list(full) == list(ANALYZE_KEYS)
    assert build_report(a, "analyze") == full
    for name, keys in SECTION_KEYS.items():
        assert list(sections[name]) == list(keys)
        assert sections[name] == {key: full[key] for key in keys}


@pytest.fixture
def counted_calls(monkeypatch):
    """Counts of the calls to linalg.det, to
    decompose.canonical_decomposition and to linalg.coordinate_subspace,
    through every name the package holds for each, not just one."""
    calls = {"det": 0, "canonical_decomposition": 0, "coordinate_subspace": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("det", evolalg.linalg.det),
                     ("canonical_decomposition", evolalg.decompose.canonical_decomposition),
                     ("coordinate_subspace", evolalg.linalg.coordinate_subspace)):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("evolalg") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    return calls


def test_radical_runs_no_det_and_no_canonical_decomposition(counted_calls, tmp_path, capsys):
    calls = counted_calls
    rng = make_rng(8642)
    analyze_dets = 0
    for k in range(30):
        field = (QQ, GF(7))[k % 2]
        a = random_algebra(rng, field, rng.randrange(1, 9), zero_col_prob=0.25 * (k % 3))
        doc = tmp_path / ("a%d.alg" % k)
        doc.write_text(emit_document(a))
        build_report(a, "radical")
        for as_json in ((), ("--json",)):
            assert main(["radical", "--input", str(doc), *as_json]) == 0
        assert calls == {"det": 0, "canonical_decomposition": 0, "coordinate_subspace": 0}
        # the counters do see both: the analyze section runs them
        build_report(a)
        assert calls["canonical_decomposition"] > 0
        analyze_dets += calls["det"]
        calls.update(det=0, canonical_decomposition=0)
    assert analyze_dets
    capsys.readouterr()


def test_simple_runs_no_canonical_decomposition(counted_calls, tmp_path, capsys):
    # the simple verdict reads D(i) == Lambda off the graph's condensation
    calls = counted_calls
    rng = make_rng(9753)
    verdicts = set()
    for k in range(30):
        field = (QQ, GF(7))[k % 2]
        a = random_algebra(rng, field, rng.randrange(1, 9), zero_col_prob=0.2 * (k % 3))
        doc = tmp_path / ("a%d.alg" % k)
        doc.write_text(emit_document(a))
        verdicts.add(build_report(a, "simple")["simple"])
        for as_json in ((), ("--json",)):
            assert main(["simple", "--input", str(doc), *as_json]) == 0
        assert calls["canonical_decomposition"] == 0
        build_report(a, "decompose")
        assert calls["canonical_decomposition"] > 0
        calls.update(det=0, canonical_decomposition=0)
    assert verdicts == {True, False}
    capsys.readouterr()


def test_reports_build_no_coordinate_subspace_and_no_structure_view(
        counted_calls, monkeypatch, tmp_path, capsys):
    # blocks are index sets and block dets slice the squares, so no section
    # writes a basis-spanned ideal down or makes the row-major structure
    calls = counted_calls
    parsed = []

    def recorded(*args, **kwargs):
        algebra = parse_document(*args, **kwargs)
        parsed.append(algebra)
        return algebra

    monkeypatch.setattr(evolalg.cli, "parse_document", recorded)
    rng = make_rng(4217)
    for k in range(30):
        field = (QQ, GF(7))[k % 2]
        text = emit_document(random_algebra(rng, field, rng.randrange(1, 9),
                                            zero_col_prob=0.2 * (k % 3)))
        doc = tmp_path / ("a%d.alg" % k)
        doc.write_text(text)
        for name in SECTION_KEYS:
            a = parse_document(text)
            build_report(a, name)
            assert "structure" not in vars(a)
            for as_json in ((), ("--json",)):
                assert main([name, "--input", str(doc), *as_json]) == 0
        assert calls["coordinate_subspace"] == 0
        assert len(parsed) == 8 and not any("structure" in vars(b) for b in parsed)
        parsed.clear()
    # the counter does see coordinate_subspace, and structure is a view
    radical(a)
    assert calls["coordinate_subspace"] > 0
    assert a.structure is vars(a)["structure"]
    capsys.readouterr()


def test_analyze_runs_no_vertex_level_closure(monkeypatch):
    # the derived sets of the canonical parts are read off the exit sets
    # that the Tarjan pass records, so the report scans the edges once
    seeds = []
    closure = AssociatedGraph.forward_closure

    def counted(graph, given):
        seeds.append(given)
        return closure(graph, given)

    monkeypatch.setattr(AssociatedGraph, "forward_closure", counted)
    n = 24
    # one strongly connected component: a Hamiltonian cycle with chords
    strong = [(i, i % n + 1) for i in range(1, n + 1)] + [(i, (i + 6) % n + 1)
                                                           for i in range(1, n + 1, 3)]
    for edges, parts, weak in ((strong, 1, 1), (interleaved_blocks(), 8, 4)):
        a = algebra_from_graph(GF(10007), AssociatedGraph.from_edges(n, edges))
        report = build_report(a, "analyze")
        assert len(evolalg.decompose.canonical_decomposition(a)) == parts
        assert len(report["blocks"]) == weak
        assert seeds == []
        # the counter does see the closure that a generated ideal searches
        ideal_generated_by(a, a.basis_element(1))
        assert seeds
        seeds.clear()


def _strings():
    """Texts that json must escape: quotes, backslashes, control
    characters, non-ASCII letters and characters outside the BMP."""
    return st.one_of(st.text(), st.text(alphabet='"\\/\n\t\x00\x1f\x7f\u00e9\u4e2d\U0001f600 ab'))


class _Text(str):
    """A str subclass, which json writes as the str it holds."""


def _text_lists():
    """Lists and tuples of the texts a report prints, which the writer
    quotes and joins as they are, and lists that leave that route: a str
    subclass among them, an int or None after a leading str, which makes
    the join raise partway through, or one text that json escapes."""
    texts = st.one_of(st.builds(str, st.integers()), st.builds(str, st.fractions()),
                      st.just(""))
    mixed = st.one_of(texts, st.builds(_Text, st.one_of(texts, _strings())))
    escaped = st.sampled_from(['"', "\\", "\x1f", "\x7f", "\u00e9", "\u2028"])
    return st.one_of(
        st.lists(texts, min_size=1), st.lists(texts, min_size=1).map(tuple),
        st.lists(mixed, min_size=1),
        st.builds(lambda first, rest, other, tail: [first, *rest, other, *tail],
                  texts, st.lists(texts), st.one_of(st.integers(), st.none()), st.lists(mixed)),
        st.builds(lambda head, text, tail: [*head, text, *tail],
                  st.lists(texts), st.builds("{}{}{}".format, texts, escaped, texts),
                  st.lists(texts)))


def _json_values():
    """Nested JSON values; floats and dicts with int keys take the route
    through json itself.  The others are shaped like reports: a dict of
    rows of texts (_text_lists) beside the rows themselves."""
    ints = st.one_of(st.integers(), st.integers(min_value=-10 ** 60, max_value=10 ** 60))
    leaves = st.one_of(st.none(), st.booleans(), ints, _strings(), st.floats(),
                       st.lists(_strings()), st.lists(ints), st.lists(st.booleans()))
    rows = st.lists(_text_lists(), min_size=1, max_size=3)
    return st.one_of(st.recursive(leaves, lambda children: st.one_of(
        st.lists(children), st.dictionaries(_strings(), children),
        st.dictionaries(st.one_of(_strings(), st.integers()), children, max_size=3)),
        max_leaves=30), st.dictionaries(_strings(), st.one_of(rows, _text_lists()), min_size=1,
                                        max_size=3))


# twice the default count, so the nested values keep the draws they had
# before the report-shaped arm joined them
@settings(FIXED, max_examples=200)
@given(_json_values())
# each text that json escapes, alone in a list of scalar texts
@example(["-12", '3/5"', ""])
@example(["-12", "3/5\\", ""])
@example(["-12", "3/5\x1f", ""])
@example(["-12", "3/5\x7f", ""])
@example(["-12", "3/5\u00e9", ""])
@example(["-12", "3/5\u2028", ""])
@example({"rows": [("0", "-12", "3/5", ""), [_Text("1"), "0"], ["0", _Text('"')]]})
@example({"rows": [["0", "1", 2], ["0", None], ["", True]]})
def test_render_json_is_json_dumps_with_indent_2(value):
    assert render_json(value) == json.dumps(value, indent=2) + "\n"


@FIXED
@given(st.sampled_from([QQ, GF(2), GF(7)]).flatmap(
    lambda f: st.one_of(algebras(f), weighted_digraph_algebras(f))))
def test_annihilator_and_radical_rows_format_the_subspaces(a):
    report = build_report(a, "radical")
    for key, subspace in (("annihilator", annihilator(a)), ("radical", radical(a))):
        assert report[key] == [list(map(str, row)) for row in subspace.vectors()]


# the primes of the reduction property; none divides a nonzero entry or a
# denominator of its documents
REDUCTION_PRIMES = (5, 7, 10007)
COPRIME = st.integers(min_value=10, max_value=10 ** 6).filter(
    lambda x: all(x % p for p in REDUCTION_PRIMES))


@st.composite
def coprime_documents(draw):
    """The text of a QQ document of dim 1..8 whose entries are 0 or
    multi-digit ints that no prime of REDUCTION_PRIMES divides, nonzero at
    a drawn density, so that read over GF(p) the dense ones take the block
    route.  In one document of four, some entries are fractions of two
    such ints: the QQ det of integral rows divides by no row scale."""
    n = draw(st.integers(min_value=1, max_value=8))
    density = draw(st.integers(min_value=1, max_value=4))  # in quarters
    fractions = draw(st.integers(min_value=0, max_value=3)) == 0

    def entry():
        if draw(st.integers(min_value=0, max_value=3)) >= density:
            return "0"
        text = str(draw(COPRIME))
        return text + "/" + str(draw(COPRIME)) if fractions and draw(st.booleans()) else text

    rows = [" ".join(entry() for _ in range(n)) for _ in range(n)]
    return "field rational\ndim %d\nmatrix\n" % n + "\n".join(rows) + "\n"


def _without(report, keys, block_keys):
    """report less keys, and its blocks less block_keys."""
    out = {key: value for key, value in report.items() if key not in keys}
    out["blocks"] = [{key: value for key, value in block.items() if key not in block_keys}
                     for block in report["blocks"]]
    return out


@FIXED
@given(text=coprime_documents())
def test_reduction_mod_p_maps_the_qq_report_to_the_gf_report(text):
    # reduction mod p is a ring map that keeps every nonzero entry nonzero,
    # so the graph, and all that is read off it, stays; each block det
    # reduces to the GF(p) block det, and where none of those is 0 the
    # simple verdicts agree
    a = parse_document(text)
    report = build_report(a)
    for p in REDUCTION_PRIMES:
        field = GF(p)
        b = parse_document(text, field_override=field)
        dets = [block.det for block in optimal_decomposition(b).blocks]
        assert dets == [field.coerce(block.det) for block in optimal_decomposition(a).blocks]
        keys, block_keys = {"field"}, {"det"}
        if not all(dets):
            keys, block_keys = keys | {"simple", "simple_reasons"}, block_keys | {"simple"}
        assert _without(build_report(b), keys, block_keys) == _without(report, keys, block_keys)
