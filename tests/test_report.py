import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import evolalg.cli
import evolalg.decompose
import evolalg.linalg
from evolalg import GF, QQ, EvolutionAlgebra
from evolalg.cli import main
from evolalg.documents import emit_document, parse_document
from evolalg.ideals import annihilator, radical
from evolalg.report import ANALYZE_KEYS, SECTION_KEYS, build_report, render_json
from support import (FIXED, algebras, make_rng, random_algebra,
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


def _strings():
    """Texts that json must escape: quotes, backslashes, control
    characters, non-ASCII letters and characters outside the BMP."""
    return st.one_of(st.text(), st.text(alphabet='"\\/\n\t\x00\x1f\x7f\u00e9\u4e2d\U0001f600 ab'))


def _json_values():
    """Nested JSON values; floats and dicts with int keys take the route
    through json itself."""
    ints = st.one_of(st.integers(), st.integers(min_value=-10 ** 60, max_value=10 ** 60))
    leaves = st.one_of(st.none(), st.booleans(), ints, _strings(), st.floats(),
                       st.lists(_strings()), st.lists(ints), st.lists(st.booleans()))
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children), st.dictionaries(_strings(), children),
        st.dictionaries(st.one_of(_strings(), st.integers()), children, max_size=3)),
        max_leaves=30)


@FIXED
@given(_json_values())
def test_render_json_is_json_dumps_with_indent_2(value):
    assert render_json(value) == json.dumps(value, indent=2) + "\n"


@FIXED
@given(st.sampled_from([QQ, GF(2), GF(7)]).flatmap(
    lambda f: st.one_of(algebras(f), weighted_digraph_algebras(f))))
def test_annihilator_and_radical_rows_format_the_subspaces(a):
    report = build_report(a, "radical")
    for key, subspace in (("annihilator", annihilator(a)), ("radical", radical(a))):
        assert report[key] == [list(map(str, row)) for row in subspace.vectors()]
