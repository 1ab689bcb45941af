import sys

from hypothesis import given
from hypothesis import strategies as st

import evolalg.decompose
import evolalg.linalg
from evolalg import GF, QQ, EvolutionAlgebra
from evolalg.cli import main
from evolalg.documents import emit_document
from evolalg.report import ANALYZE_KEYS, SECTION_KEYS, build_report
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


def test_radical_runs_no_det_and_no_canonical_decomposition(monkeypatch, tmp_path, capsys):
    calls = {"det": 0, "canonical_decomposition": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # rebind every name the package holds for the function, not just one
    for name, fn in (("det", evolalg.linalg.det),
                     ("canonical_decomposition", evolalg.decompose.canonical_decomposition)):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("evolalg") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))

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
        assert calls == {"det": 0, "canonical_decomposition": 0}
        # the counters do see both: the analyze section runs them
        build_report(a)
        assert calls["canonical_decomposition"] > 0
        analyze_dets += calls["det"]
        calls.update(det=0, canonical_decomposition=0)
    assert analyze_dets
    capsys.readouterr()
