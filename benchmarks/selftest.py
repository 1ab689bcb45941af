"""Tests of the benchmark itself: seeded corpora, the independent checker
and the repeatability of the traced counts.

    python3 -m pytest -q benchmarks/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402


def corpus_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.suffix in (".alg", ".basis")}


@pytest.mark.parametrize("workload", sorted(corpus.FAMILIES))
def test_seed_fixes_the_corpus(tmp_path, workload):
    corpus.build(workload, 7, tmp_path / "a")
    corpus.build(workload, 7, tmp_path / "b")
    corpus.build(workload, 8, tmp_path / "c")
    first = corpus_bytes(tmp_path / "a")
    assert first == corpus_bytes(tmp_path / "b")
    assert set(first) == set(corpus_bytes(tmp_path / "c"))
    assert all(first[name] != data for name, data in corpus_bytes(tmp_path / "c").items())


@pytest.fixture(scope="module")
def queries_doc(tmp_path_factory):
    """The first queries-qq document (QQ, four blocks, sinks), its session
    outputs and its analyze report."""
    items = corpus.build("queries-qq", 3, tmp_path_factory.mktemp("queries"))
    cli = run.load_program()
    item = items[0]
    analyze = dict(item, steps=[("analyze", ["analyze", "--json", "--input", item["doc"]])])
    return item, run.run_item(cli, item), run.run_item(cli, analyze).outputs[0]


def test_checker_accepts_the_program_outputs(queries_doc):
    item, result, report = queries_doc
    checker = check.Checker()
    assert result.codes == [0] * len(item["steps"])
    for (_, argv), output in zip(item["steps"], result.outputs):
        assert checker.check_step(argv, output) == []
    assert checker.check_step(["analyze", "--json", "--input", item["doc"]], report) == []


def flip_simple(payload):
    payload["simple"] = not payload["simple"]


def drop_radical_row(payload):
    payload["radical"].pop()


def wrong_det(payload):
    payload["blocks"][0]["det"] = str(Fraction(payload["blocks"][0]["det"]) + 1)


def split_block(payload):
    block = payload["blocks"][0]
    half = len(block["indices"]) // 2
    payload["blocks"][:1] = [dict(block, indices=block["indices"][:half]),
                             dict(block, indices=block["indices"][half:])]


@pytest.mark.parametrize("mutate", [flip_simple, drop_radical_row, wrong_det, split_block])
def test_checker_rejects_a_mutated_report(queries_doc, mutate):
    item, _, report = queries_doc
    payload = json.loads(report)
    mutate(payload)
    argv = ["analyze", "--json", "--input", item["doc"]]
    assert check.Checker().check_step(argv, json.dumps(payload, indent=2) + "\n")


def test_checker_rejects_a_quotient_column_off_by_one(queries_doc):
    item, result, _ = queries_doc
    position = [label for label, _ in item["steps"]].index("quotient")
    argv = item["steps"][position][1]
    payload = json.loads(result.outputs[position])
    payload["quotient_structure"][0][0] = str(Fraction(payload["quotient_structure"][0][0]) + 1)
    problems = check.Checker().check_step(argv, json.dumps(payload, indent=2) + "\n")
    assert any("column 1" in p for p in problems)


def traced_metrics(corpus_dir: Path, trace_file: Path) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "tracer.py"), "--corpus", str(corpus_dir),
                           "--trace-file", str(trace_file)],
                          capture_output=True, text=True, check=True, cwd=HERE.parent)
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]


@pytest.mark.parametrize("workload", ["analyze-blocks-gf", "queries-qq"])
def test_traced_counts_repeat_exactly(tmp_path, workload):
    items = corpus.build(workload, 5, tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(items[:2]), encoding="utf-8")
    first = traced_metrics(tmp_path, tmp_path / "trace1.json")
    second = traced_metrics(tmp_path, tmp_path / "trace2.json")
    counts = {name for name, m in first.items() if m["unit"] in ("count", "rows")}
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    # det is rebound inside decompose too, so analyze sees both dets
    assert first["linalg.det.calls"]["value"] >= 2
    spans = json.loads((tmp_path / "trace1.json").read_text(encoding="utf-8"))["spans"]
    assert {span[4] for span in spans} == {0, 1}
