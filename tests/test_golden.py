"""CLI bytes pinned by the committed golden manifest: golden.py makes the
seeded corpus again, runs every invocation in-process and gives each its
manifest line, which must equal the committed one.  The same runs are
held to the exit-code contract, to the groups of runs that must print
equal or different bytes, and to the reference checks of reference.py."""

import json
import os
import shlex
from collections import Counter

import pytest

import golden
import reference


@pytest.fixture(scope="module")
def where(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def corpus(where):
    return golden.results(where)


def test_cli_bytes_match_the_golden_manifest(corpus):
    expected = golden.MANIFEST.read_text(encoding="utf-8").splitlines()
    lines = [golden.manifest_line(*result) for result in corpus[1]]
    moved = [(want, got) for want, got in zip(expected, lines) if want != got]
    assert (len(lines), moved) == (len(expected), [])


def test_every_golden_run_ends_in_exit_0_or_one_error_line(corpus):
    # exit 2 only comes from a cross-check that caught the library
    # disagreeing with itself, so no document reaches it
    odd = [(shlex.join(argv), code, err) for argv, code, _, err in corpus[1]
           if not ((code, err) == (0, "")
                   or (code == 1 and err.count("\n") == 1 and err.endswith("\n")))]
    assert odd == []


def test_equal_inputs_print_equal_bytes(corpus):
    out = {shlex.join(argv): (code, stdout) for argv, code, stdout, _ in corpus[1]}
    for group in golden.SAME:
        printed = {out[shlex.join(argv)] for argv in group}
        assert len(printed) == 1 and next(iter(printed))[0] == 0, group
    for one, other in golden.APART:
        assert out[shlex.join(one)] != out[shlex.join(other)]


def _file(files, argv, flag):
    """The bytes of the corpus file that argv names by flag, None where it
    names none."""
    name = reference.value(argv, flag)
    return name and files[os.path.normpath(name)]


def _checked(corpus, commands):
    """(problems, runs checked per command, block dets) of reference.problems
    over the exit-0 runs of the given commands that it covers."""
    files, ran = corpus
    problems, checked, dets = [], Counter(), []
    for argv, code, out, _ in ran:
        found = None if code or argv[0] not in commands else reference.problems(
            argv, out, _file(files, argv, "--input"), _file(files, argv, "--ideal-basis"))
        if found is None:
            continue
        problems += [(shlex.join(argv)[:80], problem) for problem in found]
        checked[argv[0]] += 1
        if argv[0] != "graph":
            dets += [block["det"] for block in json.loads(out).get("blocks", [])]
    return problems, checked, dets


def test_block_dets_and_projections_match_the_reference(corpus):
    problems, checked, dets = _checked(corpus, {"analyze", "radical", "simple", "quotient"})
    assert problems == []
    # every run that exits 0 with a JSON report
    assert checked == {"analyze": 134, "radical": 100, "simple": 100, "quotient": 96}
    # most det checks compare a nonzero det, not 0 with 0
    assert (len(dets), len(dets) - dets.count("0")) == (247, 137)


def test_dot_edges_and_ideals_match_the_reference(corpus, where, monkeypatch):
    monkeypatch.chdir(where)  # where graph --dot wrote its files
    problems, checked, _ = _checked(corpus, {"graph", "ideal"})
    assert problems == []
    # every run that exits 0 with DOT or a JSON report
    assert checked == {"graph": 116, "ideal": 99}


def _altered(det, p):
    """The texts of det plus and minus 1 and of -det that differ from det."""
    value = reference.scalar(det, p)
    values = {value + 1, value - 1, -value} - {value}
    return sorted(str(x if p is None else x % p) for x in values)


@pytest.mark.parametrize("name", ["denseqq32", "lazyqq", "doc04", "doc08", "chainqq-canon",
                                  "nonsing07", "gf40-none", "doc30", "doc38", "chaingf-canon",
                                  "nonsing19"])
def test_the_reference_refuses_each_altered_det(corpus, name):
    # over QQ and over GF(10007): dets of 1 to 40 rows, fractions among
    # them, and documents of several blocks, some of det 0 and some with
    # a nonzero det on every block
    files, ran = corpus
    argv = ["analyze", "--json", "--input", name + ".alg"]
    (out,) = [out for run, code, out, _ in ran if run == argv and code == 0]
    report, document = json.loads(out), files[name + ".alg"]
    assert reference.analyze_problems(document, report) == []
    for block in report["blocks"]:
        det = block["det"]
        for wrong in _altered(det, report["field"].get("p")):
            block["det"] = wrong
            assert len(reference.analyze_problems(document, report)) == 1, (name, wrong)
        block["det"] = det


def _split_block(report):
    block = next(b for b in report["blocks"] if len(b["indices"]) > 1)
    at = report["blocks"].index(block)
    report["blocks"][at:at + 1] = [dict(block, indices=block["indices"][:1]),
                                   dict(block, indices=block["indices"][1:])]


def _cycle_as_start(report):
    cycle = report["principal_cycles"].pop(0)
    report["chain_start_indices"] = sorted(report["chain_start_indices"] + cycle[:1])


ALTERATIONS = {
    "radical": lambda report: report["radical"].pop(),
    "blocks": _split_block,
    "chain_start_indices": lambda report: report["chain_start_indices"].pop(0),
    "chain_start_indices principal_cycles": _cycle_as_start,
}


@pytest.mark.parametrize("name", ["doc04", "doc25", "more16", "sparse0"])
@pytest.mark.parametrize("keys", ALTERATIONS)
def test_the_reference_refuses_each_altered_report(corpus, name, keys):
    # a radical missing one index, a block split in two, a dropped chain
    # start, and a principal cycle listed as a chain start, over QQ and
    # over prime fields: the reference names the keys altered and no other
    files, ran = corpus
    argv = ["analyze", "--json", "--input", name + ".alg"]
    (out,) = [out for run, code, out, _ in ran if run == argv and code == 0]
    report, document = json.loads(out), files[name + ".alg"]
    assert reference.analyze_problems(document, report) == []
    ALTERATIONS[keys](report)
    found = reference.analyze_problems(document, report)
    assert {problem.split(":")[0] for problem in found} == set(keys.split()), found


def _structure_plus_one(report):
    row, p = report["quotient_structure"][0], report["field"].get("p")
    value = reference.scalar(row[0], p) + 1
    row[0] = str(value if p is None else value % p)


def _chosen_replaced(report):
    chosen = report["chosen"]
    chosen[0] = min(set(range(1, report["dim"] + 1)).difference(chosen))


QUOTIENT_ALTERATIONS = {"quotient_structure": _structure_plus_one, "chosen": _chosen_replaced}


@pytest.mark.parametrize("name", ["doc10", "quotqq", "sparse0", "doc36", "quotgf", "nonsing19"])
@pytest.mark.parametrize("key", QUOTIENT_ALTERATIONS)
def test_the_reference_refuses_each_altered_quotient(corpus, name, key):
    # over QQ and over GF(10007): one structure entry plus 1 is refused as
    # that alone, and a chosen index replaced by one that is not chosen as
    # not the greedy choice (the projection then fails its identity check
    # on the chosen columns too)
    files, ran = corpus
    argv = ["quotient", "--json", "--input", name + ".alg", "--ideal-basis", name + ".basis"]
    (out,) = [out for run, code, out, _ in ran if run == argv and code == 0]
    report, document, basis = json.loads(out), files[name + ".alg"], files[name + ".basis"]
    assert reference.quotient_problems(document, basis, report) == []
    QUOTIENT_ALTERATIONS[key](report)
    found = [problem.split(":")[0] for problem in reference.quotient_problems(document, basis,
                                                                              report)]
    assert found == [key] if key == "quotient_structure" else key in found, found


@pytest.mark.parametrize("name", ["doc05", "sparse0", "doc36", "nonsing19"])
def test_the_reference_refuses_an_ideal_missing_a_row_and_a_graph_missing_an_edge(corpus, name):
    files, ran = corpus
    document = files[name + ".alg"]
    (argv, out), = [(run, out) for run, code, out, _ in ran
                    if run[:3] == ["ideal", "--json", "--input"] and run[3] == name + ".alg"]
    report, vector = json.loads(out), argv[argv.index("--vector") + 1]
    assert reference.ideal_problems(document, vector, report) == []
    # one basis row dropped, and the dim with it: the rows are still
    # reduced, but neither the dim nor the span is the closure's
    report["ideal_basis"].pop()
    report["ideal_dim"] -= 1
    assert [problem.split(":")[0] for problem in reference.ideal_problems(
        document, vector, report)] == ["ideal_dim", "ideal_basis"]
    (dot,) = [out for run, code, out, _ in ran if run == ["graph", "--input", name + ".alg"]]
    p = reference.modulus(document, [])
    assert reference.graph_problems(document, dot, p) == []
    edge = next(line for line in dot.splitlines() if "->" in line)
    assert len(reference.graph_problems(document, dot.replace(edge + "\n", ""), p)) == 1
