import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from evolalg import GF, EvolutionAlgebra, linalg
from evolalg.cli import _COMMANDS, _build_parser, main
from evolalg.documents import emit_document
from evolalg.errors import FieldError, InternalConsistencyError
from evolalg.fields import PrimeField, Rationals
from support import (FIXED, FUZZ_ARGS, FUZZ_DIMS, FUZZ_MODULI, FUZZ_TOKENS, double_loop,
                     entangled_squares, pair_cycle_mixing, swap_pair_plus_loop,
                     two_loops_two_sinks)

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_doc(tmp_path, algebra, name="input.alg"):
    path = tmp_path / name
    path.write_text(emit_document(algebra))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_golden(tmp_path, capsys):
    doc = write_doc(tmp_path, two_loops_two_sinks())
    code, out, err = run(capsys, "analyze", "--input", doc, "--json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["blocks"] == [
        {"indices": [1, 2], "nondegenerate": True, "simple": False, "det": "0"},
        {"indices": [3, 5], "nondegenerate": False, "simple": False, "det": "0"},
        {"indices": [4], "nondegenerate": False, "simple": False, "det": "0"},
    ]
    assert report["optimal_certified"] is False
    assert report["chain_start_indices"] == [2, 4]
    assert report["principal_cycles"] == [[3]]
    assert report["radical"] == [["0", "0", "0", "1", "0"], ["0", "0", "0", "0", "1"]]


def test_analyze_json_schema_and_key_order(tmp_path, capsys):
    import jsonschema
    from evolalg import GF
    schema = json.loads(SCHEMA_PATH.read_text())
    for algebra in (two_loops_two_sinks(), pair_cycle_mixing(),
                    entangled_squares(), pair_cycle_mixing(GF(3))):
        doc = write_doc(tmp_path, algebra)
        code, out, _ = run(capsys, "analyze", "--input", doc, "--json")
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert list(report.keys()) == [
            "field", "dim", "annihilator", "radical", "nondegenerate",
            "chain_start_indices", "principal_cycles", "canonical_parts",
            "blocks", "simple", "simple_reasons", "optimal_certified"]


def test_analyze_output_is_deterministic(tmp_path, capsys):
    doc = write_doc(tmp_path, two_loops_two_sinks())
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "analyze", "--input", doc, "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_simple_subcommand_reports_reason(tmp_path, capsys):
    doc = write_doc(tmp_path, double_loop())
    code, out, _ = run(capsys, "simple", "--input", doc)
    assert code == 0
    assert "no" in out and "D(1) != Lambda" in out

    code, out, _ = run(capsys, "simple", "--input", doc, "--json")
    report = json.loads(out)
    assert report["simple"] is False
    assert report["simple_reasons"] == ["D(1) != Lambda"]


def test_radical_and_decompose_sections(tmp_path, capsys):
    doc = write_doc(tmp_path, two_loops_two_sinks())
    code, out, _ = run(capsys, "radical", "--input", doc, "--json")
    assert code == 0
    report = json.loads(out)
    assert list(report.keys()) == ["field", "dim", "annihilator", "radical",
                                   "nondegenerate"]
    assert report["nondegenerate"] is False

    code, out, _ = run(capsys, "decompose", "--input", doc, "--json")
    report = json.loads(out)
    assert [b["indices"] for b in report["blocks"]] == [[1, 2], [3, 5], [4]]


def test_ideal_subcommand(tmp_path, capsys):
    doc = write_doc(tmp_path, entangled_squares())
    code, out, _ = run(capsys, "ideal", "--input", doc, "--vector", "1,0,0", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ideal_dim"] == 3

    code, _, err = run(capsys, "ideal", "--input", doc, "--vector", "1,0")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("vector", ["-1,0,0", "-1/2,0,0"])
@pytest.mark.parametrize("as_json", [False, True])
def test_vector_with_a_negative_first_coordinate_is_its_value(tmp_path, capsys,
                                                              vector, as_json):
    # every subcommand reads an argument that starts with '-' and a digit
    # as a value, so a separate "-1,0,0" is the value, as the joined form is
    doc = write_doc(tmp_path, entangled_squares())
    flags = ("--json",) if as_json else ()
    joined = run(capsys, "ideal", "--input", doc, "--vector=" + vector, *flags)
    assert joined[0] == 0 and joined[2] == ""
    for spelling in ("--vector", "--vec"):
        assert run(capsys, "ideal", "--input", doc, spelling, vector, *flags) == joined


def test_missing_vector_value_is_still_a_usage_error(tmp_path, capsys):
    doc = write_doc(tmp_path, entangled_squares())
    for argv in (("--vector",), ("--vector", "--json"), ("--vector", "-h")):
        code, out, err = run(capsys, "ideal", "--input", doc, *argv)
        assert (code, out) == (1, "")
        assert err == "usage error: argument --vector: expected one argument\n"
    # after "--" every token is positional, so no value is joined to --vector
    assert run(capsys, "ideal", "--input", doc, "--", "--vector", "-1,0") == (
        1, "", "usage error: the following arguments are required: --vector\n")


@pytest.mark.parametrize("argv,expected", [
    (("analyze", "--input", "-1,0"), "error: [Errno 2] No such file or directory: '-1,0'\n"),
    (("analyze", "--field", "-1,0"), "usage error: argument --field: invalid choice: '-1,0'"),
    (("analyze", "--p", "-.5,0"), "usage error: argument --p: invalid int value: '-.5,0'\n"),
    (("ideal", "--input", "{doc}", "--vector", "-\u0663,0,0"), "error: invalid scalar '-\u0663'\n"),
    (("graph", "--input", "{doc}", "--dot", "-1/x"), "error: [Errno 2] No such file or "
                                                    "directory: '-1/x'\n"),
    (("oracle", "--input", "{doc}", "--max-vectors", "-1e3"),
     "usage error: argument --max-vectors: invalid int value: '-1e3'\n"),
], ids=["input", "field", "p", "vector-unicode-digit", "dot", "max-vectors"])
def test_every_option_reads_a_value_that_starts_with_minus_and_a_digit(tmp_path, capsys,
                                                                     monkeypatch, argv,
                                                                     expected):
    # each of these argv was refused with "expected one argument" while
    # only a whole negative number counted as a value; the error now
    # names the value, read as the option's value
    doc = write_doc(tmp_path, entangled_squares())
    monkeypatch.chdir(tmp_path)  # so that no relative path names a file
    code, out, err = run(capsys, *(token.format(doc=doc) for token in argv))
    assert (code, out) == (1, "") and err.startswith(expected)


def test_an_argument_that_starts_with_minus_and_no_digit_is_still_an_option(tmp_path, capsys):
    doc = write_doc(tmp_path, entangled_squares())
    for value in ("-x,0", "-.x", "-e3"):
        assert run(capsys, "ideal", "--input", doc, "--vector", value) == (
            1, "", "usage error: argument --vector: expected one argument\n")
    # a whole negative number of Unicode digits was a value by argparse's
    # own rule, and stays one
    assert run(capsys, "ideal", "--input", doc, "--vector", "-\u0663") == (
        1, "", "error: expected 3 coordinates, found 1\n")
    # before the subcommand the same rule holds: "-1,0" is read as the
    # subcommand's name, and "-x" as an option
    code, out, err = run(capsys, "-1,0", "analyze", "--input", doc)
    assert (code, out) == (1, "") and err.startswith(
        "usage error: argument command: invalid choice: '-1,0' (choose from ")
    assert run(capsys, "-x", "analyze", "--input", doc) == (
        1, "", "usage error: unrecognized arguments: -x\n")


def test_graph_subcommand_writes_dot(tmp_path, capsys, monkeypatch):
    doc = write_doc(tmp_path, swap_pair_plus_loop())
    dot = ("digraph evolution {\n  v1;\n  v2;\n  v3;\n"
           "  v1 -> v2;\n  v2 -> v1;\n  v3 -> v3;\n}\n")
    assert run(capsys, "graph", "--input", doc) == (0, dot, "")

    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "graph", "--input", doc, "--dot", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph evolution {")

    # '-' is stdout, as it is stdin for --input: no file named '-' is made
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "graph", "--input", doc, "--dot", "-") == (0, dot, "")
    assert not (tmp_path / "-").exists()


def test_graph_refuses_json(tmp_path, capsys):
    # DOT is the graph's one output form, so --json is not a flag of graph
    doc = write_doc(tmp_path, swap_pair_plus_loop())
    for argv in (["--json"], ["--json", "--dot", str(tmp_path / "out.dot")]):
        assert run(capsys, "graph", "--input", doc, *argv) == (
            1, "", "usage error: unrecognized arguments: --json\n")
    assert not (tmp_path / "out.dot").exists()


def test_quotient_subcommand(tmp_path, capsys):
    doc = write_doc(tmp_path, entangled_squares())
    basis = tmp_path / "ideal.txt"
    basis.write_text("1 1 0\n0 1 1\n")
    code, out, _ = run(capsys, "quotient", "--input", doc,
                       "--ideal-basis", str(basis), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["quotient_dim"] == 1
    assert report["chosen"] == [1]
    assert report["quotient_structure"] == [["0"]]

    # a subspace that is not an ideal is a user error, exit 1
    basis.write_text("1 1 0\n0 0 1\n")
    doc2 = write_doc(tmp_path, swap_pair_plus_loop(), "other.alg")
    code, _, err = run(capsys, "quotient", "--input", doc2,
                       "--ideal-basis", str(basis))
    assert code == 1 and "not an ideal" in err


def test_quotient_subcommand_reduces_the_ideal_basis_once(tmp_path, capsys, monkeypatch):
    # the basis file's rows are reduced once, with their columns reversed:
    # the quotient reads its pivots off that span and checks that the
    # squares lie in it, with no second elimination
    widths = []
    rref_rows = linalg._rref_rows
    monkeypatch.setattr(linalg, "_rref_rows",
                        lambda f, rows, width: widths.append(width) or rref_rows(f, rows, width))
    doc = write_doc(tmp_path, entangled_squares())
    basis = tmp_path / "ideal.txt"
    basis.write_text("1 1 0\n0 1 1\n")
    code, out, err = run(capsys, "quotient", "--json", "--input", doc, "--ideal-basis", str(basis))
    assert (code, err) == (0, "") and json.loads(out)["chosen"] == [1]
    assert widths == [3]
    # a basis that spans no ideal is refused after that one elimination
    basis.write_text("1 1 0\n0 0 1\n")
    doc = write_doc(tmp_path, swap_pair_plus_loop(), "other.alg")
    del widths[:]
    assert run(capsys, "quotient", "--input", doc, "--ideal-basis", str(basis)) == (
        1, "", "error: subspace is not an ideal of the algebra\n")
    assert widths == [3]


def test_oracle_subcommand(tmp_path, capsys):
    doc = write_doc(tmp_path, pair_cycle_mixing())
    code, out, _ = run(capsys, "oracle", "--input", doc,
                       "--field", "prime", "--p", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["radical_match"] and report["simple_match"]
    assert report["simple"] is True
    assert report["semiprime"] is True
    assert report["classically_nondegenerate"] is False

    # rational input cannot be enumerated
    code, _, err = run(capsys, "oracle", "--input", doc)
    assert code == 1 and "prime" in err

    # shrunken budget refuses the instance
    code, _, err = run(capsys, "oracle", "--input", doc,
                       "--field", "prime", "--p", "2", "--max-vectors", "1")
    assert code == 1 and "budget" in err


def test_ideal_text_golden(tmp_path, capsys):
    doc = write_doc(tmp_path, entangled_squares())
    assert run(capsys, "ideal", "--input", doc, "--vector", "0,1,-1") == (
        0,
        "vector      [0 1 -1]\n"
        "ideal dim   3\n"
        "basis       [1 0 0]\n"
        "basis       [0 1 0]\n"
        "basis       [0 0 1]\n",
        "")
    doc = write_doc(tmp_path, two_loops_two_sinks(), "sinks.alg")
    assert run(capsys, "ideal", "--input", doc, "--vector", "0,0,0,1,0") == (
        0, "vector      [0 0 0 1 0]\nideal dim   1\nbasis       [0 0 0 1 0]\n", "")


def test_quotient_text_golden(tmp_path, capsys):
    doc = write_doc(tmp_path, entangled_squares())
    basis = tmp_path / "ideal.txt"
    basis.write_text("1 1 0\n0 1 1\n")
    assert run(capsys, "quotient", "--input", doc, "--ideal-basis", str(basis)) == (
        0,
        "ideal dim     2\n"
        "quotient dim  1\n"
        "chosen        {1}\n"
        "structure     [0]\n"
        "projection    [1 -1 1]\n",
        "")
    doc = write_doc(tmp_path, two_loops_two_sinks(), "sinks.alg")
    basis.write_text("0 0 0 1 0\n0 0 0 0 1\n")
    assert run(capsys, "quotient", "--input", doc, "--ideal-basis", str(basis)) == (
        0,
        "ideal dim     2\n"
        "quotient dim  3\n"
        "chosen        {1, 2, 3}\n"
        "structure     [1 1 0]\n"
        "structure     [0 0 0]\n"
        "structure     [0 0 1]\n"
        "projection    [1 0 0 0 0]\n"
        "projection    [0 1 0 0 0]\n"
        "projection    [0 0 1 0 0]\n",
        "")


def test_oracle_text_golden(tmp_path, capsys):
    doc = write_doc(tmp_path, pair_cycle_mixing(GF(2)))
    assert run(capsys, "oracle", "--input", doc) == (
        0,
        "ideals enumerated           2\n"
        "radical matches oracle      yes\n"
        "simple matches oracle       yes\n"
        "semiprime                   yes\n"
        "classically nondegenerate   no\n",
        "")


def feed_stdin(monkeypatch, data: bytes):
    # a text stream over bytes, like the real sys.stdin
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def test_reads_stdin_by_default(capsys, monkeypatch):
    feed_stdin(monkeypatch, emit_document(double_loop()).encode("utf-8"))
    code = main(["simple", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["simple"] is False


def test_quotient_refuses_to_read_stdin_twice(tmp_path, capsys, monkeypatch):
    # the document and the basis file would both be read from stdin, the
    # second read empty: refused before either is read, --input - spelt
    # out or left as the default
    data = b"field rational\ndim 2\nmatrix\n0 1\n1 1\n"
    refusal = (1, "", "usage error: --input and --ideal-basis cannot both read stdin\n")
    for argv in (["--ideal-basis", "-"], ["--input", "-", "--ideal-basis", "-", "--json"]):
        feed_stdin(monkeypatch, data)
        assert run(capsys, "quotient", *argv) == refusal
        assert sys.stdin.buffer.read() == data
    # one of them on stdin is read as before
    doc = tmp_path / "pair.alg"
    doc.write_bytes(data)
    feed_stdin(monkeypatch, b"1 1\n0 1\n")
    code, out, err = run(capsys, "quotient", "--json", "--input", str(doc), "--ideal-basis", "-")
    assert (code, err, json.loads(out)["ideal_dim"]) == (0, "", 2)


def test_exit_code_1_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field rational\ndim 2\nmatrix\n1 2\n")
    code, _, err = run(capsys, "analyze", "--input", str(bad))
    assert code == 1 and "unexpected end" in err

    code, _, err = run(capsys, "analyze", "--input", str(tmp_path / "missing.alg"))
    assert code == 1 and "error" in err

    code, _, err = run(capsys, "analyze", "--frobnicate")
    assert code == 1 and "usage error" in err

    code, _, err = run(capsys, "frobnicate")
    assert code == 1

    doc = write_doc(tmp_path, double_loop())
    code, _, err = run(capsys, "analyze", "--input", doc, "--field", "prime", "--p", "6")
    assert code == 1 and "prime" in err


def test_exit_code_2_on_internal_consistency_failure(tmp_path, capsys, monkeypatch):
    doc = write_doc(tmp_path, double_loop())

    def explode(_):
        raise InternalConsistencyError("induced for the exit-code contract")

    import evolalg.report as report_module
    monkeypatch.setattr(report_module, "optimal_decomposition", explode)
    code, _, err = run(capsys, "analyze", "--input", doc)
    assert code == 2 and "internal consistency failure" in err


def test_exit_code_2_when_oracle_disagrees(tmp_path, capsys, monkeypatch):
    doc = write_doc(tmp_path, pair_cycle_mixing())

    import evolalg.cli as cli_module
    from evolalg import full_subspace

    monkeypatch.setattr(cli_module, "radical", lambda a: full_subspace(a.field, a.dim))
    failure = "internal consistency failure: fast path disagrees with the oracle\n"
    assert run(capsys, "oracle", "--input", doc, "--field", "prime", "--p", "2") == (
        2,
        "ideals enumerated           2\n"
        "radical matches oracle      NO\n"
        "simple matches oracle       yes\n"
        "semiprime                   yes\n"
        "classically nondegenerate   no\n",
        failure)
    assert run(capsys, "oracle", "--input", doc, "--field", "prime", "--p", "2",
               "--json") == (
        2,
        '{\n  "field": {\n    "kind": "prime",\n    "p": 2\n  },\n  "dim": 2,\n'
        '  "ideal_count": 2,\n  "radical_match": false,\n  "simple": true,\n'
        '  "simple_match": true,\n  "semiprime": true,\n'
        '  "classically_nondegenerate": false\n}\n',
        failure)


def test_det_over_the_digit_limit_is_written_in_full(tmp_path, capsys):
    # det [[N, 1], [1, 12]] = 12 N - 1 with N = 10^4300 - 1, the largest
    # entry a document holds, has 4302 digits: more than str writes
    doc = tmp_path / "huge-det.alg"
    doc.write_text("field rational\ndim 2\nmatrix\n%s 1\n1 12\n" % ("9" * 4300))
    text = "11" + "9" * 4298 + "87"
    for command in ("analyze", "decompose"):
        code, out, err = run(capsys, command, "--input", str(doc), "--json")
        assert (code, err) == (0, "")
        assert [b["det"] for b in json.loads(out)["blocks"]] == [text]
        code, out, err = run(capsys, command, "--input", str(doc))
        assert (code, err) == (0, "")
        assert "blocks               {1, 2} nondegenerate=yes simple=yes det=%s\n" % text in out
    # e1^2 = e2^2 = N e2 + e3: the ideal of (N, 1, 0) is spanned by it and
    # (0, N, 1), whose reduced basis holds -1/N^2 of 8600 digits
    doc.write_text("field rational\ndim 3\nmatrix\n0 0 0\n{0} {0} 0\n1 1 0\n".format("9" * 4300))
    code, out, err = run(capsys, "ideal", "--input", str(doc), "--vector", "9" * 4300 + ",1,0",
                         "--json")
    assert (code, err) == (0, "")
    square = "9" * 4299 + "8" + "0" * 4299 + "1"
    assert json.loads(out)["ideal_basis"] == [["1", "0", "-1/" + square],
                                              ["0", "1", "1/" + "9" * 4300]]


def test_det_over_the_digit_limit_needs_no_c_decimal(tmp_path):
    # the text of an int past the digit limit comes from int arithmetic
    # alone, so an interpreter whose decimal is the pure-Python fallback
    # writes the 4302-digit det as well
    doc = tmp_path / "huge-det.alg"
    doc.write_text("field rational\ndim 2\nmatrix\n%s 1\n1 12\n" % ("9" * 4300))
    blocked = ('import sys; sys.modules["_decimal"] = None; '
               'from evolalg.cli import main; sys.exit(main())')
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    procs = [subprocess.run([sys.executable, *prefix, "analyze", "--json", "--input", str(doc)],
                            capture_output=True, text=True, env=env)
             for prefix in (["-c", blocked], ["-m", "evolalg"])]
    assert [(p.returncode, p.stderr) for p in procs] == [(0, ""), (0, "")]
    assert procs[0].stdout == procs[1].stdout
    assert '"det": "11' + "9" * 4298 + '87"' in procs[0].stdout


def test_integer_rational_documents_call_no_fraction_method(tmp_path, capsys, monkeypatch):
    # over QQ an integer is an int, so zero tests and text run in C: on a
    # document of integers the pure-Python Fraction's truth test and text
    # are never called
    calls = []
    for name in ("__bool__", "__str__"):
        def counting(self, _name=name, _method=getattr(Fraction, name)):
            calls.append(_name)
            return _method(self)
        monkeypatch.setattr(Fraction, name, counting)
    # e1^2 = 2 e2, e2^2 = 3 e3, e3^2 = e1 - 4 e4, e4^2 = 7 e4
    doc = tmp_path / "integers.alg"
    doc.write_text("field rational\ndim 4\nmatrix\n0 0 1 0\n2 0 0 0\n0 3 0 0\n0 0 -4 7\n")
    for argv in (["analyze"], ["radical"], ["ideal", "--vector", "0,0,0,1"],
                 ["ideal", "--vector", "1,0,0,0"]):
        code, out, err = run(capsys, *argv, "--input", str(doc), "--json")
        assert (code, err) == (0, "") and out
    assert json.loads(out)["ideal_dim"] == 4
    assert calls == []


def test_large_prime_modulus_is_accepted(tmp_path, capsys):
    doc = tmp_path / "big.alg"
    doc.write_text("field prime 1000000000000000003\ndim 1\nmatrix\n1\n")
    code, out, err = run(capsys, "analyze", "--input", str(doc))
    assert code == 0 and err == ""
    assert out.startswith("field                prime 1000000000000000003\n")

    doc = write_doc(tmp_path, double_loop(), "small.alg")
    code, _, err = run(capsys, "simple", "--input", doc,
                       "--field", "prime", "--p", "1000000000000000003")
    assert code == 0 and err == ""


@pytest.mark.parametrize("command", ["analyze", "radical"])
def test_p_alone_means_field_prime(tmp_path, capsys, command):
    doc = tmp_path / "gf2.alg"
    doc.write_text("field prime 2\ndim 2\nmatrix\n1 2\n1 0\n")
    alone = run(capsys, command, "--input", str(doc), "--p", "3")
    assert alone == run(capsys, command, "--input", str(doc), "--field", "prime", "--p", "3")
    code, out, err = alone
    assert code == 0 and err == "" and "prime 3" in out


@pytest.mark.parametrize("p", [5, 7, 10007])
def test_a_prime_override_changes_only_the_field_and_the_dets(tmp_path, capsys, p):
    # reduction mod p, for a p that divides no entry, keeps the graph, and
    # each block det becomes its residue; no residue here is 0, so the
    # simple verdicts stay too.  Blocks {1, 2, 3} (det 12282634752) and
    # {4, 5} (det -143)
    doc = tmp_path / "coprime.alg"
    doc.write_text("field rational\ndim 5\nmatrix\n12 346 6789 0 0\n1011 16 1314 0 0\n"
                   "1516 1718 19 0 0\n0 0 0 0 13\n0 0 0 11 0\n")
    code, out, err = run(capsys, "analyze", "--json", "--input", str(doc))
    assert code == 0 and err == ""
    rational = json.loads(out)
    code, out, err = run(capsys, "analyze", "--json", "--input", str(doc),
                         "--field", "prime", "--p", str(p))
    assert code == 0 and err == ""
    prime = json.loads(out)
    assert rational.pop("field") == {"kind": "rational"}
    assert prime.pop("field") == {"kind": "prime", "p": p}
    dets = [int(block.pop("det")) for block in rational["blocks"]]
    assert dets == [12282634752, -143]
    assert [block.pop("det") for block in prime["blocks"]] == [str(d % p) for d in dets]
    assert prime == rational


def test_modulus_above_the_bound_is_refused(tmp_path, capsys):
    too_large = "3317044064679887385962123"  # the least prime above the bound
    doc = tmp_path / "huge.alg"
    doc.write_text("field prime %s\ndim 1\nmatrix\n1\n" % too_large)
    code, out, err = run(capsys, "analyze", "--input", str(doc))
    assert code == 1 and out == ""
    assert "too large" in err and err.count("\n") == 1

    doc = write_doc(tmp_path, double_loop(), "small.alg")
    code, out, err = run(capsys, "analyze", "--input", doc,
                         "--field", "prime", "--p", too_large)
    assert code == 1 and out == ""
    assert "too large" in err and err.count("\n") == 1


def test_oversized_modulus_is_refused_before_the_primality_test(tmp_path, capsys,
                                                                monkeypatch):
    # Miller-Rabin on a modulus of 4300 digits took seconds; the bound
    # alone refuses it, so is_prime must never run
    def fail(n):
        raise AssertionError("is_prime called on a modulus above the bound")

    import evolalg.fields as fields_module
    monkeypatch.setattr(fields_module, "is_prime", fail)
    huge = 10 ** 4299 + 7
    with pytest.raises(FieldError, match="too large"):
        GF(huge)

    doc = tmp_path / "huge.alg"
    doc.write_text("field prime %d\ndim 1\nmatrix\n1\n" % huge)
    small = write_doc(tmp_path, double_loop(), "small.alg")
    refusal = ("modulus of 4300 digits is too large: "
               "prime fields need p < 3317044064679887385961981\n")
    for argv, prefix in (
            (["analyze", "--input", str(doc)], "error: line 1: "),
            (["analyze", "--input", small, "--field", "prime", "--p", str(huge)],
             "usage error: ")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        # the digit count, not the modulus, keeps the line short
        assert err == prefix + refusal and len(err.encode()) < 120


@pytest.mark.parametrize("where", ["matrix", "vector", "ideal-basis"])
def test_over_long_scalar_exits_1(tmp_path, capsys, where):
    long_entry = "1" * 5000
    doc = write_doc(tmp_path, swap_pair_plus_loop())
    if where == "matrix":
        bad = tmp_path / "long.alg"
        bad.write_text("field rational\ndim 1\nmatrix\n%s\n" % long_entry)
        argv = ["analyze", "--input", str(bad)]
    elif where == "vector":
        argv = ["ideal", "--input", doc, "--vector", "%s,0,0" % long_entry]
    else:
        basis = tmp_path / "basis.txt"
        basis.write_text("%s 0 0\n" % long_entry)
        argv = ["quotient", "--input", doc, "--ideal-basis", str(basis)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "limit" in err and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_max_vectors_is_a_usage_error(tmp_path, capsys, budget):
    doc = write_doc(tmp_path, pair_cycle_mixing())
    code, out, err = run(capsys, "oracle", "--input", doc, "--field", "prime",
                         "--p", "2", "--max-vectors", budget)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "--max-vectors" in err


@pytest.mark.parametrize("where", ["input", "ideal-basis"])
def test_non_utf8_file_exits_1(tmp_path, capsys, where):
    doc = write_doc(tmp_path, swap_pair_plus_loop())
    bad = tmp_path / "binary"
    if where == "input":
        bad.write_bytes(b"\xff\xfe\x00field")
        argv = ["analyze", "--input", str(bad)]
    else:
        bad.write_bytes(b"1 0 0\n\xff\n")
        argv = ["quotient", "--input", doc, "--ideal-basis", str(bad)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "UTF-8" in err and err.count("\n") == 1


def test_non_utf8_stdin_exits_1_like_the_same_file(tmp_path, capsys, monkeypatch):
    data = b"field rational\ndim 1\nmatrix\n1 # caf\xe9\n"
    feed_stdin(monkeypatch, data)
    from_stdin = run(capsys, "simple")
    path = tmp_path / "latin1.alg"
    path.write_bytes(data)
    from_file = run(capsys, "simple", "--input", str(path))
    assert from_stdin == from_file == (1, "", "error: line 4: invalid UTF-8 byte 0xe9\n")


@pytest.mark.parametrize("p,n", [(2, 12), (3, 7)])
def test_oracle_refuses_more_subspaces_than_the_cap_quickly(tmp_path, capsys, p, n):
    # both are within the default budget of 4096 vectors, but GF(2)^12 has
    # about 4.9e11 subspaces and GF(3)^7 about 2.1e6
    algebra = EvolutionAlgebra.from_squares(GF(p), [[1] * n] * n)
    doc = write_doc(tmp_path, algebra)
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--input", doc)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "subspaces" in err


def run_fresh(*argv):
    proc = subprocess.run([sys.executable, "-m", "evolalg", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_successive_calls_like_fresh_processes(tmp_path, capsys):
    doc = write_doc(tmp_path, two_loops_two_sinks())
    calls = [("analyze", "--input", doc, "--json"),
             ("analyze", "--input", doc, "--no-such-flag"),
             ("ideal", "--input", doc, "--vector", "1,0,1,0,0"),
             ("ideal", "--input", doc, "--vector", "-1,0,1,0,0"),
             ("radical", "--input", doc, "--max-vectors", "4"),
             ("radical", "--input", doc)]
    in_process = [run(capsys, *argv) for argv in calls]
    assert _build_parser() is _build_parser()
    assert [code for code, _, _ in in_process] == [0, 1, 0, 0, 1, 0]
    assert in_process == [run_fresh(*argv) for argv in calls]


# Python's int() and the regex class \d take any Unicode decimal digit, and
# int() also takes '_' separators; each of these inputs once exited 0
@pytest.mark.parametrize("case", [
    "arabic-indic matrix entry", "fullwidth vector coordinate",
    "separator in headers", "separator in --p", "fullwidth --p",
    "separator in --max-vectors", "basis file digit"])
def test_non_ascii_digits_and_separators_exit_1(tmp_path, capsys, case):
    doc = write_doc(tmp_path, swap_pair_plus_loop())
    if case == "arabic-indic matrix entry":
        bad = tmp_path / "bad.alg"
        bad.write_text("field rational\ndim 1\nmatrix\n٣\n", encoding="utf-8")
        argv, prefix = ["simple", "--input", str(bad)], "error: line 4: entry 1: invalid scalar"
    elif case == "fullwidth vector coordinate":
        argv, prefix = ["ideal", "--input", doc, "--vector", "１,0,0"], "error: invalid scalar"
    elif case == "separator in headers":
        bad = tmp_path / "bad.alg"
        bad.write_text("field prime 1_1\ndim 1_0\nmatrix\n"
                       + "1 0 0 0 0 0 0 0 0 0\n" * 10)
        argv, prefix = ["simple", "--input", str(bad)], "error: line 1: modulus '1_1'"
    elif case == "separator in --p":
        argv = ["simple", "--input", doc, "--field", "prime", "--p", "1_1"]
        prefix = "usage error: argument --p: invalid int value"
    elif case == "fullwidth --p":
        argv = ["simple", "--input", doc, "--field", "prime", "--p", "５"]
        prefix = "usage error: argument --p: invalid int value"
    elif case == "separator in --max-vectors":
        argv = ["oracle", "--input", doc, "--field", "prime", "--p", "2",
                "--max-vectors", "4_096"]
        prefix = "usage error: argument --max-vectors: invalid int value"
    else:
        basis = tmp_path / "basis.txt"
        basis.write_text("1 0 ١\n", encoding="utf-8")
        argv = ["quotient", "--input", doc, "--ideal-basis", str(basis)]
        prefix = "error: line 1: invalid scalar"
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


def test_signed_and_zero_padded_ascii_integers_still_parse(tmp_path, capsys):
    doc = tmp_path / "padded.alg"
    doc.write_text("field prime +07\ndim 02\nmatrix\n+1 01\n-0 1\n")
    code, out, err = run(capsys, "simple", "--input", str(doc), "--field", "prime", "--p", "+05")
    assert code == 0 and err == ""
    assert out.startswith("field           prime 5\ndim             2\n")


def count_coercions(monkeypatch) -> list:
    """Every value either field's coerce is handed from now on."""
    seen = []
    for cls in (Rationals, PrimeField):
        def counting(self, value, _coerce=cls.coerce):
            seen.append(value)
            return _coerce(self, value)
        monkeypatch.setattr(cls, "coerce", counting)
    return seen


@pytest.mark.parametrize("field_line", ["field rational", "field prime 7"])
def test_canonical_values_cross_the_library_uncoerced(tmp_path, capsys, monkeypatch,
                                                      field_line):
    # a document's scalars are canonical once parsed, and so is every basis
    # square and every reduced basis: only a value a caller hands in is
    # coerced, once.  e1^2 = e2 + e3, e2^2 = e1 + e2, e3^2 = -1/2 (e1 + e2),
    # e4^2 = e4, so <e2^2> = span{(0, 1, 1, 0), (1, 1, 0, 0)} has no
    # natural basis
    doc = tmp_path / "a.alg"
    doc.write_text(field_line + "\ndim 4\nmatrix\n0 1 -1/2 0\n1 1 -1/2 0\n1 0 0 0\n0 0 0 1\n")
    seen = count_coercions(monkeypatch)
    for argv in (["analyze", "--json"], ["decompose", "--json"], ["simple", "--json"],
                 ["radical", "--json"], ["graph"]):
        code, out, err = run(capsys, *argv, "--input", str(doc))
        assert (code, err) == (0, "") and out
    assert seen == []
    code, out, err = run(capsys, "ideal", "--json", "--input", str(doc), "--vector", "1,1,0,0")
    assert (code, err) == (0, "") and seen == []
    basis = json.loads(out)["ideal_basis"]
    assert len(basis) == 2 and all(sum(x != "0" for x in row) > 1 for row in basis)
    (tmp_path / "ideal.txt").write_text("".join(" ".join(row) + "\n" for row in basis))
    del seen[:]
    code, out, err = run(capsys, "quotient", "--json", "--input", str(doc),
                         "--ideal-basis", str(tmp_path / "ideal.txt"))
    assert (code, err) == (0, "") and json.loads(out)["quotient_dim"] == 2
    assert seen == []


@st.composite
def fuzz_choice(draw, pools, clean):
    """A choice from the valid pool of a (valid, odd) pair when clean, else
    from both."""
    valid, odd = pools
    return draw(st.sampled_from(valid if clean else valid + odd))


@st.composite
def fuzz_lines(draw, n, max_rows, clean):
    """max_rows rows of n valid entries when clean, else 0 to max_rows rows
    of n - 1 to n + 1 entries, odd tokens among them."""
    rows = []
    for _ in range(draw(st.integers(min_value=max_rows if clean else 0, max_value=max_rows))):
        width = n if clean else draw(st.sampled_from([n, n, n - 1, n + 1]))
        rows.append(" ".join(draw(fuzz_choice(FUZZ_TOKENS, clean)) for _ in range(width)))
    return rows


def fuzz_bytes(draw, lines, clean) -> bytes:
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = "".join(line + ending for line in lines).encode("utf-8")
    if not clean and draw(st.booleans()):  # one stray invalid byte
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def reference_problems(argv, out, document, basis):
    """What tests/reference.py finds wrong with the stdout out of an exit-0
    run of argv on the bytes of a document and a basis file; the runs it
    has no check for, tables among them, give none."""
    command = argv[0]
    if command == "graph":
        return [] if "--dot" in argv else reference.graph_problems(
            document, out, reference.modulus(document, argv))
    if "--json" not in argv:
        return []
    report = json.loads(out)
    if command in ("analyze", "decompose", "radical", "simple"):
        return reference.analyze_problems(document, report)
    if command == "quotient":
        return reference.quotient_problems(document, basis, report)
    if command == "ideal":
        return reference.ideal_problems(document, argv[argv.index("--vector") + 1], report)
    return []


@settings(FIXED, max_examples=60)  # eight to twenty-two runs per example; about 1 s
@given(data=st.data())
def test_every_cli_run_ends_in_exit_0_or_one_error_line(tmp_path_factory, data):
    # exit 2 only comes from a cross-check that caught the library
    # disagreeing with itself, so no input reaches it; what an exit-0 run
    # prints is held to the reference checks
    draw = data.draw
    clean = draw(st.booleans())
    where = tmp_path_factory.mktemp("fuzz")
    header = draw(st.sampled_from(["field rational", "field prime"]))
    if header == "field prime":
        header += " " + draw(fuzz_choice(FUZZ_MODULI, clean))
    # a clean document is mostly of dim 2 or 3, where its quotients and
    # the order of their squares show
    dim = draw(st.sampled_from(["3", "2", "3"]) if clean else fuzz_choice(FUZZ_DIMS, clean))
    n = int(dim) if dim in FUZZ_DIMS[0] else 2
    rows = draw(fuzz_lines(n, n, clean))
    if clean and draw(st.booleans()):
        # upper triangular: e_i^2 lies in span{e_1, ..., e_i}, so each such
        # span is an ideal, and the ideals generated below are often proper
        rows = [" ".join("0" if i < k else x for i, x in enumerate(row.split()))
                for k, row in enumerate(rows)]
    document = fuzz_bytes(draw, [header, "dim " + dim, "matrix", *rows], clean)
    (where / "a.alg").write_bytes(document)

    def run(argv, basis):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert (code, err) == (0, "") or (code == 1 and err.count("\n") == 1
                                          and err.endswith("\n")), (argv, code, err)
        if code == 0:
            assert reference_problems(argv, out.getvalue(), document, basis) == [], argv
        return code, out.getvalue()

    basis = fuzz_bytes(draw, draw(fuzz_lines(n, 2, clean or draw(st.booleans()))), clean)
    (where / "basis.txt").write_bytes(basis)
    for command in _COMMANDS:
        argv = [command, "--input", str(where / "a.alg"), *draw(fuzz_choice(FUZZ_ARGS, clean))]
        if draw(st.booleans()):
            argv.append("--json")  # refused by graph
        if command == "ideal":
            width = n if clean else draw(st.sampled_from([n - 1, n, n + 1]))
            argv += ["--vector", ",".join(draw(fuzz_choice(FUZZ_TOKENS, clean))
                                          for _ in range(width))]
        elif command == "quotient":
            argv += ["--ideal-basis", str(where / "basis.txt")]
        elif command == "graph" and draw(st.booleans()):
            argv += ["--dot", str(where / "out.dot")]
        elif command == "oracle":
            # a budget of at most 64 vectors: larger instances are refused
            argv += draw(st.sampled_from([[], ["--p", "2"], ["--p", "3"]]))
            argv += ["--max-vectors", draw(fuzz_choice((["64"], ["0", "1"]), clean))]
        run(argv, basis)
    if not clean:
        return
    # on a valid document, the ideal <x> at x = 0, at each e_i and at each
    # square e_i^2 (column i of the matrix), and the quotient by it, read
    # from the basis the ideal run prints, where that quotient has two
    # squares or more, whose order can show
    args = [*draw(fuzz_choice(FUZZ_ARGS, clean)), "--json", "--input", str(where / "a.alg")]
    units = [["1" if k == i else "0" for k in range(n)] for i in range(-1, n)]  # 0, each e_i
    for x in [*units, *zip(*(row.split() for row in rows))]:
        code, out = run(["ideal", *args, "--vector", ",".join(x)], b"")
        if code:
            continue
        printed = json.loads(out)["ideal_basis"]
        if len(printed) <= n - 2:
            ideal = "".join(" ".join(row) + "\n" for row in printed)
            (where / "ideal.txt").write_text(ideal)
            run(["quotient", *args, "--ideal-basis", str(where / "ideal.txt")], ideal.encode())
