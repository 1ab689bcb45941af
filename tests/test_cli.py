import json
from pathlib import Path

import pytest

from evolalg.cli import main
from evolalg.documents import emit_document
from evolalg.errors import InternalConsistencyError
from support import (double_loop, entangled_squares, pair_cycle_mixing,
                     swap_pair_plus_loop, two_loops_two_sinks)

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"


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


def test_graph_subcommand_writes_dot(tmp_path, capsys):
    doc = write_doc(tmp_path, swap_pair_plus_loop())
    code, out, _ = run(capsys, "graph", "--input", doc)
    assert code == 0
    assert out == ("digraph evolution {\n  v1;\n  v2;\n  v3;\n"
                   "  v1 -> v2;\n  v2 -> v1;\n  v3 -> v3;\n}\n")

    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "graph", "--input", doc, "--dot", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph evolution {")


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


def test_reads_stdin_by_default(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_document(double_loop())))
    code = main(["simple", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["simple"] is False


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
    code, _, err = run(capsys, "oracle", "--input", doc,
                       "--field", "prime", "--p", "2")
    assert code == 2 and "disagrees" in err


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
