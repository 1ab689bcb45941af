"""Golden bytes of the CLI: a seeded corpus of documents, the invocations
run on each, and the manifest that pins their exit codes and outputs.

    PYTHONPATH=src python tests/golden.py     # rewrite golden_manifest.txt

The corpus is written into a fresh temporary directory, which is the
working directory of every run, so every path in an argv is relative and
the manifest is the same wherever it is made.  Each invocation runs
evolalg.cli.main in-process and gives one manifest line: the exit code,
the first 12 hex digits of the SHA-256 of stdout and of stderr, and the
argv as shlex.join writes it.  tests/test_golden.py makes the corpus again
and compares every line; a change that moves CLI bytes on purpose commits
the manifest this script writes, and its diff lists the invocations that
moved.  run(argv) is the tests' one in-process run of the CLI, and
counted and bindings are how a test, or tools/fork_audit.py, wraps a
function of the package wherever the package binds it.

The seeded documents: QQ with negatives and fractions, GF(2), GF(3),
GF(7), GF(10007), GF(2^61 - 1) and GF(2^64 + 13), n from 1 to 12, with
zero rows (chain starts) and all three line ends, a few sparse QQ
documents of n = 40, and two with scalars past CPython's 4,300-digit
limit on int-to-text conversion in their output: a det of 4,302 digits,
and an ideal and a quotient whose entries have 5,001.  Each is run through
ideal and quotient (JSON and table), radical and simple (JSON), decompose
(table), graph (DOT) and analyze (JSON), and through oracle (JSON) when
F_p^n has at most 4,096 vectors.  Then come documents built for one point
each: spellings of one value that the row parser reads by different
routes (SAME and APART name the runs whose stdout must be equal or must
differ), dense QQ and GF(10007) dets, quotients, --field and --p
overrides, and the odd tokens of the CLI fuzz grammar (fuzz_grammar.py).
Last come seeded QQ and GF(10007) documents whose blocks have no zero row or
column, so that most block dets the reference checks are nonzero; they
run through the same invocations as the first seeded documents.  The last
runs are a quotient whose document and basis file would both be read
from stdin, which is refused, files whose names start with '-' and a
digit, which every option reads as its value, and a document and a basis
file that start with a UTF-8 byte-order mark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from evolalg.cli import main
from reference import scalar
from fuzz_grammar import FUZZ_ARGS, FUZZ_TOKENS

MANIFEST = Path(__file__).with_name("golden_manifest.txt")
SEED = 11
# the documents after the first slice draw from their own generator, so
# that the first slice's manifest lines stay as they were
WIDER_SEED = 12
NONSINGULAR_SEED = 13
P61 = 2 ** 61 - 1
P64 = 2 ** 64 + 13  # a prime
# a scalar of 2,501 digits: parsed under the limit, its square is past it
BIG = 10 ** 2500 + 3


def _token(rng, p, density):
    """One matrix or vector token: zero with probability 1 - density, else
    over QQ a small signed int or fraction, over F_p mostly a residue, now
    and then a negative or a fraction."""
    if rng.random() >= density:
        return "0"
    sign = rng.choice(("", "-"))
    if p is None:
        if rng.random() < 0.3:
            return "%s%d/%d" % (sign, rng.randrange(1, 20), rng.randrange(2, 12))
        return sign + str(rng.randrange(1, 10))
    roll = rng.random()
    if roll < 0.1:
        return "%s%d/%d" % (sign, rng.randrange(1, 9), rng.choice([d for d in range(2, 9)
                                                                   if d % p]))
    if roll < 0.2:
        return "-%d" % rng.randrange(1, 10)
    return str(rng.randrange(0, p))


def _closure(squares, seeds):
    """The indices reachable from seeds along i -> k where e_i^2 has a
    nonzero coordinate k, the seeds included."""
    seen, stack = set(seeds), list(seeds)
    while stack:
        i = stack.pop()
        for k, x in enumerate(squares[i]):
            if x and k not in seen:
                seen.add(k)
                stack.append(k)
    return sorted(seen)


def _basis_rows(rng, p, squares, vector, ideal):
    """Rows of a basis file for the ideal <vector>: the vector and the
    squares over the closure of its support, each scaled by a random
    nonzero scalar, in a random order, plus one combination of them; or,
    when ideal is false, one random row, which is mostly not an ideal."""
    n = len(vector)
    if not ideal:
        return [[rng.choice((0, 1, 2)) for _ in range(n)]]
    gens = [vector] + [squares[j] for j in _closure(squares, [k for k, x in enumerate(vector)
                                                              if x])]
    gens = [g for g in gens if any(g)]
    scales = ((1, 2, -1, Fraction(1, 3), Fraction(-5, 2)) if p is None
              else tuple(c for c in (1, 2, 3, p - 1) if c % p))
    reduce = (lambda x: x) if p is None else p.__rmod__
    rows = []
    for g in gens:
        c = rng.choice(scales)
        rows.append([reduce(c * x) for x in g])
    rng.shuffle(rows)
    if gens:
        mix = [rng.choice(scales) for _ in gens]
        rows.append([reduce(sum(c * g[k] for c, g in zip(mix, gens))) for k in range(n)])
    return rows


def _document(field_line, matrix_lines, ending="\n", comment=False):
    lines = [field_line, "dim %d" % len(matrix_lines), "matrix", *matrix_lines]
    if comment:
        lines.insert(1, "# a golden document")
    return "".join(line + ending for line in lines).encode("utf-8")


def _random_case(rng, p, n, density, zero_rows, ideal=True):
    """(document bytes, vector text, basis file bytes) of one seeded
    document, the matrix of n x n tokens with zero_rows rows all zero; the
    basis file spans an ideal when ideal is true (_basis_rows)."""
    tokens = [[_token(rng, p, density) for _ in range(n)] for _ in range(n)]
    for k in rng.sample(range(n), zero_rows):
        tokens[k] = ["0"] * n
    return _case(rng, p, tokens, ideal)


def _case(rng, p, tokens, ideal=True):
    """_random_case for the matrix of tokens, a list of n rows of n."""
    n = len(tokens)
    # column i of the matrix spells e_i^2
    squares = [[scalar(tokens[k][i], p) for k in range(n)] for i in range(n)]
    field_line = "field rational" if p is None else "field prime %d" % p
    ending = rng.choice(("\n", "\n", "\n", "\r\n", "\r"))
    doc = _document(field_line, [" ".join(row) for row in tokens], ending,
                    comment=rng.random() < 0.2)
    vector_tokens = [_token(rng, p, 0.4) for _ in range(n)]
    vector = [scalar(t, p) for t in vector_tokens]
    rows = _basis_rows(rng, p, squares, vector, ideal)
    basis = "".join(" ".join(map(str, row)) + "\n" for row in rows).encode("utf-8")
    return doc, ",".join(vector_tokens), basis


def _nonzero_token(rng, p):
    token = _token(rng, p, 1)
    while not scalar(token, p):  # a residue drawn as 0
        token = _token(rng, p, 1)
    return token


def _nonsingular_tokens(rng, p, n):
    """An n x n token matrix whose blocks (weak components) are runs of 1
    to 5 shuffled indices, each on a Hamiltonian cycle of nonzero tokens,
    with more nonzero tokens inside it at density 0.6 to 1: no block has a
    zero row or column, and its det is zero only by chance."""
    tokens = [["0"] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    while order:
        size = rng.randrange(1, 6)
        block, order = order[:size], order[size:]
        cycle = set(zip(block, block[1:] + block[:1]))
        density = rng.choice((0.6, 0.8, 1))
        for i in block:
            for k in block:
                if (i, k) in cycle or rng.random() < density:
                    tokens[k][i] = _nonzero_token(rng, p)  # an edge i -> k
    return tokens


def _planned(rng, plan, prefix):
    """One seeded document per (p, n) of plan, named prefix % k."""
    out = []
    for k, (p, n) in enumerate(plan):
        density = rng.choice((0.25, 0.45, 0.7))
        zero_rows = rng.randrange(0, n // 2 + 1)
        ideal = rng.random() < 0.85
        out.append((prefix % k, p, n, *_random_case(rng, p, n, density, zero_rows, ideal)))
    return out


def cases():
    """[(name, p, n, document bytes, vector text, basis file bytes)] of the
    seeded documents, p None over QQ, the same on every run: the first
    slice from SEED, then those from WIDER_SEED."""
    rng = random.Random(SEED)
    plan = ([(None, n) for n in (1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 10, 11, 12, 12)]
            + [(7, n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12)]
            + [(10007, n) for n in (1, 2, 3, 4, 5, 6, 8, 10, 12, 12)]
            + [(P61, n) for n in (1, 2, 3, 4, 5, 8, 10, 12)])
    out = _planned(rng, plan, "doc%02d")
    for k in range(5):  # sparse QQ at the size of the query benchmark
        out.append(("sparse%d" % k, None, 40, *_random_case(rng, None, 40, 0.06, 4)))
    # a vector of the wrong length, and a basis row of the wrong width
    doc, vector, basis = _random_case(rng, None, 4, 0.45, 1)
    out.append(("short", None, 4, doc, vector.rsplit(",", 1)[0],
                basis.replace(b"\n", b" 0\n", 1)))
    # det [[N, 1], [1, 12]] = 12 N - 1 has 4,302 digits, N = 10^4300 - 1
    big = "9" * 4300
    out.append(("det4302", None, 2, _document("field rational", [big + " 1", "1 12"]), "1,0",
                b"1 0\n"))
    # e1^2 = 7 e2 + B e3, e2^2 = e3^2 = 0: the ideal of (1, B, 0) has the
    # reduced rows (1, 0, -B^2/7) and (0, 1, B/7), and the quotient by
    # span{B e2 + e3} holds 7 - B^2, each of 5,001 digits
    out.append(("big5001", None, 3,
                _document("field rational", ["0 0 0", "7 0 0", "%d 0 0" % BIG]),
                "1,%d,0" % BIG, b"0 %d 1\n" % BIG))
    out.append(("big5001gf", P61, 3, _document("field prime %d" % P61,
                                                ["0 0 0", "7 0 0", "%d 0 0" % (BIG % P61)]),
                "1,%d,0" % BIG, b"0 %d 1\n" % (BIG % P61)))
    # the other fields of the grammar: every size of GF(2)^n and GF(3)^n
    # that the oracle enumerates, one past its cap of subspaces each, and
    # GF(2^64 + 13), whose residues are too wide for an 8-byte slot
    plan = ([(2, n) for n in (1, 2, 3, 4, 5, 6, 8)] + [(3, n) for n in (1, 2, 3, 4, 5, 7)]
            + [(P64, n) for n in (1, 2, 3, 5, 8)])
    return out + _planned(random.Random(WIDER_SEED), plan, "more%02d")


def nonsingular_cases():
    """cases() for the documents of _nonsingular_tokens, over QQ and
    GF(10007), from their own generator."""
    rng = random.Random(NONSINGULAR_SEED)
    sizes = (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 20)
    return [("nonsing%02d" % k, p, n, *_case(rng, p, _nonsingular_tokens(rng, p, n)))
            for k, (p, n) in enumerate([(None, n) for n in sizes] + [(10007, n) for n in sizes])]


def invocations(name, vector):
    """The argv lists run on the seeded document name.alg."""
    doc, basis = name + ".alg", name + ".basis"
    return [
        ["ideal", "--json", "--input", doc, "--vector", vector],
        ["ideal", "--input", doc, "--vector", vector],
        ["quotient", "--json", "--input", doc, "--ideal-basis", basis],
        ["quotient", "--input", doc, "--ideal-basis", basis],
        ["radical", "--json", "--input", doc],
        ["simple", "--json", "--input", doc],
        ["decompose", "--input", doc],
        ["graph", "--input", doc],
        ["analyze", "--json", "--input", doc],
    ]


def _analyze(name, *args):
    return ["analyze", "--json", "--input", name + ".alg", *args]


def _graph(name):
    return ["graph", "--input", name + ".alg"]


def _dense_gf(variant):
    """A seeded dense 40 x 40 GF(10007) document of distinct tokens, its
    det nonzero: one JSON scanner call reads its rows, unless a variant
    makes the scanner refuse them, and the token table reads them all.
    Entry 5 of row 30 (line 33) is spelt as variant says: 'lead' with two
    leading zeros, 'plus-p' as its value plus p, 'two' and 'tab' after two
    spaces or a tab, 'wide' and 'long' as a fullwidth digit and a token of
    4,301 digits, 'p' and 'zero' as p and 0; 'none' leaves it be."""
    rng = random.Random(40)
    n, p = 40, 10007
    rows = [[str(rng.randrange(1, p)) for _ in range(n)] for _ in range(n)]
    t = rows[29][4]
    odd = {"lead": "00" + t, "plus-p": str(int(t) + p), "wide": "\uff11", "long": "1" * 4301,
           "p": str(p), "zero": "0"}
    rows[29][4] = odd.get(variant, t)
    lines = [" ".join(row) for row in rows]
    sep = {"two": "  ", "tab": "\t"}.get(variant, " ")
    lines[29] = " ".join(rows[29][:4]) + sep + " ".join(rows[29][4:])
    return _document("field prime %d" % p, lines)


def _dense_qq(seed, n):
    """A seeded dense n x n QQ document of the benchmark's shape: entries
    +-1..9 at density 3/4 plus a Hamiltonian cycle, so one block."""
    rng = random.Random(seed)
    squares = [{k: rng.choice((-1, 1)) * rng.randrange(1, 10) for k in range(n)
                if rng.random() < 0.75} for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        squares[a].setdefault(b, rng.choice((-1, 1)) * rng.randrange(1, 10))
    return _document("field rational", [" ".join(str(squares[i].get(k, 0)) for i in range(n))
                                        for k in range(n)])


def _chain(field_line, spelling):
    """e1 and e3 are chain starts, zero rows of M_B spelt as 'canon' (one
    compare reads it), 'odd' or 'two' (the token table reads them); the
    'short' row is one entry short."""
    zero = {"canon": "0 0 0 0 0 0", "odd": "00 -0 0 0 0 0", "two": "0  0 0 0 0 0",
            "short": "0 0 0 0 0"}[spelling]
    return _document(field_line, [zero, "0 2 0 0 0 0", zero, "1 0 0 3 0 0", "0 0 5 0 0 1",
                                  "0 0 0 0 7 0"])


GF40 = ("none", "lead", "plus-p", "two", "tab", "wide", "long", "p", "zero")
CHAINS = {"chainqq": "field rational", "chaingf": "field prime 10007"}
SPELLINGS = ("canon", "odd", "two", "short")

# Groups of runs whose stdout must be equal, and pairs whose stdout must
# differ: the spellings of one value that the scanner and the token table
# read, an entry p that is an entry 0 and so drops the edge that the
# canonical entry gives, a zero row spelt three ways, DOT written to
# stdout by default and by --dot -, and a document and a basis file read
# under names that start with '-' and a digit.
SAME = ([[_analyze("gf40-" + v) for v in ("none", "lead", "plus-p", "two", "tab")],
         [_analyze("gf40-p"), _analyze("gf40-zero")], [_graph("gf40-p"), _graph("gf40-zero")],
         [_graph("gf2pair"), [*_graph("gf2pair"), "--dot", "-"]]]
        + [[kind(name + "-" + s) for s in ("canon", "odd", "two")]
           for name in CHAINS for kind in (_analyze, _graph)])
APART = [(_graph("gf40-none"), _graph("gf40-zero"))]
# a file named -1.alg, given three ways, and -1.basis and -1.dot
NEGATIVE_NAMES = [_analyze("-1"), ["analyze", "--json", "--input=-1.alg"],
                  ["analyze", "--json", "--input", "./-1.alg"],
                  ["quotient", "--json", "--input", "-1.alg", "--ideal-basis", "-1.basis"],
                  ["graph", "--input", "-1.alg", "--dot", "-1.dot"]]
# bom.alg and bom.basis are unitrows.alg and unitrows.basis after a UTF-8
# byte-order mark
BOM_NAMES = [_analyze("bom"),
             ["quotient", "--json", "--input", "bom.alg", "--ideal-basis", "bom.basis"]]
SAME += [[_analyze("unitrows"), *NEGATIVE_NAMES[:3], BOM_NAMES[0]],
         [["quotient", "--json", "--input", "unitrows.alg", "--ideal-basis", "unitrows.basis"],
          NEGATIVE_NAMES[3], BOM_NAMES[1]]]

# e1^2 = 5 e1 + e3, e2^2 = e1 - 2/3 e2, e3^2 = e2 + 10 e3: --p 5 sends
# two entries to 0, and --p 3 finds a denominator that vanishes
OVERRIDE = _document("field rational", ["5 1 0", "0 -2/3 1", "1 0 10"])


def corpus():
    """({file name: bytes}, [argv]): every file of the corpus and the runs
    in it, in manifest order."""
    files, runs = {}, []
    seeded = cases()
    _add_seeded(files, runs, seeded)
    for v in GF40:
        files["gf40-%s.alg" % v] = _dense_gf(v)
        runs += [_analyze("gf40-" + v), _graph("gf40-" + v)]
    for name, field_line in CHAINS.items():
        for s in SPELLINGS:
            files["%s-%s.alg" % (name, s)] = _chain(field_line, s)
            runs += [_analyze(name + "-" + s), _graph(name + "-" + s)]
    # e1^2 = e2, e2^2 = e1 + e2 over GF(2): 4 vectors, so a budget of 3
    # refuses them; -1 is 1
    files["gf2pair.alg"] = _document("field prime 2", ["0 1", "1 1"])
    runs += [["analyze", "--input", "gf2pair.alg"], _analyze("gf2pair"), _graph("gf2pair"),
             ["ideal", "--input", "gf2pair.alg", "--vector", "-1,0"],
             ["oracle", "--input", "gf2pair.alg", "--max-vectors", "3"],
             ["oracle", "--json", "--input", "gf2pair.alg", "--max-vectors", "4"]]
    # the projection column of e3 is -w, w = (0, 1, 1) the ideal's reduced
    # row for its last nonzero position; over GF(10007), span{e2, e3 + e4}
    # given by rows that are not reduced
    files["quotqq.alg"] = _document("field rational", ["0 0 0", "1 1 1", "1 1 1"])
    files["quotqq.basis"] = b"0 1 1\n"
    files["quotgf.alg"] = _document("field prime 10007",
                                    ["1 0 0 0", "1 0 0 0", "0 1 1 1", "0 1 1 1"])
    files["quotgf.basis"] = b"0 2 3 3\n0 5 7 7\n"
    for name in ("quotqq", "quotgf"):
        runs += [["quotient", *flags, "--input", name + ".alg", "--ideal-basis", name + ".basis"]
                 for flags in ([], ["--json"])]
    # e1^2 = e2 + e3, e2^2 = e1 + e2, e3^2 = -(e1 + e2), whose squares span
    # an ideal with no natural basis, given by unit-triangular rows: the
    # Bareiss pivot of each equals the last one, yet the first row still
    # has an entry to clear below its pivot
    files["unitrows.alg"] = _document("field rational", ["0 1 -1", "1 1 -1", "1 0 0"])
    files["unitrows.basis"] = b"1 1 0\n0 1 1\n"
    runs += invocations("unitrows", "0,1,1")
    # det [1 2; 3 4] = -2 over GF(2^61 - 1) and GF(2^64 + 13); det
    # [1 2 3; 2 4 5; 3 7 1] = 1, whose second QQ pivot is swapped up; dense
    # QQ of 32 and 33 (an odd column count); det 15 on 6 x 6, whose rows 4
    # and 5 are zero in columns 1 and 2 of M_B^T; U+2028 in a comment
    files["detp61.alg"] = _document("field prime %d" % P61, ["1 2", "3 4"])
    files["detp64.alg"] = _document("field prime %d" % P64, ["1 2", "3 4"])
    files["swap3.alg"] = _document("field rational", ["1 2 3", "2 4 5", "3 7 1"])
    files["denseqq32.alg"] = _dense_qq(27, 32)
    files["denseqq33.alg"] = _dense_qq(28, 33)
    files["lazyqq.alg"] = _document("field rational", [
        "2 1 1 0 0 1", "1 3 1 0 0 0", "0 1 2 1 3 1", "1 0 1 2 1 1", "0 0 1 0 2 1",
        "0 1 0 1 0 3"])
    files["u2028.alg"] = "field prime 5\n# note\u2028dim 3\ndim 2\nmatrix\n1 0\n0 1\n".encode()
    runs += [_analyze(name) for name in ("detp61", "detp64", "swap3", "denseqq32",
                                         "denseqq33", "lazyqq", "u2028")]
    # --field and --p, valid and odd, on a QQ and a GF(7) document
    files["override.alg"] = OVERRIDE
    runs.append(_analyze("override"))
    for args in [*filter(None, FUZZ_ARGS[0]), ["--p", "5"], *FUZZ_ARGS[1]]:
        runs += [_analyze("override", *args), _analyze("doc24", *args)]
    # each odd token of the fuzz grammar in a document, a vector and a
    # basis file, 4,301 digits past the limit among them
    for k, token in enumerate(FUZZ_TOKENS[1]):
        files["odd%d.alg" % k] = _document("field rational", ["1 0 0", "0 1 " + token, "0 0 1"])
        files["odd%d.basis" % k] = ("1 %s 0\n" % token).encode()
        runs += [_analyze("odd%d" % k),
                 ["ideal", "--input", "swap3.alg", "--vector", "0,%s,1" % token],
                 ["quotient", "--input", "swap3.alg", "--ideal-basis", "odd%d.basis" % k]]
    # the oracle on every seeded document it may enumerate, p^n <= 4096
    runs += [["oracle", "--json", "--input", name + ".alg"]
             for name, p, n, *_ in seeded if p and p ** n <= 4096]
    runs.append(["oracle", "--json", "--input", "gf2pair.alg"])
    _add_seeded(files, runs, nonsingular_cases())
    # the document and the basis file both on stdin: refused unread
    runs.append(["quotient", "--ideal-basis", "-"])
    # --dot - is stdout, as - is stdin for --input
    runs.append([*_graph("gf2pair"), "--dot", "-"])
    # every option reads a value that starts with '-' and a digit, or '-.'
    # and a digit: -1.alg and -1.basis are unitrows.alg and unitrows.basis,
    # and -1.dot is written; '-.5' is read as a coordinate and refused
    files["-1.alg"], files["-1.basis"] = files["unitrows.alg"], files["unitrows.basis"]
    runs += [*NEGATIVE_NAMES, ["ideal", "--input", "gf2pair.alg", "--vector", "-.5,0"]]
    # a document and a basis file as a Windows editor writes them
    files["bom.alg"] = b"\xef\xbb\xbf" + files["unitrows.alg"]
    files["bom.basis"] = b"\xef\xbb\xbf" + files["unitrows.basis"]
    runs += BOM_NAMES
    return files, runs


def _add_seeded(files, runs, seeded):
    for name, _, _, doc, vector, basis in seeded:
        files[name + ".alg"], files[name + ".basis"] = doc, basis
        runs += invocations(name, vector)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def run(argv):
    """(exit code, stdout, stderr) of one in-process run of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def counted(calls, name, function):
    """function, wrapped to add 1 to calls[name] on each call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return wrapper


def bindings(function, package="evolalg"):
    """[(module, name)] of every binding of function in the modules of
    package, the package itself among them: each place a rebinding must
    reach for every call by name to go through it."""
    return [(module, name) for key, module in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
            for name, value in vars(module).items() if value is function]


def manifest_line(argv, code, out, err) -> str:
    return "%d %s %s %s" % (code, _digest(out), _digest(err), shlex.join(argv))


def results(where):
    """Write the corpus into the directory where and run it there:
    ({file name: bytes}, [(argv, exit code, stdout, stderr)] in manifest
    order)."""
    files, runs = corpus()
    here = os.getcwd()
    os.chdir(where)
    try:
        for name, data in files.items():
            Path(name).write_bytes(data)
        return files, [(argv, *run(argv)) for argv in runs]
    finally:
        os.chdir(here)


def write_manifest():
    with tempfile.TemporaryDirectory() as where:
        _, ran = results(where)
    MANIFEST.write_text("".join(manifest_line(*r) + "\n" for r in ran), encoding="utf-8")
    print("%s: %d invocations" % (MANIFEST.name, len(ran)), file=sys.stderr)


if __name__ == "__main__":
    write_manifest()
