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
moved.

The documents: QQ with negatives and fractions, GF(7), GF(10007) and
GF(2^61 - 1), n from 1 to 12, with zero rows (chain starts) and all three
line ends, a few sparse QQ documents of n = 40, and two with scalars past
CPython's 4,300-digit limit on int-to-text conversion in their output: a
det of 4,302 digits, and an ideal and a quotient whose entries have 5,001.
Each document is run through ideal and quotient (JSON and table), radical
and simple (JSON), decompose (table), graph (DOT) and analyze (JSON).
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

MANIFEST = Path(__file__).with_name("golden_manifest.txt")
SEED = 11
P61 = 2 ** 61 - 1
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


def _value(token, p):
    value = Fraction(token)
    if p is None:
        return value
    return value.numerator * pow(value.denominator, -1, p) % p


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
    scales = (1, 2, -1, Fraction(1, 3), Fraction(-5, 2)) if p is None else (1, 2, 3, p - 1)
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
    # column i of the matrix spells e_i^2
    squares = [[_value(tokens[k][i], p) for k in range(n)] for i in range(n)]
    field_line = "field rational" if p is None else "field prime %d" % p
    ending = rng.choice(("\n", "\n", "\n", "\r\n", "\r"))
    doc = _document(field_line, [" ".join(row) for row in tokens], ending,
                    comment=rng.random() < 0.2)
    vector_tokens = [_token(rng, p, 0.4) for _ in range(n)]
    vector = [_value(t, p) for t in vector_tokens]
    rows = _basis_rows(rng, p, squares, vector, ideal)
    basis = "".join(" ".join(map(str, row)) + "\n" for row in rows).encode("utf-8")
    return doc, ",".join(vector_tokens), basis


def cases():
    """[(name, document bytes, vector text, basis file bytes)] of the
    corpus, the same on every run."""
    rng = random.Random(SEED)
    out = []
    plan = ([(None, n) for n in (1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 10, 11, 12, 12)]
            + [(7, n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12)]
            + [(10007, n) for n in (1, 2, 3, 4, 5, 6, 8, 10, 12, 12)]
            + [(P61, n) for n in (1, 2, 3, 4, 5, 8, 10, 12)])
    for k, (p, n) in enumerate(plan):
        density = rng.choice((0.25, 0.45, 0.7))
        zero_rows = rng.randrange(0, n // 2 + 1)
        ideal = rng.random() < 0.85
        out.append(("doc%02d" % k, *_random_case(rng, p, n, density, zero_rows, ideal)))
    for k in range(5):  # sparse QQ at the size of the query benchmark
        out.append(("sparse%d" % k, *_random_case(rng, None, 40, 0.06, 4)))
    # a vector of the wrong length, and a basis row of the wrong width
    doc, vector, basis = _random_case(rng, None, 4, 0.45, 1)
    out.append(("short", doc, vector.rsplit(",", 1)[0], basis.replace(b"\n", b" 0\n", 1)))
    # det [[N, 1], [1, 12]] = 12 N - 1 has 4,302 digits, N = 10^4300 - 1
    big = "9" * 4300
    out.append(("det4302", _document("field rational", [big + " 1", "1 12"]), "1,0",
                b"1 0\n"))
    # e1^2 = 7 e2 + B e3, e2^2 = e3^2 = 0: the ideal of (1, B, 0) has the
    # reduced rows (1, 0, -B^2/7) and (0, 1, B/7), and the quotient by
    # span{B e2 + e3} holds 7 - B^2, each of 5,001 digits
    out.append(("big5001", _document("field rational", ["0 0 0", "7 0 0", "%d 0 0" % BIG]),
                "1,%d,0" % BIG, b"0 %d 1\n" % BIG))
    out.append(("big5001gf", _document("field prime %d" % P61,
                                       ["0 0 0", "7 0 0", "%d 0 0" % (BIG % P61)]),
                "1,%d,0" % BIG, b"0 %d 1\n" % (BIG % P61)))
    return out


def invocations(name, vector):
    """The argv lists run on the document name.alg."""
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


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def run(argv) -> str:
    """The manifest line of one in-process run of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return "%d %s %s %s" % (code, _digest(out.getvalue()), _digest(err.getvalue()),
                            shlex.join(argv))


def manifest_lines(where) -> list:
    """Write the corpus into the directory where, which must be the
    working directory, and return the manifest lines of its runs."""
    lines = []
    for name, doc, vector, basis in cases():
        (Path(where) / (name + ".alg")).write_bytes(doc)
        (Path(where) / (name + ".basis")).write_bytes(basis)
        lines += map(run, invocations(name, vector))
    return lines


def write_manifest():
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as where:
        os.chdir(where)
        try:
            lines = manifest_lines(where)
        finally:
            os.chdir(here)
    MANIFEST.write_text("".join(line + "\n" for line in lines))
    print("%s: %d invocations" % (MANIFEST.name, len(lines)), file=sys.stderr)


if __name__ == "__main__":
    write_manifest()
