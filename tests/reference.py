"""Reference checks of CLI reports, by elimination written out here: this
module imports nothing from evolalg, so a fault in the library's kernels
or parsers cannot hide one in the check.

    analyze_problems(document, report)         # analyze --json (or decompose --json)
    quotient_problems(document, basis, report)  # quotient --json

Each takes the input bytes the run read and the parsed JSON it printed,
and returns a list of what is wrong, empty when nothing is.  The field is
the one the report names, so a run with --field or --p is checked over the
field it used.  A document is read as FORMAT.md describes it: a line ends
at \\n, \\r\\n or a lone \\r, '#' starts a comment, and a scalar is an
optional sign, ASCII digits and optionally '/' and more digits, taken
over F_p through the inverse of its denominator.  Texts of any length are
read, also those past CPython's 4,300-digit limit on int conversion, which
a report may print.
"""

from fractions import Fraction

# digits per int() call, below CPython's limit on one conversion
_CHUNK = 4000


def _integer(text):
    """The int a signed run of ASCII digits spells, of any length."""
    sign, digits = (-1, text[1:]) if text[:1] == "-" else (1, text.lstrip("+"))
    value = 0
    for k in range(0, len(digits), _CHUNK):
        chunk = digits[k:k + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def scalar(text, p=None):
    """The value of a scalar text: a Fraction over QQ (p None), else the
    residue in [0, p)."""
    num, _, den = text.partition("/")
    num, den = _integer(num), _integer(den) if den else 1
    if p is None:
        return Fraction(num, den)
    return num * pow(den, -1, p) % p


def lines(data):
    """The tokens of each significant line of a document or basis file."""
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return [words for words in (line.split("#", 1)[0].split() for line in text.split("\n"))
            if words]


def matrix(document):
    """The rows of tokens under the 'matrix' header of a document."""
    rows = lines(document)
    assert [words[0] for words in rows[:3]] == ["field", "dim", "matrix"], rows[:3]
    return rows[3:]


def _echelon(rows, p):
    """(rank, det) of the rows, by Gaussian elimination with the first
    nonzero pivot of each column; det is of a square matrix, 0 when the
    rows are dependent."""
    rows = [list(row) for row in rows]
    rank, det = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        k = next((k for k in range(rank, len(rows)) if rows[k][c]), None)
        if k is None:
            det = 0
            continue
        if k != rank:
            rows[rank], rows[k], det = rows[k], rows[rank], -det
        pivot = rows[rank]
        det *= pivot[c]
        inverse = 1 / pivot[c] if p is None else pow(pivot[c], -1, p)
        for row in rows[rank + 1:]:
            if row[c]:
                f = row[c] * inverse
                row[:] = [x - f * y for x, y in zip(row, pivot)]
                if p is not None:
                    row[:] = [x % p for x in row]
        rank += 1
    return rank, det if p is None else det % p


def _field(report):
    return report["field"].get("p")


def analyze_problems(document, report):
    """The blocks of report whose det is not the det of M_B restricted to
    the block's indices, as read from the document."""
    p = _field(report)
    m = [[scalar(t, p) for t in row] for row in matrix(document)]
    problems = []
    for block in report["blocks"]:
        at = [i - 1 for i in block["indices"]]
        _, det = _echelon([[m[k][i] for i in at] for k in at], p)
        if det != scalar(block["det"], p):
            problems.append("block %s: det %s is not the reference det"
                            % (block["indices"], block["det"][:40]))
    return problems


def quotient_problems(document, basis, report):
    """What is wrong with a quotient report's projection P: it must be the
    identity on the chosen columns, send every row of the basis file to 0,
    and have as many rows as the document's dim less the basis's rank."""
    p = _field(report)
    n = len(matrix(document))
    vectors = [[scalar(t, p) for t in row] for row in lines(basis)]
    rank, _ = _echelon(vectors, p)
    P = [[scalar(t, p) for t in row] for row in report["projection"]]
    problems = []
    if not len(P) == report["quotient_dim"] == n - rank or report["ideal_dim"] != rank:
        problems.append("%d projection rows, quotient dim %d, ideal dim %d; dim %d, rank %d"
                        % (len(P), report["quotient_dim"], report["ideal_dim"], n, rank))
    if [[row[c - 1] for c in report["chosen"]] for row in P] != [
            [int(i == j) for j in range(len(P))] for i in range(len(P))]:
        problems.append("the projection is not the identity on chosen %s" % report["chosen"])
    for k, v in enumerate(vectors, start=1):
        image = [sum(a * b for a, b in zip(row, v)) for row in P]
        if any(x if p is None else x % p for x in image):
            problems.append("the projection does not send basis row %d to 0" % k)
    return problems
