"""Reference checks of CLI reports, by elimination and breadth-first search
written out here: this module imports nothing from evolalg, so a fault in
the library's kernels, parsers or graph code cannot hide one in the check.

    analyze_problems(document, report)         # analyze, decompose, radical, simple --json
    quotient_problems(document, basis, report)  # quotient --json
    ideal_problems(document, vector, report)    # ideal --json, vector the --vector text
    graph_problems(document, dot, p)            # graph, p = modulus(document, argv)

Each takes the input bytes the run read and what it printed (parsed, for
JSON), and returns a list of what is wrong, empty when nothing is.  The
field is the one the run used: the one a JSON report names, and for DOT,
which names none, the one modulus reads off the run's --field and --p or
the document.  A document is read as FORMAT.md describes it: a line ends
at \\n, \\r\\n or a lone \\r, '#' starts a comment, and a scalar is an
optional sign, ASCII digits and optionally '/' and more digits, taken
over F_p through the inverse of its denominator.  Texts of any length are
read, also those past CPython's 4,300-digit limit on int conversion, which
a report may print.

The graph facts of a report (annihilator, radical, chain starts, principal
cycles, canonical parts, blocks, simplicity) are read off plain
reachability: one breadth-first search from each index over the entries
of the document that are nonzero in the report's field, with an edge
i -> k when row k, column i is nonzero.  No condensation is built, so the
algorithm is not the library's.  The DOT edges are read off the same
entries.  A generated ideal is grown by products until its rank stops
rising, with no graph at all, and a quotient's greedy choice is found by
appending unit vectors to its basis rows one at a time.
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
    """(rank, det, echelon rows) of the rows, by Gaussian elimination with
    the first nonzero pivot of each column; det is of a square matrix, 0
    when the rows are dependent, and the rank echelon rows span the rows."""
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
    return rank, det if p is None else det % p, rows[:rank]


def _field(report):
    return report["field"].get("p")


def _reach(out):
    """For each index, the set of indices a path of length >= 1 reaches
    from it along out (out[i] lists the targets of i), by one
    breadth-first search each."""
    reach = {}
    for i in out:
        seen, frontier = set(), list(out[i])
        while frontier:
            seen.update(frontier)
            frontier = [k for j in frontier for k in out[j] if k not in seen]
        reach[i] = seen
    return reach


def _units(indices, n):
    """The rows e_i over the indices, as the texts a report prints."""
    return [["1" if k == i else "0" for k in range(1, n + 1)] for i in sorted(indices)]


def _expected(m, det):
    """Every key of an analyze report but the field and the block dets,
    for the matrix m of field scalars, with det(indices) the det of M_B
    restricted to them.  det M_B is the product of the block dets, since
    M_B is block diagonal once the blocks' indices are put together."""
    n = len(m)
    out = {i: [k for k in range(1, n + 1) if m[k - 1][i - 1]] for i in range(1, n + 1)}
    reach = _reach(out)
    linked = _reach({i: set(out[i]) | {k for k in out if i in out[k]} for i in out})
    sinks = {i for i in out if not out[i]}
    cyclic = {i for i in out if i in reach[i]}
    starts = sorted(set(out).difference(*out.values()))
    # the cycle through a cyclic index i is principal when every index
    # that reaches i is reached from i
    cycles = sorted({frozenset(k for k in reach[i] if i in reach[k]) for i in cyclic
                     if all(k in reach[i] for k in out if i in reach[k])}, key=min)
    parts = sorted([("chain_start", [i]) for i in starts]
                   + [("principal_cycle", sorted(c)) for c in cycles], key=lambda part: part[1])
    weak = sorted({frozenset(linked[i] | {i}) for i in out}, key=min)
    reasons = ["det(M_B) == 0"] if any(det(b) == 0 for b in weak) else []
    short = next((i for i in out if len(reach[i]) < n), None)
    if short is not None:
        reasons.append("D(%d) != Lambda" % short)
    return {"dim": n,
            "annihilator": _units(sinks, n),
            "radical": _units({i for i in out if not reach[i] & cyclic}, n),
            "nondegenerate": not sinks,
            "chain_start_indices": starts,
            "principal_cycles": [sorted(c) for c in cycles],
            "canonical_parts": [{"kind": kind, "seed": seed,
                                 "derived": sorted(set(seed).union(*(reach[i] for i in seed)))}
                                for kind, seed in parts],
            "blocks": [{"indices": sorted(b), "nondegenerate": not b & sinks,
                        "simple": det(b) != 0 and all(reach[i] == b for i in b)} for b in weak],
            "simple": not reasons,
            "simple_reasons": reasons,
            "optimal_certified": not sinks}


def analyze_problems(document, report):
    """What is wrong with an analyze report: each key whose value is not
    the reference's, and each block whose det is not the det of M_B
    restricted to the block's indices, as read from the document.  A key
    that the report does not hold is not checked, so the decompose,
    radical and simple sections are checked on their own keys."""
    p = _field(report)
    m = [[scalar(t, p) for t in row] for row in matrix(document)]
    dets = {}

    def det(indices):
        at = tuple(sorted(indices))
        if at not in dets:
            dets[at] = _echelon([[m[k - 1][i - 1] for i in at] for k in at], p)[1]
        return dets[at]

    problems = []
    for key, value in _expected(m, det).items():
        if key not in report:
            continue
        got = report[key]
        if key == "blocks":
            got = [{k: b[k] for k in ("indices", "nondegenerate", "simple")} for b in got]
        if got != value:
            problems.append("%s: %s is not the reference %s" % (key, str(got)[:60],
                                                                str(value)[:60]))
    for block in report.get("blocks", []):
        if det(block["indices"]) != scalar(block["det"], p):
            problems.append("blocks: det %s of %s is not the reference det"
                            % (block["det"][:40], block["indices"]))
    return problems


def quotient_problems(document, basis, report):
    """What is wrong with a quotient report.  Its projection P must be the
    identity on the chosen columns, send every row of the basis file to 0,
    and have as many rows as the document's dim less the basis's rank.
    Its structure matrix must be P times the columns of M_B at the chosen
    indices, and chosen must be the greedy choice: the indices i at which
    e_i, appended to the basis rows and e_1..e_(i-1), raises the rank."""
    p = _field(report)
    m = [[scalar(t, p) for t in row] for row in matrix(document)]
    n = len(m)
    vectors = [[scalar(t, p) for t in row] for row in lines(basis)]
    rank, _, rows = _echelon(vectors, p)
    P = [[scalar(t, p) for t in row] for row in report["projection"]]
    chosen = report["chosen"]
    problems = []
    if not len(P) == report["quotient_dim"] == n - rank or report["ideal_dim"] != rank:
        problems.append("%d projection rows, quotient dim %d, ideal dim %d; dim %d, rank %d"
                        % (len(P), report["quotient_dim"], report["ideal_dim"], n, rank))
    if [[row[c - 1] for c in chosen] for row in P] != [
            [int(i == j) for j in range(len(P))] for i in range(len(P))]:
        problems.append("the projection is not the identity on chosen %s" % chosen)
    for k, v in enumerate(vectors, start=1):
        image = [sum(a * b for a, b in zip(row, v)) for row in P]
        if any(x if p is None else x % p for x in image):
            problems.append("the projection does not send basis row %d to 0" % k)
    image = [[sum(a * m[k][c - 1] for k, a in enumerate(row)) for c in chosen] for row in P]
    if p is not None:
        image = [[x % p for x in row] for row in image]
    if image != [[scalar(t, p) for t in row] for row in report["quotient_structure"]]:
        problems.append("quotient_structure: not P times the columns of M_B at chosen")
    greedy = []
    for i in range(1, n + 1):
        # the echelon rows of the basis and e_1..e_(i-1) stand for them
        grown, _, rows = _echelon(rows + [[int(k == i) for k in range(1, n + 1)]], p)
        if grown > rank:
            greedy.append(i)
            rank = grown
    if greedy != chosen:
        problems.append("chosen: %s is not the greedy choice %s" % (chosen, greedy))
    return problems


def ideal_problems(document, vector, report):
    """What is wrong with an ideal --json report for the --vector text
    vector.  Its vector must be the one the text spells, and ideal_dim the
    rank of the closure of span{x} under products, grown by the products
    v e_i = v_i e_i^2 of its vectors v until the rank stops rising; its
    ideal_basis must be in reduced row-echelon form and span the closure."""
    p = _field(report)
    m = [[scalar(t, p) for t in row] for row in matrix(document)]
    n = len(m)
    x = [scalar(t.strip(), p) for t in vector.split(",")]
    span = _echelon([x], p)[2]
    while True:
        # the products v e_i of one i are proportional, so one of each
        # spans them all
        products = {i: [v[i] * row[i] for row in m] for v in span for i in range(n) if v[i]}
        if p is not None:
            products = {i: [y % p for y in w] for i, w in products.items()}
        rank, _, grown = _echelon(span + list(products.values()), p)
        if rank == len(span):
            break
        span = grown
    basis = [[scalar(t, p) for t in row] for row in report["ideal_basis"]]
    problems = []
    if [scalar(t, p) for t in report["vector"]] != x:
        problems.append("vector: %s is not the --vector %s" % (report["vector"], vector[:40]))
    if not report["ideal_dim"] == len(basis) == len(span):
        problems.append("ideal_dim: %d, with %d basis rows, is not the closure's rank %d"
                        % (report["ideal_dim"], len(basis), len(span)))
    # each row leads with a 1 at its pivot, in ascending columns, and is 0
    # at the other rows' pivots; a zero row has pivot n
    pivots = [next((c for c, y in enumerate(row) if y), n) for row in basis]
    if (pivots != sorted(set(pivots)) or n in pivots
            or any(row[c] != int(j == k) for k, row in enumerate(basis)
                   for j, c in enumerate(pivots))):
        problems.append("ideal_basis: not in reduced row-echelon form")
    elif _echelon(basis + span, p)[0] != len(basis):
        problems.append("ideal_basis: does not span the closure")
    return problems


def modulus(document, argv):
    """The modulus of the field a run over document used, None over QQ:
    the one its --field and --p flags name, else the document's."""
    flags = dict(zip(argv, argv[1:]))
    if flags.get("--field") == "rational":
        return None
    if "--p" in flags:
        return _integer(flags["--p"])
    words = lines(document)[0]
    return _integer(words[2]) if words[1:2] == ["prime"] else None


def graph_problems(document, dot, p):
    """What is wrong with the DOT text of a graph run over the field of
    modulus p (None over QQ): it must list v1..vn and exactly the edges
    vi -> vk whose entry (k, i) is nonzero, in FORMAT.md's order."""
    m = [[scalar(t, p) for t in row] for row in matrix(document)]
    n = len(m)
    want = ["digraph evolution {", *("  v%d;" % i for i in range(1, n + 1)),
            *("  v%d -> v%d;" % (i, k) for i in range(1, n + 1) for k in range(1, n + 1)
              if m[k - 1][i - 1]),
            "}", ""]
    got = dot.split("\n")
    if got == want:
        return []
    return ["graph: missing %s, extra %s, or out of order" % (sorted(set(want) - set(got))[:4],
                                                              sorted(set(got) - set(want))[:4])]
