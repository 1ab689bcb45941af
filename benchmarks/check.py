"""Independent checks of evolalg's CLI outputs.

Nothing here imports evolalg.  Each check recomputes its facts another
way: graph facts with networkx, QQ determinants, ranks and RREF bases with
sympy's DomainMatrix, GF(p) determinants with a NumPy int64 elimination,
quotients with plain Fractions, and the JSON layout against
docs/report.schema.json.  The runner imports this module only after its
timed phase, so none of these libraries is loaded while it measures.

check_step returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import networkx as nx
import numpy as np
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"

# key order of the analyze report and the subsets the section subcommands
# print, as FORMAT.md lays them out
ANALYZE_KEYS = ("field", "dim", "annihilator", "radical", "nondegenerate",
                "chain_start_indices", "principal_cycles", "canonical_parts",
                "blocks", "simple", "simple_reasons", "optimal_certified")
SECTION_KEYS = {
    "analyze": ANALYZE_KEYS,
    "decompose": ("field", "dim", "nondegenerate", "chain_start_indices",
                  "principal_cycles", "canonical_parts", "blocks",
                  "optimal_certified"),
    "simple": ("field", "dim", "simple", "simple_reasons"),
    "radical": ("field", "dim", "annihilator", "radical", "nondegenerate"),
}


class Doc:
    """An algebra document parsed without evolalg, with its graph facts."""

    def __init__(self, text: str):
        lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        head = lines[0].split()
        self.p = None if head[1] == "rational" else int(head[2])
        self.n = int(lines[1].split()[1])
        self.rows = [[self.scalar(t) for t in ln.split()] for ln in lines[3:3 + self.n]]
        n = self.n
        self.columns = [[self.rows[k][i] for k in range(n)] for i in range(n)]
        g = nx.DiGraph()
        g.add_nodes_from(range(1, n + 1))
        g.add_edges_from((i + 1, k + 1) for i in range(n) for k in range(n)
                         if self.rows[k][i] != 0)
        self.graph = g
        self.sinks = sorted(i for i in g if g.out_degree(i) == 0)
        self.zero_rows = sorted(k + 1 for k in range(n) if not any(self.rows[k]))
        # reachability through the condensation: i reaches every member of
        # the components below its own, and its own when that one is cyclic
        cond = nx.condensation(g)
        self.condensation = cond
        members = {c: set(cond.nodes[c]["members"]) for c in cond}
        cyclic = {c for c in cond
                  if len(members[c]) > 1 or g.has_edge(min(members[c]), min(members[c]))}
        self.cyclic = set().union(*(members[c] for c in cyclic))
        reach = {}
        for c in cond:
            below = set(members[c]) if c in cyclic else set()
            for d in nx.descendants(cond, c):
                below |= members[d]
            reach[c] = below
        self.desc = {i: reach[cond.graph["mapping"][i]] for i in g}
        self.radical = sorted(i for i in g if not (self.desc[i] | {i}) & self.cyclic)

    def scalar(self, token: str):
        value = Fraction(token)
        if self.p is None:
            return value
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    def derived(self, seed) -> list:
        """seed together with every vertex reachable from it."""
        return sorted(set(seed).union(*(self.desc[i] for i in seed)))

    def det(self, indices) -> object:
        idx = [i - 1 for i in indices]
        sub = [[self.rows[r][c] for c in idx] for r in idx]
        if self.p is None:
            return det_qq(sub)
        return det_mod_p(sub, self.p)

    def field_json(self):
        return {"kind": "rational"} if self.p is None else {"kind": "prime", "p": self.p}

    def unit_rows(self, indices):
        return [["1" if k == i else "0" for k in range(1, self.n + 1)] for i in indices]


def det_qq(rows) -> Fraction:
    k = len(rows)
    d = DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in rows],
                     (k, k), QQ).det()
    return Fraction(int(d.numerator), int(d.denominator))


def det_mod_p(rows, p: int) -> int:
    """Gaussian elimination mod p in int64; p < 2**31 keeps every product
    below 2**62."""
    a = np.array(rows, dtype=np.int64) % p
    k = a.shape[0]
    result = 1
    for c in range(k):
        hits = np.nonzero(a[c:, c])[0]
        if hits.size == 0:
            return 0
        r = c + int(hits[0])
        if r != c:
            a[[c, r]] = a[[r, c]]
            result = -result
        pivot = int(a[c, c])
        result = result * pivot % p
        inv = pow(pivot, -1, p)
        factors = a[c + 1:, c] * inv % p
        a[c + 1:] = (a[c + 1:] - np.outer(factors, a[c]) % p) % p
    return result % p


def rref_qq(vectors, n: int):
    """Nonzero rows of the reduced row-echelon form, as Fractions."""
    if not vectors:
        return []
    m = DomainMatrix([[QQ(x.numerator, x.denominator) for x in v] for v in vectors],
                     (len(vectors), n), QQ)
    reduced, pivots = m.rref()
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
            for row in reduced.to_list()[:len(pivots)]]


def rank_qq(vectors, n: int) -> int:
    return len(rref_qq(vectors, n))


class Expected:
    """The analyze report of one document, recomputed independently."""

    def __init__(self, doc: Doc):
        self.doc = doc
        g, n = doc.graph, doc.n
        cond = doc.condensation
        cycles = sorted(sorted(cond.nodes[c]["members"]) for c in cond
                        if cond.in_degree(c) == 0
                        and min(cond.nodes[c]["members"]) in doc.cyclic)
        parts = [{"kind": "principal_cycle", "seed": c, "derived": doc.derived(c)}
                 for c in cycles]
        parts += [{"kind": "chain_start", "seed": [i], "derived": doc.derived([i])}
                  for i in doc.zero_rows]
        parts.sort(key=lambda part: part["seed"][0])
        everything = set(range(1, n + 1))
        blocks = []
        dets = []
        for comp in sorted((sorted(c) for c in nx.weakly_connected_components(g))):
            d = doc.det(comp)
            dets.append(d)
            blocks.append({
                "indices": comp,
                "nondegenerate": not set(comp) & set(doc.sinks),
                "simple": d != 0 and all(doc.desc[i] == set(comp) for i in comp),
                "det": str(d),
            })
        reasons = []
        # the matrix is block diagonal up to a permutation of the indices
        if any(d == 0 for d in dets):
            reasons.append("det(M_B) == 0")
        unreached = [i for i in range(1, n + 1) if doc.desc[i] != everything]
        if unreached:
            reasons.append("D(%d) != Lambda" % unreached[0])
        self.report = {
            "field": doc.field_json(),
            "dim": n,
            "annihilator": doc.unit_rows(doc.sinks),
            "radical": doc.unit_rows(doc.radical),
            "nondegenerate": not doc.sinks,
            "chain_start_indices": doc.zero_rows,
            "principal_cycles": cycles,
            "canonical_parts": parts,
            "blocks": blocks,
            "simple": not reasons,
            "simple_reasons": reasons,
            "optimal_certified": not doc.sinks,
        }


def _schema_for(section: str) -> dict:
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    schema["required"] = list(SECTION_KEYS[section])
    return schema


class Checker:
    def __init__(self):
        self.schemas = {name: _schema_for(name) for name in SECTION_KEYS}
        self.expected = {}

    def expected_for(self, doc_path: str) -> Expected:
        if doc_path not in self.expected:
            self.expected[doc_path] = Expected(Doc(Path(doc_path).read_text(encoding="utf-8")))
        return self.expected[doc_path]

    def check_step(self, argv, output: str) -> list:
        command = argv[0]
        doc_path = argv[argv.index("--input") + 1]
        exp = self.expected_for(doc_path)
        if command in SECTION_KEYS:
            return self._check_section(exp, command, output)
        if command == "graph":
            return self._check_dot(exp.doc, output)
        if command == "ideal":
            vector = next(a.split("=", 1)[1] for a in argv if a.startswith("--vector="))
            return self._check_ideal(exp.doc, vector, output)
        if command == "quotient":
            basis = argv[argv.index("--ideal-basis") + 1]
            return self._check_quotient(exp.doc, Path(basis).read_text(encoding="utf-8"),
                                        output)
        return ["no check for subcommand %r" % command]

    def _check_section(self, exp, section, output):
        try:
            payload = json.loads(output)
        except json.JSONDecodeError as exc:
            return ["%s: output is not JSON (%s)" % (section, exc)]
        keys = SECTION_KEYS[section]
        problems = []
        if tuple(payload) != keys:
            problems.append("%s: keys %s, expected %s" % (section, list(payload), list(keys)))
        errors = sorted(jsonschema.Draft202012Validator(self.schemas[section])
                        .iter_errors(payload), key=str)
        problems += ["%s: schema: %s" % (section, e.message) for e in errors[:3]]
        for key in keys:
            if payload.get(key) != exp.report[key]:
                problems.append("%s: %s is %s, expected %s"
                                % (section, key, _short(payload.get(key)),
                                   _short(exp.report[key])))
        return problems

    def _check_dot(self, doc, output):
        lines = ["digraph evolution {"]
        lines += ["  v%d;" % i for i in range(1, doc.n + 1)]
        lines += ["  v%d -> v%d;" % e for e in sorted(doc.graph.edges)]
        expected = "\n".join(lines + ["}"]) + "\n"
        return [] if output == expected else ["graph: DOT differs from the nonzero pattern"]

    def _check_ideal(self, doc, vector_text, output):
        # rational documents only: the ranks and RREF bases come from QQ
        payload = json.loads(output)
        n = doc.n
        x = [doc.scalar(t) for t in vector_text.split(",")]
        lam = [i for i in range(1, n + 1) if x[i - 1] != 0 and any(doc.columns[i - 1])]
        closure = doc.derived(lam)
        expected = rref_qq([x] + [doc.columns[j - 1] for j in closure], n)
        basis = [[doc.scalar(t) for t in row] for row in payload["ideal_basis"]]
        problems = []
        if payload["vector"] != [str(v) for v in x]:
            problems.append("ideal: vector echoed as %s" % _short(payload["vector"]))
        if basis != expected or payload["ideal_dim"] != len(expected):
            problems.append("ideal: basis is not the RREF of x and the squares over "
                            "the forward closure of lambda_x")
        # e_i * v = v_i e_i^2, so closure asks for e_i^2 whenever some v_i != 0
        support = sorted({i for row in basis for i in range(1, n + 1) if row[i - 1] != 0})
        squares = [doc.columns[i - 1] for i in support if any(doc.columns[i - 1])]
        if rank_qq(basis + squares, n) != len(basis):
            problems.append("ideal: basis is not closed under multiplication")
        return problems

    def _check_quotient(self, doc, basis_text, output):
        payload = json.loads(output)
        n = doc.n
        ideal = [[doc.scalar(t) for t in line.split()]
                 for line in basis_text.splitlines() if line.split("#", 1)[0].strip()]
        dim_i = rank_qq(ideal, n)
        chosen = payload["chosen"]
        proj = [[doc.scalar(t) for t in row] for row in payload["projection"]]
        quot = [[doc.scalar(t) for t in row] for row in payload["quotient_structure"]]
        q = n - dim_i
        problems = []
        if (payload["ideal_dim"], payload["quotient_dim"], len(chosen)) != (dim_i, q, q):
            return ["quotient: dimensions %s, expected ideal %d, quotient %d"
                    % ((payload["ideal_dim"], payload["quotient_dim"], len(chosen)), dim_i, q)]
        if len(proj) != q or any(len(r) != n for r in proj) or len(quot) != q \
                or any(len(r) != q for r in quot):
            return ["quotient: matrix shapes are wrong"]

        def apply(v):
            return [sum((a * b for a, b in zip(row, v) if a and b), Fraction(0))
                    for row in proj]

        if any(any(apply(v)) for v in ideal):
            problems.append("quotient: P v != 0 for a vector of the ideal")
        for c, i in enumerate(chosen):
            if apply([Fraction(int(k == i)) for k in range(1, n + 1)]) != \
                    [Fraction(int(r == c)) for r in range(q)]:
                problems.append("quotient: P e_%d is not unit vector %d" % (i, c + 1))
                break
        for c, i in enumerate(chosen):
            if [quot[r][c] for r in range(q)] != apply(doc.columns[i - 1]):
                problems.append("quotient: column %d differs from P times column %d of M"
                                % (c + 1, i))
                break
        return problems


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 120 else text[:117] + "..."
