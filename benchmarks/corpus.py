"""Seeded corpus generator for the benchmark workloads (standard library only).

Every workload is one family of algebra documents whose members cost about
the same: the sizes, block counts, sink counts and edge counts are fixed by
the family, and the seed only picks where the edges go and which scalars
sit on them.  The program under test receives nothing but the documents
and the command lines written here.

Structure-matrix orientation follows FORMAT.md: entry (k, i) is the
coefficient of e_k in e_i^2, so column i spells out e_i^2 and there is an
edge i -> k exactly when that entry is nonzero.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

PRIME = 10007


@dataclass(frozen=True)
class Family:
    """The fixed make-up of one workload's corpus."""

    field: str          # "rational" or "prime"
    dim: int
    docs: int           # documents in the corpus
    round_s: float      # nominal seconds for one pass over the corpus
    blocks: int = 1     # weak components (sparse families)
    sinks: int = 0      # sinks per block
    starts: int = 0     # chain-start indices per block
    out_degree: int = 0 # out-edges of every non-sink vertex (sparse families)
    density: float = 0.0  # share of nonzero entries (dense families)
    queries: bool = False


FAMILIES = {
    "analyze-dense-qq": Family("rational", 32, docs=12, round_s=4.6, density=0.75),
    "analyze-dense-gf": Family("prime", 120, docs=6, round_s=9.4, density=0.75),
    "analyze-blocks-gf": Family("prime", 144, docs=5, round_s=5.2, blocks=12,
                                sinks=1, starts=2, out_degree=3),
    "queries-qq": Family("rational", 40, docs=8, round_s=6.2, blocks=4,
                         sinks=1, starts=2, out_degree=2, queries=True),
}


def _scalar(rng, field):
    if field == "prime":
        return rng.randrange(1, PRIME)
    return rng.choice((-1, 1)) * rng.randrange(1, 10)


def dense_squares(rng, fam):
    """Column i of the structure matrix as a {k: coefficient} map.

    Entries are nonzero with probability fam.density; a random Hamiltonian
    cycle is forced in, so the graph is strongly connected and every column
    is nonzero (irreducible and non-degenerate)."""
    n = fam.dim
    squares = [{k: _scalar(rng, fam.field) for k in range(n)
                if rng.random() < fam.density} for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        squares[a].setdefault(b, _scalar(rng, fam.field))
    return squares


def _weakly_connected(vertices, edges):
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in vertices}) == 1


def _sparse_block(rng, fam, vertices):
    """Edges inside one block: fam.starts chain starts (no in-edges),
    fam.sinks sinks (no out-edges), every other vertex fam.out_degree
    out-edges; redrawn until the block is weakly connected."""
    sinks = vertices[fam.starts:fam.starts + fam.sinks]
    targets = vertices[fam.starts:]
    while True:
        edges = []
        for v in vertices:
            if v not in sinks:
                edges += [(v, t) for t in rng.sample(targets, fam.out_degree)]
        if _weakly_connected(vertices, edges):
            return edges


def sparse_squares(rng, fam):
    """fam.blocks equal weak components on interleaved indices."""
    n = fam.dim
    perm = list(range(n))
    rng.shuffle(perm)
    size = n // fam.blocks
    squares = [{} for _ in range(n)]
    for b in range(fam.blocks):
        for i, k in _sparse_block(rng, fam, perm[b * size:(b + 1) * size]):
            squares[i][k] = _scalar(rng, fam.field)
    return squares


def document(fam, squares) -> str:
    n = fam.dim
    header = "field rational" if fam.field == "rational" else "field prime %d" % PRIME
    rows = [" ".join(str(squares[i].get(k, 0)) for i in range(n)) for k in range(n)]
    return "\n".join([header, "dim %d" % n, "matrix"] + rows) + "\n"


def _forward_closure(squares, seeds):
    seen, stack = set(seeds), list(seeds)
    while stack:
        for k in squares[stack.pop()]:
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return sorted(seen)


def _sparse_vector(rng, n):
    coords = [0] * n
    for k in rng.sample(range(n), 3):
        coords[k] = rng.choice((-1, 1)) * rng.randrange(1, 6)
    return ",".join(str(c) for c in coords)


def session(rng, squares, doc, basis):
    """The command lines of one queries-qq session, labelled by subcommand."""
    n = len(squares)
    steps = [(name, [name, "--json", "--input", doc])
             for name in ("radical", "simple", "decompose")]
    steps.append(("graph", ["graph", "--input", doc]))
    steps.append(("quotient", ["quotient", "--json", "--input", doc,
                               "--ideal-basis", basis]))
    steps += [("ideal", ["ideal", "--json", "--input", doc,
                         "--vector=" + _sparse_vector(rng, n)]) for _ in range(3)]
    return steps


def build(workload: str, seed: int, out_dir: Path) -> list:
    """Write the corpus of (workload, seed) under out_dir and return its
    items: one dict per document, with the document path and the labelled
    command lines of one operation."""
    fam = FAMILIES[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    items = []
    for d in range(fam.docs):
        squares = (sparse_squares if fam.blocks > 1 else dense_squares)(rng, fam)
        doc = out_dir / ("doc%02d.alg" % d)
        doc.write_text(document(fam, squares), encoding="utf-8")
        if fam.queries:
            # the ideal spanned by e_j over the forward closure of two
            # random vertices: descendant-closed, hence an ideal
            closed = _forward_closure(squares, rng.sample(range(fam.dim), 2))
            basis = out_dir / ("doc%02d.basis" % d)
            basis.write_text("".join(
                " ".join("1" if k == j else "0" for k in range(fam.dim)) + "\n"
                for j in closed), encoding="utf-8")
            steps = session(rng, squares, str(doc), str(basis))
        else:
            steps = [("analyze", ["analyze", "--json", "--input", str(doc)])]
        items.append({"doc": str(doc), "steps": steps})
    (out_dir / "manifest.json").write_text(json.dumps(items, indent=1), encoding="utf-8")
    return items
