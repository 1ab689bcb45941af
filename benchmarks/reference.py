"""One-off reference table: build_report wall time at n in {25, 50, 100, 200}
over QQ and GF(10007), on dense and sparse structure matrices.

    python3 benchmarks/reference.py

Each algebra is seeded from its (n, structure, field), built with the same
generators as the workloads (corpus.py): dense means 75% nonzero entries
plus a Hamiltonian cycle; sparse means blocks of 25 indices, each with two
chain starts, one sink and three out-edges per other vertex.  Every cell
is a single call, so treat the figures as rough.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
from evolalg.documents import parse_document  # noqa: E402
from evolalg.report import build_report  # noqa: E402

SIZES = (25, 50, 100, 200)


def family(field: str, n: int, structure: str) -> corpus.Family:
    if structure == "dense":
        return corpus.Family(field, n, docs=1, round_s=0, density=0.75)
    return corpus.Family(field, n, docs=1, round_s=0, blocks=n // 25, sinks=1,
                         starts=2, out_degree=3)


def main() -> int:
    print("| n | field | structure | blocks | build_report s |")
    print("|---|---|---|---|---|")
    for n in SIZES:
        for field in ("rational", "prime"):
            for structure in ("dense", "sparse"):
                fam = family(field, n, structure)
                rng = random.Random("%d:%s:%s" % (n, structure, field))
                make = corpus.dense_squares if structure == "dense" else corpus.sparse_squares
                algebra = parse_document(corpus.document(fam, make(rng, fam)))
                start = time.perf_counter()
                report = build_report(algebra)
                seconds = time.perf_counter() - start
                print("| %d | %s | %s | %d | %.3f |"
                      % (n, "QQ" if field == "rational" else "GF(%d)" % corpus.PRIME,
                         structure, len(report["blocks"]), seconds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
