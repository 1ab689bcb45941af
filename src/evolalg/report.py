"""Structured analysis report: one dict with a fixed key order, rendered
as JSON for machines or as an aligned table for people.  Each key has its
own producer, and a section (analyze, decompose, simple, radical) runs the
producers of its keys alone.

The JSON layout is pinned by docs/report.schema.json; identical input
documents produce identical output bytes.
"""

from __future__ import annotations

import json

from .algebra import EvolutionAlgebra
from .decompose import (CHAIN_START, PRINCIPAL_CYCLE, canonical_decomposition,
                        is_simple, optimal_decomposition)
from .ideals import annihilator, is_nondegenerate, radical
from .linalg import Subspace


def _basis_rows(subspace: Subspace):
    f = subspace.field
    return [[f.format(x) for x in row] for row in subspace.vectors()]


def field_json(field):
    if field.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "prime", "p": field.p}


def _blocks(algebra):
    f = algebra.field
    return [
        {
            "indices": sorted(block.indices),
            "nondegenerate": block.nondegenerate,
            "simple": block.simple,
            "det": f.format(block.det),
        }
        for block in optimal_decomposition(algebra).blocks
    ]


# Each key of the analyze report, in its printed order, mapped to the
# routine that produces its value from the algebra.  The routines name the
# library functions at call time, so a function rebound on this module
# (a tracer, a test) is the one that runs.  Work shared between keys is
# done once: the invariants they read are memoised per algebra object.
_PRODUCERS = {
    "field": lambda a: field_json(a.field),
    "dim": lambda a: a.dim,
    "annihilator": lambda a: _basis_rows(annihilator(a)),
    "radical": lambda a: _basis_rows(radical(a)),
    "nondegenerate": lambda a: is_nondegenerate(a),
    "chain_start_indices": lambda a: [min(p.seed) for p in canonical_decomposition(a).parts
                                      if p.kind == CHAIN_START],
    "principal_cycles": lambda a: [sorted(p.seed) for p in canonical_decomposition(a).parts
                                   if p.kind == PRINCIPAL_CYCLE],
    "canonical_parts": lambda a: [
        {"kind": part.kind, "seed": sorted(part.seed), "derived": sorted(part.derived)}
        for part in canonical_decomposition(a).parts
    ],
    "blocks": _blocks,
    "simple": lambda a: is_simple(a).simple,
    "simple_reasons": lambda a: list(is_simple(a).reasons),
    "optimal_certified": lambda a: optimal_decomposition(a).optimal_certified,
}

ANALYZE_KEYS = tuple(_PRODUCERS)

SECTION_KEYS = {
    "analyze": ANALYZE_KEYS,
    "decompose": ("field", "dim", "nondegenerate", "chain_start_indices",
                  "principal_cycles", "canonical_parts", "blocks",
                  "optimal_certified"),
    "simple": ("field", "dim", "simple", "simple_reasons"),
    "radical": ("field", "dim", "annihilator", "radical", "nondegenerate"),
}


def build_report(algebra: EvolutionAlgebra, name: str = "analyze") -> dict:
    """The report section name (a key of SECTION_KEYS), computing only the
    keys it holds: the radical section, for one, runs no det and no
    canonical decomposition."""
    return {key: _PRODUCERS[key](algebra) for key in SECTION_KEYS[name]}


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _fmt_value(key, value):
    if key == "field":
        return value["kind"] if value["kind"] == "rational" else "prime %d" % value["p"]
    if key in ("annihilator", "radical"):
        if not value:
            return "0"
        return "; ".join("[" + " ".join(row) + "]" for row in value)
    if key in ("chain_start_indices",):
        return "{" + ", ".join(str(i) for i in value) + "}"
    if key == "principal_cycles":
        return "; ".join("{" + ", ".join(str(i) for i in c) + "}" for c in value) or "(none)"
    if key == "canonical_parts":
        bits = []
        for part in value:
            seed = "{" + ", ".join(str(i) for i in part["seed"]) + "}"
            derived = "{" + ", ".join(str(i) for i in part["derived"]) + "}"
            bits.append("%s %s -> %s" % (part["kind"].replace("_", "-"), seed, derived))
        return "; ".join(bits)
    if key == "blocks":
        bits = []
        for block in value:
            idx = "{" + ", ".join(str(i) for i in block["indices"]) + "}"
            bits.append("%s nondegenerate=%s simple=%s det=%s"
                        % (idx, _yesno(block["nondegenerate"]),
                           _yesno(block["simple"]), block["det"]))
        return "; ".join(bits)
    if key == "simple_reasons":
        return "; ".join(value) or "(none)"
    if isinstance(value, bool):
        return _yesno(value)
    return str(value)


def _yesno(flag):
    return "yes" if flag else "no"


def render_text(report: dict) -> str:
    keys = [k for k in ANALYZE_KEYS if k in report]
    label_width = max(len(k.replace("_", " ")) for k in keys)
    lines = []
    for key in keys:
        label = key.replace("_", " ").ljust(label_width)
        lines.append("%s  %s" % (label, _fmt_value(key, report[key])))
    return "\n".join(lines) + "\n"
