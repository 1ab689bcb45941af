"""Structured analysis report: one dict with a fixed key order, rendered
as JSON for machines or as an aligned table for people.

The JSON layout is pinned by docs/report.schema.json; identical input
documents produce identical output bytes.
"""

from __future__ import annotations

import json

from .algebra import EvolutionAlgebra
from .decompose import (CHAIN_START, PRINCIPAL_CYCLE, canonical_decomposition,
                        is_simple, optimal_decomposition)
from .ideals import annihilator, radical
from .linalg import Subspace


def _basis_rows(subspace: Subspace):
    f = subspace.field
    return [[f.format(x) for x in row] for row in subspace.vectors()]


def field_json(field):
    if field.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "prime", "p": field.p}


def build_report(algebra: EvolutionAlgebra) -> dict:
    canon = canonical_decomposition(algebra)
    decomp = optimal_decomposition(algebra)
    simplicity = is_simple(algebra)
    f = algebra.field
    return {
        "field": field_json(f),
        "dim": algebra.dim,
        "annihilator": _basis_rows(annihilator(algebra)),
        "radical": _basis_rows(radical(algebra)),
        "nondegenerate": decomp.algebra_nondegenerate,
        "chain_start_indices": [min(p.seed) for p in canon.parts if p.kind == CHAIN_START],
        "principal_cycles": [sorted(p.seed) for p in canon.parts if p.kind == PRINCIPAL_CYCLE],
        "canonical_parts": [
            {"kind": part.kind, "seed": sorted(part.seed), "derived": sorted(part.derived)}
            for part in canon.parts
        ],
        "blocks": [
            {
                "indices": sorted(block.indices),
                "nondegenerate": block.nondegenerate,
                "simple": block.simple,
                "det": f.format(block.det),
            }
            for block in decomp.blocks
        ],
        "simple": simplicity.simple,
        "simple_reasons": list(simplicity.reasons),
        "optimal_certified": decomp.optimal_certified,
    }


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


def section(report: dict, name: str) -> dict:
    return {k: report[k] for k in SECTION_KEYS[name]}


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
