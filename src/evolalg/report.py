"""Structured analysis report: one dict with a fixed key order, rendered
as JSON for machines or as an aligned table for people (render_table,
which also writes the tables of the other subcommands).  Each key has its
own producer, and a section (analyze, decompose, simple, radical) runs the
producers of its keys alone.

The JSON layout is pinned by docs/report.schema.json; identical input
documents produce identical output bytes.  Those bytes are the ones
json.dumps(report, indent=2) gives, written by a small recursive writer
of this module: CPython's C encoder runs only when indent is None, and
with an indent json falls back to its pure-Python encoder, one generator
step per value.  The writer hands each list of strings, or of ints, to
one str.join over the C-level string escaper or int.__repr__, and defers
to json itself for anything that is not a plain string, int, bool, None,
list, tuple or dict with string keys.

The annihilator and the radical are spanned by basis vectors, so their
rows are copied from one template of the texts of zero and one instead
of formatting each entry.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str

from .algebra import EvolutionAlgebra
from .decompose import (CHAIN_START, PRINCIPAL_CYCLE, canonical_decomposition,
                        is_simple, optimal_decomposition)
from .graph import associated_graph
from .ideals import is_nondegenerate


def _unit_rows(field, n, indices):
    """The canonical basis rows, as texts, of the span of the e_i over
    indices: ideals.annihilator and ideals.radical are these spans of the
    sinks and of the vertices that reach no cycle.  Each row is copied
    from one template of str(zero) texts with str(one) at its index, as
    linalg.coordinate_subspace builds the rows themselves."""
    zero, one = str(field.zero), str(field.one)
    template = [zero] * n
    rows = []
    for i in sorted(indices):
        template[i - 1] = one
        rows.append(template.copy())
        template[i - 1] = zero
    return rows


def field_json(field):
    if field.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "prime", "p": field.p}


def _blocks(algebra):
    return [
        {
            "indices": sorted(block.indices),
            "nondegenerate": block.nondegenerate,
            "simple": block.simple,
            "det": str(block.det),
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
    "annihilator": lambda a: _unit_rows(a.field, a.dim, associated_graph(a).sinks()),
    "radical": lambda a: _unit_rows(a.field, a.dim, associated_graph(a).reaches_no_cycle()),
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


def _json(value, pad):
    """json.dumps(value, indent=2) for a value nested at the indentation
    pad.  Exact types take the fast routes (a bool is not an int here);
    any other value, and a dict with a key that is not a str, is written
    by json itself, with every line after its first indented by pad."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        items = set(map(type, value))
        if items == {str}:
            body = map(_encode_str, value)
        elif items == {int}:
            body = map(int.__repr__, value)
        else:
            body = [_json(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "]"
    if kind is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        inner = pad + "  "
        body = [_encode_str(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def render_json(report: dict) -> str:
    """json.dumps(report, indent=2) and a newline, byte for byte."""
    return _json(report, "") + "\n"


def _braces(indices) -> str:
    """{1, 2}: a set of indices as the text tables print it."""
    return "{" + ", ".join(map(str, indices)) + "}"


def _brackets(texts) -> str:
    """[a b c]: a row of scalar texts as the text tables print it."""
    return "[" + " ".join(texts) + "]"


def _fmt_value(key, value):
    if key == "field":
        return value["kind"] if value["kind"] == "rational" else "prime %d" % value["p"]
    if key in ("annihilator", "radical"):
        return "; ".join(map(_brackets, value)) or "0"
    if key == "chain_start_indices":
        return _braces(value)
    if key == "principal_cycles":
        return "; ".join(map(_braces, value)) or "(none)"
    if key == "canonical_parts":
        return "; ".join("%s %s -> %s" % (part["kind"].replace("_", "-"),
                                          _braces(part["seed"]), _braces(part["derived"]))
                         for part in value)
    if key == "blocks":
        return "; ".join("%s nondegenerate=%s simple=%s det=%s"
                         % (_braces(block["indices"]), _yesno(block["nondegenerate"]),
                            _yesno(block["simple"]), block["det"])
                         for block in value)
    if key == "simple_reasons":
        return "; ".join(value) or "(none)"
    if isinstance(value, bool):
        return _yesno(value)
    return str(value)


def _yesno(flag):
    return "yes" if flag else "no"


def render_table(rows, width: int) -> str:
    """One line per (label, value) pair of texts: the label padded to
    width, two spaces, the value."""
    return "".join(label.ljust(width) + "  " + value + "\n" for label, value in rows)


def render_text(report: dict) -> str:
    rows = [(key.replace("_", " "), _fmt_value(key, report[key]))
            for key in ANALYZE_KEYS if key in report]
    return render_table(rows, max(len(label) for label, _ in rows))
