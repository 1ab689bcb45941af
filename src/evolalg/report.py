"""Structured analysis report: one dict with a fixed key order, rendered
as JSON for machines or as an aligned table for people (render_table,
which also writes the tables of the other subcommands).  One table,
_KEYS, decides each key: its place in the printed order, the producer of
its value, and the text render_text prints for that value.  A section
(analyze, decompose, simple, radical) runs the producers of its keys
alone.

The JSON layout is pinned by docs/report.schema.json; identical input
documents produce identical output bytes.  Those bytes are the ones
json.dumps(report, indent=2) gives, written by a small recursive writer
of this module, because before CPython 3.13 json with an indent falls
back to its pure-Python encoder, one generator step per value (README
gives the timings under each Python).  A list of strings that the
escaper leaves as they are (their concatenation is printable ASCII with
no quote and no backslash, as the scalar texts of a report are) is
quoted in one str.join; any other list, strings that need escaping
among them, is written item by item, and an empty list is "[]".  The writer defers to json itself for
None, for an empty dict, and for anything that is not a plain string,
int, bool, list, tuple or dict with string keys: no report or CLI
payload holds None or an empty dict, so their texts, null and {}, cost
no branch here.

The annihilator and the radical are spanned by basis vectors (the sinks,
and the vertices that reach no cycle), so linalg._unit_rows builds their
rows over the texts "0" and "1", which zero and one have in every field,
instead of formatting each entry.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str

from .algebra import EvolutionAlgebra
from .decompose import (CHAIN_START, PRINCIPAL_CYCLE, canonical_decomposition,
                        is_simple, optimal_decomposition)
from .fields import _text
from .graph import associated_graph
from .ideals import is_nondegenerate
from .linalg import _unit_rows


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
            "det": _text(block.det),
        }
        for block in optimal_decomposition(algebra).blocks
    ]


def _braces(indices) -> str:
    """{1, 2}: a set of indices as the text tables print it."""
    return "{" + ", ".join(map(str, indices)) + "}"


def _brackets(texts) -> str:
    """[a b c]: a row of scalar texts as the text tables print it."""
    return "[" + " ".join(texts) + "]"


def _yesno(flag):
    return "yes" if flag else "no"


def _rows_text(rows):
    return "; ".join(map(_brackets, rows)) or "0"


def _parts_text(parts):
    return "; ".join("%s %s -> %s" % (part["kind"].replace("_", "-"), _braces(part["seed"]),
                                      _braces(part["derived"]))
                     for part in parts)


def _blocks_text(blocks):
    return "; ".join("%s nondegenerate=%s simple=%s det=%s"
                     % (_braces(block["indices"]), _yesno(block["nondegenerate"]),
                        _yesno(block["simple"]), block["det"])
                     for block in blocks)


# Each key of the analyze report, in its printed order, mapped to a pair:
# the routine that produces its value from the algebra, and the routine
# that writes that value as render_text prints it.  The producers name the
# library functions at call time, so a function rebound on this module (a
# tracer, a test) is the one that runs.  Work shared between keys is done
# once: the invariants they read are memoised per algebra object.
_KEYS = {
    "field": (lambda a: field_json(a.field),
              lambda f: f["kind"] if f["kind"] == "rational" else "prime %d" % f["p"]),
    "dim": (lambda a: a.dim, str),
    "annihilator": (lambda a: _unit_rows("0", "1", a.dim, associated_graph(a).sinks()),
                    _rows_text),
    "radical": (lambda a: _unit_rows("0", "1", a.dim, associated_graph(a).reaches_no_cycle()),
                _rows_text),
    "nondegenerate": (lambda a: is_nondegenerate(a), _yesno),
    "chain_start_indices": (lambda a: [min(p.seed) for p in canonical_decomposition(a)
                                       if p.kind == CHAIN_START], _braces),
    "principal_cycles": (lambda a: [sorted(p.seed) for p in canonical_decomposition(a)
                                    if p.kind == PRINCIPAL_CYCLE],
                         lambda cycles: "; ".join(map(_braces, cycles)) or "(none)"),
    "canonical_parts": (lambda a: [
        {"kind": part.kind, "seed": sorted(part.seed), "derived": sorted(part.derived)}
        for part in canonical_decomposition(a)], _parts_text),
    "blocks": (_blocks, _blocks_text),
    "simple": (lambda a: is_simple(a).simple, _yesno),
    "simple_reasons": (lambda a: list(is_simple(a).reasons),
                       lambda reasons: "; ".join(reasons) or "(none)"),
    "optimal_certified": (lambda a: optimal_decomposition(a).optimal_certified, _yesno),
}

ANALYZE_KEYS = tuple(_KEYS)

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
    return {key: _KEYS[key][0](algebra) for key in SECTION_KEYS[name]}


def _json(value, pad):
    """json.dumps(value, indent=2) for a value nested at the indentation
    pad.  Exact types take the fast routes (a bool is not an int here);
    any other value, None, an empty dict and a dict with a key that is not
    a str among them, is written by json itself, with every line after its
    first indented by pad."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is list or kind is tuple:
        if not value:  # json writes it too, but reports hold many, and json is slow
            return "[]"
        inner = pad + "  "
        try:
            text = "".join(value) if type(value[0]) is str else None
        except TypeError:  # a str first, and a later item that is not one
            text = None
        if (text is not None and text.isascii() and text.isprintable()
                and '"' not in text and "\\" not in text):
            # texts that the escaper leaves as they are, quoted in one join
            return "[\n" + inner + '"' + ('",\n' + inner + '"').join(value) + '"\n' + pad + "]"
        body = [_json(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "]"
    if kind is dict and set(map(type, value)) == {str}:
        inner = pad + "  "
        body = [_encode_str(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def render_json(report: dict) -> str:
    """json.dumps(report, indent=2) and a newline, byte for byte."""
    return _json(report, "") + "\n"


def render_table(rows, width: int) -> str:
    """One line per (label, value) pair of texts: the label padded to
    width, two spaces, the value."""
    return "".join(label.ljust(width) + "  " + value + "\n" for label, value in rows)


def render_text(report: dict) -> str:
    rows = [(key.replace("_", " "), _KEYS[key][1](value)) for key, value in report.items()]
    return render_table(rows, max(len(label) for label, _ in rows))
