"""Spans around the public functions of each evolalg layer, recorded from
outside the library.

install() rebinds every public function of the layer modules, and the
public methods of their classes, to a wrapper that records one span per
call: its name, start, end, parent span and operation id.  A function is
rebound in every evolalg module that imported it (decompose holds its own
det and is_ideal, report its own radical, and so on), so no call escapes
through a second name.  fields is left alone: it takes millions of calls
per operation, and its time shows up in the self time of linalg and
algebra.  Spans stay in memory until the pass ends.

Run as a script it makes one traced pass over a corpus written by run.py
and prints the per-layer metrics as one JSON line:

    python3 benchmarks/tracer.py --corpus DIR --trace-file FILE
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

import run  # the in-process runner and calibration the timed phase uses

LAYERS = ("cli", "documents", "report", "decompose", "graph", "ideals",
          "linalg", "algebra")

# per-layer metric -> (kind, span names); medians per operation.  Functions
# that only the queries-qq sessions call (export_dot, ideal_generated_by,
# quotient, inverse) are counted, not timed: their time would read 0 on
# every run of the three analyze workloads.  The queries-qq subcommand
# medians that run.py prints show where their time goes.
METRICS = {
    "cli.main.self_ms": ("self_ms", ["cli.main"]),
    "documents.parse_document.ms": ("ms", ["documents.parse_document"]),
    "documents.export_dot.calls": ("calls", ["documents.export_dot"]),
    "report.build_report.calls": ("calls", ["report.build_report"]),
    "report.build_report.self_ms": ("self_ms", ["report.build_report"]),
    "report.render.ms": ("ms", ["report.render_json", "report.render_text"]),
    "decompose.optimal_decomposition.self_ms":
        ("self_ms", ["decompose.optimal_decomposition"]),
    "decompose.canonical_decomposition.self_ms":
        ("self_ms", ["decompose.canonical_decomposition"]),
    "decompose.is_simple.self_ms": ("self_ms", ["decompose.is_simple"]),
    "graph.associated_graph.calls": ("calls", ["graph.associated_graph"]),
    "graph.descendents.calls": ("calls", ["graph.AssociatedGraph.descendents"]),
    "graph.self_ms": ("layer_self_ms", ["graph"]),
    "ideals.is_ideal.calls": ("calls", ["ideals.is_ideal"]),
    "ideals.is_ideal.self_ms": ("self_ms", ["ideals.is_ideal"]),
    "ideals.ideal_generated_by.calls": ("calls", ["ideals.ideal_generated_by"]),
    "ideals.quotient.calls": ("calls", ["ideals.quotient"]),
    "ideals.self_ms": ("layer_self_ms", ["ideals"]),
    "linalg.det.calls": ("calls", ["linalg.det"]),
    "linalg.det.ms": ("ms", ["linalg.det"]),
    "linalg.det.max_dim": ("max_size", ["linalg.det"]),
    "linalg.contains.calls": ("calls", ["linalg.Subspace.contains"]),
    "linalg.contains.ms": ("ms", ["linalg.Subspace.contains"]),
    "linalg.subspace_from_vectors.calls": ("calls", ["linalg.subspace_from_vectors"]),
    "linalg.subspace_from_vectors.ms": ("ms", ["linalg.subspace_from_vectors"]),
    "linalg.inverse.calls": ("calls", ["linalg.inverse"]),
    "algebra.multiply.calls": ("calls", ["algebra.EvolutionAlgebra.multiply"]),
    "algebra.multiply.ms": ("ms", ["algebra.EvolutionAlgebra.multiply"]),
    "algebra.basis_element.calls": ("calls", ["algebra.EvolutionAlgebra.basis_element"]),
}

UNITS = {"self_ms": "ms", "ms": "ms", "layer_self_ms": "ms", "calls": "count",
         "max_size": "rows"}


class Tracer:
    """In-memory span store.  A span is (name, start, end, parent, op, size),
    where parent is the index of the enclosing span or -1 and size is the
    matrix order for det and None elsewhere."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None  # spans are recorded only while an operation is set

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op,
                                size(*args) if size else None)

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    modules = {layer: importlib.import_module("evolalg." + layer) for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                size = (lambda field, m: m.rows) if (layer, name) == ("linalg", "det") else None
                wrapped[obj] = tracer.wrap("%s.%s" % (layer, name), obj, size)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        setattr(obj, attr, tracer.wrap(
                            "%s.%s.%s" % (layer, obj.__name__, attr), member))
    package = importlib.import_module("evolalg")
    for module in list(modules.values()) + [package]:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])


def per_op_metrics(spans, op_speeds) -> dict:
    """Median over operations of each METRICS entry; operation k's times are
    multiplied by op_speeds[k] (see run.REFERENCE_S)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, size in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_op = {}
    for index, (name, start, end, parent, op, size) in enumerate(spans):
        totals = per_op.setdefault(op, {})
        duration = end - start
        row = totals.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_time[index]
        row[3] = max(row[3], size or 0)
    result = {}
    for metric, (kind, names) in METRICS.items():
        values = []
        for op, totals in per_op.items():
            speed = op_speeds[op]
            if kind == "layer_self_ms":
                rows = [r for n, r in totals.items() if n.split(".", 1)[0] == names[0]]
            else:
                rows = [totals[n] for n in names if n in totals]
            if kind == "calls":
                values.append(sum(r[0] for r in rows))
            elif kind == "ms":
                values.append(1000 * speed * sum(r[1] for r in rows))
            elif kind in ("self_ms", "layer_self_ms"):
                values.append(1000 * speed * sum(r[2] for r in rows))
            else:
                values.append(max((r[3] for r in rows), default=0))
        result[metric] = {"value": statistics.median(values) if values else 0,
                          "unit": UNITS[kind]}
    return result


def traced_pass(items, run_item, tracer: Tracer):
    """Warm up untraced on the first item, then trace one pass with every
    operation bracketed by run.calibrate(); return the raw operation times,
    their speed factors and the outputs."""
    run_item(items[0])
    times, calibrations, outputs = [], [run.calibrate()], []
    for op, item in enumerate(items):
        tracer.op = op
        start = time.perf_counter()
        result = run_item(item)
        times.append(time.perf_counter() - start)
        tracer.op = None
        calibrations.append(run.calibrate())
        outputs.append(result.outputs)
    return times, run.speeds(calibrations), outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus", required=True, type=Path)
    parser.add_argument("--trace-file", required=True, type=Path)
    args = parser.parse_args(argv)

    cli = run.load_program()
    tracer = Tracer()
    install(tracer)
    items = json.loads((args.corpus / "manifest.json").read_text(encoding="utf-8"))
    times, op_speeds, outputs = traced_pass(
        items, lambda item: run.run_item(cli, item), tracer)
    args.trace_file.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op", "size"],
        "spans": tracer.spans}), encoding="utf-8")
    metrics = per_op_metrics(tracer.spans, op_speeds)
    metrics["trace.op_p50_ms"] = {
        "value": 1000 * statistics.median(t * s for t, s in zip(times, op_speeds)),
        "unit": "ms"}
    print(json.dumps({"metrics": metrics, "outputs": outputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
