"""Every speed fork of src/evolalg, checked and timed against its general
route, with the standard library alone:

    python tools/fork_audit.py --bytes-only
    python tools/fork_audit.py --record FILE
    python tools/fork_audit.py --rounds 100 --fork ID --fork ID --record FILE
    python tools/fork_audit.py --rounds 150 --base REV --record FILE

A speed fork is a second route that the code picks from its input, where
a general route gives the same result.  FORKS lists each one: an id, a
file under src/evolalg, a snippet that occurs there exactly once, the
text that replaces it to force the general route, and its layer, the
function of the package whose time it moves.  REQUIRED lists the routes
that look like forks but are the only route for some input.

Every fork (or each one named by --fork) gets a copy of src/evolalg, in
a fresh temporary directory, with that one snippet replaced; two plain
copies, HEAD and the A/A control, go beside them.  Each copy is loaded
as its own package, evolalg_tNN, so all of them run in one process.
--base REV adds the src/evolalg of git revision REV as one more copy,
labelled REV, and audits no fork unless --fork names one: so a change
that deletes forks is timed against its parent as a whole.

* Byte check.  Every copy must give each line of tests/golden_manifest.txt
  (tests/golden.py runs its corpus through the copy's cli.main), and the
  stdout and exit code that HEAD gives at every step of the four
  benchmark corpora at seed 1 (benchmarks/corpus.py and run.py, which
  are read and not changed).  Any difference exits 1 after the check ends.
* Timing, unless --bytes-only.  Over the benchmark corpora at seed SEED,
  for --rounds rounds, every operation (the steps of one corpus item
  through cli.main, as benchmarks/run.py runs them) runs once on every
  copy, in an order shuffled per operation.  The layer of every
  fork is wrapped by a timer in every copy alike.  For each fork and
  workload it prints the median over the operations of the copy's time
  over HEAD's, the share of operations where the copy was faster, and the
  median ratio of the layer's time; the A/A row does the same for the
  control.

--record FILE keeps the rows of every Python version in FILE (a JSON
object): each row this run timed replaces the row of the same version,
workload and copy, and every row carries its rounds.  Then it writes
each fork's verdict over every row recorded: "delete" when its median
ratio is at most LIMIT on every workload under every Python, and "keep"
otherwise.  The rule tests each fork alone and does not bound the sum:
forks that go by it may cost more than LIMIT together, which a --base
run of the change against its parent shows.  A fork no workload reaches
reads "delete" by it, whatever it gains on the input it serves.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "evolalg"
LIMIT = 1.02  # the noise of one end-to-end metric: a fork within it goes
SEED = 501  # the corpus seed of the timing, the benchmark's

Fork = namedtuple("Fork", "id file snippet general layer")
Route = namedtuple("Route", "id file snippet why")

FORKS = (
    Fork("lines.line_ends", "documents.py",
         '(text.replace("\\r\\n", "\\n").replace("\\r", "\\n") if "\\r" in text else text)',
         'text.replace("\\r\\n", "\\n").replace("\\r", "\\n")',
         "documents.parse_document"),
    Fork("rows.zero_compare", "documents.py",
         "        if is_zero(line):\n            return zero_row\n        tokens = line.split()",
         "        tokens = line.split()",
         "documents.parse_document"),
    Fork("rows.block_scan", "documents.py",
         "        rows = (_scanned([line for _, line in lines], width, field.p)\n"
         '                if field.kind == "prime" and 2 * len(set(first.split())) > width'
         " else None)",
         "        rows = None",
         "documents.parse_document"),
    Fork("rows.scan_mod_where_needed", "documents.py",
         "tuple(map(p.__rmod__, row)) if max(row) >= p else tuple(row)",
         "tuple(map(p.__rmod__, row))",
         "documents.parse_document"),
    Fork("document.from_canonical", "documents.py",
         "EvolutionAlgebra._from_canonical(field, tuple(zip(*rows)))",
         "EvolutionAlgebra.from_squares(field, tuple(zip(*rows)))",
         "documents.parse_document"),
    Fork("scalar.ascii_digits", "fields.py",
         "    if text.isascii() and text.isdigit():\n"
         "        try:\n"
         "            return int(text), None\n"
         "        except ValueError:  # over the digit limit: the regex route says so\n"
         "            pass\n",
         "",
         "documents.parse_document"),
    Fork("texts.nonzero_only", "fields.py",
         '    texts = ["0"] * len(row)\n'
         "    try:\n"
         "        for k in compress(range(len(row)), row):\n"
         "            texts[k] = str(row[k])\n"
         "    except ValueError:\n"
         "        return [*map(_text, row)]\n"
         "    return texts",
         "    return [*map(_text, row)]",
         "cli._matrix_rows"),
    Fork("graph.trusted", "graph.py",
         "AssociatedGraph._trusted([tuple(compress(vertices, col)) for col in algebra._squares])",
         "AssociatedGraph([tuple(compress(vertices, col)) for col in algebra._squares])",
         "graph.associated_graph"),
    Fork("det.canonical_matrix", "linalg.py",
         "rows = [*m.entries] if type(m) is _Canonical else [[*map(field.coerce, r)] for r in m.entries]",
         "rows = [[*map(field.coerce, r)] for r in m.entries]",
         "linalg.det"),
    Fork("det.zero_line", "linalg.py",
         "    if not all(map(any, rows)) or not all(map(any, zip(*rows))):\n"
         "        return field.zero\n",
         "",
         "linalg.det"),
    Fork("det.zero_column", "linalg.py",
         "if not all(map(any, rows)) or not all(map(any, zip(*rows))):",
         "if not all(map(any, rows)):",
         "linalg.det"),
    Fork("fp.struct_slots", "linalg.py",
         '    size, code = next(((s, c) for s, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))\n'
         "                       if p <= 1 << 8 * s), (None, None))",
         "    size, code = None, None",
         "linalg._echelon"),
    Fork("fp.full_rank_stop", "linalg.py",
         "            if top == len(rows):\n                break\n",
         "",
         "linalg._echelon"),
    Fork("qq.integral_rows", "linalg.py",
         "        if set(map(type, row)) <= {int}:  # integral: enters with scale 1\n"
         "            rows[i] = [*row]\n"
         "            continue\n",
         "",
         "linalg._echelon"),
    Fork("qq.lazy_divisors", "linalg.py",
         "            if x0 or x1:\n                if divisors[r] != p:",
         "            if True:\n                if divisors[r] != p:",
         "linalg._echelon"),
    Fork("qq.free_columns", "linalg.py",
         "free = sorted(set(range(width)).difference(pivots))",
         "free = [*range(width)]",
         "linalg._rref_rows"),
    Fork("span.touched_columns", "linalg.py",
         "    width = len(used)\n    rows = [*map(itemgetter(*used), rows)]",
         "    used = [*range(ambient_dim)]\n"
         "    width = len(used)\n    rows = [*map(itemgetter(*used), rows)]",
         "linalg._span"),
    Fork("blocks.whole_algebra", "decompose.py",
         "    if k == algebra.dim:\n        return _Canonical(k, k, squares)\n",
         "",
         "decompose._restricted_structure"),
    Fork("json.writer", "report.py",
         'return _json(report, "") + "\\n"',
         'return json.dumps(report, indent=2) + "\\n"',
         "report.render_json"),
    Fork("json.empty_list", "report.py",
         "    if kind is list or kind is tuple:\n"
         "        if not value:  # json writes it too, but reports hold many, and json is slow\n"
         '            return "[]"\n',
         "    if (kind is list or kind is tuple) and value:\n",
         "report.render_json"),
    Fork("json.text_join", "report.py",
         "        try:\n"
         '            text = "".join(value) if type(value[0]) is str else None\n'
         "        except TypeError:  # a str first, and a later item that is not one\n"
         "            text = None\n"
         "        if (text is not None and text.isascii() and text.isprintable()\n"
         "                and '\"' not in text and \"\\\\\" not in text):\n",
         "        if False:\n",
         "report.render_json"),
)

REQUIRED = (
    Route("span.one_column", "linalg.py", "    if len(used) < 2:\n",
          "itemgetter of one index returns a bare entry, and of none raises"),
    Route("blocks.one_index", "decompose.py", "    if k == 1:\n",
          "itemgetter of one index returns a bare entry, not a tuple"),
    Route("slots.to_bytes", "linalg.py", "    if code is not None:\n",
          "no struct code holds a residue of p > 2^64: int.to_bytes is the only route"),
    Route("texts.digit_limit", "fields.py", "        return [*map(_text, row)]\n",
          "str refuses an int over CPython's digit limit: _text writes it"),
)


def forced(fork, text: str) -> str:
    """text with the one occurrence of the fork's snippet replaced by its
    general route; ValueError where the snippet does not occur once."""
    if text.count(fork.snippet) != 1:
        raise ValueError("%s: the snippet occurs %d times in %s"
                         % (fork.id, text.count(fork.snippet), fork.file))
    return text.replace(fork.snippet, fork.general)


def write_trees(where: Path, forks, base=None) -> dict:
    """{label: package directory}: HEAD, the A/A control, the tree of git
    revision base if one is given, and one copy per fork, each under a
    name of one length."""
    labels = ["HEAD", "A/A", *(fork.id for fork in forks)]
    trees = {}
    for k, label in enumerate(labels):
        directory = where / ("t%02d" % k)
        shutil.copytree(SRC, directory, ignore=shutil.ignore_patterns("__pycache__"))
        trees[label] = directory
    if base:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", base, "src/evolalg"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(where / "base", filter="data")
        directory = where / ("t%02d" % len(labels))
        (where / "base" / "src" / "evolalg").rename(directory)
        trees[base] = directory
    for fork in forks:
        path = trees[fork.id] / fork.file
        path.write_text(forced(fork, path.read_text(encoding="utf-8")), encoding="utf-8")
    return trees


def load(directory: Path):
    """The cli module of the package in directory, imported under the name
    evolalg_<directory name>."""
    name = "evolalg_" + directory.name
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py", submodule_search_locations=[str(directory)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".cli")


def outcome(cli, item) -> list:
    """(exit code, stdout) of every step of one corpus item, run through
    cli.main as benchmarks/run.py runs it."""
    from run import run_item

    result = run_item(cli, item)
    return [*zip(result.codes, result.outputs)]


def byte_check(clis: dict, where: Path) -> list:
    """The labels of the copies whose bytes differ, each printed with the
    number of golden lines and of seed-1 benchmark steps that moved."""
    import corpus
    import golden

    expected = golden.MANIFEST.read_text(encoding="utf-8").splitlines()
    items = [item for workload in corpus.FAMILIES
             for item in corpus.build(workload, 1, where / "seed1" / workload)]
    head = [outcome(clis["HEAD"], item) for item in items]
    runs = where / "golden"
    runs.mkdir()
    bad = []
    for label, cli in clis.items():
        start = time.perf_counter()
        golden.main = cli.main
        lines = [golden.manifest_line(*result) for result in golden.results(runs)[1]]
        moved = sum(want != got for want, got in zip(expected, lines))
        moved += abs(len(expected) - len(lines))
        steps = sum(a != b for item, want in zip(items, head)
                    for a, b in zip(want, outcome(cli, item)))
        print("bytes %-28s golden lines moved %d, benchmark steps moved %d (%.1f s)"
              % (label, moved, steps, time.perf_counter() - start), flush=True)
        if moved or steps:
            bad.append(label)
    return bad


def _wrap(function, totals: dict, key: str):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - start
    return timed


def time_layers(cli, totals: dict):
    """Wrap each fork's layer, everywhere cli's package binds it, by a
    timer that adds to totals[layer]."""
    from golden import bindings

    package = cli.__name__.rsplit(".", 1)[0]
    for layer in sorted({fork.layer for fork in FORKS}):
        module, name = layer.split(".")
        function = getattr(sys.modules[package + "." + module], name)
        totals[layer] = 0.0
        for each, attr in bindings(function, package):
            setattr(each, attr, _wrap(function, totals, layer))


def _median_ratio(pairs):
    ratios = [a / b for a, b in pairs if b > 0]
    return round(statistics.median(ratios), 4) if ratios else None


def timing(clis: dict, where: Path, rounds: int) -> dict:
    """{workload: {label: {ratio, faster, layer_ratio}}} over rounds
    rounds of the corpus at SEED, every copy against HEAD."""
    import corpus
    from run import run_item

    totals = {label: {} for label in clis}
    for label, cli in clis.items():
        time_layers(cli, totals[label])
    layer_of = {fork.id: fork.layer for fork in FORKS}
    rng = random.Random(SEED)
    result = {}
    for workload in corpus.FAMILIES:
        items = corpus.build(workload, SEED, where / ("seed%d" % SEED) / workload)
        for cli in clis.values():
            run_item(cli, items[0])
        ops = {label: [] for label in clis}  # (op seconds, {layer: seconds})
        start = time.perf_counter()
        for _ in range(rounds):
            gc.collect()
            for item in items:
                order = [*clis]
                rng.shuffle(order)
                for label in order:
                    layers = totals[label]
                    for layer in layers:
                        layers[layer] = 0.0
                    began = time.perf_counter()
                    run_item(clis[label], item)
                    ops[label].append((time.perf_counter() - began, dict(layers)))
        head = ops["HEAD"]
        rows = {}
        for label in clis:
            if label == "HEAD":
                continue
            layer = layer_of.get(label)
            pairs = [(mine[0], theirs[0]) for mine, theirs in zip(ops[label], head)]
            rows[label] = {
                "rounds": rounds,
                "ratio": _median_ratio(pairs),
                "faster": round(sum(a < b for a, b in pairs) / len(pairs), 3),
                "layer_ratio": layer and _median_ratio(
                    (mine[1][layer], theirs[1][layer]) for mine, theirs in zip(ops[label], head)),
                "head_layer_ms": layer and round(
                    1000 * statistics.median(theirs[1][layer] for theirs in head), 4),
            }
        rows["HEAD"] = {"rounds": rounds,
                        "op_ms": round(1000 * statistics.median(t for t, _ in head), 4)}
        result[workload] = rows
        print("timed %s: %d rounds x %d ops x %d copies in %.0f s"
              % (workload, rounds, len(items), len(clis), time.perf_counter() - start),
              flush=True)
    return result


def verdicts(runs: dict) -> dict:
    """{fork id: {worst_ratio, where, verdict}} over every recorded row:
    the largest median ratio of any workload under any Python, and
    "delete" where it is at most LIMIT."""
    out = {}
    for fork in FORKS:
        measured = [(rows[fork.id]["ratio"], "%s %s" % (version, workload))
                    for version, timing in runs.items()
                    for workload, rows in timing.items() if fork.id in rows]
        if not measured:
            continue
        worst, where = max(measured)
        out[fork.id] = {"worst_ratio": worst, "where": where,
                        "verdict": "delete" if worst <= LIMIT else "keep"}
    return out


def report(result: dict):
    for workload, rows in result.items():
        print("\n%s (HEAD op %.3f ms)" % (workload, rows["HEAD"]["op_ms"]))
        print("  %-28s %7s %7s %7s" % ("copy", "ratio", "faster", "layer"))
        for label, row in rows.items():
            if label != "HEAD":
                print("  %-28s %7.3f %7.2f %7s" % (
                    label, row["ratio"], row["faster"],
                    "-" if row["layer_ratio"] is None else "%.3f" % row["layer_ratio"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bytes-only", action="store_true", help="the byte check alone")
    parser.add_argument("--rounds", type=int, default=60, help="timed rounds per workload")
    parser.add_argument("--fork", action="append", choices=[fork.id for fork in FORKS],
                        help="audit this fork alone (repeatable); every fork by default")
    parser.add_argument("--base", metavar="REV",
                        help="time the src/evolalg of git revision REV against HEAD too")
    parser.add_argument("--record", type=Path, metavar="FILE",
                        help="keep this Python's run and the verdicts in FILE")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # nothing is written under benchmarks/ or tests/
    sys.path[:0] = [str(SRC.parent), str(ROOT / "tests"), str(ROOT / "benchmarks")]
    with tempfile.TemporaryDirectory() as scratch:
        where = Path(scratch)
        forks = [fork for fork in FORKS
                 if fork.id in (args.fork or ()) or not (args.fork or args.base)]
        trees = write_trees(where, forks, args.base)
        clis = {label: load(directory) for label, directory in trees.items()}
        bad = byte_check(clis, where)
        if bad:
            print("bytes differ: %s" % ", ".join(bad))
            return 1
        if args.bytes_only:
            print("bytes: %d copies reproduce HEAD" % len(clis))
            return 0
        result = timing(clis, where, args.rounds)
    report(result)
    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        runs = record.setdefault("runs", {}).setdefault(platform.python_version(), {})
        for workload, rows in result.items():
            runs.setdefault(workload, {}).update(rows)
        record["verdicts"] = verdicts(record["runs"])
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
