"""Benchmark runner for evolalg.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N      # every workload,
                                                          # untraced and traced

Run from the repository root.  One run of one workload:

1. set-up, repeated SETUP_REPEATS times: import evolalg from src/ afresh
   and write the seeded corpus (corpus.py) under benchmarks/out/;
2. one untimed warm-up operation;
3. the timed phase: `rounds` whole passes over the corpus, each operation
   driving evolalg.cli.main in-process and bracketed by calibrate() (see
   REFERENCE_S).  rounds is fixed by --seconds and the family's nominal
   pass time, never by a clock, so every run does the same work;
4. with --trace 1, one traced pass in a fresh process (tracer.py);
5. the independent check of every operation's output (check.py).

Until step 3 ends the process has imported only the standard library and
evolalg.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
SUBCOMMANDS = ("radical", "simple", "quotient", "ideal")
# On a shared 2-vCPU machine the CPU speed was seen to vary by a tenth from
# one second to the next and by a third over minutes, so raw medians of two
# runs of the same code can differ by more than any useful bound.  Each run
# therefore brackets every timed step with calibrate() and reports the
# step's time at the reference speed: its raw time multiplied by
# REFERENCE_S / (median of the calibrations just before and after it).
REFERENCE_S = 0.017
CALIBRATION_SAMPLES = 3

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402  (standard library only)


def _calibration_work():
    """Fixed work in the program's mix: Fraction and modular row
    elimination, frozenset closures, tuples."""
    rng = random.Random(0)
    n = 12
    rows = [[Fraction(rng.randrange(-9, 10)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, n):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    p, m = 10007, 48
    grid = [[rng.randrange(1, p) for _ in range(m)] for _ in range(m)]
    for c in range(m):
        inverse = pow(grid[c][c], -1, p) if grid[c][c] else 0
        for r in range(c + 1, m):
            factor = grid[r][c] * inverse % p
            grid[r] = [(x - factor * y) % p for x, y in zip(grid[r], grid[c])]
    out = [frozenset(rng.sample(range(m), 6)) for _ in range(m)]
    for i in range(m):
        seen, frontier = set(), list(out[i])
        while frontier:
            v = frontier.pop()
            if v not in seen:
                seen.add(v)
                frontier.extend(out[v] - seen)
    return tuple(tuple(r) for r in grid)


def calibrate() -> list:
    """CALIBRATION_SAMPLES timings of _calibration_work, in seconds."""
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter()
        _calibration_work()
        samples.append(time.perf_counter() - start)
    return samples


def speeds(calibrations) -> list:
    """calibrations[i] and calibrations[i + 1] bracket step i; return, per
    step, the factor that takes its time to the reference speed."""
    return [REFERENCE_S / statistics.median(before + after)
            for before, after in zip(calibrations, calibrations[1:])]


def load_program():
    """Import evolalg.cli from the checkout's src/, dropping any copy
    imported before, so every set-up pays the whole import."""
    src = ROOT / "src"
    if not (src / "evolalg" / "cli.py").is_file():
        raise SystemExit("run.py: no evolalg sources under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "evolalg" or m.startswith("evolalg.")]:
        del sys.modules[name]
    return importlib.import_module("evolalg.cli")


@dataclass
class ItemResult:
    outputs: list      # stdout of each step
    codes: list        # exit code of each step, or the exception it raised
    step_times: list   # seconds per step


def run_item(cli, item) -> ItemResult:
    """One operation: every step of the item through cli.main, in order."""
    result = ItemResult([], [], [])
    for _, argv in item["steps"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a traceback is a failed operation
                code = "%s: %s" % (type(exc).__name__, exc)
        result.step_times.append(time.perf_counter() - start)
        result.outputs.append(out.getvalue())
        result.codes.append(code)
    return result


def setup(workload: str, seed: int, out_dir: Path):
    """SETUP_REPEATS set-ups; the median set-up time at the reference speed."""
    times, calibrations = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = load_program()
        items = corpus.build(workload, seed, out_dir)
        times.append(time.perf_counter() - start)
        calibrations.append(calibrate())
    return cli, items, statistics.median(
        t * s for t, s in zip(times, speeds(calibrations)))


def timed_phase(cli, items, rounds: int):
    """Warm up, then run every item `rounds` times; return the results, the
    raw operation times and their speed factors."""
    run_item(cli, items[0])
    results, op_times, calibrations = [], [], [calibrate()]
    for _ in range(rounds):
        for item in items:
            start = time.perf_counter()
            results.append(run_item(cli, item))
            op_times.append(time.perf_counter() - start)
            calibrations.append(calibrate())
    return results, op_times, speeds(calibrations)


def subcommand_medians(items, results, op_speeds) -> dict:
    """Median milliseconds of each queries-qq subcommand over its calls, at
    the reference speed."""
    per_label = {}
    for k, (result, speed) in enumerate(zip(results, op_speeds)):
        for (label, _), seconds in zip(items[k % len(items)]["steps"], result.step_times):
            per_label.setdefault(label, []).append(seconds * speed)
    return {label: 1000 * statistics.median(per_label[label])
            for label in SUBCOMMANDS if label in per_label}


def traced_run(out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), "--corpus", str(out_dir),
         "--trace-file", str(out_dir / "trace.json")],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run.py: the traced pass failed")
    return json.loads(proc.stdout.splitlines()[-1])


def check_outputs(items, results):
    """Check every operation with the independent checker; return the
    number of failed operations and of operations with wrong output."""
    import check  # sympy, networkx, NumPy: only after the timed phase
    checker = check.Checker()
    verdicts = {}
    failed = wrong = 0
    for k, result in enumerate(results):
        item = items[k % len(items)]
        if any(code != 0 for code in result.codes):
            failed += 1
            print("failed: %s exited with %s" % (item["doc"], result.codes), file=sys.stderr)
            continue
        problems = []
        for (_, argv), output in zip(item["steps"], result.outputs):
            key = (tuple(argv), output)
            if key not in verdicts:
                verdicts[key] = checker.check_step(argv, output)
            problems += verdicts[key]
        if problems:
            failed += 1
            wrong += 1
            print("wrong: %s: %s" % (item["doc"], "; ".join(problems[:3])), file=sys.stderr)
    return failed, wrong


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run_start = time.perf_counter()
    os.chdir(ROOT)
    fam = corpus.FAMILIES[workload]
    out_dir = Path("benchmarks", "out", "%s-seed%d" % (workload, seed))
    cli, items, setup_s = setup(workload, seed, out_dir)
    rounds = max(1, round(seconds / fam.round_s))
    results, op_times, op_speeds = timed_phase(cli, items, rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [t * s for t, s in zip(op_times, op_speeds)]
    op_p50_ms = 1000 * statistics.median(scaled)
    print("raw: op_p50_ms %.1f, ops_per_s %.4f; median speed factor %.3f"
          % (1000 * statistics.median(op_times), len(op_times) / sum(op_times),
             statistics.median(op_speeds)), file=sys.stderr)

    correct = True
    if trace:
        traced = traced_run(out_dir)
        if traced["outputs"] != [r.outputs for r in results[:len(items)]]:
            print("wrong: the traced pass printed other outputs", file=sys.stderr)
            correct = False
        metrics = traced["metrics"]
        metrics["trace.overhead"] = {
            "value": metrics["trace.op_p50_ms"]["value"] / op_p50_ms, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
            "ops_per_s": {"value": len(results) / sum(scaled), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    failed, wrong = check_outputs(items, results)
    medians = subcommand_medians(items, results, op_speeds)
    if medians:
        print("subcommand p50: " + ", ".join("%s_p50_ms %.3f" % kv for kv in medians.items()),
              file=sys.stderr)
    print("%s seed %d: %d rounds x %d items in %.1f s, run %.1f s"
          % (workload, seed, rounds, len(items), sum(op_times),
             time.perf_counter() - run_start),
          file=sys.stderr)
    return {"correct": correct and wrong == 0, "attempted": len(results),
            "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process, untraced and then traced; print
    every metric by name with its unit."""
    summary = {}
    for workload in corpus.FAMILIES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                print("%s: exit code %d" % (workload, proc.returncode))
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            summary["%s/trace%d" % (workload, trace)] = result
            print("%s --trace %d: correct=%s attempted=%d failed=%d"
                  % (workload, trace, result["correct"], result["attempted"], result["failed"]))
            for name, metric in result["metrics"].items():
                print("  %-42s %14.4f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="evolalg benchmark runner")
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.FAMILIES) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
