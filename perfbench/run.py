"""Benchmark of eqsketch: one workload per run, in this process.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0

A run imports eqsketch from ``src/`` next to this directory, makes the
workload's inputs from the seed (spec files under ``perfbench/out/``),
computes the references, runs one untimed warm-up pass and then repeats
whole passes of the operation list, one client in a closed loop, until
``--seconds`` have gone by.  Every answer of every pass is checked.
Times are wall times rescaled to a reference machine speed (``speed.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes every traced function and counter to
``perfbench/out/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3


def load_eqsketch():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "eqsketch" / "__init__.py").is_file():
        raise SystemExit(f"error: no eqsketch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eqsketch
    if Path(eqsketch.__file__).resolve().parent != SRC / "eqsketch":
        raise SystemExit(f"error: eqsketch imported from {eqsketch.__file__}, not {SRC}")
    names = ("cli", "core", "decorate", "dsl", "errors", "inference", "models",
             "parameterize", "sketch")
    return types.SimpleNamespace(**{n: importlib.import_module(f"eqsketch.{n}")
                                    for n in names})


def run_pass(ops, clock, problems, label, tracer=None):
    """Run every operation once; return (wall interval per op, failed count).
    A tracer records only while an operation runs, never its check."""
    spans, failed = [], 0
    for op in ops:
        gc.collect()
        clock.calibrate()
        if tracer is not None:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            res = op.run()
            err = None
        except Exception as exc:  # a raising operation is a wrong answer
            res, err = None, f"raised {type(exc).__name__}: {exc}"
        spans.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.recording = False
        if err is None:
            try:
                err = op.check(res)
            except Exception as exc:  # a check that cannot read the answer
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failed += 1
            if not op.known_fault:
                problems.append(f"{label} {op.name}: {err}")
    clock.calibrate()
    return spans, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    clock = speed.SpeedClock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args, clock) -> int:
    clock.calibrate()
    t0 = time.perf_counter()
    E = load_eqsketch()
    import tracing
    import workloads
    setup = [(t0, time.perf_counter())]
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    problems = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as work:
        gen = []
        for i in range(SETUP_REPEATS):
            clock.calibrate()
            t0 = time.perf_counter()
            inputs = workloads.generate(args.workload, args.seed, Path(work) / str(i), E)
            gen.append((t0, time.perf_counter()))
        problems += workloads.input_problems(inputs, E)
        ops = workloads.operations(inputs, E)

        warm, _ = run_pass(ops, clock, problems, "warm-up")
        tracer = None
        if args.trace:
            untraced, _ = run_pass(ops, clock, problems, "untraced")
            tracer = tracing.Tracer(E)
            tracer.install()
        passes, attempted, failed = [], 0, 0
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            spans, bad = run_pass(ops, clock, problems, f"pass {len(passes)}", tracer)
            passes.append(spans)
            attempted += len(ops)
            failed += bad
        if tracer is not None:
            tracer.uninstall()
    clock.stop()

    def secs(spans):
        return [clock.seconds(a, b) for a, b in spans]

    for line in problems[:20]:
        print(line, file=sys.stderr)
    times = [secs(spans) for spans in passes]
    raw = [[b - a for a, b in spans] for spans in passes]
    per_op = [statistics.median(col) for col in zip(*times)]
    print(f"{'operation':48s} {'ref ms':>12s} {'wall ms':>12s}   (medians over {len(passes)} passes)")
    for op, t, r in zip(ops, per_op, zip(*raw)):
        print(f"{op.name:48s} {1000 * t:12.3f} {1000 * statistics.median(r):12.3f}"
              f"{'  known fault' if op.known_fault else ''}")
    total = sum(map(sum, times))
    if tracer is None:
        setup_s = sum(secs(setup)) + statistics.median(secs(gen)) + sum(secs(warm))
        metrics = {
            "ops_per_s": {"value": attempted / total, "unit": "ops/s"},
            "op_geomean_ms": {"value": 1000 * math.exp(statistics.fmean(
                math.log(t) for t in per_op)), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    else:
        report = tracer.report(len(passes))
        report[tracing.OVERHEAD] = (total / len(passes)) / sum(secs(untraced))
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "passes": len(passes), "per_pass": report},
                                         indent=1, sort_keys=True))
        print(f"trace written to {trace_file.relative_to(ROOT)}")
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, (unit, _better) in tracing.per_layer_metrics(E).items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
