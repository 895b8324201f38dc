"""Child process of the benchmark: runs one workload's operations in-process.

run.py starts it from the checkout root with the BLAS/FFT pools capped at one
thread and ``src`` on the import path.  It runs one warm-up operation, then
operations until ``--seconds`` would be exceeded (at least ``MIN_OPS``),
gates every operation, and prints one JSON line for run.py.  The warm-up
counts against ``--seconds``, so a run lasts about that long in all.

With ``--trace 0`` every operation is timed against the reference clock
(refclock.py), which gives ``run_ref``.  With ``--trace 1`` there is no
reference clock, whose samples would land inside the spans; the worker
alternates untraced and traced operations, so the same run gives the
tracing overhead, and run times come from the untraced ones only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import refclock
import spans
from workloads import CONFIG_DIR, WORKLOADS, Call

MIN_OPS = 3


def run_op(cli, workload, seed: int, out: Path, clock):
    """One operation: the workload's CLI calls, timed against ``clock`` unless it is None.

    Returns (wall_s, ref_units or None, problems, facts).
    """
    out.mkdir(parents=True)
    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), clock.sampling() if clock else contextlib.nullcontext():
        for command, config in workload.calls:
            argv = [command, "--config", str(CONFIG_DIR / config), "--out", str(out), "--seed", str(seed)]
            codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    ref = clock.ref_units(wall) if clock else None
    try:
        calls = [
            Call(command, code, json.loads((out / f"{command.replace('-', '_')}_report.json").read_text()), out)
            for (command, _), code in zip(workload.calls, codes)
        ]
        problems, facts = workload.gate(calls)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems, facts = [f"unreadable output: {exc!r}"], {}
    return wall, ref, problems, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    import numpy
    import dcvortex.cli as cli

    if Path(cli.__file__).resolve() != (root / "src" / "dcvortex" / "cli.py").resolve():
        print(f"dcvortex imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_base = root / ".bench_out" / args.workload
    shutil.rmtree(out_base, ignore_errors=True)
    recorder = spans.SpanRecorder() if args.trace else None
    clock = None if args.trace else refclock.RefClock()
    origin_ns = time.perf_counter_ns()

    ops = []            # (traced, wall_s, ref_units, problems, facts)
    layer_rows = []     # per-layer metrics of each traced operation

    def one(traced: bool):
        op_id = len(ops)
        first_span = len(recorder.spans) if recorder else 0
        start = time.perf_counter()
        try:
            with recorder.operation(op_id) if traced else contextlib.nullcontext():
                wall, ref, problems, facts = run_op(cli, workload, args.seed, out_base / f"op{op_id:03d}", clock)
        except Exception:  # a crashing operation is a failed one; keep measuring the rest
            traceback.print_exc()
            wall, ref, problems, facts = time.perf_counter() - start, None, ["operation raised"], {}
        if traced:
            row = spans.op_metrics(recorder.spans[first_span:], wall)
            layer_rows.append(row)
            facts = {**facts, **{k: row[k] for k in spans.EXACT}}
        ops.append((traced, wall, ref, problems, facts))

    deadline = time.perf_counter() + args.seconds
    one(traced=False)  # warm-up
    while True:
        measured = ops[1:]
        if len(measured) >= MIN_OPS and time.perf_counter() + measured[-1][1] > deadline:
            break
        one(traced=bool(args.trace) and len(measured) % 2 == 1)

    # exact counts and output digests must repeat in every operation that reports them
    facts = {}
    failed = 0
    problems_seen = []
    for op_id, (_, _, _, problems, op_facts) in enumerate(ops):
        for key, value in op_facts.items():
            if facts.setdefault(key, value) != value:
                problems.append(f"{key} = {value!r}, first operation had {facts[key]!r}")
        if problems:
            failed += 1
            problems_seen.append(f"op {op_id}: {'; '.join(problems)}")

    untraced = [wall for traced, wall, _, _, _ in ops[1:] if not traced]
    refs = [ref for _, _, ref, _, _ in ops[1:] if ref is not None]
    result = {
        "attempted": len(ops),
        "failed": failed,
        "problems": problems_seen,
        "run_s": statistics.median(untraced),
        "run_samples": len(untraced),
        "run_ref": statistics.median(refs) if refs else None,
        "ref_sample_ms": 1e3 * statistics.median(clock.samples) if clock else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": facts,
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine(),
        },
    }
    if recorder:
        traced_walls = [wall for traced, wall, _, _, _ in ops if traced]
        result["per_layer"] = {
            key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]
        }
        result["per_layer"]["trace_overhead_frac"] = statistics.median(traced_walls) / result["run_s"] - 1.0
        result["traced_samples"] = len(traced_walls)
        recorder.write_csv(out_base / "spans.csv", origin_ns)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
