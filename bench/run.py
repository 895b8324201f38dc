"""dcvortex benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload stable-solve-n64 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; dcvortex is imported from ``src``.
The workload runs in a child process (bench/worker.py) whose BLAS/FFT pools
are capped at one thread before numpy loads.  ``setup_s`` is the median wall
time of fresh processes that import ``dcvortex.cli`` and parse the workload's
configs, half of them started before the workload and half after it, so that
they sample the machine over the same span as the operations.  ``run_ref``
is the median operation time in units of the reference clock (refclock.py);
the median wall time ``run_s`` is printed too, and is a per-layer metric.
Human-readable lines come first; the last line of standard output is the
JSON result.  Metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "DCVORTEX_THREADS")
SETUP_REPEATS = 5      # timed set-up processes before the worker, and again after it
SETUP_CODE = "import sys, dcvortex.cli as cli\nfor path in sys.argv[1:]:\n    cli.parse_config(path)\n"
TIME_LIMIT_S = 160.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(root: Path, env: dict, configs: list[Path]) -> list[float]:
    """Wall times of fresh processes importing dcvortex.cli and parsing the configs.

    One untimed process first, so that every timed one finds compiled bytecode.
    The wait blocks: a wait with a timeout polls, in steps of up to 50 ms,
    which would quantize the times.  A timer kills a process that hangs.
    """
    argv = [sys.executable, "-c", SETUP_CODE, *map(str, configs)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=root)
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return times[1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "dcvortex" / "cli.py").is_file():
        print(f"no dcvortex sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env(root)

    try:
        configs = WORKLOADS[args.workload].configs
        setup = measure_setup(root, env, configs)
        worker = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=root, capture_output=True, text=True,
            timeout=TIME_LIMIT_S - (time.perf_counter() - began),
        )
        setup += measure_setup(root, env, configs)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(worker.stderr)
    if worker.returncode != 0:
        print(f"worker exited {worker.returncode}", file=sys.stderr)
        return 1
    res = json.loads(worker.stdout.splitlines()[-1])

    values = dict(res.get("per_layer", {}))
    values.update(setup_s=statistics.median(setup), run_ref=res["run_ref"], run_s=res["run_s"],
                  peak_rss_mb=res["peak_rss_mb"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    prov = res["provenance"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {prov['python']}, numpy {prov['numpy']}, nproc {prov['nproc']}, "
          f"BLAS/FFT threads {prov['thread_cap']}, {prov['machine']}")
    print(f"  setup_s          {values['setup_s']:.4f} s   median of {len(setup)} fresh processes")
    if not args.trace:
        print(f"  run_ref          {res['run_ref']:.1f} ref median of {res['run_samples']} operations after 1 warm-up, "
              f"in reference-clock samples of {res['ref_sample_ms']:.3f} ms (median, last operation)")
    print(f"  run_s            {res['run_s']:.4f} s   median of {res['run_samples']} untraced operations after 1 warm-up")
    print(f"  peak_rss_mb      {res['peak_rss_mb']:.1f} MB  workload process")
    print(f"  failed_ops_frac  {res['failed'] / res['attempted']:.3f}     {res['failed']} of {res['attempted']} operations")
    if args.trace:
        print(f"  per-layer values are medians of {res['traced_samples']} traced operations")
        for m in declared:
            print(f"  {m['name']:<45} {values[m['name']]:.6g} {m['unit']}")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    print(f"  exact {json.dumps(res['facts'], sort_keys=True)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
