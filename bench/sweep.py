"""Run the benchmark over several seeds and report how steady each metric is.

    python3 bench/sweep.py --runs 10                        # all workloads, end to end
    python3 bench/sweep.py --runs 10 --out first.json       # also save a summary
    python3 bench/sweep.py --runs 10 --compare first.json   # a second set against it
    python3 bench/sweep.py --runs 2 --trace 1               # traced per-layer runs

Run from the root of a checkout.  Seeds are ``--first-seed`` onwards, one
per run.  For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json, and the same for the
wall time ``run_s``, which has no bound in an end-to-end set.  Exit status 1 if a
run is incorrect, if the exact counts differ between runs (or from the
compared set), if a spread reaches its metric's bound, or if a median is
worse than the compared set's by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

EXACT_PREFIX = "  exact "
WALL_PREFIX = "  run_s "


def provenance(root: Path) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "git_commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "thread_cap": "OMP/OPENBLAS/MKL_NUM_THREADS and DCVORTEX_THREADS = 1 in the workload process",
        "cpu": cpu,
    }


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: benchmark exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    exact = next(json.loads(line[len(EXACT_PREFIX):]) for line in lines if line.startswith(EXACT_PREFIX))
    wall = next(float(line.split()[1]) for line in lines if line.startswith(WALL_PREFIX))
    return json.loads(lines[-1]), exact, wall


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write a JSON summary here")
    parser.add_argument("--compare", type=Path, help="a summary written by --out to compare against")
    args = parser.parse_args(argv)

    root = Path.cwd()
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    before = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    problems = []
    summary = {"provenance": provenance(root), "seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, exacts = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, exact, wall = run_once(root, workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "run_s": wall, **{k: v["value"] for k, v in result["metrics"].items()},
                         "attempted": result["attempted"], "failed": result["failed"]})
            exacts.append(exact)
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        if any(e != exacts[0] for e in exacts):
            problems.append(f"{workload}: exact counts differ between runs: {exacts}")
        old = before.get(workload)
        if old is not None and old["exact"] != exacts[0]:
            problems.append(f"{workload}: exact counts {exacts[0]} differ from the compared set's {old['exact']}")
        stats = {}
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}, "
              f"failed_ops_frac {failed / attempted:.3f} ({failed} of {attempted} operations)")
        for name, meta in {"run_s": {"unit": "s"}, **declared}.items():
            stats[name] = s = summarize([r[name] for r in runs])
            line = (f"  {name:<45} median {s['median']:<11.5g} q1 {s['q1']:<11.5g} q3 {s['q3']:<11.5g} "
                    f"{meta['unit']:<6} spread {s['spread']:.3f}")
            if "bound" in meta:
                line += f" bound {meta['bound']}"
                if s["spread"] >= meta["bound"]:
                    problems.append(f"{workload} {name}: spread {s['spread']:.3f} >= bound {meta['bound']}")
                if old is not None:
                    change = s["median"] / old["metrics"][name]["median"] - 1.0
                    line += f" vs compared median {change:+.3f}"
                    worse = change if meta["better"] == "lower" else -change
                    if worse > meta["bound"]:
                        problems.append(f"{workload} {name}: median worse by {worse:.3f} > bound {meta['bound']}")
            print(line)
        summary["workloads"][workload] = {"exact": exacts[0], "metrics": stats, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
