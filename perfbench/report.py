"""Print every metric of every workload, and optionally record a baseline.

    python3 perfbench/report.py [--seed N] [--seconds S] [--write]

Runs perfbench/run.py on each workload, untraced and traced, and prints
each end-to-end metric with its unit and sample count, fail_frac, and the
per-layer metrics.  With --write the numbers, the per-job output hashes and
the machine facts go to perfbench/baseline.json.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy

import run
import workloads

HERE = Path(__file__).resolve().parent
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)\s+\(n=(\d+)\)$")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    samples = {m[1]: int(m[4]) for m in map(METRIC_LINE.match, lines) if m}
    jobs = [line for line in lines if line.startswith("job ")]
    return {
        "correct": result["correct"],
        "fail_frac": result["failed"] / result["attempted"],
        "attempted": result["attempted"],
        "metrics": {k: dict(v, samples=samples[k]) for k, v in result["metrics"].items()},
        "jobs": jobs,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    out = {
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": run.THREADS,
        },
        "workloads": {},
    }
    for w in workloads.GENERATORS:
        plain = run_workload(w, args.seed, args.seconds, 0)
        traced = run_workload(w, args.seed, args.seconds, 1)
        out["workloads"][w] = {
            "fail_frac": plain["fail_frac"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "jobs": plain["jobs"],
        }
        print(f"{w}: fail_frac {plain['fail_frac']:.4g} of {plain['attempted']} job runs"
              f" (traced run: {traced['fail_frac']:.4g})")
        for section in (plain["metrics"], traced["metrics"]):
            for k, v in section.items():
                print(f"  {k:48s} {v['value']:>16.6g} {v['unit']:6s} (n={v['samples']})")
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
