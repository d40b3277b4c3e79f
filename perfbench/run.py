"""smoothdio benchmark: the public CLI, end to end and per layer.

    python3 perfbench/run.py --workload sweep|sieve|sums --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the workload's jobs
(workloads.py).  Each job is one fresh `python -m smoothdio.cli` process
with PYTHONPATH=src, run one at a time in a closed loop with one client.
A pass runs every job once.  Passes repeat for about --seconds seconds.
A pass's times are each job's mean over the passes; its peak RSS uses each
job's median.  On a shared host the speed switches between a fast and a slow
state that lasts for several passes, and a median snaps to one of the two,
while the mean follows the share of the run spent in each, which varies
less from run to run (README.md, Noise).

With --trace 0 the last stdout line carries the end-to-end metrics:

  wall_s       wall time of a pass: sum over jobs of spawn to exit, each job
               at its mean over the passes
  cpu_s        user + sys CPU of the pass's job processes (wait4 rusage)
  peak_rss_mb  largest peak RSS of any job in the pass
  setup_s      median wall time of a trivial job (`rho --u 1`): process
               start plus importing smoothdio and numpy, run SETUP_RUNS times
  work_per_s   work of a pass ÷ wall_s; work is target-set members emitted on
               sweep, integers sieved on sieve and m×n pairs on sums, the
               last two predicted from the inputs (workloads.py)

With --trace 1, untraced and traced passes alternate; traced passes run each
job under tracing.py and the last line carries the per-layer metrics.
Per-layer numbers come only from traced passes, end-to-end ones only from
untraced passes.

Correctness: the first untraced output of each job goes through the oracles
in oracles.py.  Every run's output is hashed with sha256, and a hash that
differs from the job's first hash is a failure.  A job run fails if it exits
non-zero, if its output fails an oracle or if its bytes differ from another
run of the same job; `failed` counts those runs and fail_frac is printed
with the metrics.

Exits 2 without a result when the checkout holds no smoothdio sources.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# BLAS/OpenMP threads of every child process, the same on every commit.
THREADS = "1"
SETUP_RUNS = 7
MIN_PASSES = 3
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "work_per_s": "1/s"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=THREADS,
        OMP_NUM_THREADS=THREADS,
        MKL_NUM_THREADS=THREADS,
        PYTHONHASHSEED="0",
    )
    return env


def spawn(argv, err_path: Path, env: dict):
    """Run argv to completion; (wall s, cpu s, peak RSS MB, exit code)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cli_argv(job, out: Path, spans: Path = None) -> list:
    args = [*job.args, "--out", str(out)]
    if spans is None:
        return [sys.executable, "-m", "smoothdio.cli", *args]
    return [sys.executable, str(Path(__file__).with_name("tracing.py")), str(spans), job.name, "--", *args]


def run_pass(jobs, env: dict, traced: bool) -> list:
    """One pass over the jobs: a dict per job run."""
    runs = []
    for job in jobs:
        out = WORK / f"{job.name}.{job.fmt}"
        spans = WORK / f"{job.name}.spans.json" if traced else None
        out.unlink(missing_ok=True)
        wall, cpu, rss, rc = spawn(cli_argv(job, out, spans), WORK / f"{job.name}.err", env)
        run = {"job": job, "wall": wall, "cpu": cpu, "rss": rss, "rc": rc, "out": out,
               "digest": None, "bytes": 0}
        if rc == 0 and out.exists():
            run["digest"], run["bytes"] = sha256(out), out.stat().st_size
        if rc != 0:
            err = (WORK / f"{job.name}.err").read_text(errors="replace").strip()
            print(f"# {job.name} exited {rc}: {err[-300:]}", file=sys.stderr)
        if traced and rc == 0:
            run["trace"] = json.loads(spans.read_text())
        runs.append(run)
    return runs


def measure_setup(env: dict) -> list:
    argv = [sys.executable, "-m", "smoothdio.cli", "rho", "--u", "1", "--out", str(WORK / "setup.json")]
    walls = []
    for _ in range(SETUP_RUNS + 1):  # the first run warms caches and writes bytecode
        wall, _, _, rc = spawn(argv, WORK / "setup.err", env)
        if rc != 0:
            raise RuntimeError(f"trivial job exited {rc}: {(WORK / 'setup.err').read_text()[-300:]}")
        walls.append(wall)
    return walls[1:]


def check_outputs(first_pass):
    """Oracle verdict per job (list of problems) and output rows per job,
    from the first untraced pass; the checked file is kept as the reference."""
    problems, rows = {}, {}
    for run in first_pass:
        job = run["job"]
        if run["digest"] is None:
            problems[job.name], rows[job.name] = [f"{job.name}: no output"], 0
            continue
        ref = WORK / f"{job.name}.ref.{job.fmt}"
        os.replace(run["out"], ref)
        try:
            bad, n = oracles.check(job, str(ref))
        except Exception:  # an oracle that cannot read the output fails the job
            bad, n = [f"{job.name}: oracle raised\n{traceback.format_exc(limit=3)}"], 0
        problems[job.name], rows[job.name] = list(bad), n
    return problems, rows


def end_to_end(passes, work: float) -> dict:
    """End-to-end metrics of one pass: times with each job at its mean over
    the passes, peak RSS with each job at its median."""
    per_job = list(zip(*passes))
    mean = lambda key: sum(statistics.fmean(r[key] for r in runs) for runs in per_job)
    rss = max(statistics.median(r["rss"] for r in runs) for runs in per_job)
    wall = mean("wall")
    return {"wall_s": wall, "cpu_s": mean("cpu"), "peak_rss_mb": rss, "work_per_s": work / wall}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "smoothdio" / "cli.py").is_file():
        print(f"error: no smoothdio sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated benchmark kills its running job (spawn) and removes WORK
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        return bench(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(jobs, env: dict, seconds: float, trace: bool):
    """Passes until `seconds` would be exceeded, at least MIN_PASSES untraced
    ones; with `trace`, traced passes alternate with untraced ones."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        want_trace = trace and len(plain) > len(traced)
        t_pass = time.perf_counter()
        (traced if want_trace else plain).append(run_pass(jobs, env, want_trace))
        now = time.perf_counter()
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES - 1)
        if enough and (now - t0) + (now - t_pass) > seconds:
            return plain, traced


def count_failures(passes, problems: dict, ref: dict):
    """(attempted, failed) job runs: a run fails on a non-zero exit, on bytes
    that differ from the job's first run, or when that output failed an oracle."""
    attempted = failed = 0
    for runs in passes:
        for r in runs:
            name = r["job"].name
            attempted += 1
            failed += r["rc"] != 0 or r["digest"] is None or r["digest"] != ref[name] or bool(problems[name])
    return attempted, failed


def bench(args) -> int:
    env = child_env()
    jobs = workloads.make_jobs(args.workload, args.seed)
    setup = measure_setup(env)
    plain, traced = measure(jobs, env, args.seconds, bool(args.trace))

    problems, rows = check_outputs(plain[0])
    ref = {r["job"].name: r["digest"] for r in plain[0]}
    attempted, failed = count_failures(plain + traced, problems, ref)
    for msgs in problems.values():
        for msg in msgs:
            print(f"# FAIL {msg}", file=sys.stderr)

    # sweep counts the members it emitted; the others their predicted work
    work = sum(rows.values()) if args.workload == "sweep" else sum(j.work for j in jobs)
    e2e = end_to_end(plain, work)
    e2e["setup_s"] = statistics.median(setup)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced passes, "
          f"{len(traced)} traced passes, {len(setup)} setup runs, "
          f"fail_frac {failed / attempted:.4g} ({failed}/{attempted})")
    for job in jobs:
        wall = statistics.fmean(r["wall"] for runs in plain for r in runs if r["job"] is job)
        print(f"job {job.name} sha256 {ref[job.name]} rows {rows[job.name]} wall {wall:.3f} s"
              f" :: {' '.join(job.args)}")

    if args.trace:
        values = per_layer(traced, rows)
        if values:
            values["trace.overhead_frac"] = end_to_end(traced, work)["wall_s"] / e2e["wall_s"] - 1.0
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}
        samples = len(traced)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
        samples = len(plain)
    for k, v in metrics.items():
        n = len(setup) if k == "setup_s" else samples
        print(f"  {k:48s} {v['value']:>16.6g} {v['unit']:6s} (n={n})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def per_layer(traced, rows: dict) -> dict:
    """Median over traced passes of each per-layer metric."""
    layers = [
        tracing.layer_metrics([r["trace"] for r in runs], [r["wall"] for r in runs],
                              sum(rows.values()), sum(r["bytes"] for r in runs))
        for runs in traced
        if all(r["rc"] == 0 for r in runs)
    ]
    return {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}


if __name__ == "__main__":
    sys.exit(main())
