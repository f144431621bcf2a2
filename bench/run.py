"""Benchmark command: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload class-u1-5d --seed 1 --seconds 20 --trace 0

Each workload runs in fresh single-process closed loops (one client; the next
op starts when the previous one has returned), with the BLAS/OpenMP thread
count pinned to one.  A run starts, in order:

1. a reference process, which stores what the checks compare against;
2. SETUPS - 2 fresh processes that only set up; `setup_s` is the median
   set-up time of these, the reference and the timed process;
3. the timed process: set-up, one warm-up op, then the closed loop for
   --seconds.  With --trace 1 every second op is traced, and the run reports
   per-layer metrics and the tracing overhead instead of the end-to-end
   metrics.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the machine
facts, the sample count and the first failure messages.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 5  # set-ups per run: reference, SETUPS - 2 set-up only, timed
DEADLINE_S = 170.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, workdir: str, deadline: float, trace_file=None) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before the timed process")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} process did not finish in time")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    """HEAD of the checkout if it is a git work tree (read, not run)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "caloron", "__init__.py")):
        print(f"error: no caloron sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # SystemExit on SIGTERM lets subprocess.run kill the running worker and the
    # work directory be removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    trace_file = os.path.join(OUT, f"trace-{tag}.jsonl") if args.trace else None
    try:
        ref = run_worker(args, "reference", workdir, deadline)
        setups = [ref["setup_s"]]
        if not args.trace:
            setups += [run_worker(args, "setup", workdir, deadline)["setup_s"]
                       for _ in range(SETUPS - 2)]
        loop = run_worker(args, "loop", workdir, deadline, trace_file)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = loop["latencies"]
    failures = ref["failures"] + loop["failures"]
    if args.trace:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            layers = json.load(fh)["per_layer"]
        per_op = dict(loop["per_layer"], **{"trace.overhead_pct": loop["overhead_pct"]})
        metrics = {m["name"]: {"value": per_op.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in layers}
    else:
        setups.append(loop["setup_s"])
        metrics = {
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "latency_p50_s": {"value": median(lat), "unit": "s"},
            "peak_rss_mb": {"value": loop["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": median(setups), "unit": "s"},
        }
    result = {"correct": not failures, "attempted": loop["attempted"],
              "failed": loop["failed"], "metrics": metrics}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "samples": len(lat), "setup_samples": len(setups),
            "machine": dict(loop["machine"], nproc=os.cpu_count(),
                            cpus_usable=len(os.sched_getaffinity(0)),
                            python=platform.python_version(), git_revision=git_revision()),
            "failures": failures[:10]}
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump(dict(info, result=result, latencies=lat), fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
