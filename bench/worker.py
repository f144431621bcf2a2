"""One fresh benchmark process: set up a workload, then (by --mode) store its
reference outputs, stop, or run the warm-up and the timed closed loop.

Prints one JSON object as its last line of standard output.  Started by
run.py with the BLAS/OpenMP thread count pinned to one.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))

import caloron  # noqa: E402
import numpy as np  # noqa: E402

if not os.path.abspath(caloron.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"caloron imported from {caloron.__file__}, not from this checkout")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def blas_facts() -> dict:
    """numpy's BLAS and the thread count its OpenBLAS reports, if it is OpenBLAS."""
    facts = {"numpy": np.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def timed_loop(wl, seconds: float, tracer=None) -> tuple:
    """Closed loop: the next op starts only when the previous one has returned
    and been checked.  Starts ops until `seconds` of wall time have passed.
    With a tracer, every second op runs traced, so traced and untraced ops see
    the same machine; at least one of each runs."""
    latencies, traced, failures, failed = [], [], [], 0
    i = 1
    deadline = time.monotonic() + seconds
    while True:
        on = tracer is not None and i % 2 == 0
        if on:
            tracer.install()
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            out = exc
        t1 = time.perf_counter()
        if on:
            tracer.uninstall()
        if isinstance(out, Exception):
            failed += 1
            failures.append(f"op {i}: {out!r}")
        else:
            latencies.append(t1 - t0)
            traced.append(on)
            failures += wl.check(i, out)
        if time.monotonic() >= deadline and (tracer is None or i >= 2):
            return latencies, traced, failed, failures
        i += 1


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("reference", "setup", "loop"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--trace-file", default=None)
    args = p.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"setup_s": time.monotonic() - args.spawned}
    ref = os.path.join(args.workdir, "reference.npz")
    if args.mode == "reference":
        result["failures"] = wl.reference(ref)
    elif args.mode == "loop":
        wl.load_reference(ref)
        failures = wl.check(0, wl.op(0))  # warm-up
        tracer = Tracer() if args.trace else None
        latencies, traced, failed, more = timed_loop(wl, args.seconds, tracer)
        failures += more
        attempted = len(latencies) + failed
        if tracer is not None:
            on = [x for x, t in zip(latencies, traced) if t]
            off = [x for x, t in zip(latencies, traced) if not t]
            result["per_layer"] = tracer.per_op(attempted // 2)
            result["overhead_pct"] = 100.0 * (median(on) / median(off) - 1.0)
            latencies = on
            if args.trace_file:
                tracer.write(args.trace_file)
        result.update(
            latencies=latencies, attempted=attempted, failed=failed, failures=failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            machine=blas_facts())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
