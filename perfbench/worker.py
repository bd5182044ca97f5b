"""One workload in one fresh process: set up, signal ready, run the closed loop.

Started by ``run.py``, never by hand.  It imports telerobust, writes the
workload's seeded fixture files, prints ``ready`` (``run.py`` times process
start to this line as ``setup_s``), then, unless ``--setup-only``, runs
operations for ``--seconds`` and prints one JSON line with what it measured.

A single client waits for each operation before sending the next.  The
loop starts another operation only while the last one would still end
inside the window, so a run never outlasts ``--seconds`` by more than the
output checks.  In a traced run every operation is run twice, untraced and
traced, in alternating order, so the tracing overhead is a paired ratio.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_telerobust():
    import telerobust

    where = Path(telerobust.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: telerobust imported from {where}, not from this checkout's src/")


def blas_stamp():
    """BLAS library, version and the thread count it actually runs with."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def attempt(wl, fx, args, call):
    """Time one operation, then check its outputs outside the timed interval."""
    started = time.perf_counter()
    try:
        rc, out = call()
    except Exception:  # an operation that raises is a failed operation; keep running
        elapsed = time.perf_counter() - started
        traceback.print_exc(file=sys.stderr)
        return elapsed, "raised " + traceback.format_exc(limit=0).strip()
    elapsed = time.perf_counter() - started
    return elapsed, wl.check(fx, args, rc, out)


def measure(wl, fx, seconds):
    durations, errors = [], []
    window = time.perf_counter()
    i = 0
    while True:
        args = wl.op_args(fx, i)
        dt, err = attempt(wl, fx, args, lambda: wl.run(fx, args))
        durations.append(dt)
        if err:
            errors.append(f"op {i}: {err}")
        i += 1
        if time.perf_counter() - window + dt > seconds:
            break
    return {
        "durations": durations,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(wl, fx, seconds):
    from telerobust import qobjects, rot

    import spans as tr

    tracer = tr.Tracer()
    traced_s, untraced_s, errors = [], [], []
    attempted = 0
    window = time.perf_counter()
    i = 0
    while True:
        args = wl.op_args(fx, i)
        pair = 0.0
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                dt, err = attempt(wl, fx, args, lambda: tracer.run_op(i, wl.run, fx, args))
                traced_s.append(dt)
            else:
                dt, err = attempt(wl, fx, args, lambda: wl.run(fx, args))
                untraced_s.append(dt)
            attempted += 1
            pair += dt
            if err:
                errors.append(f"op {i} ({'traced' if traced else 'untraced'}): {err}")
        i += 1
        if time.perf_counter() - window + pair > seconds:
            break
    metrics, counts = tr.per_layer(tracer, traced_s, untraced_s)

    # d = 4 is not solved: its dense footprint is computed from the declared shapes.
    instr = qobjects.build_instrument(qobjects.bell_povm(4), qobjects.isotropic_state(0.5, 4))
    m, sizes = tr.standard_shape(rot.rot_primal_problem(instr)[0])
    footprint = {"rows": m, **tr.dense_bytes(m, sizes)}
    return {
        "attempted": attempted,
        "errors": errors,
        "per_layer": {k: {"value": v, "unit": tr.unit_of(k)} for k, v in metrics.items()},
        "exact_counts": counts,
        "d4_primal_dense_bytes_computed": footprint,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_telerobust()
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        fx = wl.setup(workdir, args.seed)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = measure_traced(wl, fx, args.seconds)
        else:
            result = measure(wl, fx, args.seconds)
        result.update(workload=wl.name, size=wl.size, why=wl.why, stamp=blas_stamp())
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
