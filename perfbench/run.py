"""telerobust benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its ``src/``.
Workloads (see ``workloads.py``): iso-d2-certify, iso-d3-certify,
discrim-padded-d2, monotone-d2.  Each is a closed loop with one client.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start to
first operation ready, median of several fresh processes), ``ops_per_s``,
``op_p50_s`` and ``peak_rss_mb`` of the workload process.  ``--trace 1``
reports the per-layer metrics from spans around each module's public
functions (``spans.py``), the exact counts of the first operation, the
tracing overhead, and the computed dense footprint of the d = 4 primal.

Operations run in fresh worker processes (``worker.py``) with the BLAS
thread count fixed at ``BLAS_THREADS``.  Human-readable lines come first;
the last line of standard output is the result object.  Exit code 0 means
the workload ran (``correct`` says whether every output check passed);
anything else means no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKDIR = HERE / ".work"

BLAS_THREADS = 1  # at most nproc; the same on both sides of every comparison
SETUP_SAMPLES = 5  # fresh processes timed to "ready"; setup_s is their median
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it
DEADLINE_S = 170.0  # the whole run, workers included


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


class Worker:
    """A worker process; ``setup_s`` is the time from spawn to its ready line."""

    def __init__(self, args, deadline, setup_only):
        argv = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(WORKDIR / f"{args.workload}-{os.getpid()}-{time.monotonic_ns()}"),
        ]
        if setup_only:
            argv.append("--setup-only")
        self.deadline = deadline
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - started
            if line.strip() != "ready":
                raise BenchError(f"worker did not get ready (exit {self.proc.poll()})")
        except BaseException:
            self.stop()
            raise

    def _left(self):
        return max(0.0, self.deadline - time.monotonic())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def result(self):
        """Wait for the worker to end; returns its JSON line, if it printed one."""
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker overran the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def source_stamp():
    """Commit (when the checkout is a git repository) and a digest of ``src/``."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit or "unknown (not a git checkout)", "src_sha256": digest.hexdigest()}


def end_to_end(args, deadline):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker(args, deadline, setup_only=True)
        setups.append(w.setup_s)
        w.result()
    w = Worker(args, deadline, setup_only=False)
    setups.append(w.setup_s)
    res = w.result()

    durations = res["durations"]
    n = len(durations)
    failed = len(res["errors"])
    lines = [
        f"setup_s {statistics.median(setups):.4f} s (median of {len(setups)} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"ops_per_s {(n - failed) / sum(durations):.4f} 1/s ({n - failed} ops completed "
        f"in {sum(durations):.2f} s of operations)",
        f"op_p50_s {statistics.median(durations):.4f} s (n={n})",
    ]
    if n >= P90_MIN_OPS:
        p90 = statistics.quantiles(durations, n=10, method="inclusive")[-1]
        lines.append(f"op_p90_s {p90:.4f} s (n={n})")
    else:
        lines.append(
            f"op_p90_s omitted: {n} ops < {P90_MIN_OPS}, too few for ten samples beyond the 90th percentile"
        )
    lines += [
        f"peak_rss_mb {res['peak_rss_mb']:.2f} MiB (ru_maxrss of the workload process)",
        f"fail_ratio {failed / n:.4f} ({failed} failed / {n} attempted)",
    ]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": (n - failed) / sum(durations), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(durations), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
    }
    return res, n, lines, metrics


def per_layer(args, deadline):
    res = Worker(args, deadline, setup_only=False).result()
    wl = res["workload"]
    lines = [f"{wl} {k} {v['value']:.6g} {v['unit']}" for k, v in res["per_layer"].items()]
    lines.append(f"exact_counts (first operation) {json.dumps(res['exact_counts'], sort_keys=True)}")
    fp = res["d4_primal_dense_bytes_computed"]
    lines.append(
        f"d4 primal, computed, not solved: m = {fp['rows']} rows, Ab {fp['Ab'] / 1e9:.2f} GB + "
        f"amats {fp['amats'] / 1e9:.2f} GB + Schur {fp['schur'] / 1e9:.2f} GB = "
        f"{(fp['Ab'] + fp['amats'] + fp['schur']) / 1e9:.2f} GB"
    )
    return res, res["attempted"], lines, res["per_layer"]


def main(argv=None):
    ap = argparse.ArgumentParser(description="telerobust benchmark (one workload per run)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "telerobust" / "__init__.py").is_file():
        print(f"error: no telerobust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        res, attempted, lines, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    stamp = {
        **source_stamp(), "seed": args.seed, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **res["stamp"],
    }
    print(f"workload {res['workload']}: {res['size']}; closed loop, 1 client; why: {res['why']}")
    print(f"environment {json.dumps(stamp, sort_keys=True)}")
    for line in lines:
        print(line)
    for err in res["errors"]:
        print(f"failed: {err}")
    failed = len(res["errors"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
