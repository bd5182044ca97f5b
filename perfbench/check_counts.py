"""Check that the exact counts of a traced run repeat at the same seed.

    python3 perfbench/check_counts.py [--seed N] [workload ...]

Runs ``run.py --trace 1`` twice per workload (all in BENCHMARK.json by default) with a
one-second window, so each run traces exactly its first operation, and
compares the ``exact_counts`` lines.  Exits 1 if any count differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
PREFIX = "exact_counts (first operation) "


def exact_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    line = next(x for x in out.splitlines() if x.startswith(PREFIX))
    return json.loads(line[len(PREFIX):])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args(argv)
    same = True
    for wl in args.workloads:
        first, second = exact_counts(wl, args.seed), exact_counts(wl, args.seed)
        diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys() if first.get(k) != second.get(k)}
        same = same and not diff
        print(f"{wl} seed {args.seed}: " + ("identical " + json.dumps(first, sort_keys=True) if not diff else f"DIFFER {diff}"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
