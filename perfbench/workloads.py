"""The benchmark's workloads: seeded fixtures, one operation, its output check.

Every workload is Bell measurement on an isotropic state, driven only
through public entry points: the CLI in-process via ``telerobust.cli.main``
and certificate re-verification via ``telerobust.conic.verify_certificate``.
Calls go through module attributes (``cli.main``, not a bound name) so the
traced run's wrappers see them.

A fixture pool is a short list of instrument files at visibilities drawn
stratified over the workload's range; operation ``i`` uses pool entry
``i % len(pool)``, so every prefix of a run covers the range evenly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from telerobust import cli, conic, qobjects, rot, serialize

T_TOL = 1e-6  # certified T against the closed form
RATIO_TOL = 1e-3  # discrimination ratio against 1 + T


def closed_form_t(p, d):
    """T = max(0, d * F_ent - 1) with F_ent = p + (1 - p) / d^2."""
    f_ent = p + (1.0 - p) / d**2
    return max(0.0, d * f_ent - 1.0)


def stratified(rng, lo, hi, count):
    """One draw from each of ``count`` equal strata of [lo, hi], in order."""
    return [lo + (hi - lo) * (j + float(rng.random())) / count for j in range(count)]


def write_instrument(path, p, d):
    instr = qobjects.build_instrument(qobjects.bell_povm(d), qobjects.isotropic_state(p, d))
    serialize.save_experiment(str(path), {"instrument": instr})
    return str(path)


@dataclass
class Fixtures:
    workdir: Path
    d: int
    pool: list  # (p, instrument file)
    rng: np.random.Generator  # per-operation randomness, drawn in order

    def entry(self, i):
        return self.pool[i % len(self.pool)]


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    visibilities: tuple  # (lo, hi, pool size) for the stratified draw
    op: Callable  # op(fixtures, p, instrument file, op seed) -> (exit code, outputs)
    size: str  # the stated input size of one operation
    why: str
    threshold_first: bool = False  # operation 0 runs at the exact threshold p = 1/(d+1)
    per_op_seed: bool = False  # each operation gets its own seed from the workload seed

    def setup(self, workdir, seed):
        rng = np.random.default_rng(seed)
        ps = stratified(rng, *self.visibilities)
        if self.threshold_first:
            ps = [1.0 / (self.d + 1)] + ps
        pool = [(p, write_instrument(workdir / f"instr{k}.json", p, self.d)) for k, p in enumerate(ps)]
        return Fixtures(workdir, self.d, pool, rng)

    def op_args(self, fx, i):
        """What operation ``i`` runs on, drawn before it is timed."""
        p, path = fx.entry(i)
        return p, path, int(fx.rng.integers(2**31)) if self.per_op_seed else None

    def run(self, fx, args):
        """One timed operation. Returns (exit code, outputs to check)."""
        return self.op(fx, *args)

    def check(self, fx, args, rc, out):
        """Output check, run outside the timed interval. Returns an error or None."""
        p = args[0]
        if rc != 0:
            return f"exit code {rc}"
        t = closed_form_t(p, fx.d)
        if "robustness" in out:
            if abs(out["robustness"] - t) > T_TOL:
                return f"T = {out['robustness']!r}, closed form {t!r} at p = {p!r}"
            bad = [route for route, ok in out["verified"].items() if not ok]
            if bad:
                return f"certificates {bad} failed re-verification at p = {p!r}"
        if "ratio" in out and abs(out["ratio"] - (1.0 + t)) > RATIO_TOL:
            return f"ratio {out['ratio']!r}, expected 1 + T = {1.0 + t!r} at p = {p!r}"
        if "violations" in out and out["violations"] != 0:
            return f"{out['violations']} monotone violations at p = {p!r}, seed {args[2]}"
        return None


def _record(path):
    return serialize.record_loads(Path(path).read_text(encoding="utf-8"))


def _certify(fx, p, instrument, _):
    rec = fx.workdir / "rot.json"
    rc = cli.main(["rot", "compute", "--instrument", instrument, "--out", str(rec)])
    if rc != 0:
        return rc, {}
    record = _record(rec)
    instr = serialize.load_experiment(instrument)["instrument"]
    verified = {}
    for route, build in (("primal", rot.rot_primal_problem), ("dual", rot.rot_dual_problem)):
        problem = build(instr)[0]
        solution = serialize.solution_from_payload(record.certificates[route])
        verified[route] = conic.verify_certificate(problem, solution).ok
    return 0, {"robustness": record.values["robustness"], "verified": verified}


def _discriminate(fx, p, instrument, _):
    task = str(fx.workdir / "task.json")
    rc = cli.main(
        ["discrim", "build-from-dual", "--instrument", instrument, "--save", task,
         "--out", str(fx.workdir / "build.json")]
    )
    if rc != 0:
        return rc, {}
    rec = fx.workdir / "ratio.json"
    rc = cli.main(["discrim", "ratio", "--e", task, "--instrument", instrument, "--out", str(rec)])
    if rc != 0:
        return rc, {}
    return 0, {"ratio": _record(rec).values["ratio"]}


def _monotone(fx, p, instrument, op_seed):
    rec = fx.workdir / "check.json"
    rc = cli.main(
        ["sim", "check", "--instrument", instrument, "--classical", "10", "--quantum", "5",
         "--mixtures", "5", "--seed", str(op_seed), "--out", str(rec)]
    )
    if rc != 0:
        return rc, {}
    return 0, {"violations": _record(rec).values["violations"]}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "iso-d2-certify", 2, (0.0, 1.0, 15), _certify,
            "d=2, 144/68 standard-form rows; rot compute + reload + verify both certificates",
            "small SDPs: fixed per-call cost (row expansion, eigendecompositions, CLI, "
            "serialization, nested verify SDP) dominates",
            threshold_first=True,
        ),
        Workload(
            "iso-d3-certify", 3, (0.0, 1.0, 3), _certify,
            "d=3, 1539/738 standard-form rows; rot compute + reload + verify both certificates",
            "dense Schur assembly and Cholesky over 1539 rows dominate",
        ),
        Workload(
            "discrim-padded-d2", 2, (0.4, 1.0, 4), _discriminate,
            "d=2, 10 000 padding branches (~12 MB task file); build-from-dual then ratio",
            "writes and reloads a large experiment file: serialization and padding-branch "
            "validation dominate",
        ),
        Workload(
            "monotone-d2", 2, (0.0, 1.0, 4), _monotone,
            "d=2, sim check with 10 classical / 5 quantum / 5 mixture recipes, per-op seed",
            "many rot() pair solves on 1-5 outcome instruments plus simorder dressing and "
            "game_score relabeling search",
            per_op_seed=True,
        ),
    )
}
