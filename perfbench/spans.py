"""Spans around the public functions of each telerobust module.

The wrappers live here, in the benchmark; nothing inside ``telerobust``
changes.  ``Tracer.install`` rebinds every name under which a telerobust
module holds a wrapped function (``from .conic import solve_checked``
copies the binding, so each copy is replaced), and ``uninstall`` restores
them.  ``linalg`` is not wrapped: its calls are too small and frequent to
time from outside without distorting the run.

Spans are kept in memory.  Anything a metric needs beyond start and end
(a problem's shapes, a file's size) is captured as a reference or a cheap
scalar and evaluated only after the run, outside every timed interval.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from telerobust import cli, conic, discrim, games, qobjects, rot, serialize, simorder

# (owner, attribute, span name). A class owner patches the method on the class.
TARGETS = [
    (cli, "main", "cli.main"),
    (conic, "solve", "conic.solve"),
    (conic, "solve_checked", "conic.solve_checked"),
    (conic, "verify_certificate", "conic.verify_certificate"),
    (conic.SdpProblem, "add_operator_equality", "conic.add_operator_equality"),
    (conic.SdpProblem, "add_constraint", "conic.add_constraint"),
    (rot, "rot", "rot.rot"),
    (rot, "rot_primal", "rot.rot_primal"),
    (rot, "rot_dual", "rot.rot_dual"),
    (rot, "rot_primal_problem", "rot.rot_primal_problem"),
    (rot, "rot_dual_problem", "rot.rot_dual_problem"),
    (serialize, "load_experiment", "serialize.load_experiment"),
    (serialize, "save_experiment", "serialize.save_experiment"),
    (serialize, "file_digest", "serialize.file_digest"),
    (serialize, "record_dumps", "serialize.record_dumps"),
    (serialize, "record_loads", "serialize.record_loads"),
    (serialize, "certificate_payload", "serialize.certificate_payload"),
    (serialize, "solution_from_payload", "serialize.solution_from_payload"),
    (discrim, "build_discrimination_from_dual", "discrim.build_discrimination_from_dual"),
    (discrim, "p_succ", "discrim.p_succ"),
    (discrim, "classical_p_succ_ensemble", "discrim.classical_p_succ_ensemble"),
    (simorder, "check_monotones", "simorder.check_monotones"),
    (simorder, "apply_classical_sim", "simorder.apply_classical_sim"),
    (simorder, "apply_quantum_sim", "simorder.apply_quantum_sim"),
    (games, "game_score", "games.game_score"),
    (games, "build_game_from_dual", "games.build_game_from_dual"),
    (games.CorrelationGame, "__init__", "games.CorrelationGame"),
    (qobjects, "build_instrument", "qobjects.build_instrument"),
]


# What each span keeps for the metrics, taken right after the call returns.
_CAPTURE = {
    "conic.solve": lambda a, k, out: (a[0] if a else k["problem"], out.iterations, out.status),
    "serialize.load_experiment": lambda a, k, out: os.path.getsize(a[0]),
    "serialize.file_digest": lambda a, k, out: os.path.getsize(a[0]),
    "serialize.save_experiment": lambda a, k, out: os.path.getsize(a[0]),
    "discrim.build_discrimination_from_dual": lambda a, k, out: out[0],
}


@dataclass
class Span:
    name: str
    parent: "Span | None"
    op: int
    start: float = 0.0
    end: float = 0.0
    info: object = None
    child_time: float = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    saved: list = field(default_factory=list)
    op: int = -1

    def _wrap(self, name, fn):
        capture = _CAPTURE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.stack[-1] if self.stack else None, self.op)
            self.stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
                if span.parent is not None:
                    span.parent.child_time += span.duration
            if capture is not None:
                span.info = capture(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "telerobust" or n.startswith("telerobust.")]
        for owner, attr, name in TARGETS:
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            if isinstance(owner, type):
                self.saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self.saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()

    def run_op(self, op_index, fn, *args):
        """Run ``fn`` traced, under a root span for the whole operation."""
        self.op = op_index
        root = Span("bench.op", None, op_index)
        self.stack.append(root)
        self.install()
        root.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            root.end = time.perf_counter()
            self.uninstall()
            self.stack.pop()
            self.spans.append(root)


def standard_shape(problem):
    """Rows m and block sizes of the standard form ``conic.solve`` compiles.

    Mirrors ``conic._Standard`` from the declared problem: one 1x1 slack
    block per inequality row, one companion block and n^2 tie rows per
    PPT-tagged block.
    """
    sizes = [blk.size for blk in problem.blocks]
    sizes += [1 for _, sense, _ in problem.constraints if sense != "="]
    ppt = [blk.size for blk in problem.blocks if blk.cone == "ppt"]
    sizes += ppt
    m = len(problem.constraints) + sum(n * n for n in ppt)
    return m, sizes


def dense_bytes(m, sizes):
    """Computed dense footprint: float64 ``Ab`` + complex ``amats`` + Schur matrix."""
    cols = sum(n * n for n in sizes)
    return {"Ab": 8 * m * cols, "amats": 16 * m * cols, "schur": 8 * m * m}


def schur_flops_per_iteration(m, sizes):
    """Computed flops of one Schur assembly and its Cholesky factorization.

    Per block: W A_r W for every row (two complex n x n products, 8 n^3
    real flops each) and the (m x n^2) @ (n^2 x m) product; then m^3 / 3.
    """
    per_block = sum(16 * m * n**3 + 2 * m * m * n * n for n in sizes)
    return per_block + m**3 // 3


TIME_METRICS = {
    # metric: (span names, "self" or "inclusive")
    "conic.solve_s": (("conic.solve",), "self"),
    "conic.verify_s": (("conic.verify_certificate",), "inclusive"),
    "conic.problem_build_s": (("conic.add_operator_equality", "conic.add_constraint"), "inclusive"),
    "rot.problem_build_s": (("rot.rot_primal_problem", "rot.rot_dual_problem"), "self"),
    "rot.primal_s": (("rot.rot_primal",), "self"),
    "rot.dual_s": (("rot.rot_dual",), "self"),
    "serialize.load_s": (("serialize.load_experiment",), "self"),
    "serialize.save_s": (("serialize.save_experiment",), "self"),
    "serialize.record_s": (
        ("serialize.record_dumps", "serialize.record_loads", "serialize.certificate_payload",
         "serialize.solution_from_payload"),
        "self",
    ),
    "discrim.build_s": (("discrim.build_discrimination_from_dual",), "self"),
    "discrim.p_succ_s": (("discrim.p_succ",), "self"),
    "discrim.classical_s": (("discrim.classical_p_succ_ensemble",), "self"),
    "simorder.check_s": (("simorder.check_monotones",), "self"),
    "simorder.apply_s": (("simorder.apply_classical_sim", "simorder.apply_quantum_sim"), "self"),
    "games.score_s": (("games.game_score",), "self"),
    "games.build_s": (("games.build_game_from_dual", "games.CorrelationGame"), "self"),
    "qobjects.build_instrument_s": (("qobjects.build_instrument",), "self"),
    "cli.self_s": (("cli.main",), "self"),
}


def _outermost(span, names):
    """True unless an ancestor of ``span`` is also one of ``names``."""
    up = span.parent
    while up is not None:
        if up.name in names:
            return False
        up = up.parent
    return True


def op_times(spans):
    """Per-layer seconds spent in one operation's spans."""
    out = {}
    for metric, (names, kind) in TIME_METRICS.items():
        total = 0.0
        for s in spans:
            if s.name in names:
                if kind == "self":
                    total += s.self_time
                elif _outermost(s, names):
                    total += s.duration
        out[metric] = total
    return out


def _nonoptimal(solve_span):
    """A solve that raised (no captured result) or ended short of optimal."""
    return solve_span.info is None or solve_span.info[2] != "optimal"


def op_counts(spans):
    """Exact counts of one operation, from captured shapes and sizes."""
    solves = [s for s in spans if s.name == "conic.solve"]
    shapes = [(standard_shape(s.info[0]), s.info[1]) for s in solves if s.info is not None]
    builds = [s.info for s in spans if s.name == "discrim.build_discrimination_from_dual" and s.info]
    branches = sum(e.outcomes for e in builds)
    unique = sum(len({m.tobytes() for m in e.mats}) for e in builds)

    def total(*names):
        return int(sum(s.info or 0 for s in spans if s.name in names))

    return {
        "conic.solve_calls": len(solves),
        "conic.iterations": int(sum(it for _, it in shapes)),
        "conic.rows_max": max((m for (m, _), _ in shapes), default=0),
        "conic.schur_flops_computed": int(sum(it * schur_flops_per_iteration(m, sz) for (m, sz), it in shapes)),
        "conic.dense_bytes_computed": max((sum(dense_bytes(m, sz).values()) for (m, sz), _ in shapes), default=0),
        "conic.verify_nested_solves": sum(
            1 for s in solves if s.parent is not None and s.parent.name == "conic.verify_certificate"
        ),
        "conic.nonoptimal_solves": sum(1 for s in solves if _nonoptimal(s)),
        # experiment files only: a result record's length varies with the digits of its wall_time
        "serialize.bytes_read": total("serialize.load_experiment", "serialize.file_digest"),
        "serialize.bytes_written": total("serialize.save_experiment"),
        "discrim.branches": branches,
        "discrim.unique_branch_ratio": unique / branches if branches else 0.0,
    }


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "bytes"
    if metric.endswith("flops_computed"):
        return "flop"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def per_layer(tracer, traced_s, untraced_s):
    """Per-layer metrics of a traced run.

    Times are means over the traced operations.  Counts are exact values
    of the first operation, which every run completes, so they repeat
    across runs at one seed; ``conic.nonoptimal_solves`` is the total over
    all traced operations.
    """
    by_op = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    ops = sorted(by_op)
    times = [op_times(by_op[i]) for i in ops]
    metrics = {k: float(np.mean([t[k] for t in times])) for k in TIME_METRICS}
    counts = op_counts(by_op[ops[0]])
    counts["conic.nonoptimal_solves"] = sum(
        1 for s in tracer.spans if s.name == "conic.solve" and _nonoptimal(s)
    )
    metrics.update(counts)
    roots = [s for s in tracer.spans if s.name == "bench.op"]
    metrics["trace.traced_op_s"] = float(np.mean(traced_s))
    metrics["trace.untraced_op_s"] = float(np.mean(untraced_s))
    metrics["trace.overhead_ratio"] = float(sum(traced_s) / sum(untraced_s))
    metrics["trace.unaccounted_share"] = float(
        sum(r.self_time for r in roots) / sum(r.duration for r in roots)
    )
    return metrics, counts
