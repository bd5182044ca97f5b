"""Robustness quantifiers for teleportation instruments and states.

The teleportation robustness T of an instrument {J_a} is the least
amount of extra instrument weight that must be mixed in before the
result can be reproduced without entanglement: the primal program finds
operators F_a, each positive under partial transposition, with

    F_a >= J_a  for every outcome,      d_V * sum_a F_a <= 1 (x) tau,

and minimizes tr(tau) - 1.  Its dual searches for outcome-indexed
witnesses A_a >= 0 together with a normalizing operator B (tr_V B = 1)
such that every B - A_a splits as P + Q^{T_B} with P, Q >= 0, and
maximizes d_V * sum_a tr[A_a J_a] - 1.  One solve of the dual gives
both: the optimal cover is read off its multipliers, and the solution is
accepted only once ``verify_certificate`` passes on it.  Separability is
relaxed to the positive partial transpose, exact for d_V * d_B <= 6.

The same machinery evaluates the generalized robustness of entanglement
R_E of a shared state.  Under the PPT relaxation that is the largest
teleportation robustness any measurement extracts from the state, and
the Bell measurement attains it: T(Bell, rho) = R_E(rho).  No
measurement M does better, because rho <= (1 + r) sigma with sigma PPT
makes (1 + r) times the instrument of (M, sigma) a PPT cover of the
instrument of (M, rho).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

from .conic import SdpProblem, SdpSolution, SolverError, smat, solve_checked, svec
from .linalg import hermitize, partial_trace, partial_transpose, tensor
from .qobjects import DensityMatrix, TeleportationInstrument

__all__ = [
    "RotPrimalSolution",
    "RotDualSolution",
    "RotCertificates",
    "rot_primal",
    "rot_dual",
    "rot_certified",
    "rot",
    "rot_many",
    "classical_max",
    "robustness_of_entanglement",
]


@dataclass
class RotPrimalSolution:
    """Minimal classical cover of an instrument.

    ``classical_ops[a]`` are the PSD, PPT operators F_a dominating the
    instrument outcome-wise, ``tau`` the operator bounding their sum via
    d_V * sum_a F_a <= 1 (x) tau, and ``value`` equals tr(tau) - 1: the
    mixing weight separating the instrument from the classical set.
    ``solution`` is the verified solution of ``rot_primal_problem(instr)[0]``;
    rebuild that program to re-check it with ``verify_certificate``.
    """

    value: float
    classical_ops: list
    tau: np.ndarray
    dims: tuple
    solution: object = field(default=None, repr=False)


@dataclass
class RotDualSolution:
    """Witness certificate lower-bounding the teleportation robustness.

    ``witnesses_A[a]`` are PSD operators on V (x) B, ``B_op`` satisfies
    tr_V B = 1, and ``decompositions[a]`` is the PSD pair (P_a, Q_a)
    with B - A_a = P_a + Q_a^{T_B}, which certifies that the witnessed
    score d_V * sum_a tr[A_a F_a] - 1 is <= 0 on every classical
    instrument.  ``value`` is the score on the instrument itself.
    ``solution`` is the verified solution of ``rot_dual_problem(instr)[0]``;
    rebuild that program to re-check it with ``verify_certificate``.
    """

    value: float
    witnesses_A: list
    B_op: np.ndarray
    decompositions: list
    dims: tuple
    solution: object = field(default=None, repr=False)


@dataclass
class RotCertificates:
    """Both robustness certificates, read off one dual solve.

    ``dual`` is the witness certificate, whose value is the lower end of
    the certified interval; ``primal`` is the classical cover assembled
    from the same solve's multipliers, whose value is the upper end.
    ``value`` is the reported robustness: the midpoint of the interval,
    clamped at zero (see :func:`rot`).
    """

    value: float
    primal: RotPrimalSolution
    dual: RotDualSolution

    @property
    def width(self):
        """Length of the certified interval [dual value, primal value]."""
        return abs(self.primal.value - self.dual.value)


def rot_primal_problem(instr: TeleportationInstrument):
    """Conic program behind :func:`rot_primal`.

    Deterministic in the instrument, so a stored solution can be
    re-checked later by rebuilding the program and calling
    ``verify_certificate``.  Returns the problem and the block handles
    of the classical operators and of tau.  The blocks are, in order,
    F_a for every outcome, tau, F_a - J_a for every outcome, and the cap
    1 (x) tau - d_V * sum_a F_a; the rows are the operator equalities
    F_a - (F_a - J_a) = J_a, one per outcome, then the cap's.
    """
    d_v, d_b = instr.dims
    n = d_v * d_b
    js = instr.mats
    prob = SdpProblem()
    fs = [prob.add_block(n, cone="ppt", ppt_dims=(d_v, d_b)) for _ in js]
    tau = prob.add_block(d_b)
    gaps = [prob.add_block(n) for _ in js]  # F_a - J_a
    head = prob.add_block(n)  # 1 (x) tau - d_V * sum_a F_a

    prob.set_objective({tau: np.eye(d_b)}, offset=-1.0, sense="min")
    for f, g, j in zip(fs, gaps, js):
        prob.add_operator_equality([(f, 1.0), (g, -1.0)], j)
    terms = [(tau, lambda t: tensor(np.eye(d_v), t))]
    terms += [(f, -float(d_v)) for f in fs]
    terms.append((head, -1.0))
    prob.add_operator_equality(terms, np.zeros((n, n)))
    return prob, fs, tau


def rot_primal(instr: TeleportationInstrument, tol=1e-8) -> RotPrimalSolution:
    """Teleportation robustness by direct minimization.

    Solves min tr(tau) - 1 over PPT operators F_a >= J_a with
    d_V * sum_a F_a <= 1 (x) tau.  The solution is verified against every
    constraint before the value is trusted.  Public because it is the
    independent cross-check of the cover that :func:`rot_certified` reads
    off the dual's multipliers, and ``perfbench/spans.py`` times it.
    """
    prob, fs, tau = rot_primal_problem(instr)
    sol = solve_checked(prob, tol=tol, what="teleportation robustness primal")
    f_ops = [hermitize(sol.primal_blocks[f]) for f in fs]
    tau_op = hermitize(sol.primal_blocks[tau])
    value = float(np.trace(tau_op).real) - 1.0
    return RotPrimalSolution(value, f_ops, tau_op, instr.dims, solution=sol)


def rot_dual_problem(instr: TeleportationInstrument):
    """Conic program behind :func:`rot_dual`.

    Deterministic in the instrument (see :func:`rot_primal_problem`).
    Returns the problem and the block handles of the witnesses, the
    normalizer, and the decomposition pairs.
    """
    d_v, d_b = instr.dims
    n = d_v * d_b
    js = instr.mats
    prob = SdpProblem()
    a_blocks = [prob.add_block(n) for _ in js]
    b_block = prob.add_block(n)
    p_blocks = [prob.add_block(n) for _ in js]
    q_blocks = [prob.add_block(n) for _ in js]

    prob.set_objective(
        {a: float(d_v) * j for a, j in zip(a_blocks, js)}, offset=-1.0, sense="max"
    )

    def pt_neg(q):
        return -partial_transpose(q, (d_v, d_b), 1)

    for a, p, q in zip(a_blocks, p_blocks, q_blocks):
        prob.add_operator_equality(
            [(b_block, 1.0), (a, -1.0), (p, -1.0), (q, pt_neg)], np.zeros((n, n))
        )
    prob.add_operator_equality(
        [(b_block, lambda m: partial_trace(m, (d_v, d_b), keep=(1,)))], np.eye(d_b)
    )
    return prob, a_blocks, b_block, p_blocks, q_blocks


def rot_dual(instr: TeleportationInstrument, tol=1e-8) -> RotDualSolution:
    """Teleportation robustness by witness maximization.

    Solves max d_V * sum_a tr[A_a J_a] - 1 over PSD witnesses A_a and a
    PSD B with tr_V B = 1 such that each B - A_a decomposes as
    P_a + Q_a^{T_B}.  The solution is verified against every constraint,
    and the decompositions are returned so the certificate can be
    re-verified without touching the solver.
    """
    d_v = instr.dims[0]
    js = instr.mats
    prob, a_blocks, b_block, p_blocks, q_blocks = rot_dual_problem(instr)

    sol = solve_checked(prob, tol=tol, what="teleportation robustness dual")
    a_ops = [hermitize(sol.primal_blocks[a]) for a in a_blocks]
    b_op = hermitize(sol.primal_blocks[b_block])
    pairs = [
        (hermitize(sol.primal_blocks[p]), hermitize(sol.primal_blocks[q]))
        for p, q in zip(p_blocks, q_blocks)
    ]
    value = d_v * float(sum(np.vdot(a, j).real for a, j in zip(a_ops, js))) - 1.0

    return RotDualSolution(value, a_ops, b_op, pairs, instr.dims, solution=sol)


def _primal_from_dual(instr, dual: RotDualSolution):
    """The optimal classical cover encoded in the multipliers of a dual solve.

    The dual program's multipliers, stated for its minimization form,
    are y_a for the a-th decomposition equality and y_tau for
    tr_V B = 1.  With F_a = smat(y_a)/d_V and tau = -smat(y_tau), its dual
    slacks are d_V (F_a - J_a), the cap 1 (x) tau - d_V * sum_a F_a,
    d_V F_a and (d_V F_a)^{T_B}, and its dual value is tr(tau) - 1.  The
    verified dual solution has passed all of these, so the cover is
    assembled by arithmetic only.  In turn the witnesses are the primal
    program's multipliers: svec(d_V A_a) for the a-th domination row and
    svec(B) for the cap, and the dual slack d_V (B - A_a) of F_a (PPT
    block a) splits as d_V P_a + (d_V Q_a)^{T_B}.
    """
    d_v, d_b = instr.dims
    n = d_v * d_b
    js = instr.mats
    y = dual.solution.dual_multipliers
    f_ops = [smat(y[a * n * n : (a + 1) * n * n], n) / d_v for a in range(len(js))]
    tau_op = -smat(y[len(js) * n * n :], d_b)
    gaps = [f - j for f, j in zip(f_ops, js)]
    cap = tensor(np.eye(d_v), tau_op) - d_v * sum(f_ops)
    value = float(np.trace(tau_op).real) - 1.0
    sol = SdpSolution(
        status="optimal",
        primal_blocks=f_ops + [tau_op] + gaps + [cap],
        dual_multipliers=np.concatenate([svec(d_v * a) for a in dual.witnesses_A] + [svec(dual.B_op)]),
        ppt_pairs={a: (d_v * p, d_v * q) for a, (p, q) in enumerate(dual.decompositions)},
        primal_value=value,
        dual_value=dual.value,
        gap=abs(value - dual.value) / (1.0 + abs(value) + abs(dual.value)),
        iterations=dual.solution.iterations,
        message="assembled from the multipliers of the dual solve",
    )
    return RotPrimalSolution(value, f_ops, tau_op, instr.dims, solution=sol)


def rot_certified(instr: TeleportationInstrument, tol=1e-8) -> RotCertificates:
    """Teleportation robustness with both certificates, from one solve.

    Solves the witness program (:func:`rot_dual`), whose verified
    solution already certifies every constraint of the cover, and reads
    the optimal classical cover off its multipliers.  The two values
    bound the robustness from below and above; an interval wider than
    10 * tol is an error rather than a silently wrong number.
    """
    dual = rot_dual(instr, tol=tol)
    primal = _primal_from_dual(instr, dual)
    width = abs(primal.value - dual.value)
    if width > 10.0 * tol:
        raise SolverError(
            f"robustness bounds disagree: primal {primal.value:.12g} vs dual "
            f"{dual.value:.12g} (|gap| = {width:.3e} > {10.0 * tol:.3e})"
        )
    return RotCertificates(max(0.0, 0.5 * (primal.value + dual.value)), primal, dual)


def rot(instr: TeleportationInstrument, tol=1e-8) -> float:
    """Certified teleportation robustness.

    Returns the midpoint of the interval [dual value, primal value]
    certified by :func:`rot_certified`, clamped at zero: T >= 0 for every
    instrument, so a negative midpoint (a few 1e-9 at the entanglement
    threshold) is rounding and is reported as 0.
    """
    return rot_certified(instr, tol=tol).value


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def rot_many(instrs, tol=1e-8) -> list[float]:
    """``[rot(i, tol) for i in instrs]``, bit for bit, with the solves in parallel.

    The solves are independent, so they are mapped over a pool of
    ``min(usable CPUs, len(instrs))`` forked workers, one instrument per
    task.  The pool is shut down before the call returns or raises, and
    a failed solve raises its error (a ``SolverError``, say) here.  With
    one worker, or where ``fork`` is not available, the solves run in
    this process.  Usable CPUs are the ones this process may run on
    (``os.sched_getaffinity``), else ``os.cpu_count()``.

    ``fork`` rather than ``spawn``: a spawned worker imports numpy and
    this package afresh (about 0.2 s, and 0.25 s more for scipy on a
    program above ``conic._NUMPY_ROWS``), longer than a d = 2 solve takes
    (about 20 ms).  The workers inherit this process's state, the BLAS thread
    setting included, so each of N workers runs as many BLAS threads as
    this process would.
    """
    instrs = list(instrs)
    workers = min(_usable_cpus(), len(instrs))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [rot(i, tol=tol) for i in instrs]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(functools.partial(rot, tol=tol), instrs, chunksize=1)


def classical_max(payoffs, dims, tol=1e-9, what="classical benchmark"):
    """(value, [F_x]) of max sum_x <C_x, F_x> over the PPT-relaxed classical family.

    The F_x are PPT operators on V (x) B with sum_x F_x = (1/d_V) 1 (x) tau
    for a state tau.  A payoff C_x given as None adds no objective term.
    """
    d_v, d_b = dims
    n = d_v * d_b
    prob = SdpProblem()
    blocks = [prob.add_block(n, cone="ppt", ppt_dims=(d_v, d_b)) for _ in payoffs]
    tau = prob.add_block(d_b)
    prob.set_objective({b: c for b, c in zip(blocks, payoffs) if c is not None}, sense="max")
    terms = [(b, 1.0) for b in blocks]
    terms.append((tau, lambda t: (-1.0 / d_v) * tensor(np.eye(d_v), t)))
    prob.add_operator_equality(terms, np.zeros((n, n)))
    prob.add_constraint({tau: np.eye(d_b)}, "=", 1.0)
    sol = solve_checked(prob, tol=tol, what=what)
    return float(sol.primal_value), [hermitize(sol.primal_blocks[b]) for b in blocks]


def robustness_of_entanglement(rho: DensityMatrix, tol=1e-8) -> float:
    """Generalized robustness of entanglement, min{r >= 0 : rho <= (1+r) sigma}.

    The separable set is relaxed to states with positive partial
    transpose (exact for total dimension <= 6), making the quantity the
    value of min tr(sigma_tilde) - 1 over PPT sigma_tilde >= rho.
    """
    if len(rho.dims) != 2:
        raise ValueError("robustness of entanglement needs a bipartite state")
    d1, d2 = rho.dims
    n = d1 * d2
    prob = SdpProblem()
    sig = prob.add_block(n, cone="ppt", ppt_dims=(d1, d2))
    slack = prob.add_block(n)
    prob.set_objective({sig: np.eye(n)}, offset=-1.0, sense="min")
    prob.add_operator_equality([(sig, 1.0), (slack, -1.0)], rho.matrix)
    sol = solve_checked(prob, tol=tol, what="entanglement robustness")
    return float(sol.primal_value)
