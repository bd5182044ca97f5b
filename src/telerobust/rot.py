"""Robustness quantifiers for teleportation instruments and states.

The teleportation robustness T of an instrument {J_a} is the least
amount of extra instrument weight that must be mixed in before the
result can be reproduced without entanglement: the primal program finds
operators F_a, each positive under partial transposition, with

    F_a >= J_a  for every outcome,      d_V * sum_a F_a <= 1 (x) tau,

and minimizes tr(tau) - 1.  Its dual searches for outcome-indexed
witnesses A_a >= 0 together with a normalizing operator B (tr_V B = 1)
such that every B - A_a equals Q_a^{T_B} with Q_a >= 0, and maximizes
d_V * sum_a tr[A_a J_a] - 1.  The textbook dual allows B - A_a =
P_a + Q_a^{T_B} with a further P_a >= 0; that freedom is never needed,
since (A_a + P_a, 0, Q_a) is feasible whenever (A_a, P_a, Q_a) is and
scores tr[P_a J_a] >= 0 more.  On the primal side the cone dropped with
P_a is F_a >= 0, which F_a - J_a >= 0 and J_a >= 0 already imply.  So
the program has 2k + 1 blocks for k outcomes.  One solve of the dual gives
both: the optimal cover is read off its multipliers, and the solution is
accepted only once ``verify_certificate`` passes on it.  Separability is
relaxed to the positive partial transpose, exact for d_V * d_B <= 6.

Under that relaxation T = 0 exactly when every J_a^{T_B} >= 0 (the
Peres-Horodecki test, one outcome at a time), and then both certificates
have a closed form: the instrument covers itself, F_a = J_a and
tau = tr_V sum_a J_a, and the witness A_a = B = 1/d_V with Q_a = 0 scores
sum_a tr J_a - 1 = 0.  So :func:`rot_dual` tests every J_a^{T_B} with one
batched ``eigvalsh`` before it solves.  If all pass, it writes that
solution down, multipliers svec(d_V J_a) and -svec(tau) included, and
accepts it only if ``verify_certificate`` passes on the dual program at
max(50 * tol, 1e-9), the test ``solve_checked`` applies to a solve; on
any miss it tries the next route.  Every caller of :func:`rot_dual`
(``rot_certified``, ``rot``, the forked workers of ``rot_many`` and the
commands above them) takes the routes in this order, and the cover is
read off the multipliers as after a solve.  For Bell
measurement on an isotropic state at p = 0.1, ``rot_certified`` took
1.3-1.4 ms in closed form against 12 ms with a solve at d = 2, 6-7 ms
against 70 ms at d = 3 and 57-60 ms against 1.07 s at d = 4 (one BLAS
thread, a 2-vCPU Xeon); checking the certificate is most of that time.

Bell measurement on any shared state is Weyl-covariant:
J_a = (W_a (x) 1) J_0 (W_a (x) 1)^dag, with W_a running over the d_V^2
Weyl operators on V.  The program is invariant under that group with the
outcomes relabelled, so an optimum averaged over it is optimal too
(Gatermann & Parrilo, J. Pure Appl. Algebra 192 (2004)).  So next,
:func:`rot_dual` matches every J_a to a distinct Weyl conjugate of J_0,
within tol * (1 + ||J_0||_F).  If all match, it solves the two-block
program of J_0 alone (16, 81 and 256 rows at d = 2, 3 and 4), lifts the
solution to every outcome, and keeps it only once ``verify_certificate``
passes on the full program at the same threshold.  On any miss (no
match, a reduced solve that is not optimal, or a refused lift) it
solves the full program.  ``RotDualSolution.route`` names the route
taken: "ppt", "covariant" or "solve".  For Bell measurement on an
isotropic state at p = 0.7, ``rot_certified`` took 6-7 ms on the
covariant route against 9.5-10 ms with the full solve at d = 2,
16-17 ms against 53-58 ms at d = 3 and 0.095-0.10 s against 0.98-1.03 s
at d = 4 (the full solve timed on the same instrument turned on V by a
random unitary, which no Weyl operator matches; one BLAS thread, a
2-vCPU Xeon).

The classical benchmark of a task compiled from such an instrument's
dual (:func:`classical_max`) has the same symmetry: its payoffs are one
Weyl orbit C_x = U_x C_0 U_x^dag and V-invariant payoffs 1 (x) M_f (the
padding).  Averaged over the group, its value is the larger of
max <C_0, sigma> over PPT states sigma, one PPT block and one trace row
(17 rows at d = 2, 82 at d = 3), and the largest eigenvalue of any M_f.
:func:`classical_max` matches the payoffs with the same matcher, lifts
that solution to every payoff and keeps it only once
``verify_certificate`` passes on the full program; otherwise it solves
the full program (one PPT block per payoff, 97 rows for a 4-outcome
task at d = 2).  For Bell measurement on an isotropic state at
p = 0.5-1, ``discrim.advantage_ratio`` took 6-7 ms against 20-30 ms with
the full solve at d = 2 and 13-14 ms against 0.22-0.31 s at d = 3,
where the full program also imports scipy (one BLAS thread, a 2-vCPU
Xeon).

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

from .conic import SdpProblem, SdpSolution, SolverError, smat, solve_checked, svec, verify_certificate
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
    "corrected_classical_bound",
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
    instrument.  The program solves for Q_a alone, so P_a is an exact
    zero matrix (see the module docstring); the pair keeps the general
    form of the certificate.  ``value`` is the score on the instrument
    itself.
    ``solution`` is the verified solution of ``rot_dual_problem(instr)[0]``;
    rebuild that program to re-check it with ``verify_certificate``.
    ``route`` names how :func:`rot_dual` made it: "ppt" (the closed form
    of an outcome-wise PPT instrument), "covariant" (lifted from the
    one-outcome program of a Weyl-covariant instrument) or "solve".
    """

    value: float
    witnesses_A: list
    B_op: np.ndarray
    decompositions: list
    dims: tuple
    solution: object = field(default=None, repr=False)
    route: str = "solve"


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
    def route(self):
        """How the dual was made: "ppt", "covariant" or "solve" (see :class:`RotDualSolution`)."""
        return self.dual.route

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
    normalizer and the Q_a.  The blocks are, in order, A_a for every
    outcome, B, and Q_a for every outcome: 2k + 1 in all.  The rows are
    the operator equalities B - A_a - Q_a^{T_B} = 0, one per outcome,
    then tr_V B = 1.
    """
    d_v, d_b = instr.dims
    n = d_v * d_b
    js = instr.mats
    prob = SdpProblem()
    a_blocks = [prob.add_block(n) for _ in js]
    b_block = prob.add_block(n)
    q_blocks = [prob.add_block(n) for _ in js]

    prob.set_objective(
        {a: float(d_v) * j for a, j in zip(a_blocks, js)}, offset=-1.0, sense="max"
    )

    def pt_neg(q):
        return -partial_transpose(q, (d_v, d_b), 1)

    for a, q in zip(a_blocks, q_blocks):
        prob.add_operator_equality([(b_block, 1.0), (a, -1.0), (q, pt_neg)], np.zeros((n, n)))
    prob.add_operator_equality(
        [(b_block, lambda m: partial_trace(m, (d_v, d_b), keep=(1,)))], np.eye(d_b)
    )
    return prob, a_blocks, b_block, q_blocks


def _ppt_dual(instr, prob, tol):
    """The closed-form solution of ``rot_dual_problem(instr)``, or None.

    None unless every J_a^{T_B} >= 0 and the solution passes
    ``verify_certificate`` at max(50 * tol, 1e-9), the threshold
    ``solve_checked`` applies.  The witnesses are A_a = B = 1/d_V with
    Q_a = 0, the multipliers are those of the cover F_a = J_a,
    tau = tr_V sum_a J_a, and both values are sum_a tr J_a - 1.
    """
    d_v, d_b = instr.dims
    n = d_v * d_b
    js = instr.mats
    if np.linalg.eigvalsh(partial_transpose(np.stack(js), instr.dims, 1))[:, 0].min() < -tol:
        return None
    tau = partial_trace(sum(js), (d_v, d_b), keep=(1,))
    value = float(sum(np.trace(j).real for j in js)) - 1.0
    blocks = [np.eye(n, dtype=complex) / d_v for _ in range(len(js) + 1)]
    blocks += [np.zeros((n, n), dtype=complex) for _ in js]
    sol = SdpSolution(
        status="optimal",
        primal_blocks=blocks,
        dual_multipliers=np.concatenate([svec(d_v * j) for j in js] + [-svec(tau)]),
        primal_value=value,
        dual_value=value,
        gap=0.0,
        iterations=0,
        message="closed form for an outcome-wise PPT instrument, without a solve",
    )
    return _kept(prob, sol, tol)


def _kept(prob, sol, tol):
    """``sol`` if it passes ``verify_certificate`` on ``prob`` at max(50 * tol, 1e-9), else None."""
    report = verify_certificate(prob, sol, tol=max(50.0 * tol, 1e-9))
    sol.max_constraint_violation = report.max_violation
    return sol if report.ok else None


def _weyl_conjugators(mats, dims, tol):
    """The U_a = W_a (x) 1 with M_a = U_a M_0 U_a^dag, one distinct Weyl W_a per operator, or None.

    ``mats`` is a stack of operators on V (x) B, with ``dims`` = (d_V, d_B).
    None unless there are d_V^2 of them.  Operator a takes the first Weyl
    operator of ``weyl_family(d_V)`` not yet taken whose conjugate of M_0
    lies within tol * (1 + ||M_0||_F) of M_a in Frobenius norm.  The
    operators mapping M_0 to M_a form a coset of those fixing M_0, so this
    finds a one-to-one assignment whenever there is one.
    """
    from .qobjects import weyl_family

    d_v, d_b = dims
    if len(mats) != d_v * d_v:
        return None
    us = np.stack([np.kron(w, np.eye(d_b)) for w in weyl_family(d_v)])
    orbit = us @ mats[0] @ us.conj().transpose(0, 2, 1)
    bound = tol * (1.0 + float(np.linalg.norm(mats[0])))
    free = list(range(len(us)))
    taken = []
    for m in mats:
        misses = np.linalg.norm(orbit[free] - m, axis=(1, 2))
        near = np.flatnonzero(misses <= bound)
        if not len(near):
            return None
        taken.append(free.pop(near[0]))
    return us[taken]


def _covariant_dual(instr, prob, tol):
    """The solution of ``rot_dual_problem(instr)`` lifted from one outcome, or None.

    For a Weyl-covariant instrument (see :func:`_weyl_conjugators`) the
    program is invariant under J_a -> U_g J_a U_g^dag with the outcomes
    relabelled, so an optimum averaged over that group is optimal too:
    A_a = U_a A U_a^dag, Q_a = U_a Q U_a^dag and B = 1/d_V, where A and Q
    solve max d_V * k * tr[A J_0] - 1 over A, Q >= 0 with
    A + Q^{T_B} = 1/d_V, two blocks of size d_V * d_B.  That program's
    multipliers y give the cover F_0 = -smat(y) / (d_V * k) >= J_0, lifted
    the same way to F_a = U_a F_0 U_a^dag with tau = tr_V sum_a F_a.  None
    unless the instrument is covariant, the reduced solve ends "optimal"
    and the lifted solution passes ``verify_certificate`` on ``prob``.
    """
    from .conic import solve  # looked up per call, as ``solve_checked`` does

    us = _weyl_conjugators(np.stack(instr.mats), instr.dims, tol)
    if us is None:
        return None
    d_v, d_b = instr.dims
    n = d_v * d_b
    js = instr.mats
    k = len(js)
    reduced = SdpProblem()
    a, q = reduced.add_block(n), reduced.add_block(n)
    reduced.set_objective({a: float(d_v * k) * js[0]}, offset=-1.0, sense="max")
    reduced.add_operator_equality(
        [(a, 1.0), (q, lambda m: partial_transpose(m, (d_v, d_b), 1))], np.eye(n) / d_v
    )
    red = solve(reduced, tol=tol)
    if red.status != "optimal":
        return None

    def lift(m):
        return list(us @ hermitize(m) @ us.conj().transpose(0, 2, 1))

    a_ops = lift(red.primal_blocks[a])
    f_ops = lift(-smat(red.dual_multipliers, n) / (d_v * k))
    tau = partial_trace(sum(f_ops), (d_v, d_b), keep=(1,))
    primal = d_v * float(sum(np.vdot(x, j).real for x, j in zip(a_ops, js))) - 1.0
    dual = float(np.trace(tau).real) - 1.0
    sol = SdpSolution(
        status="optimal",
        primal_blocks=a_ops + [np.eye(n, dtype=complex) / d_v] + lift(red.primal_blocks[q]),
        dual_multipliers=np.concatenate([svec(d_v * f) for f in f_ops] + [-svec(tau)]),
        primal_value=primal,
        dual_value=dual,
        gap=abs(primal - dual) / (1.0 + abs(primal) + abs(dual)),
        iterations=red.iterations,
        message="lifted from the one-outcome program of a Weyl-covariant instrument",
    )
    return _kept(prob, sol, tol)


def rot_dual(instr: TeleportationInstrument, tol=1e-8) -> RotDualSolution:
    """Teleportation robustness by witness maximization.

    Solves max d_V * sum_a tr[A_a J_a] - 1 over PSD witnesses A_a and a
    PSD B with tr_V B = 1 such that each B - A_a equals Q_a^{T_B} with
    Q_a PSD.  The solution is verified against every constraint, and the
    decompositions (0, Q_a) are returned so the certificate can be
    re-verified without touching the solver.

    When every J_a^{T_B} >= 0 (to within ``tol``), the solution is the
    closed form A_a = B = 1/d_V, Q_a = 0 with multipliers svec(d_V J_a)
    and -svec(tr_V sum_a J_a), of value sum_a tr J_a - 1 = 0, with zero
    iterations and a ``message`` naming the route.  Otherwise, for a
    Weyl-covariant instrument, the solution is lifted from the two-block
    program of one outcome (see the module docstring).  Either is used
    only if it passes ``verify_certificate`` at max(50 * tol, 1e-9);
    otherwise the program is solved.  ``route`` on the result says which
    of the three made it.
    """
    d_v = instr.dims[0]
    js = instr.mats
    prob, a_blocks, b_block, q_blocks = rot_dual_problem(instr)

    route, sol = "ppt", _ppt_dual(instr, prob, tol)
    if sol is None:
        route, sol = "covariant", _covariant_dual(instr, prob, tol)
    if sol is None:
        route, sol = "solve", solve_checked(prob, tol=tol, what="teleportation robustness dual")
    a_ops = [hermitize(sol.primal_blocks[a]) for a in a_blocks]
    b_op = hermitize(sol.primal_blocks[b_block])
    pairs = [(np.zeros_like(b_op), hermitize(sol.primal_blocks[q])) for q in q_blocks]
    value = d_v * float(sum(np.vdot(a, j).real for a, j in zip(a_ops, js))) - 1.0

    return RotDualSolution(value, a_ops, b_op, pairs, instr.dims, solution=sol, route=route)


def _primal_from_dual(instr, dual: RotDualSolution):
    """The optimal classical cover encoded in the multipliers of a dual solve.

    The dual program's multipliers, stated for its minimization form,
    are y_a for the a-th decomposition equality and y_tau for
    tr_V B = 1.  With F_a = smat(y_a)/d_V and tau = -smat(y_tau), its dual
    slacks are d_V (F_a - J_a), the cap 1 (x) tau - d_V * sum_a F_a and
    (d_V F_a)^{T_B}, and its dual value is tr(tau) - 1.  The verified
    dual solution has passed all of these, so the cover is assembled by
    arithmetic only; F_a >= 0 follows from F_a - J_a >= 0 and J_a >= 0.
    In turn the witnesses are the primal program's multipliers:
    svec(d_V A_a) for the a-th domination row and svec(B) for the cap,
    and the dual slack d_V (B - A_a) of F_a (PPT block a) splits as
    0 + (d_V Q_a)^{T_B}.
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
        ppt_pairs={a: (p, d_v * q) for a, (p, q) in enumerate(dual.decompositions)},
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
    the optimal classical cover off its multipliers.  The witness program
    has no block whose dual slack is F_a, because F_a >= 0 follows from
    the checked F_a - J_a >= 0 and from J_a >= 0.  The two values
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
    this package afresh (about 0.2 s, and 0.17-0.25 s more for scipy on a
    program above ``conic._NUMPY_ROWS`` = 128 rows), longer than a d = 2
    solve takes (about 20 ms).  The workers inherit this process's state,
    the BLAS thread setting included, so each of N workers runs as many
    BLAS threads as this process would.
    """
    instrs = list(instrs)
    workers = min(_usable_cpus(), len(instrs))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [rot(i, tol=tol) for i in instrs]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(functools.partial(rot, tol=tol), instrs, chunksize=1)


def _payoff_program(payoffs, dims):
    """PPT blocks F_x on V (x) B, one per payoff C_x, under max sum_x <C_x, F_x>; a None C_x adds no term."""
    prob = SdpProblem()
    blocks = [prob.add_block(dims[0] * dims[1], cone="ppt", ppt_dims=dims) for _ in payoffs]
    prob.set_objective({b: c for b, c in zip(blocks, payoffs) if c is not None}, sense="max")
    return prob, blocks


def _covariant_classical(payoffs, dims, prob, tol):
    """The solution of ``prob``, the program of :func:`classical_max`, lifted from one PPT block, or None.

    The payoffs must split into one regular Weyl orbit, d_V^2 payoffs
    C_x = U_x C_0 U_x^dag (see :func:`_weyl_conjugators`), and any number
    of V-invariant payoffs C_f, each within tol * (1 + ||C_f||_F) of
    1 (x) M_f with M_f = tr_V C_f / d_V (M_f = 0 for a None payoff).
    Averaging over the Weyl group then gives the value
    s = max(t_0, max_f lambda_max(M_f)), where t_0 = max <C_0, sigma> over
    PPT states sigma: one PPT block and one trace row.  A product state
    attains lambda_max(M_f), so those terms are closed form.

    The lift: if the orbit wins, F_x = U_x sigma U_x^dag / d_V^2 and
    tau = tr_V sigma; if payoff f wins, F_f = (1/d_V) (x) |m><m| and
    tau = |m><m|, with m the top eigenvector of M_f; every other F is 0.
    The dual is Y = s 1 with trace multiplier s, stated for the
    minimization form as svec(-s 1) and -s, with PPT pairs
    (U_x (P_0 + (s - t_0) 1) U_x^dag, U_x Q_0 U_x^dag) on the orbit, where
    t_0 1 - C_0 = P_0 + Q_0^{T_B} in the reduced solve, and (s 1 - C_f, 0)
    on the fixed payoffs.  None unless the payoffs split so, the reduced
    solve ends "optimal" and the lift passes ``verify_certificate`` on
    ``prob``.
    """
    from .conic import solve  # looked up per call, as ``solve_checked`` does

    d_v, d_b = dims
    n = d_v * d_b
    cs = np.stack([np.zeros((n, n), dtype=complex) if c is None else np.asarray(c, dtype=complex) for c in payoffs])
    ms = partial_trace(cs, dims, keep=(1,)) / d_v
    misses = np.linalg.norm(cs - np.kron(np.eye(d_v), ms), axis=(1, 2))
    fixed = misses <= tol * (1.0 + np.linalg.norm(cs, axis=(1, 2)))
    orbit, rest = np.flatnonzero(~fixed), np.flatnonzero(fixed)
    us = _weyl_conjugators(cs[orbit], dims, tol)
    if us is None:
        return None
    reduced = SdpProblem()
    sig = reduced.add_block(n, cone="ppt", ppt_dims=dims)
    reduced.set_objective({sig: cs[orbit[0]]}, sense="max")
    reduced.add_constraint({sig: np.eye(n)}, "=", 1.0)
    red = solve(reduced, tol=tol)
    if red.status != "optimal":
        return None
    t0 = float(red.dual_value)
    lams, vecs = np.linalg.eigh(ms[rest])
    s = max([t0] + lams[:, -1].tolist())

    def lift(m):
        return us @ m @ us.conj().transpose(0, 2, 1)

    fs = np.zeros_like(cs)
    if s > t0:
        top = int(np.argmax(lams[:, -1]))
        tau = np.outer(vecs[top, :, -1], vecs[top, :, -1].conj())
        fs[rest[top]] = np.kron(np.eye(d_v) / d_v, tau)
    else:
        sigma = hermitize(red.primal_blocks[sig])
        fs[orbit] = lift(sigma) / (d_v * d_v)
        tau = partial_trace(sigma, dims, keep=(1,))
    p0, q0 = red.ppt_pairs[sig]
    pairs = dict(zip(orbit.tolist(), zip(lift(p0 + (s - t0) * np.eye(n)), lift(q0))))
    pairs.update((f, (s * np.eye(n) - cs[f], np.zeros((n, n)))) for f in rest.tolist())
    primal = float(np.vdot(cs, fs).real)
    sol = SdpSolution(
        status="optimal",
        primal_blocks=list(fs) + [tau],
        dual_multipliers=np.concatenate([svec(-s * np.eye(n)), [-s]]),
        ppt_pairs=pairs,
        primal_value=primal,
        dual_value=s,
        gap=abs(primal - s) / (1.0 + abs(primal) + abs(s)),
        iterations=red.iterations,
        message="lifted from the one-block program of a Weyl orbit of payoffs",
    )
    return _kept(prob, sol, tol)


def classical_max(payoffs, dims, tol=1e-9, what="classical benchmark"):
    """(value, [F_x], route) of max sum_x <C_x, F_x> over the PPT-relaxed classical family.

    The F_x are PPT operators on V (x) B with sum_x F_x = (1/d_V) 1 (x) tau
    for a state tau.  A payoff C_x given as None adds no objective term.
    ``value`` is the verified dual objective, as in
    :func:`corrected_classical_bound`: the upper end of the solve's
    interval, so the benchmark does not fall below the classical optimum
    by the solver's tolerance and a ratio taken against it does not
    overstate the advantage.

    Payoffs made of one Weyl orbit and V-invariant payoffs, such as the
    task compiled from a Bell measurement's dual, take the "covariant"
    route: one PPT block and one trace row (17 rows at d = 2, 82 at
    d = 3), lifted to every payoff (see :func:`_covariant_classical`)
    and kept only once ``verify_certificate`` passes on the full program
    at max(50 * tol, 1e-9).  Any other set, or a lift that is refused,
    takes the "solve" route: the full program, one PPT block per payoff.
    ``route`` names the route taken.
    """
    d_v, d_b = dims
    n = d_v * d_b
    prob, blocks = _payoff_program(payoffs, dims)
    tau = prob.add_block(d_b)
    terms = [(b, 1.0) for b in blocks]
    terms.append((tau, lambda t: (-1.0 / d_v) * tensor(np.eye(d_v), t)))
    prob.add_operator_equality(terms, np.zeros((n, n)))
    prob.add_constraint({tau: np.eye(d_b)}, "=", 1.0)
    route, sol = "covariant", _covariant_classical(payoffs, dims, prob, tol)
    if sol is None:
        route, sol = "solve", solve_checked(prob, tol=tol, what=what)
    return float(sol.dual_value), [hermitize(sol.primal_blocks[b]) for b in blocks], route


def corrected_classical_bound(payoffs, dims, tol=1e-9, what="classical benchmark"):
    """(bound, [F_x]) of max sum_x <C_x, F_x> over PPT F_x with sum_x tr_B F_x = 1_V / d_V.

    A channel on B keeps F_x PPT and keeps tr_B F_x, so the set holds the
    family of :func:`classical_max` after any channel on B per x, with
    d_V^2 coupling rows.  ``bound`` is the verified dual objective.
    """
    prob, blocks = _payoff_program(payoffs, dims)
    terms = [(b, lambda m: partial_trace(m, dims, keep=(0,))) for b in blocks]
    prob.add_operator_equality(terms, np.eye(dims[0]) / dims[0])
    sol = solve_checked(prob, tol=tol, what=what)
    return float(sol.dual_value), [hermitize(sol.primal_blocks[b]) for b in blocks]


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
