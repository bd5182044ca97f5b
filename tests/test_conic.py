"""Tests for the interior-point SDP solver and its certificate checker."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telerobust import conic
from telerobust import rot as rot_module
from telerobust.conic import (
    SdpProblem,
    SdpSolution,
    SolverError,
    _Standard,
    smat,
    smat_stack,
    solve,
    solve_checked,
    svec,
    svec_stack,
    verify_certificate,
)
from telerobust.discrim import build_discrimination_from_dual, classical_p_succ_ensemble
from telerobust.linalg import dagger, hermitize, max_entangled, min_eig, partial_transpose, tensor
from telerobust.qobjects import (
    TeleportationInstrument,
    bell_povm,
    build_instrument,
    isotropic_state,
    rand_povm,
    rand_state,
    rand_unitary,
)
from telerobust.rot import rot_certified, rot_dual, rot_dual_problem, rot_primal_problem


def _min_trace_problem():
    prob = SdpProblem()
    x = prob.add_block(2)
    prob.set_objective({x: np.eye(2)}, sense="min")
    prob.add_constraint({x: np.eye(2)}, "=", 1.0)
    return prob


def test_min_trace_on_density_matrices():
    prob = _min_trace_problem()
    sol = solve(prob)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.primal_value, 1.0, atol=1e-8)
    np.testing.assert_allclose(sol.dual_value, 1.0, atol=1e-8)
    assert sol.gap <= 1e-8
    assert sol.max_constraint_violation <= 1e-8
    rep = verify_certificate(prob, sol)
    assert rep.ok, rep.messages


def test_max_bell_overlap_over_ppt_states():
    """Largest Bell-state overlap of any PPT two-qubit state is 1/2.

    Cross-checked against a brute-force scan of the isotropic family,
    which contains the maximizer.
    """
    phi = max_entangled(2)
    prob = SdpProblem()
    x = prob.add_block(4, cone="ppt", ppt_dims=(2, 2))
    prob.set_objective({x: phi}, sense="max")
    prob.add_constraint({x: np.eye(4)}, "=", 1.0)
    sol = solve(prob, tol=1e-9)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.primal_value, 0.5, atol=1e-7)

    best = 0.0
    for p in np.linspace(0.0, 1.0, 2001):
        rho = p * phi + (1.0 - p) * np.eye(4) / 4.0
        if min_eig(partial_transpose(rho, (2, 2), 1)) >= -1e-12:
            best = max(best, float(np.vdot(phi, rho).real))
    np.testing.assert_allclose(sol.primal_value, best, atol=1e-3)

    # the returned block honors both cones
    assert min_eig(sol.primal_blocks[0]) >= -1e-9
    assert min_eig(partial_transpose(sol.primal_blocks[0], (2, 2), 1)) >= -1e-9


def test_operator_inequalities_via_slack_blocks():
    """min tr(sigma) with sigma >= phi+ and sigma PPT gives 2 (two qubits)."""
    phi = max_entangled(2)
    prob = SdpProblem()
    sig = prob.add_block(4, cone="ppt", ppt_dims=(2, 2))
    slack = prob.add_block(4)
    prob.set_objective({sig: np.eye(4)}, sense="min")
    prob.add_operator_equality([(sig, 1.0), (slack, -1.0)], phi)
    sol = solve(prob, tol=1e-9)
    np.testing.assert_allclose(sol.primal_value, 2.0, atol=1e-7)
    rep = verify_certificate(prob, sol)
    assert rep.ok, rep.messages


def test_scalar_inequality_rows_and_dual_signs():
    """max <phi|X|phi> over 0 <= X <= 1 with a trace cap is attained at the cap."""
    phi = max_entangled(2)
    prob = SdpProblem()
    x = prob.add_block(4)
    prob.set_objective({x: phi}, sense="max")
    prob.add_constraint({x: np.eye(4)}, "<=", 1.0)
    sol = solve(prob)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.primal_value, 1.0, atol=1e-7)
    rep = verify_certificate(prob, sol)
    assert rep.ok, rep.messages


def test_infeasible_detected():
    prob = SdpProblem()
    x = prob.add_block(2)
    prob.set_objective({x: np.eye(2)}, sense="min")
    prob.add_constraint({x: np.eye(2)}, "=", -1.0)
    assert solve(prob).status == "infeasible"
    with pytest.raises(SolverError):
        solve_checked(prob)


def test_unbounded_detected():
    prob = SdpProblem()
    x = prob.add_block(2)
    prob.set_objective({x: -np.diag([1.0, 0.0])}, sense="min")
    prob.add_constraint({x: np.diag([0.0, 1.0])}, "=", 1.0)
    assert solve(prob).status == "unbounded"


def test_step_length_failure_is_a_numerical_error(monkeypatch):
    """A factorization failing inside the step length ends the solve, it does not escape it."""

    def fail(z, dz):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(conic, "_max_step", fail)
    sol = solve(_min_trace_problem())
    assert sol.status == "numerical_error"
    assert sol.message == "step-length factorization failed"
    with pytest.raises(SolverError, match="numerical_error"):
        solve_checked(_min_trace_problem())


def test_scaling_failure_is_a_numerical_error(monkeypatch):
    """A Cholesky of S that fails again with its ridge ends the solve as numerical_error."""

    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    sol = solve(_min_trace_problem())
    assert sol.status == "numerical_error"
    assert sol.message == "scaling-point factorization failed"
    with pytest.raises(SolverError, match="scaling-point factorization failed"):
        solve_checked(_min_trace_problem())


def test_scaling_cholesky_retries_with_a_ridge(monkeypatch):
    """When the Cholesky of S fails, S + 1e-12 tr(S)/n I is factored instead.

    Only the scaling's calls, on one stack (B, n, n) per size group, are
    counted and failed; the Schur matrix's own 2-D test passes through.
    """
    real, calls = np.linalg.cholesky, []

    def fail_first(a):
        if np.ndim(a) != 3:
            return real(a)
        calls.append(a)
        if len(calls) % 2:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(a)

    want = solve(_min_trace_problem())
    monkeypatch.setattr(np.linalg, "cholesky", fail_first)
    sol = solve(_min_trace_problem())
    assert sol.status == "optimal" and abs(sol.primal_value - want.primal_value) <= 1e-8
    assert len(calls) == 2 * (sol.iterations - 1)
    for s, shifted in zip(calls[::2], calls[1::2]):
        n = s.shape[-1]
        ridge = 1e-12 * np.trace(s, axis1=1, axis2=2).real / n
        np.testing.assert_array_equal(shifted, s + ridge[:, None, None] * np.eye(n))


@pytest.mark.parametrize("d", [2, 3])
def test_each_iteration_factors_once_per_size_group(d, monkeypatch):
    """Per iteration and size group: one Cholesky, one inverse, one eigh and
    two eigvalsh (one per step length, X and S together) on a Bell-isotropic
    dual solve, and one more eigvalsh per group for the final report.

    Each call takes one stack (B, n, n) of a size group; the final report
    tests the primal blocks' cone membership on the whole stack at once.
    The Schur matrix's own 2-D Cholesky is not counted.
    """
    prob = rot_dual_problem(build_instrument(bell_povm(d), isotropic_state(0.7, d)))[0]
    calls = {}

    def counted(name, real):
        def call(a, *args, **kwargs):
            if np.ndim(a) == 3:
                calls[name, a.shape[-1]] = calls.get((name, a.shape[-1]), 0) + 1
            return real(a, *args, **kwargs)

        return call

    limits = {"cholesky": 1, "inv": 1, "eigh": 1, "eigvalsh": 2}
    for name in limits:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    sol = solve(prob)
    assert sol.status == "optimal"
    steps = sol.iterations - 1  # the last iteration stops at the optimality test
    for n in {g.n for g in _Standard(prob).groups}:
        assert calls["eigh", n] == steps
        for name, limit in limits.items():
            report = 1 if name == "eigvalsh" else 0
            assert calls.get((name, n), 0) <= limit * steps + report, (name, n, calls)
    assert {n for _, n in calls} == {g.n for g in _Standard(prob).groups}


def test_determinism():
    phi = max_entangled(2)
    values = []
    for _ in range(2):
        prob = SdpProblem()
        x = prob.add_block(4, cone="ppt", ppt_dims=(2, 2))
        prob.set_objective({x: phi}, sense="max")
        prob.add_constraint({x: np.eye(4)}, "=", 1.0)
        values.append(solve(prob).primal_value)
    assert abs(values[0] - values[1]) <= 1e-12


def test_verify_flags_perturbed_dual_value():
    prob = _min_trace_problem()
    sol = solve(prob)
    sol.dual_value += 10 * 1e-6
    rep = verify_certificate(prob, sol, tol=1e-6)
    assert not rep.ok
    assert rep.checks["weak_duality"] > 1e-6


def test_verify_flags_negative_eigenvalue_injection():
    prob = _min_trace_problem()
    sol = solve(prob)
    vals, vecs = np.linalg.eigh(hermitize(sol.primal_blocks[0]))
    vals[0] = -10 * 1e-6
    sol.primal_blocks[0] = (vecs * vals) @ dagger(vecs)
    rep = verify_certificate(prob, sol, tol=1e-6)
    assert not rep.ok
    assert rep.checks["primal_psd_block0"] > 1e-6


def test_verify_flags_broken_constraint():
    prob = _min_trace_problem()
    sol = solve(prob)
    sol.primal_blocks[0] = sol.primal_blocks[0] * 2.0
    rep = verify_certificate(prob, sol, tol=1e-6)
    assert not rep.ok


def test_problem_validation_errors():
    prob = SdpProblem()
    with pytest.raises(ValueError):
        prob.add_block(4, cone="ppt")  # dims missing
    with pytest.raises(ValueError):
        prob.add_block(4, cone="ppt", ppt_dims=(2, 3))
    with pytest.raises(ValueError):
        prob.add_block(2, cone="nonneg")
    x = prob.add_block(2)
    with pytest.raises(ValueError):
        prob.add_constraint({x: np.eye(3)}, "=", 0.0)
    with pytest.raises(ValueError):
        prob.add_constraint({x: np.eye(2)}, "==", 0.0)
    with pytest.raises(ValueError):
        prob.set_objective({x: np.eye(2)}, sense="minimize")
    with pytest.raises(ValueError):
        solve(prob)  # no constraints


def test_solver_tolerance_is_respected():
    prob = _min_trace_problem()
    sol = solve(prob, tol=1e-10)
    assert sol.gap <= 1e-9
    assert abs(sol.primal_value - 1.0) <= 1e-9


@settings(deadline=None)
@given(st.integers(0, 300), st.sampled_from([2, 3, 4]))
def test_svec_smat_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = hermitize(g)
    v = svec(x)
    assert v.shape == (n * n,)
    assert v.dtype == float
    np.testing.assert_allclose(smat(v, n), x, atol=1e-13)
    # isometry: the real vectorization preserves the inner product
    y = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    np.testing.assert_allclose(np.dot(svec(x), svec(y)), np.vdot(x, y).real, atol=1e-11)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 100))
def test_random_feasible_sdp_certificates(seed):
    """Random small SDPs with a known feasible point solve and verify."""
    rng = np.random.default_rng(seed)
    n = 3
    prob = SdpProblem()
    x = prob.add_block(n)
    c = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    prob.set_objective({x: c}, sense="min")
    prob.add_constraint({x: np.eye(n)}, "=", 1.0)
    a = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rhs = float(np.vdot(a, np.eye(n) / n).real)  # maximally mixed stays feasible
    prob.add_constraint({x: a}, "=", rhs)
    sol = solve(prob)
    assert sol.status == "optimal"
    rep = verify_certificate(prob, sol)
    assert rep.ok, rep.messages


def _rand_herm(rng, n):
    return hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _mixed_problem(rng):
    """A PPT block, PSD blocks of its size and another, inequality and scalar rows."""
    prob = SdpProblem()
    x = prob.add_block(4, cone="ppt", ppt_dims=(2, 2))
    y = prob.add_block(3)
    z = prob.add_block(4)
    prob.set_objective({x: _rand_herm(rng, 4), y: _rand_herm(rng, 3)}, sense="max")
    prob.add_operator_equality([(x, 1.0), (z, -1.0)], _rand_herm(rng, 4))
    prob.add_constraint({x: _rand_herm(rng, 4), y: _rand_herm(rng, 3)}, "<=", 1.0)
    prob.add_constraint({y: _rand_herm(rng, 3)}, ">=", -1.0)
    prob.add_constraint({y: np.eye(3)}, "=", 1.0)
    return prob


def _dense_rows(prob, std):
    """Dense (m, n*n) standard-form rows of every block, from the declared problem.

    Slack rows carry the sign of their inequality; each PPT block is tied
    to its companion by rows <E_r, companion> - <E_r^{T_B}, block> = 0.
    """
    ab = [np.zeros((std.m, n * n)) for n in std.sizes]
    for i, (coeffs, _, _) in enumerate(prob.constraints):
        for k, v in coeffs.items():
            ab[k][i] = v
    for row, blk, sign in std.slack_rows:
        ab[blk][row, 0] = sign
    r0 = std.m_user
    for i, k2 in std.companion.items():
        blk = prob.blocks[i]
        q = blk.size**2
        for r in range(q):
            e = smat(np.eye(q)[r], blk.size)
            ab[k2][r0 + r] = svec(e)
            ab[i][r0 + r] = -svec(partial_transpose(e, blk.ppt_dims, 1))
        r0 += q
    return ab


def _stacks(std, blocks):
    return [np.stack([blocks[k] for k in g.idx]) for g in std.groups]


def _assert_row_operations_match(std, ab, rng):
    """A X, A^T y, the row norms and the Schur matrix against dense rows ``ab``."""
    xs = [_rand_herm(rng, n) for n in std.sizes]
    ref = sum(ab[k] @ svec(xs[k]) for k in range(len(xs)))
    np.testing.assert_allclose(std.a_dot(_stacks(std, xs)), ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    yv = rng.standard_normal(std.m)
    for k, got in enumerate(std.unstack(std.at_y(yv))):
        np.testing.assert_allclose(got, smat(ab[k].T @ yv, std.sizes[k]), rtol=0, atol=1e-12)
    ref = np.sqrt(sum((a**2).sum(axis=1) for a in ab))
    np.testing.assert_allclose(std.row_norms(), ref, rtol=1e-14, atol=0)

    gs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + n * np.eye(n) for n in std.sizes]
    ref = np.zeros((std.m, std.m))
    for k, n in enumerate(std.sizes):
        w = gs[k] @ dagger(gs[k])
        ref += ab[k] @ svec_stack(w @ smat_stack(ab[k], n) @ w).T
    got = std.schur(_stacks(std, gs))
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed", range(4))
def test_row_support_assembly_matches_dense_reference(seed):
    """Row support, A X, A^T y, the row norms and the Schur matrix against dense rows."""
    rng = np.random.default_rng(seed)
    prob = _mixed_problem(rng)
    std = _Standard(prob)
    ab = _dense_rows(prob, std)
    assert len(std.slack_rows) == 2 and len(std.companion) == 1

    # each block's stored rows are exactly its dense rows on its support
    stored = set()
    for sup in std.supports:
        for g, b, a in sup.members:
            k = int(std.groups[g].idx[b])
            dense = np.zeros_like(ab[k])
            dense[sup.rows] = a
            np.testing.assert_array_equal(dense, ab[k])
            stored.add(k)
    for k in set(range(len(std.sizes))) - stored:
        assert not ab[k].any()

    _assert_row_operations_match(std, ab, rng)


def _program(name):
    d, route = {"d2_primal": (2, rot_primal_problem), "d3_dual": (3, rot_dual_problem)}[name]
    return route(build_instrument(bell_povm(d), isotropic_state(0.7, d)))[0]


@pytest.mark.parametrize("name", ["d2_primal", "d3_dual"])
def test_schur_matches_dense_reference_on_robustness_programs(name):
    """Per-support row operations against the dense rows, on the real programs.

    The d = 2 primal has 5 supports that are not one contiguous range, so
    it takes the index-array and ``np.ix_`` paths.  The d = 3 dual has 19
    blocks on 10 supports: each outcome's two blocks (A_a, Q_a) share its
    81 rows, and the normaliser covers all 738.
    """
    prob = _program(name)
    std = _Standard(prob)
    _assert_row_operations_match(std, _dense_rows(prob, std), np.random.default_rng(11))

    scattered = [s for s in std.supports if not isinstance(s.index[0], slice)]
    if name == "d2_primal":
        assert len(scattered) == 5
    else:
        assert (std.m, len(std.sizes), len(std.supports), scattered) == (738, 19, 10, [])
        assert sorted(len(s.members) for s in std.supports) == [1] + [2] * 9
        assert any(s.index == (slice(0, 738),) * 2 for s in std.supports)
    assert sum(len(s.members) for s in std.supports) == len(std.sizes)


def _rand_scalings(std, rng):
    """One random scaling G = H U per block (W = G G^H = H^2), stacked per group.

    H is positive definite and U unitary, so G is not Hermitian, as the
    solver's Nesterov-Todd factors are not.
    """
    out = []
    for g in std.groups:
        a = rng.standard_normal((len(g.idx), g.n, g.n)) + 1j * rng.standard_normal((len(g.idx), g.n, g.n))
        u = np.linalg.qr(rng.standard_normal((len(g.idx), g.n, g.n)) + 1j * rng.standard_normal(a.shape))[0]
        out.append((a @ dagger(a) + np.eye(g.n)) @ u)
    return out


def _dual_of(case):
    rng = np.random.default_rng(5)
    if case == "d3_bell":
        return rot_dual_problem(build_instrument(bell_povm(3), isotropic_state(0.7, 3)))[0]
    if case == "dv2_db3":
        return rot_dual_problem(build_instrument(rand_povm((2, 2), 3, rng=rng), rand_state((2, 3), rng=rng)))[0]
    outcomes = int(case.split("_")[1])
    return rot_dual_problem(build_instrument(rand_povm((2, 2), outcomes, rng=rng), rand_state((2, 2), rng=rng)))[0]


def _routes(std, wh):
    """The Schur solver of each route: scipy's arrow (or dense) factor and numpy's."""
    return {"arrow": std.arrow_factor(wh), "numpy": conic._numpy_solver(std.schur(wh))}


@pytest.mark.parametrize(
    "case, k, r, border",
    [
        ("d2_1", 1, 16, 4),
        ("d2_2", 2, 16, 4),
        ("d2_4", 4, 16, 4),
        ("d2_5", 5, 16, 4),
        ("d2_7", 7, 16, 4),
        ("d3_bell", 9, 81, 9),
        ("dv2_db3", 3, 36, 9),
    ],
)
def test_arrow_solve_matches_dense_schur_solve(case, k, r, border):
    """Both Schur routes solve M x = r as the dense Schur matrix does.

    Each robustness dual has k outcome supports of r rows (A_a, P_a and
    Q_a), one normaliser B on every row, and d_B^2 border rows.  The
    arrow is called directly, so it stays tested on the d = 2 programs
    that ``factor`` sends to numpy.
    """
    std = _Standard(_dual_of(case))
    assert len(std.arrow.local) == k and std.m == k * r + border
    assert all(len(np.arange(std.m)[s.rows]) == r for s in std.arrow.local)
    rng = np.random.default_rng(3)
    for _ in range(3):
        wh = _rand_scalings(std, rng)
        rhs = rng.standard_normal(std.m)
        ref = np.linalg.solve(std.schur(wh), rhs)
        for route, msolve in _routes(std, wh).items():
            assert np.linalg.norm(msolve(rhs) - ref) <= 1e-10 * np.linalg.norm(ref), route


def _classical_benchmark_program(monkeypatch):
    """The classical benchmark of the d = 2 task built from a 4-outcome dual.

    It has one PPT block per payoff (four branches and the padding):
    97 rows, no block arrow.  The instrument is Bell measurement turned on
    V by a random unitary, which takes its task off the Weyl group, so the
    full program is solved: Bell measurement's own task takes the
    covariant route, one PPT block of 17 rows.
    """
    seen = []
    real = rot_module.solve_checked
    instr = build_instrument(bell_povm(2), isotropic_state(0.7, 2))
    u = tensor(rand_unitary(2, np.random.default_rng(2)), np.eye(2))
    turned = TeleportationInstrument([u @ j @ dagger(u) for j in instr.mats], instr.dims)
    with monkeypatch.context() as patch:
        patch.setattr(rot_module, "solve_checked", lambda prob, **kw: seen.append(prob) or real(prob, **kw))
        classical_p_succ_ensemble(build_discrimination_from_dual(rot_dual(turned))[0])
    return seen[-1]


def test_factor_takes_numpy_up_to_the_row_bound(monkeypatch):
    """``factor`` takes the numpy route at m <= _NUMPY_ROWS = 128 and the arrow above it.

    The 5-outcome d = 2 dual (84 rows) and the 97-row classical benchmark
    of a 4-outcome discrimination task take numpy; the 8-outcome d = 2
    dual (132 rows) and the d = 3 dual (738 rows) take the arrow.
    """
    programs = [_dual_of("d2_5"), _classical_benchmark_program(monkeypatch), _dual_of("d2_8"), _dual_of("d3_bell")]
    taken = []
    monkeypatch.setattr(conic, "_numpy_solver", lambda mmat: taken.append(("numpy", len(mmat))))
    monkeypatch.setattr(_Standard, "arrow_factor", lambda self, gs: taken.append(("arrow", self.m)))
    rng = np.random.default_rng(2)
    for prob in programs:
        std = _Standard(prob)
        std.factor(_rand_scalings(std, rng))
    assert taken == [("numpy", 84), ("numpy", 97), ("arrow", 132), ("arrow", 738)]


def test_primal_and_classical_programs_factor_densely(monkeypatch):
    """Programs without the arrow structure have k = 0: the border is every row."""
    seen = []
    real = rot_module.solve_checked
    monkeypatch.setattr(rot_module, "solve_checked", lambda prob, **kw: seen.append(prob) or real(prob, **kw))
    rot_module.classical_max([np.eye(4), None, np.eye(4)], (2, 2))
    primal = rot_primal_problem(build_instrument(bell_povm(2), isotropic_state(0.7, 2)))[0]
    rng = np.random.default_rng(4)
    for prob in (primal, seen[0], _classical_benchmark_program(monkeypatch)):
        std = _Standard(prob)
        assert std.arrow.local == [] and np.array_equal(std.arrow.perm, np.arange(std.m))
        wh = _rand_scalings(std, rng)
        rhs = rng.standard_normal(std.m)
        ref = np.linalg.solve(std.schur(wh), rhs)
        for route, msolve in _routes(std, wh).items():
            assert np.linalg.norm(msolve(rhs) - ref) <= 1e-10 * np.linalg.norm(ref), route


def test_singular_pivot_takes_the_dense_ridge():
    """A zero pivot block is shifted by 1e-14 tr M / m, as the dense path shifts M.

    Zero scalings on outcome 0's blocks and on B make the pivot of
    outcome 0 and the border zero, so M is singular and the first rung of
    the ridge ladder succeeds.  The solution must be that of
    M + 1e-14 (tr M / m) 1 on every row, not of a larger ridge, on
    either route.
    """
    std = _Standard(_dual_of("d2_4"))
    rng = np.random.default_rng(8)
    wh = _rand_scalings(std, rng)
    (group,) = wh
    group[[0, 4, 5]] = 0.0  # A_0, B, Q_0
    rhs = rng.standard_normal(std.m)
    mmat = std.schur(wh)
    base = np.trace(mmat) / std.m
    ref = np.linalg.solve(mmat + 1e-14 * base * np.eye(std.m), rhs)
    larger = np.linalg.solve(mmat + 1e-11 * base * np.eye(std.m), rhs)
    for route, msolve in _routes(std, wh).items():
        got = msolve(rhs)
        for rows in (np.r_[0:16, 64:68], np.r_[16:64]):  # the zero rows, then the others
            assert np.linalg.norm(got[rows] - ref[rows]) <= 1e-10 * np.linalg.norm(ref[rows]), route
        assert np.linalg.norm(larger) < 1e-2 * np.linalg.norm(got), route


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 16])
def test_congruence_matches_explicit_products(n):
    """Column c of each Ph is svec(h E_c h^H), for the svec basis matrices E_c.

    For Hermitian h the matrix is symmetric, so its rows match as well.
    """
    rng = np.random.default_rng(n)
    basis = conic._basis(n)
    h = np.stack([_rand_herm(rng, n) for _ in range(2)])
    got = conic._congruence_svec(h)
    for b in range(2):
        ref = svec_stack(h[b] @ basis @ h[b])
        assert np.abs(got[b] - ref).max() <= 1e-13 * np.abs(ref).max()
    g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    got = conic._congruence_svec(g)
    for b in range(2):
        ref = svec_stack(g[b] @ basis @ dagger(g[b]))
        assert np.abs(got[b].T - ref).max() <= 1e-13 * np.abs(ref).max()


def test_stored_rows_compile_to_svec_rows():
    """Stored rows give Re<herm(A), X> and, stacked, svec(sum_j L_j(X_j))."""
    rng = np.random.default_rng(7)
    prob = SdpProblem()
    x = prob.add_block(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))  # not Hermitian
    prob.add_constraint({x: a}, "<=", 0.5)
    (coeffs, sense, rhs), = prob.constraints
    assert (sense, rhs) == ("<=", 0.5)
    assert coeffs[x].dtype == float and coeffs[x].shape == (9,)
    for _ in range(5):
        xs = _rand_herm(rng, 3)
        assert abs(coeffs[x] @ svec(xs) - np.vdot(hermitize(a), xs).real) <= 1e-12

    prob = SdpProblem()
    u = prob.add_block(4)
    t = prob.add_block(2)
    kraus = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    target = _rand_herm(rng, 4)
    prob.add_operator_equality(
        [
            (u, lambda m: kraus @ m @ dagger(kraus)),
            (t, lambda m: tensor(np.eye(2), m)),
            (u, -0.5),  # a scalar term on a block already mapped
            (u, lambda m: partial_transpose(m, (2, 2), 1)),
        ],
        target,
    )
    assert len(prob.constraints) == 16
    assert all(sense == "=" and set(c) == {u, t} for c, sense, _ in prob.constraints)
    np.testing.assert_allclose([r for _, _, r in prob.constraints], svec(target), rtol=0, atol=1e-12)
    for _ in range(5):
        xu, xt = _rand_herm(rng, 4), _rand_herm(rng, 2)
        got = np.array([c[u] @ svec(xu) + c[t] @ svec(xt) for c, _, _ in prob.constraints])
        image = kraus @ xu @ dagger(kraus) + tensor(np.eye(2), xt) - 0.5 * xu
        image = image + partial_transpose(xu, (2, 2), 1)
        np.testing.assert_allclose(got, svec(image), rtol=0, atol=1e-12 * (1 + np.abs(got).max()))


def _gathered_rows(prob):
    """Row indices and svec rows of each block, gathered row by row from the ``constraints`` view."""
    gathered = [([], []) for _ in prob.blocks]
    for i, (coeffs, _, _) in enumerate(prob.constraints):
        for k, v in coeffs.items():
            gathered[k][0].append(i)
            gathered[k][1].append(v)
    return [
        (rows, np.array(vecs, dtype=float).reshape(len(rows), blk.size**2))
        for blk, (rows, vecs) in zip(prob.blocks, gathered)
    ]


def _repeated_block_problem(rng):
    """Inequality rows from ``add_constraint``, an operator equality naming
    one block twice, and a block that no row names."""
    prob = SdpProblem()
    x = prob.add_block(4, cone="ppt", ppt_dims=(2, 2))
    y = prob.add_block(2)
    z = prob.add_block(4)
    prob.add_block(3)
    prob.add_constraint({y: _rand_herm(rng, 2)}, ">=", -1.0)
    prob.add_operator_equality(
        [(x, 1.0), (y, lambda m: tensor(np.eye(2), m)), (x, lambda m: partial_transpose(m, (2, 2), 1))],
        _rand_herm(rng, 4),
    )
    prob.add_constraint({x: _rand_herm(rng, 4), z: _rand_herm(rng, 4)}, "<=", 1.0)
    prob.add_operator_equality([(z, -1.0), (y, lambda m: tensor(m, np.eye(2)))], _rand_herm(rng, 4))
    return prob


def _stored_rows_case(name, monkeypatch):
    if name == "mixed":
        return _repeated_block_problem(np.random.default_rng(5))
    if name in ("rot_dual", "rot_primal"):
        instr = build_instrument(rand_povm((3, 3), 4, rng=np.random.default_rng(6)), isotropic_state(0.6, 3))
        return {"rot_dual": rot_dual_problem, "rot_primal": rot_primal_problem}[name](instr)[0]
    seen = []
    real = rot_module.solve_checked
    monkeypatch.setattr(rot_module, "solve_checked", lambda prob, **kw: seen.append(prob) or real(prob, **kw))
    rng = np.random.default_rng(9)
    payoffs = [hermitize(rng.standard_normal((4, 4))) + 4 * np.eye(4) for _ in range(2)] + [None]
    getattr(rot_module, name)(payoffs, (2, 2))
    return seen[-1]


@pytest.mark.parametrize("name", ["rot_dual", "rot_primal", "classical_max", "corrected_classical_bound", "mixed"])
def test_block_rows_equal_the_row_by_row_gather(name, monkeypatch):
    """Each block's stored chunks, concatenated, are the rows a per-row
    gather finds: the same row indices and bit-identical coefficients."""
    prob = _stored_rows_case(name, monkeypatch)
    view = prob.constraints
    assert [sense for _, sense, _ in view] == prob.senses
    assert [rhs for _, _, rhs in view] == prob.rhs
    for (rows, coef), (want_rows, want_coef) in zip(conic._block_rows(prob), _gathered_rows(prob)):
        assert rows.tolist() == want_rows
        assert coef.dtype == want_coef.dtype and coef.shape == want_coef.shape
        assert coef.tobytes() == want_coef.tobytes()


def test_constraints_is_a_derived_view():
    """Changing the ``constraints`` view changes nothing stored; the stored rows are read-only."""
    prob = _repeated_block_problem(np.random.default_rng(5))
    view = prob.constraints
    view[1] = ({}, "<=", 7.0)
    assert prob.constraints[1][1:] == ("=", prob.rhs[1]) and prob.rhs[1] != 7.0
    coeffs = prob.constraints[1][0]
    with pytest.raises(ValueError):
        coeffs[0][0] = 1.0
    assert all(not r.flags.writeable and not a.flags.writeable for chunks in prob.chunks for r, a in chunks)


def _reference_row_and_slack_checks(prob, sol):
    """Row and dual-slack checks by the dense loop over rows and blocks × rows.

    Each stored row is rebuilt as a matrix with ``smat``; this is the
    checker's earlier matrix-row algorithm, kept here as the oracle.
    """
    X, y = sol.primal_blocks, sol.dual_multipliers
    mats = [
        {k: smat(v, prob.blocks[k].size) for k, v in coeffs.items()}
        for coeffs, _, _ in prob.constraints
    ]
    checks = {}
    for i, (coeffs, (_, sense, rhs)) in enumerate(zip(mats, prob.constraints)):
        val = float(np.real(sum(np.vdot(coeffs[k], X[k]) for k in coeffs)))
        scale = 1.0 + abs(rhs)
        if sense == "=":
            checks[f"row{i}"] = abs(val - rhs) / scale
        elif sense == "<=":
            checks[f"row{i}"] = max(0.0, val - rhs) / scale
            checks[f"row{i}_dualsign"] = max(0.0, y[i])
        else:
            checks[f"row{i}"] = max(0.0, rhs - val) / scale
            checks[f"row{i}_dualsign"] = max(0.0, -y[i])
    sign = 1.0 if prob.sense == "min" else -1.0
    for k, blk in enumerate(prob.blocks):
        n = blk.size
        z = sign * prob.objective.get(k, np.zeros((n, n), dtype=complex)).astype(complex)
        for i, coeffs in enumerate(mats):
            if k in coeffs:
                z = z - y[i] * coeffs[k]
        z = hermitize(z)
        scale = 1.0 + float(np.linalg.norm(z))
        if blk.cone == "psd":
            checks[f"dual_slack_block{k}"] = max(0.0, -float(np.linalg.eigvalsh(z)[0]) / scale)
            continue
        p, q = (hermitize(m) for m in sol.ppt_pairs[k])
        for name, m in (("P", p), ("Q", q)):
            lam = float(np.linalg.eigvalsh(m)[0])
            checks[f"dual_slack_block{k}_{name}"] = max(0.0, -lam / (1.0 + float(np.linalg.norm(m))))
        resid = z - p - partial_transpose(q, blk.ppt_dims, 1)
        checks[f"dual_slack_block{k}_residual"] = float(np.linalg.norm(resid)) / scale
    return checks


def _random_point(rng, prob):
    """A random (not optimal) primal/dual point of ``prob``, with PPT pairs."""
    blocks = [_rand_herm(rng, blk.size) for blk in prob.blocks]
    pairs = {
        k: (_rand_herm(rng, blk.size), _rand_herm(rng, blk.size))
        for k, blk in enumerate(prob.blocks)
        if blk.cone == "ppt"
    }
    return SdpSolution(
        status="optimal",
        primal_blocks=blocks,
        dual_multipliers=rng.standard_normal(len(prob.constraints)),
        ppt_pairs=pairs,
        primal_value=0.0,
        dual_value=0.0,
    )


def _checker_case(name):
    rng = np.random.default_rng(3)
    if name == "mixed":
        prob = _mixed_problem(rng)
        return prob, _random_point(rng, prob)
    if name == "random_instrument":
        instr = build_instrument(rand_povm((2, 2), 3, rng=rng), rand_state((2, 2), rng=rng))
    else:
        d, p = {"d2_p0.7": (2, 0.7), "d2_p1/3": (2, 1 / 3), "d3_p0.6": (3, 0.6)}[name]
        instr = build_instrument(bell_povm(d), isotropic_state(p, d))
    cert = rot_certified(instr)
    return rot_primal_problem(instr)[0], cert.primal.solution, rot_dual_problem(instr)[0], cert.dual.solution


@pytest.mark.parametrize("name", ["d2_p0.7", "d2_p1/3", "d3_p0.6", "random_instrument", "mixed"])
def test_checker_rows_and_slacks_match_dense_reference(name):
    """verify_certificate's svec pass gives the dense loop's checks to 1e-12."""
    case = _checker_case(name)
    for prob, sol in zip(case[::2], case[1::2]):
        got = verify_certificate(prob, sol).checks
        ref = _reference_row_and_slack_checks(prob, sol)
        assert {k for k in got if k.startswith(("row", "dual_slack_block"))} == set(ref)
        for key, value in ref.items():
            assert abs(got[key] - value) <= 1e-12, (key, got[key], value)
        if name == "mixed":
            assert {"row16_dualsign", "row17_dualsign"} <= set(ref)


def test_d4_bell_isotropic_primal_compiles_within_footprint():
    """The d = 4 primal (8448 rows, 50 blocks) keeps under 100 MB of rows.

    Dense rows for every block would take 8 * 8448 * (49 * 256 + 16)
    bytes = 0.85 GB.  Nothing is solved here.
    """
    prob, _, _ = rot_primal_problem(build_instrument(bell_povm(4), isotropic_state(0.5, 4)))
    std = _Standard(prob)
    assert std.m == 8448
    assert len(std.sizes) == 50
    kept = sum(g.C.nbytes for g in std.groups)
    for sup in std.supports:
        kept += sum(a.nbytes for _, _, a in sup.members)
        kept += sum(getattr(r, "nbytes", 0) for r in (sup.rows, *sup.index))
    assert kept < 100e6


class TestPairBasedChecker:
    """PPT blocks are checked from the stored pairs (P, Q), with no solve.

    The certificate is the robustness primal of an isotropic d = 2
    instrument, read off one dual solve: four PPT blocks F_a, rows 16a to
    16a + 15 for the a-th domination equality.  Each tampering must fail
    a check that the report names.
    """

    EPS = 1e-4

    @pytest.fixture(scope="class")
    def certificate(self):
        instr = build_instrument(bell_povm(2), isotropic_state(0.7, 2))
        return rot_primal_problem(instr)[0], rot_certified(instr).primal.solution

    @staticmethod
    def _failed(problem, solution):
        rep = verify_certificate(problem, solution, tol=1e-6)
        assert not rep.ok
        failed = {k for k, v in rep.checks.items() if v > 1e-6}
        for name in failed:
            assert repr(name) in rep.messages[-1]
        return failed, rep

    def test_untampered_certificate_passes(self, certificate):
        rep = verify_certificate(*certificate, tol=1e-6)
        assert rep.ok, rep.messages
        assert {"dual_slack_block0_P", "dual_slack_block0_Q", "dual_slack_block0_residual"} <= set(rep.checks)

    def test_p_shifted_below_zero(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        p, q = sol.ppt_pairs[0]
        sol.ppt_pairs[0] = (p - self.EPS * np.eye(4), q)
        failed, _ = self._failed(prob, sol)
        assert "dual_slack_block0_P" in failed

    def test_residual_off_by_eps(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        p, q = sol.ppt_pairs[0]
        sol.ppt_pairs[0] = (p + self.EPS * np.eye(4), q)
        failed, _ = self._failed(prob, sol)
        assert failed == {"dual_slack_block0_residual"}

    def test_flipped_multiplier_sign(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        i = int(np.argmax(np.abs(sol.dual_multipliers)))
        assert i < 64  # a domination row, of outcome i // 16
        sol.dual_multipliers[i] *= -1.0
        failed, _ = self._failed(prob, sol)
        assert f"dual_slack_block{i // 16}_residual" in failed

    def test_scaled_primal_block(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        sol.primal_blocks[0] = 1.01 * sol.primal_blocks[0]
        failed, _ = self._failed(prob, sol)
        assert failed & {f"row{r}" for r in range(16)}

    def test_ppt_block_without_pair(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        del sol.ppt_pairs[2]
        failed, rep = self._failed(prob, sol)
        assert failed == {"dual_slack_block2"}
        assert "no decomposition pair (P, Q) for PPT block 2" in rep.messages


class TestShapeCheck:
    """A solution that does not fit the problem fails one named ``shape`` check.

    The certificate is the robustness dual of an isotropic d = 2
    instrument: 9 blocks of size 4 and 68 rows.
    """

    @pytest.fixture(scope="class")
    def certificate(self):
        instr = build_instrument(bell_povm(2), isotropic_state(0.7, 2))
        return rot_dual_problem(instr)[0], rot_certified(instr).dual.solution

    @staticmethod
    def _shape_message(problem, solution):
        rep = verify_certificate(problem, solution)
        assert not rep.ok
        assert rep.checks == {"shape": np.inf}
        assert "'shape'" in rep.messages[-1]
        return rep.messages[:-1]

    def test_multipliers_cut(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        sol.dual_multipliers = sol.dual_multipliers[:-3]
        assert self._shape_message(prob, sol) == ["expected 68 dual multipliers, got 65"]

    def test_multiplier_added(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        sol.dual_multipliers = np.append(sol.dual_multipliers, 0.0)
        assert self._shape_message(prob, sol) == ["expected 68 dual multipliers, got 69"]

    def test_primal_block_dropped(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        del sol.primal_blocks[4]
        assert self._shape_message(prob, sol) == ["expected 9 primal blocks, got 8"]

    def test_primal_block_of_wrong_size(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        sol.primal_blocks[4] = sol.primal_blocks[4][:2, :2]
        assert self._shape_message(prob, sol) == ["primal block 4 has shape (2, 2), expected (4, 4)"]

    def test_pair_of_wrong_size(self):
        instr = build_instrument(bell_povm(2), isotropic_state(0.7, 2))
        prob, sol = rot_primal_problem(instr)[0], rot_certified(instr).primal.solution
        p, q = sol.ppt_pairs[1]
        sol.ppt_pairs[1] = (p, q[:2, :2])
        assert self._shape_message(prob, sol) == [
            "pair (P, Q) of block 1 has shapes [(4, 4), (2, 2)], expected (4, 4)"
        ]


class TestFiniteCheck:
    """A certificate holding NaN or an infinity never passes, and never raises.

    The certificate is the robustness dual of an isotropic d = 2
    instrument.  Non-finite input fails one named ``finite`` check; a
    non-finite check value from anywhere else fails that check.
    """

    @pytest.fixture(scope="class")
    def certificate(self):
        instr = build_instrument(bell_povm(2), isotropic_state(0.7, 2))
        return rot_dual_problem(instr)[0], rot_certified(instr).dual.solution

    @staticmethod
    def _finite_message(problem, solution):
        rep = verify_certificate(problem, solution)
        assert not rep.ok
        assert rep.checks == {"finite": np.inf}
        assert "'finite'" in rep.messages[-1]
        return rep.messages[:-1]

    def test_nan_primal_value(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        sol.primal_value = np.nan
        assert self._finite_message(prob, sol) == ["primal_value: not finite"]

    def test_nan_multiplier(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        sol.dual_multipliers[5] = np.nan
        assert self._finite_message(prob, sol) == ["dual multipliers: not finite"]

    def test_infinite_primal_block_entry(self, certificate):
        prob, sol = copy.deepcopy(certificate)
        sol.primal_blocks[3] = sol.primal_blocks[3].copy()
        sol.primal_blocks[3][0, 1] = complex(0.0, np.inf)
        assert self._finite_message(prob, sol) == ["primal block 3: not finite"]

    def test_infinite_pair_entry(self):
        instr = build_instrument(bell_povm(2), isotropic_state(0.7, 2))
        prob, sol = rot_primal_problem(instr)[0], rot_certified(instr).primal.solution
        p, q = sol.ppt_pairs[2]
        q = q.copy()
        q[1, 1] = -np.inf
        sol.ppt_pairs[2] = (p, q)
        assert self._finite_message(prob, sol) == ["pair Q of block 2: not finite"]

    def test_nan_check_value_fails_that_check(self, certificate):
        """A NaN right-hand side makes row 5's check NaN; it must not be skipped."""
        prob, sol = copy.deepcopy(certificate)
        prob.rhs[5] = np.nan
        rep = verify_certificate(prob, sol)
        assert not rep.ok
        assert np.isnan(rep.max_violation)
        assert np.isnan(rep.checks["row5"])
        assert "'row5': nan" in rep.messages[-1]
