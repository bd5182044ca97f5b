"""Tests for the robustness programs and their link to the robustness of entanglement."""

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telerobust import conic as conic_module
from telerobust.conic import SdpSolution, SolverError, smat, svec, verify_certificate
from telerobust.linalg import (
    dagger,
    frobenius_norm,
    max_entangled,
    min_eig,
    partial_trace,
    partial_transpose,
    tensor,
)
from telerobust.qobjects import (
    DensityMatrix,
    Povm,
    TeleportationInstrument,
    bell_povm,
    build_instrument,
    ideal_instrument,
    isotropic_state,
    rand_povm,
    rand_state,
    rand_unitary,
    weyl_family,
)
from telerobust.rot import (
    RotDualSolution,
    RotPrimalSolution,
    classical_max,
    robustness_of_entanglement,
    rot,
    rot_certified,
    rot_dual,
    rot_dual_problem,
    rot_many,
    rot_primal,
    rot_primal_problem,
)
from telerobust.simorder import apply_classical_sim, rand_classical_sim


def _bell_projectors(d=2):
    phi = max_entangled(d)
    return [
        tensor(np.eye(d), w) @ phi @ dagger(tensor(np.eye(d), w)) for w in weyl_family(d)
    ]


def _product_instrument(rng, d_v=2, d_a=2, d_b=2, outcomes=4):
    rho_a = rand_state((d_a,), rng=rng).matrix
    rho_b = rand_state((d_b,), rng=rng).matrix
    state = DensityMatrix(tensor(rho_a, rho_b), (d_a, d_b))
    return build_instrument(rand_povm((d_v, d_a), outcomes, rng=rng), state)


def _isotropic(p, d=2):
    return DensityMatrix(
        p * max_entangled(d) + (1.0 - p) * np.eye(d * d) / (d * d), (d, d)
    )


class TestHandCertificates:
    """The d=2 ideal instrument has pencil-and-paper optimal solutions for
    both programs; they pin the programs themselves, not just the solver."""

    def test_primal_certificate_is_feasible_and_matches(self):
        inst = ideal_instrument(2)
        bells = _bell_projectors()
        f_by_hand = [b / 6 + np.eye(4) / 12 for b in bells]
        tau_by_hand = np.eye(2)
        # feasibility of the hand-built point
        for f, j in zip(f_by_hand, inst.mats):
            assert min_eig(f - j) >= -1e-12
            assert min_eig(partial_transpose(f, (2, 2), 1)) >= -1e-12
        cap = tensor(np.eye(2), tau_by_hand) - 2 * sum(f_by_hand)
        assert min_eig(cap) >= -1e-12
        hand_value = float(np.trace(tau_by_hand).real) - 1.0

        sol = rot_primal(inst)
        assert isinstance(sol, RotPrimalSolution)
        # solver can be no worse than the hand-built feasible point
        assert sol.value <= hand_value + 1e-6
        np.testing.assert_allclose(sol.value, 1.0, atol=1e-5)
        np.testing.assert_allclose(np.trace(sol.tau).real - 1.0, sol.value, atol=1e-10)

    def test_dual_certificate_is_feasible_and_matches(self):
        inst = ideal_instrument(2)
        bells = _bell_projectors()
        b_by_hand = np.eye(4) / 2
        # B - A_a = 1/2 - Phi_a = 0 + ((1/2 - Phi_a)^{T_B})^{T_B}; the
        # partial transpose of 1/2 - Phi_a is PSD because Phi_a^{T_B} has
        # eigenvalues +-1/2, so the witness is decomposable.
        for a_op in bells:
            q = partial_transpose(np.eye(4) / 2 - a_op, (2, 2), 1)
            assert min_eig(q) >= -1e-12
        np.testing.assert_allclose(
            partial_trace(b_by_hand, (2, 2), keep=(1,)), np.eye(2), atol=1e-12
        )
        hand_value = 2 * sum(float(np.vdot(a, j).real) for a, j in zip(bells, inst.mats)) - 1.0
        np.testing.assert_allclose(hand_value, 1.0, atol=1e-12)

        sol = rot_dual(inst)
        assert isinstance(sol, RotDualSolution)
        # solver can be no worse than the hand-built feasible witness set
        assert sol.value >= hand_value - 1e-6
        np.testing.assert_allclose(sol.value, 1.0, atol=1e-5)

    def test_returned_dual_certificate_re_verifies(self):
        inst = ideal_instrument(2)
        sol = rot_dual(inst)
        d_v, d_b = inst.dims
        np.testing.assert_allclose(
            partial_trace(sol.B_op, (d_v, d_b), keep=(1,)), np.eye(d_b), atol=1e-6
        )
        for a_op, (p, q) in zip(sol.witnesses_A, sol.decompositions):
            assert min_eig(a_op) >= -1e-6
            assert min_eig(p) >= -1e-6 and min_eig(q) >= -1e-6
            resid = sol.B_op - a_op - p - partial_transpose(q, (d_v, d_b), 1)
            assert frobenius_norm(resid) <= 1e-6


_BELL_ISOTROPIC = [(2, k / 10) for k in range(11)] + [(2, 1.0 / 3.0), (3, 0.1), (3, 0.25), (3, 0.8)]


@pytest.mark.parametrize("d, p", _BELL_ISOTROPIC)
def test_bell_isotropic_closed_form(d, p):
    """T = max(0, d * F_ent - 1), F_ent = p + (1 - p) / d^2, by both routes.

    The primal is solved on its own and also read off the dual solve.
    p = 1/(d + 1) is the entanglement threshold: T = 0 there and the
    interior-point method is most degenerate, so the reported value is
    the clamped midpoint, in [0, 1e-8].
    """
    inst = build_instrument(bell_povm(d), _isotropic(p, d))
    expected = max(0.0, d * (p + (1.0 - p) / d**2) - 1.0)
    cert = rot_certified(inst)
    primal_prob, dual_prob = rot_primal_problem(inst)[0], rot_dual_problem(inst)[0]
    for sol, prob in ((rot_primal(inst), primal_prob), (cert.dual, dual_prob), (cert.primal, primal_prob)):
        assert abs(sol.value - expected) <= 1e-6
        report = verify_certificate(prob, sol.solution)
        assert report.ok, report.messages
    assert cert.value >= 0.0 and abs(cert.value - expected) <= 1e-6
    if p == 1.0 / (d + 1):
        assert cert.value <= 1e-8


@pytest.mark.parametrize("p, expected", [(0.7, 1.875), (0.2, 0.0)])
def test_bell_isotropic_closed_form_at_d4(p, expected):
    """The closed form at d = 4 from one dual solve (4112 rows), both certificates re-verified.

    p = 1/5 is the entanglement threshold, where T is clamped to [0, 1e-8].
    """
    inst = build_instrument(bell_povm(4), _isotropic(p, 4))
    cert = rot_certified(inst)
    for sol, prob in ((cert.dual, rot_dual_problem(inst)[0]), (cert.primal, rot_primal_problem(inst)[0])):
        assert abs(sol.value - expected) <= 1e-6
        report = verify_certificate(prob, sol.solution)
        assert report.ok, report.messages
    assert cert.value >= 0.0 and abs(cert.value - expected) <= 1e-6
    if expected == 0.0:
        assert cert.value <= 1e-8


class TestSolveIsVerified:
    """A solve is accepted only once ``verify_certificate`` passes.

    The solver's output is tampered through a monkeypatched
    ``conic.solve``, so ``conic.solve_checked`` runs its check on the
    tampered solution.  Each tampering breaks one condition of the
    witness program or of the cover read off its multipliers.  The dual
    program of a d = 2 isotropic instrument has blocks A_a (0-3), B (4),
    P_a (5-8) and Q_a (9-12); rows 16a .. 16a + 15 hold
    B - A_a - P_a - Q_a^{T_B} = 0 (multipliers svec(d_V F_a)) and rows
    64-67 tr_V B = 1 (multipliers -svec(tau)).
    """

    SHIFT = 1e-4
    INSTR = build_instrument(bell_povm(2), _isotropic(0.7))

    @staticmethod
    def _install(monkeypatch, edit):
        real = conic_module.solve

        def tampered(prob, **kwargs):
            sol = real(prob, **kwargs)
            edit(sol)
            return sol

        monkeypatch.setattr(conic_module, "solve", tampered)

    def _fails(self, monkeypatch, edit, check, solve=rot_dual):
        self._install(monkeypatch, edit)
        with pytest.raises(SolverError, match="certificate failed verification") as exc:
            solve(self.INSTR)
        assert f"'{check}'" in str(exc.value)

    def _below_zero(self, m):
        """The shift s that leaves m - s * 1 with least eigenvalue -SHIFT."""
        return min_eig(m) + self.SHIFT

    def test_untampered_solve_passes(self, monkeypatch):
        self._install(monkeypatch, lambda sol: None)
        assert abs(rot_certified(self.INSTR).value - 0.55) <= 1e-6

    def test_witness_not_psd(self, monkeypatch):
        def edit(sol):
            s = self._below_zero(sol.primal_blocks[0])
            sol.primal_blocks[0] = sol.primal_blocks[0] - s * np.eye(4)
            sol.primal_blocks[5] = sol.primal_blocks[5] + s * np.eye(4)

        self._fails(monkeypatch, edit, "primal_psd_block0")

    def test_normalizer_not_psd(self, monkeypatch):
        def edit(sol):
            sol.primal_blocks[4] = sol.primal_blocks[4] - self._below_zero(sol.primal_blocks[4]) * np.eye(4)

        self._fails(monkeypatch, edit, "primal_psd_block4")

    def test_normalizer_marginal_off_identity(self, monkeypatch):
        def edit(sol):
            for k in (4, 5, 6, 7, 8):  # B and every P_a, so only tr_V B moves
                sol.primal_blocks[k] = sol.primal_blocks[k] + self.SHIFT * np.eye(4)

        self._fails(monkeypatch, edit, "row64")

    @pytest.mark.parametrize("block, partner", [(6, 10), (11, 7)], ids=["P", "Q"])
    def test_decomposition_pair_not_psd(self, monkeypatch, block, partner):
        def edit(sol):
            s = self._below_zero(sol.primal_blocks[block])
            sol.primal_blocks[block] = sol.primal_blocks[block] - s * np.eye(4)
            sol.primal_blocks[partner] = sol.primal_blocks[partner] + s * np.eye(4)

        self._fails(monkeypatch, edit, f"primal_psd_block{block}")

    def test_decomposition_identity_violated(self, monkeypatch):
        def edit(sol):
            sol.primal_blocks[8] = sol.primal_blocks[8] + self.SHIFT * np.eye(4)

        self._fails(monkeypatch, edit, "row48")

    def test_cover_does_not_dominate_outcome(self, monkeypatch):
        def edit(sol):
            y = sol.dual_multipliers
            f = smat(y[16:32], 4) / 2.0
            s = self._below_zero(f - self.INSTR.mats[1])
            y[16:32] -= svec(2.0 * s * np.eye(4))

        self._fails(monkeypatch, edit, "dual_slack_block1", solve=rot_certified)

    def test_cover_exceeds_the_cap(self, monkeypatch):
        def edit(sol):
            y = sol.dual_multipliers
            fs = [smat(y[16 * a : 16 * a + 16], 4) / 2.0 for a in range(4)]
            cap = tensor(np.eye(2), -smat(y[64:], 2)) - 2.0 * sum(fs)
            y[64:] += svec(self._below_zero(cap) * np.eye(2))

        self._fails(monkeypatch, edit, "dual_slack_block4", solve=rot_certified)

    def test_classical_benchmark_state_off_trace_one(self, monkeypatch):
        """The classical-family program is checked too: a tau with trace
        1 + 4 * SHIFT fails its trace row (row 16, after the 16 rows of
        sum_x F_x = (1/d_V) 1 (x) tau)."""
        payoffs = [np.eye(4) / 4.0, None]

        def edit(sol):
            sol.primal_blocks[2] = sol.primal_blocks[2] + 2.0 * self.SHIFT * np.eye(2)

        self._fails(monkeypatch, edit, "row16", solve=lambda _: classical_max(payoffs, (2, 2)))


class TestOracleValues:
    def test_classical_product_instruments_have_zero_robustness(self):
        rng = np.random.default_rng(0)
        for k in range(3):
            inst = _product_instrument(rng, outcomes=3 + k)
            assert abs(rot_primal(inst).value) <= 1e-6
            assert abs(rot_dual(inst).value) <= 1e-6

    def test_separability_boundary_instrument_is_classical(self):
        inst = build_instrument(bell_povm(2), _isotropic(1.0 / 3.0))
        np.testing.assert_allclose(rot(inst), 0.0, atol=1e-5)

    def test_entangled_isotropic_instrument_is_not_classical(self):
        inst = build_instrument(bell_povm(2), _isotropic(0.9))
        value = rot(inst)
        assert value > 0.1
        # the dual witness certifies strict positivity on its own
        assert rot_dual(inst).value > 0.1

    def test_primal_dual_agree_on_random_instruments(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            inst = build_instrument(
                rand_povm((2, 2), 4, rng=rng), rand_state((2, 2), rng=rng)
            )
            p = rot_primal(inst)
            d = rot_dual(inst)
            assert abs(p.value - d.value) <= 1e-6
            mid = rot(inst)
            np.testing.assert_allclose(mid, 0.5 * (p.value + d.value), atol=1e-9)
            # the one-solve value agrees with the independent primal oracle
            assert abs(mid - p.value) <= 1e-7

    def test_non_square_dims(self):
        rng = np.random.default_rng(2)
        inst = build_instrument(rand_povm((2, 2), 3, rng=rng), rand_state((2, 3), rng=rng))
        p = rot_primal(inst)
        d = rot_dual(inst)
        assert abs(p.value - d.value) <= 1e-6
        assert p.value >= -1e-7
        cert = rot_certified(inst)
        assert abs(cert.value - p.value) <= 1e-7
        for sol, build in ((cert.primal, rot_primal_problem), (cert.dual, rot_dual_problem)):
            report = verify_certificate(build(inst)[0], sol.solution)
            assert report.ok, report.messages


class TestConvexityAndMonotonicity:
    def _mix(self, a, b, p):
        ops = [p * x + (1 - p) * y for x, y in zip(a.mats, b.mats)]
        return TeleportationInstrument(ops, a.dims)

    def test_mixtures_never_exceed_the_mixture_of_values(self):
        rng = np.random.default_rng(3)
        ideal = ideal_instrument(2)
        other = _product_instrument(rng, outcomes=4)
        t_ideal = rot(ideal)
        t_other = rot(other)
        for p in (0.25, 0.5, 0.75):
            mixed = self._mix(ideal, other, p)
            t_mix = rot(mixed)
            assert t_mix <= p * t_ideal + (1 - p) * t_other + 1e-7

    def test_coarse_graining_outcomes_cannot_increase_robustness(self):
        """Merging outcomes is a classical simulation and must not help."""
        inst = ideal_instrument(2)
        merged = TeleportationInstrument(
            [inst.mats[0] + inst.mats[1], inst.mats[2] + inst.mats[3]], inst.dims
        )
        assert rot(merged) <= rot(inst) + 1e-7


class TestRotMany:
    """``rot_many`` returns ``[rot(i) for i in instrs]`` from forked workers.

    The usable CPUs are monkeypatched, so each test takes the path it
    names on any machine; no worker may outlive a call.
    """

    INSTRS = [
        build_instrument(rand_povm((2, 2), k, rng=np.random.default_rng(k)), rand_state((2, 2), rng=k))
        for k in (1, 2, 3, 4, 5)
    ]

    def test_equals_one_rot_per_instrument(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert rot_many(self.INSTRS) == [rot(i) for i in self.INSTRS]
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_runs_in_process(self, monkeypatch):
        expected = [rot(i) for i in self.INSTRS]

        def no_pool(method):
            raise AssertionError(f"a {method} pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        assert rot_many(self.INSTRS) == expected
        assert multiprocessing.active_children() == []

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        """The forked workers inherit the patched solver and fail in it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(
            conic_module, "solve", lambda prob, **kwargs: SdpSolution(status="max_iterations", message="stalled")
        )
        with pytest.raises(SolverError, match="status 'max_iterations'"):
            rot_many(self.INSTRS)
        assert multiprocessing.active_children() == []

    def test_no_instruments(self):
        assert rot_many([]) == []


def _local_unitary(instr, rng):
    """J_a -> (U_V (x) U_B) J_a (U_V (x) U_B)^dag for Haar-random U_V, U_B."""
    d_v, d_b = instr.dims
    u = tensor(rand_unitary(d_v, rng), rand_unitary(d_b, rng))
    return TeleportationInstrument([u @ j @ dagger(u) for j in instr.mats], instr.dims)


def _random_entangled(rng, d=2):
    """A Haar-random basis measurement on V (x) A, rank 1 and not Bell, on a
    random pure state of A (x) B, all of dimension d (T about 0.1-0.5 at d = 2)."""
    w = rand_unitary(d * d, rng)
    basis = Povm([np.outer(w[:, a], w[:, a].conj()) for a in range(d * d)], (d, d))
    return build_instrument(basis, rand_state((d, d), rank=1, rng=rng))


def _with_zero_outcome(instr):
    return TeleportationInstrument(list(instr.mats) + [np.zeros_like(instr.mats[0])], instr.dims)


@settings(deadline=None, max_examples=4)
@given(st.integers(0, 10_000))
def test_robustness_is_invariant_under_relabelling_and_local_unitaries(seed):
    """T of a random entangled d = 2 instrument is unchanged by an outcome
    permutation and by local unitaries on V and B."""
    rng = np.random.default_rng(seed)
    instr = _random_entangled(rng)
    permuted = TeleportationInstrument([instr.mats[a] for a in rng.permutation(4)], instr.dims)
    t, t_perm, t_rot = rot_many([instr, permuted, _local_unitary(instr, rng)])
    assert abs(t_perm - t) <= 1e-7
    assert abs(t_rot - t) <= 1e-7


@settings(deadline=None, max_examples=4)
@given(st.integers(0, 10_000))
def test_zero_outcome_and_classical_relabelling(seed):
    """Appending a zero outcome leaves T unchanged, to 1e-7; a random
    classical relabelling (a stochastic kernel p(b|a) on the outcomes)
    does not increase it.  The zero outcome makes its blocks of X and S
    singular at the optimum."""
    rng = np.random.default_rng(seed)
    instr = _random_entangled(rng)
    relabelled = apply_classical_sim(instr, rand_classical_sim(instr.outcomes, rng))
    t, t_zero, t_relabelled = rot_many([instr, _with_zero_outcome(instr), relabelled])
    assert abs(t_zero - t) <= 1e-7
    assert t_relabelled <= t + 1e-7


def test_qutrit_basis_measurement_keeps_t_under_permutation_and_a_zero_outcome():
    """At d = 3, T of a random rank-1 basis measurement on a random pure
    state (T = 0.856) is unchanged, to 1e-7, by an outcome permutation and
    by an appended zero outcome.  Its 738- and 820-row duals are factored
    as block arrows, on scipy's kernels."""
    rng = np.random.default_rng(0)
    instr = _random_entangled(rng, 3)
    permuted = TeleportationInstrument([instr.mats[a] for a in rng.permutation(9)], instr.dims)
    t, t_perm, t_zero = rot_many([instr, permuted, _with_zero_outcome(instr)])
    assert abs(t - 0.856485275) <= 1e-6
    assert abs(t_perm - t) <= 1e-7
    assert abs(t_zero - t) <= 1e-7


@pytest.mark.parametrize(
    "d, p, expected", [(2, 1.0, 1.0), (3, 1.0, 2.0), (3, 0.7, 1.2)], ids=["2-1.0", "3-2.0", "3-1.2"]
)
def test_ideal_instrument_with_a_zero_outcome_keeps_the_closed_form(d, p, expected):
    """Bell measurement on an isotropic state plus a zero outcome keeps
    T = d F - 1 with F = p + (1 - p) / d^2: d - 1 on the maximally entangled
    state (p = 1), and 1.2 at d = 3, p = 0.7."""
    instr = _with_zero_outcome(build_instrument(bell_povm(d), isotropic_state(p, d)))
    assert abs(rot(instr) - expected) <= 1e-6


class TestEntanglementRobustness:
    def test_maximally_entangled_values(self):
        np.testing.assert_allclose(
            robustness_of_entanglement(DensityMatrix(max_entangled(2), (2, 2))),
            1.0,
            atol=1e-6,
        )
        np.testing.assert_allclose(
            robustness_of_entanglement(DensityMatrix(max_entangled(3), (3, 3))),
            2.0,
            atol=1e-6,
        )

    def test_product_state_has_none(self):
        rng = np.random.default_rng(4)
        rho = DensityMatrix(
            tensor(rand_state((2,), rng=rng).matrix, rand_state((2,), rng=rng).matrix),
            (2, 2),
        )
        assert abs(robustness_of_entanglement(rho)) <= 1e-6

    def test_isotropic_boundary_has_none(self):
        assert abs(robustness_of_entanglement(_isotropic(1.0 / 3.0))) <= 1e-6

    def test_single_factor_state_rejected(self):
        with pytest.raises(ValueError):
            robustness_of_entanglement(DensityMatrix(np.eye(2) / 2, (2,)))


def _bell_t_and_r_e(rho):
    """(T of the Bell-measurement instrument on rho, R_E(rho))."""
    return rot(build_instrument(bell_povm(rho.dims[0]), rho)), robustness_of_entanglement(rho)


class TestBellMeasurementReachesEntanglementRobustness:
    """T(Bell, rho) = R_E(rho) under the PPT relaxation, and no measurement
    M extracts more: T(M, rho) <= R_E(rho)."""

    @settings(deadline=None, max_examples=8)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_equal_on_random_qubit_states(self, seed, rank):
        rho = rand_state((2, 2), rank=rank, rng=np.random.default_rng(seed))
        t, r_e = _bell_t_and_r_e(rho)
        assert abs(t - r_e) <= 1e-6

    @pytest.mark.parametrize("seed, rank, expected", [(0, 2, 0.775647155), (1, 9, 0.202611766)])
    def test_equal_on_seeded_qutrit_states(self, seed, rank, expected):
        t, r_e = _bell_t_and_r_e(rand_state((3, 3), rank=rank, rng=np.random.default_rng(seed)))
        assert abs(t - r_e) <= 1e-6
        assert abs(t - expected) <= 1e-6

    def test_isotropic_qutrit_closed_form(self):
        """Both equal d F - 1 with F = p + (1 - p) / d^2 at d = 3, p = 0.8."""
        t, r_e = _bell_t_and_r_e(isotropic_state(0.8, 3))
        expected = 3 * (0.8 + 0.2 / 9) - 1
        assert abs(t - expected) <= 1e-6
        assert abs(r_e - expected) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_turned_bell_measurement_stays_below(self, seed):
        """A Bell measurement conjugated by a Haar-random unitary on V' (x) A,
        on a random pure state, extracts 0.1 < T <= R_E: the bound is met
        by a nonzero T, not by T = 0."""
        rng = np.random.default_rng(seed)
        rho = rand_state((2, 2), rank=1, rng=rng)
        u = rand_unitary(4, rng)
        turned = Povm([dagger(u) @ m @ u for m in bell_povm(2).elements], (2, 2))
        t = rot(build_instrument(turned, rho))
        assert 0.1 < t <= robustness_of_entanglement(rho) + 1e-6

    def test_product_state_gives_none(self):
        """T = 0 on a product state, for the Bell measurement and for a
        random one."""
        rng = np.random.default_rng(5)
        rho = DensityMatrix(
            tensor(rand_state((2,), rng=rng).matrix, rand_state((2,), rng=rng).matrix),
            (2, 2),
        )
        for povm in (bell_povm(2), rand_povm((2, 2), 4, rng=rng)):
            assert abs(rot(build_instrument(povm, rho))) <= 1e-6
