"""Tests for the robustness programs and their link to the robustness of entanglement."""

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telerobust import cli, conic as conic_module, discrim as discrim_module, rot as rot_module
from telerobust.conic import (
    CertificateReport,
    SdpProblem,
    SdpSolution,
    SolverError,
    smat,
    solve_checked,
    svec,
    verify_certificate,
)
from telerobust.discrim import build_discrimination_from_dual, classical_p_succ_ensemble, p_succ
from telerobust.games import build_game_from_dual, classical_game_score, game_score
from telerobust.linalg import (
    dagger,
    frobenius_norm,
    hermitize,
    max_entangled,
    min_eig,
    partial_trace,
    partial_transpose,
    pinv_sqrt,
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
from telerobust.serialize import record_loads, save_experiment
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


def _v_turned(instr):
    """J_a -> (U_V (x) 1) J_a (U_V (x) 1)^dag for a fixed random U_V.

    T is unchanged, but U_V takes the Weyl operators off the Weyl group,
    so Bell measurement turned this way is solved in full ("solve"), not
    on one outcome ("covariant").
    """
    d_v, d_b = instr.dims
    u = tensor(rand_unitary(d_v, np.random.default_rng(d_v)), np.eye(d_b))
    return TeleportationInstrument([u @ j @ dagger(u) for j in instr.mats], instr.dims)


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


def _dual_with_p_blocks(instr):
    """The robustness dual with its P_a blocks, B - A_a = P_a + Q_a^{T_B}: 3k + 1 blocks.

    The form ``rot_dual_problem`` reduces by setting every P_a to 0; kept
    here as the oracle for that reduction.
    """
    d_v, d_b = instr.dims
    n = d_v * d_b
    prob = SdpProblem()
    a_blocks = [prob.add_block(n) for _ in instr.mats]
    b_block = prob.add_block(n)
    p_blocks = [prob.add_block(n) for _ in instr.mats]
    q_blocks = [prob.add_block(n) for _ in instr.mats]
    prob.set_objective({a: d_v * j for a, j in zip(a_blocks, instr.mats)}, offset=-1.0, sense="max")

    def pt_neg(m):
        return -partial_transpose(m, (d_v, d_b), 1)

    for a, p, q in zip(a_blocks, p_blocks, q_blocks):
        prob.add_operator_equality([(b_block, 1.0), (a, -1.0), (p, -1.0), (q, pt_neg)], np.zeros((n, n)))
    prob.add_operator_equality([(b_block, lambda m: partial_trace(m, (d_v, d_b), keep=(1,)))], np.eye(d_b))
    return prob


class TestDualWithoutP:
    """The dual solves for A_a, B and Q_a with B - A_a = Q_a^{T_B}.

    Any feasible (A_a, P_a, Q_a) of the form with P_a >= 0 gives the
    feasible (A_a + P_a, 0, Q_a), which scores tr[P_a J_a] >= 0 more, so
    dropping P_a keeps the optimum.
    """

    @pytest.mark.parametrize(
        "d_v, d_a, d_b, outcomes",
        [(2, 2, 2, k) for k in range(1, 6)] + [(3, 3, 3, 9), (2, 2, 3, 3)],
        ids=[f"d2-k{k}" for k in range(1, 6)] + ["d3-k9", "dV2-dB3-k3"],
    )
    def test_blocks_and_rows(self, d_v, d_a, d_b, outcomes):
        """2k + 1 blocks of size n = d_V d_B, in the order A_a, B, Q_a, and k n^2 + d_B^2 rows."""
        n = d_v * d_b
        rng = np.random.default_rng(outcomes)
        instr = build_instrument(rand_povm((d_v, d_a), outcomes, rng=rng), rand_state((d_a, d_b), rng=rng))
        assert (instr.dims, instr.outcomes) == ((d_v, d_b), outcomes)
        prob, a_blocks, b_block, q_blocks = rot_dual_problem(instr)
        assert [b.size for b in prob.blocks] == [n] * (2 * outcomes + 1)
        assert (a_blocks, b_block, q_blocks) == (
            list(range(outcomes)), outcomes, list(range(outcomes + 1, 2 * outcomes + 1))
        )
        assert len(prob.constraints) == outcomes * n * n + d_b * d_b

    @staticmethod
    def _same_value(instr):
        reduced = rot_dual(instr).value
        full = solve_checked(_dual_with_p_blocks(instr), tol=1e-8, what="dual with P blocks").primal_value
        assert abs(reduced - full) <= 1e-7, (reduced, full)
        return reduced

    @pytest.mark.parametrize("d, p", _BELL_ISOTROPIC)
    def test_same_value_as_the_dual_with_p_blocks_on_the_closed_form_grid(self, d, p):
        self._same_value(build_instrument(bell_povm(d), _isotropic(p, d)))

    @pytest.mark.parametrize("d, outcomes", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 9)])
    def test_same_value_as_the_dual_with_p_blocks_on_random_instruments(self, d, outcomes):
        """Random full-rank POVMs on random pure states, all with T > 0."""
        rng = np.random.default_rng(10 * d + outcomes)
        instr = build_instrument(rand_povm((d, d), outcomes, rng=rng), rand_state((d, d), rank=1, rng=rng))
        assert self._same_value(instr) > 1e-3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_certificates_and_compiled_tasks_on_entangled_instruments(self, seed):
        """A random rank-1 basis measurement on a random pure state (not
        Bell-isotropic, T > 0): the cover's decomposition pairs have P = 0
        exactly, it re-verifies against the primal program, and the game
        and the discrimination task compiled from the witness score 1 + T
        against their classical benchmarks."""
        instr = _random_entangled(np.random.default_rng(seed))
        cert = rot_certified(instr)
        assert cert.value > 0.05
        assert all(not np.any(p) for p, _ in cert.dual.decompositions)
        assert all(not np.any(p) for p, _ in cert.primal.solution.ppt_pairs.values())
        report = verify_certificate(rot_primal_problem(instr)[0], cert.primal.solution)
        assert report.ok, report.messages

        game = build_game_from_dual(cert.dual)
        assert abs(game_score(game, instr) / classical_game_score(game) - (1.0 + cert.value)) <= 1e-6
        task, _ = build_discrimination_from_dual(cert.dual, fictitious=10)
        assert abs(p_succ(task, instr) / classical_p_succ_ensemble(task) - (1.0 + cert.value)) <= 1e-6


class TestSolveIsVerified:
    """A solve is accepted only once ``verify_certificate`` passes.

    The solver's output is tampered through a monkeypatched
    ``conic.solve``, so ``conic.solve_checked`` runs its check on the
    tampered solution.  Each tampering breaks one condition of the
    witness program or of the cover read off its multipliers.  ``INSTR``
    is Bell measurement on an isotropic state turned on V, so that the
    full program is solved rather than the one-outcome program of the
    covariant route.  The dual program of a d = 2 instrument has blocks A_a (0-3), B (4)
    and Q_a (5-8); rows 16a .. 16a + 15 hold B - A_a - Q_a^{T_B} = 0
    (multipliers svec(d_V F_a)) and rows 64-67 tr_V B = 1 (multipliers
    -svec(tau)).  A shift s * 1 of Q_a shifts Q_a^{T_B} by the same
    s * 1, so moving s * 1 between A_a and Q_a keeps every row.
    """

    SHIFT = 1e-4
    INSTR = _v_turned(build_instrument(bell_povm(2), _isotropic(0.7)))

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
        cert = rot_certified(self.INSTR)
        assert cert.route == "solve"
        assert abs(cert.value - 0.55) <= 1e-6

    def test_witness_not_psd(self, monkeypatch):
        def edit(sol):
            s = self._below_zero(sol.primal_blocks[0])
            sol.primal_blocks[0] = sol.primal_blocks[0] - s * np.eye(4)
            sol.primal_blocks[5] = sol.primal_blocks[5] + s * np.eye(4)  # Q_0

        self._fails(monkeypatch, edit, "primal_psd_block0")

    def test_normalizer_not_psd(self, monkeypatch):
        def edit(sol):
            sol.primal_blocks[4] = sol.primal_blocks[4] - self._below_zero(sol.primal_blocks[4]) * np.eye(4)

        self._fails(monkeypatch, edit, "primal_psd_block4")

    def test_normalizer_marginal_off_identity(self, monkeypatch):
        def edit(sol):
            for k in (4, 5, 6, 7, 8):  # B and every Q_a, so only tr_V B moves
                sol.primal_blocks[k] = sol.primal_blocks[k] + self.SHIFT * np.eye(4)

        self._fails(monkeypatch, edit, "row64")

    @pytest.mark.parametrize("block, partner", [(7, 2)], ids=["Q"])
    def test_decomposition_pair_not_psd(self, monkeypatch, block, partner):
        """Q_2 pushed below zero, with A_2 raised so that its row still holds."""

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
            cert = rot_certified(inst)
            mid = rot(inst)
            # rot() is the clamped midpoint of the certified interval
            assert mid == max(0.0, 0.5 * (cert.primal.value + cert.dual.value))
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
    names on any machine; no worker may outlive a call.  ``INSTRS`` mixes
    outcome-wise PPT instruments (k = 1, 2, 4 and 5 outcomes), whose
    workers take the closed form, with one they must solve (k = 3).
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

    def test_routes_of_the_mixed_list(self):
        assert [rot_certified(i).route for i in self.INSTRS] == ["ppt", "ppt", "solve", "ppt", "ppt"]


def _spy_solves(monkeypatch):
    """Count the calls of ``conic.solve`` from here on."""
    calls = []
    real = conic_module.solve

    def counted(prob, **kwargs):
        calls.append(prob)
        return real(prob, **kwargs)

    monkeypatch.setattr(conic_module, "solve", counted)
    return calls


def _refuse_certificates(monkeypatch):
    """Make ``rot``'s ``verify_certificate`` refuse everything: the closed form
    and the lifted covariant solution, not a solve (``solve_checked`` checks
    it with ``conic``'s own)."""
    refused = CertificateReport(ok=False, max_violation=np.inf, checks={"refused": np.inf}, messages=["refused"])
    monkeypatch.setattr(rot_module, "verify_certificate", lambda prob, sol, tol=1e-6: refused)


def _certificates_verify(instr, cert):
    for sol, build in ((cert.primal, rot_primal_problem), (cert.dual, rot_dual_problem)):
        report = verify_certificate(build(instr)[0], sol.solution)
        assert report.ok, report.messages


def _separable_state(rng, terms=3):
    """A random mixture of ``terms`` random product states on C^2 (x) C^2."""
    weights = rng.dirichlet(np.ones(terms))
    rho = sum(w * tensor(rand_state((2,), rng=rng).matrix, rand_state((2,), rng=rng).matrix) for w in weights)
    return DensityMatrix(rho, (2, 2))


class TestPptRoute:
    """T = 0 without a solve when every J_a^{T_B} >= 0.

    Such an instrument covers itself (F_a = J_a, tau = tr_V sum_a J_a)
    and has the witness A_a = B = 1/d_V, Q_a = 0; ``rot_dual`` writes
    both down and keeps them once ``verify_certificate`` passes.
    """

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("at", ["product", "threshold"])
    def test_bell_isotropic_up_to_the_threshold(self, monkeypatch, d, at):
        """p = 0 and p = 1/(d + 1) exactly: no solve, and both stored certificates verify."""
        p = 0.0 if at == "product" else 1.0 / (d + 1)
        instr = build_instrument(bell_povm(d), isotropic_state(p, d))
        calls = _spy_solves(monkeypatch)
        cert = rot_certified(instr)
        assert calls == []
        assert cert.route == "ppt"
        assert cert.dual.solution.iterations == 0
        assert cert.primal.solution.iterations == 0
        assert abs(cert.value) <= 1e-12
        assert abs(cert.primal.value - cert.dual.value) <= 1e-12
        for a, j in zip(cert.primal.classical_ops, instr.mats):
            np.testing.assert_allclose(a, j, atol=1e-15)
        for a in cert.dual.witnesses_A + [cert.dual.B_op]:
            np.testing.assert_allclose(a, np.eye(d * d) / d, atol=1e-15)
        _certificates_verify(instr, cert)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_separable_state(self, seed):
        rng = np.random.default_rng(seed)
        instr = build_instrument(rand_povm((2, 2), 4, rng=rng), _separable_state(rng))
        cert = rot_certified(instr)
        assert cert.route == "ppt"
        assert abs(cert.value) <= 1e-12
        _certificates_verify(instr, cert)

    @pytest.mark.parametrize("d", [2, 3])
    def test_just_above_the_threshold_solves(self, d):
        """One outcome's program is solved: Bell measurement is Weyl-covariant."""
        p = 1.0 / (d + 1) + 1e-3
        instr = build_instrument(bell_povm(d), isotropic_state(p, d))
        cert = rot_certified(instr)
        assert cert.route == "covariant"
        assert cert.dual.solution.iterations > 0
        f_ent = p + (1.0 - p) / d**2
        assert abs(cert.value - max(0.0, d * f_ent - 1.0)) <= 1e-6
        _certificates_verify(instr, cert)

    def test_refused_closed_form_falls_back_to_a_solve(self, monkeypatch):
        """The refused closed form is followed by the covariant route's
        two-block solve, whose lifted solution is refused too, then by
        the solve of the full nine-block program."""
        instr = build_instrument(bell_povm(2), isotropic_state(0.2, 2))
        closed = rot_certified(instr)
        _refuse_certificates(monkeypatch)
        calls = _spy_solves(monkeypatch)
        solved = rot_certified(instr)
        assert [len(prob.blocks) for prob in calls] == [2, 9]
        assert solved.route == "solve"
        assert solved.dual.solution.iterations > 0
        assert closed.route == "ppt"
        assert abs(solved.value - closed.value) <= 1e-6
        _certificates_verify(instr, solved)


class TestCovariantRoute:
    """Bell measurement on any state is solved on one outcome.

    Its outcomes are J_a = (W_a (x) 1) J_0 (W_a (x) 1)^dag with W_a running
    over the d_V^2 Weyl operators, so ``rot_dual`` solves the two-block
    program of J_0, lifts the solution to every outcome and keeps it once
    ``verify_certificate`` passes on the full program.  Turned on V by a
    non-Weyl unitary (``_v_turned``), the same instrument has the same T
    but is solved in full: the oracle for the lifted certificates.
    """

    BELL = build_instrument(bell_povm(2), isotropic_state(0.7, 2))

    @pytest.mark.parametrize(
        "d, seed", [(2, 0), (2, 1), (3, 0), (3, 1), (4, None)], ids=["2-0", "2-1", "3-0", "3-1", "4-isotropic"]
    )
    def test_same_t_as_the_general_solve(self, d, seed):
        rho = isotropic_state(0.7, d) if seed is None else rand_state((d, d), rank=2, rng=np.random.default_rng(seed))
        instr = build_instrument(bell_povm(d), rho)
        turned = _v_turned(instr)
        covariant, solved = rot_certified(instr), rot_certified(turned)
        assert (covariant.route, solved.route) == ("covariant", "solve")
        assert covariant.dual.solution.iterations > 0
        assert covariant.value > 0.01
        assert abs(covariant.value - solved.value) <= 1e-7
        if seed is None:
            assert abs(covariant.value - 1.875) <= 1e-7  # d F - 1 with F = p + (1 - p) / d^2
        _certificates_verify(instr, covariant)
        _certificates_verify(turned, solved)

    def test_outcomes_in_any_order(self):
        instr = build_instrument(bell_povm(2), rand_state((2, 2), rank=1, rng=np.random.default_rng(3)))
        permuted = TeleportationInstrument([instr.mats[a] for a in (3, 0, 2, 1)], instr.dims)
        cert = rot_certified(permuted)
        assert cert.route == "covariant"
        assert abs(cert.value - rot(instr)) <= 1e-7
        _certificates_verify(permuted, cert)

    @pytest.mark.parametrize("shift, route", [(1e-12, "covariant"), (1e-6, "solve")])
    def test_perturbed_outcome(self, shift, route):
        """Weight moved between two outcomes, which keeps no-signalling:
        within the match tolerance tol * (1 + ||J_0||_F) the route stays
        covariant, beyond it the program is solved in full."""
        js = list(self.BELL.mats)
        h = shift * np.diag([1.0, -1.0, 0.0, 0.0])
        js[1], js[2] = js[1] + h, js[2] - h
        instr = TeleportationInstrument(js, self.BELL.dims)
        cert = rot_certified(instr)
        assert cert.route == route
        assert abs(cert.value - 0.55) <= 1e-5
        _certificates_verify(instr, cert)

    def test_refused_lifted_certificate_is_solved(self, monkeypatch):
        """One general solve of the full program follows the reduced one."""
        _refuse_certificates(monkeypatch)
        calls = _spy_solves(monkeypatch)
        cert = rot_certified(self.BELL)
        assert [len(prob.blocks) for prob in calls] == [2, 9]
        assert cert.route == "solve"
        assert abs(cert.value - 0.55) <= 1e-6

    def test_non_optimal_reduced_solve_is_solved(self, monkeypatch):
        real = conic_module.solve

        def stalled_reduced(prob, **kwargs):
            if len(prob.blocks) == 2:
                return SdpSolution(status="max_iter", message="stalled")
            return real(prob, **kwargs)

        monkeypatch.setattr(conic_module, "solve", stalled_reduced)
        cert = rot_certified(self.BELL)
        assert cert.route == "solve"
        assert abs(cert.value - 0.55) <= 1e-6


def _task_payoffs(instr):
    """The payoffs of the discrimination task compiled from ``instr``'s dual, and the task."""
    task, _ = build_discrimination_from_dual(rot_dual(instr))
    return discrim_module._guess_pullbacks(task), task


def _benchmark_verifies(payoffs, dims, value, ops):
    """The returned F_x are a classical strategy scoring ``value``."""
    d_v = dims[0]
    total = sum(ops)
    tau = partial_trace(total, dims, keep=(1,))
    assert abs(np.trace(tau).real - 1.0) <= 1e-7
    assert np.linalg.norm(total - tensor(np.eye(d_v) / d_v, tau)) <= 1e-7
    for f in ops:
        assert min_eig(f) >= -1e-7 and min_eig(partial_transpose(f, dims, 1)) >= -1e-7
    score = sum(np.vdot(c, f).real for c, f in zip(payoffs, ops) if c is not None)
    assert abs(score - value) <= 1e-7


class TestCovariantClassicalBenchmark:
    """The classical benchmark of a Weyl-covariant task is solved on one PPT block.

    A task compiled from a Bell measurement's dual has d_V^2 payoffs on
    one Weyl orbit and a V-invariant padding payoff, so ``classical_max``
    solves max <C_0, sigma> over PPT states sigma (one block, one row),
    lifts it to every payoff and keeps it once ``verify_certificate``
    passes on the full program.  Turned on V by a non-Weyl unitary, the
    same payoffs have the same classical value but are solved in full:
    the oracle for the lifted value.
    """

    BELL = build_instrument(bell_povm(2), isotropic_state(0.7, 2))

    @staticmethod
    def _turned(payoffs, d):
        u = tensor(rand_unitary(d, np.random.default_rng(d)), np.eye(d))
        return [u @ c @ dagger(u) for c in payoffs]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("state", ["iso0.5", "iso0.7", "iso1", "rand0", "rand1"])
    def test_same_value_as_the_full_solve(self, d, state):
        if state.startswith("iso"):
            rho = isotropic_state(float(state[3:]), d)
        else:
            rho = rand_state((d, d), rank=2, rng=np.random.default_rng(int(state[4:])))
        payoffs, task = _task_payoffs(build_instrument(bell_povm(d), rho))
        if state.startswith("rand"):
            # the padding carries weight: its total adjoint is far from 0
            assert task.multiplicities[-1] * np.linalg.norm(payoffs[-1]) > 1e-2
        value, ops, route = classical_max(payoffs, (d, d))
        solved, _, full = classical_max(self._turned(payoffs, d), (d, d))
        assert (route, full) == ("covariant", "solve")
        assert abs(value - solved) <= 1e-8
        _benchmark_verifies(payoffs, (d, d), value, ops)

    def test_payoffs_in_any_order(self):
        payoffs, _ = _task_payoffs(self.BELL)
        value = classical_max(payoffs, (2, 2))[0]
        order = [4, 2, 0, 3, 1]
        shuffled, ops, route = classical_max([payoffs[x] for x in order], (2, 2))
        assert route == "covariant"
        assert abs(shuffled - value) <= 1e-9
        _benchmark_verifies([payoffs[x] for x in order], (2, 2), shuffled, ops)

    @pytest.mark.parametrize("shift, route", [(1e-12, "covariant"), (1e-6, "solve")])
    @pytest.mark.parametrize("which", [1, 4], ids=["orbit", "padding"])
    def test_perturbed_payoff(self, shift, route, which):
        """Within the match tolerance tol * (1 + ||C||_F) the route stays
        covariant; beyond it the program is solved in full."""
        payoffs, _ = _task_payoffs(self.BELL)
        value = classical_max(payoffs, (2, 2))[0]
        payoffs[which] = payoffs[which] + shift * np.diag([1.0, -1.0, 0.0, 0.0])
        moved, ops, taken = classical_max(payoffs, (2, 2))
        assert taken == route
        assert abs(moved - value) <= 1e-5
        _benchmark_verifies(payoffs, (2, 2), moved, ops)

    def test_fixed_payoff_that_wins_is_certified(self, monkeypatch):
        """A payoff 1 (x) M with lambda_max(M) = 0.9 above the orbit's
        t_0 = 1/2 wins: F = (1/d_V) 1 (x) |0><0| on it, and the lift is
        verified on the full program."""
        payoffs, _ = _task_payoffs(self.BELL)
        payoffs.append(tensor(np.eye(2), np.diag([0.9, 0.1])))
        calls = _spy_solves(monkeypatch)
        value, ops, route = classical_max(payoffs + [None], (2, 2))
        assert route == "covariant" and [len(prob.blocks) for prob in calls] == [1]
        assert abs(value - 0.9) <= 1e-9
        np.testing.assert_allclose(ops[5], tensor(np.eye(2) / 2, np.diag([1.0, 0.0])), atol=1e-12)
        _benchmark_verifies(payoffs + [None], (2, 2), value, ops)

    def test_refused_lift_is_solved(self, monkeypatch):
        """One general solve of the full program follows the reduced one."""
        payoffs, _ = _task_payoffs(self.BELL)
        value = classical_max(payoffs, (2, 2))[0]
        _refuse_certificates(monkeypatch)
        calls = _spy_solves(monkeypatch)
        solved, _, route = classical_max(payoffs, (2, 2))
        assert [len(prob.blocks) for prob in calls] == [1, 6]
        assert route == "solve"
        assert abs(solved - value) <= 1e-8

    def test_non_optimal_reduced_solve_is_solved(self, monkeypatch):
        payoffs, _ = _task_payoffs(self.BELL)
        value = classical_max(payoffs, (2, 2))[0]
        real = conic_module.solve

        def stalled_reduced(prob, **kwargs):
            if len(prob.blocks) == 1:
                return SdpSolution(status="max_iter", message="stalled")
            return real(prob, **kwargs)

        monkeypatch.setattr(conic_module, "solve", stalled_reduced)
        solved, _, route = classical_max(payoffs, (2, 2))
        assert route == "solve"
        assert abs(solved - value) <= 1e-8

    def test_records_name_the_route(self, tmp_path):
        """``game classical`` on a dual game and both discrimination
        commands record the route their benchmark took."""
        instr_file, game_file, task_file = (tmp_path / f"{n}.json" for n in ("instr", "game", "task"))
        save_experiment(instr_file, {"instrument": self.BELL})
        save_experiment(game_file, {"game": build_game_from_dual(rot_dual(self.BELL))})
        task, _ = build_discrimination_from_dual(rot_dual(self.BELL))
        save_experiment(task_file, {"task": task})
        turned = tmp_path / "turned.json"
        save_experiment(turned, {"game": build_game_from_dual(rot_dual(_v_turned(self.BELL)))})
        runs = {
            "game": (["game", "classical", "--game", str(game_file)], "covariant"),
            "turned game": (["game", "classical", "--game", str(turned)], "solve"),
            "corrected": (["game", "classical", "--game", str(game_file), "--family", "pauli_group"], "solve"),
            "classical": (["discrim", "classical", "--e", str(task_file)], "covariant"),
            "ratio": (["discrim", "ratio", "--e", str(task_file), "--instrument", str(instr_file)], "covariant"),
        }
        for name, (argv, route) in runs.items():
            out = tmp_path / f"record of {name}.json"
            assert cli.main([*argv, "--out", str(out)]) == 0
            assert record_loads(out.read_text(encoding="utf-8")).values["route"] == route, name

    def test_sweep_denominator_takes_the_route(self, tmp_path, monkeypatch):
        """The Pauli twirl's pullbacks are one Weyl orbit."""
        routes = []
        real = discrim_module.classical_max

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            routes.append(out[2])
            return out

        monkeypatch.setattr(discrim_module, "classical_max", spy)
        cfg = tmp_path / "sweep.json"
        cfg.write_text('{"parameter": "isotropic_p", "start": 0.9, "stop": 1.0, "step": 0.1}', encoding="utf-8")
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")]) == 0
        assert routes == ["covariant"]


@pytest.mark.parametrize("rank, outcomes", [(1, 9), (1, 11), (2, 5), (2, 7)])
class TestLowRankQutritPovms:
    """Random d = 3 POVMs whose elements all have rank 1 or 2; 9 or 5
    outcomes is the least number that can sum to the identity on the
    9-dimensional V (x) A."""

    def test_product_state_takes_the_closed_form(self, rank, outcomes):
        rng = np.random.default_rng(10 * rank + outcomes)
        rho = DensityMatrix(tensor(rand_state((3,), rng=rng).matrix, rand_state((3,), rng=rng).matrix), (3, 3))
        instr = build_instrument(_rank_r_povm(rng, 3, outcomes, rank), rho)
        cert = rot_certified(instr)
        assert cert.route == "ppt"
        assert abs(cert.value) <= 1e-12
        _certificates_verify(instr, cert)

    def test_entangled_pure_state_is_solved(self, rank, outcomes):
        rng = np.random.default_rng(10 * rank + outcomes)
        instr = build_instrument(_rank_r_povm(rng, 3, outcomes, rank), rand_state((3, 3), rank=1, rng=rng))
        cert = rot_certified(instr)
        assert cert.route == "solve"
        assert cert.value > 1e-3
        _certificates_verify(instr, cert)


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


def _rank_r_povm(rng, d, outcomes, rank):
    """Random POVM on V (x) A (both of dimension d) whose elements all have rank ``rank``."""
    raw = []
    for _ in range(outcomes):
        g = rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal((d * d, rank))
        raw.append(g @ dagger(g))
    scale = pinv_sqrt(sum(raw))
    return Povm([hermitize(scale @ m @ scale) for m in raw], (d, d))


@settings(deadline=None, max_examples=4)
@given(st.integers(0, 10_000), st.integers(3, 4))
def test_qutrit_robustness_is_invariant_under_relabelling_and_local_unitaries(seed, outcomes):
    """At d = 3, T of a random POVM with 3 or 4 rank-3 outcomes on a random
    pure state is unchanged, to 1e-7, by an outcome permutation and by
    local unitaries on V and B.  Rank 3 is the least rank at which 3 or 4
    elements can sum to the identity on the 9-dimensional V (x) A."""
    rng = np.random.default_rng(seed)
    instr = build_instrument(_rank_r_povm(rng, 3, outcomes, 3), rand_state((3, 3), rank=1, rng=rng))
    permuted = TeleportationInstrument([instr.mats[a] for a in rng.permutation(outcomes)], instr.dims)
    t, t_perm, t_rot = rot_many([instr, permuted, _local_unitary(instr, rng)])
    assert abs(t_perm - t) <= 1e-7
    assert abs(t_rot - t) <= 1e-7


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
    state (p = 1), and 1.2 at d = 3, p = 0.7.  With d^2 + 1 outcomes it is
    not Weyl-covariant, so the full program is solved."""
    instr = _with_zero_outcome(build_instrument(bell_povm(d), isotropic_state(p, d)))
    cert = rot_certified(instr)
    assert cert.route == "solve"
    assert abs(cert.value - expected) <= 1e-6


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
