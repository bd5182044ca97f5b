"""Tests for correlation-transfer games and their classical benchmarks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telerobust.linalg import dagger, max_entangled, partial_trace, tensor
from telerobust.games import (
    CorrelationGame,
    UnitaryFamily,
    average_fidelity,
    build_game_from_dual,
    classical_game_score,
    classical_game_strategy,
    fidelity_game_of,
    game_score,
    _overlap,
    _pulled,
    _pullback_target,
    _relabel_table,
)
from telerobust.qobjects import (
    DensityMatrix,
    InputEnsemble,
    TeleportationInstrument,
    bell_povm,
    build_instrument,
    choi_apply,
    choi_apply_second,
    ideal_instrument,
    isotropic_state,
    pauli_six,
    rand_povm,
    rand_state,
    rand_unitary,
    weyl_family,
)
from telerobust.rot import classical_max, rot, rot_dual


def _bell_projectors(d=2):
    phi = max_entangled(d)
    return [
        tensor(np.eye(d), w) @ phi @ dagger(tensor(np.eye(d), w)) for w in weyl_family(d)
    ]


def _random_instrument(rng, outcomes=4):
    return build_instrument(
        rand_povm((2, 2), outcomes, rng=rng), rand_state((2, 2), rng=rng)
    )


def _entangled_instrument(rng):
    return build_instrument(bell_povm(2), rand_state((2, 2), rank=1, rng=rng))


def _qutrit_mubs():
    """The 12 states of the four mutually unbiased qutrit bases, equally
    weighted: the computational basis and, for k = 0, 1, 2, the vectors
    sum_j w^(k j^2 + m j) |j> / sqrt(3) with w = exp(2 pi i / 3)."""
    w = np.exp(2j * np.pi / 3)
    kets = list(np.eye(3))
    kets += [w ** (k * np.arange(3) ** 2 + m * np.arange(3)) / np.sqrt(3) for k in range(3) for m in range(3)]
    return InputEnsemble([DensityMatrix(np.outer(v, v.conj()), (3,)) for v in kets], np.full(12, 1.0 / 12.0))


class TestUnitaryFamily:
    def test_members_are_unitary(self):
        for kind in ("identity_only", "pauli_group", "seesaw_polished"):
            for d in (2, 3):
                for u in UnitaryFamily(kind).members(d):
                    assert np.linalg.norm(dagger(u) @ u - np.eye(d)) < 1e-10

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown unitary family"):
            UnitaryFamily("all_unitaries")


class TestCorrelationGame:
    def _phi(self):
        return DensityMatrix(max_entangled(2), (2, 2))

    def test_negative_payoff_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CorrelationGame(self._phi(), [np.eye(4)], np.array([-1.0]))

    def test_non_psd_target_rejected(self):
        bad = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="not PSD"):
            CorrelationGame(self._phi(), [bad], np.array([1.0]))

    def test_payoff_count_must_match_targets(self):
        with pytest.raises(ValueError, match="one payoff per target"):
            CorrelationGame(self._phi(), [np.eye(4)], np.array([1.0, 2.0]))

    def test_single_factor_input_rejected(self):
        flat = DensityMatrix(np.eye(4) / 4.0, (4,))
        with pytest.raises(ValueError, match="bipartite"):
            CorrelationGame(flat, [np.eye(4)], np.array([1.0]))

    def test_dims_exposed(self):
        g = CorrelationGame(self._phi(), [np.eye(8)] * 3, np.ones(3))
        assert (g.spectator_dim, g.probe_dim, g.target_dim, g.outcomes) == (2, 2, 4, 3)


class TestGameScore:
    def test_witness_game_reproduces_robustness_identity(self):
        instr = ideal_instrument(2)
        dual = rot_dual(instr)
        g = build_game_from_dual(dual)
        score = game_score(g, instr, UnitaryFamily("identity_only"))
        assert abs(2.0 * score - (1.0 + dual.value)) < 1e-5

    def test_fidelity_game_on_ideal_instrument_is_perfect(self):
        g = fidelity_game_of(pauli_six(), 4)
        score = game_score(g, ideal_instrument(2), UnitaryFamily("pauli_group"))
        assert abs(score - 1.0) < 1e-9

    def test_single_outcome_instrument_matches_direct_evaluation(self):
        rng = np.random.default_rng(3)
        instr = _random_instrument(rng)
        merged = TeleportationInstrument([sum(instr.mats)], instr.dims)
        g = build_game_from_dual(rot_dual(ideal_instrument(2)))
        score = game_score(g, merged, UnitaryFamily("identity_only"), relabelings="on")
        y = choi_apply_second(merged.mats[0], 2, 2, g.input_state.matrix, 2)
        direct = max(
            g.scores[b] * float(np.vdot(g.targets[b], y).real) for b in range(g.outcomes)
        )
        assert abs(score - direct) < 1e-12

    def test_outcome_mismatch_needs_relabelings(self):
        rng = np.random.default_rng(5)
        instr = build_instrument(
            rand_povm((2, 2), 3, rng=rng), rand_state((2, 2), rng=rng)
        )
        g = build_game_from_dual(rot_dual(ideal_instrument(2)))
        with pytest.raises(ValueError, match="relabelings"):
            game_score(g, instr, UnitaryFamily("identity_only"))
        assert game_score(g, instr, UnitaryFamily("identity_only"), relabelings="on") >= 0.0

    def test_dimension_mismatch_rejected(self):
        g = build_game_from_dual(rot_dual(ideal_instrument(2)))
        with pytest.raises(ValueError, match="dimension"):
            game_score(g, ideal_instrument(3), UnitaryFamily("identity_only"))

    def test_richer_families_never_lower_the_score(self):
        rng = np.random.default_rng(11)
        g = fidelity_game_of(pauli_six(), 4)
        for _ in range(3):
            instr = _random_instrument(rng)
            s_id = game_score(g, instr, UnitaryFamily("identity_only"))
            s_pg = game_score(g, instr, UnitaryFamily("pauli_group"))
            s_sp = game_score(g, instr, UnitaryFamily("seesaw_polished"))
            assert s_pg >= s_id - 1e-12
            assert s_sp >= s_pg - 1e-12

    def test_relabelings_never_lower_the_score(self):
        rng = np.random.default_rng(13)
        g = build_game_from_dual(rot_dual(ideal_instrument(2)))
        for _ in range(3):
            instr = _random_instrument(rng)
            off = game_score(g, instr, UnitaryFamily("pauli_group"))
            on = game_score(g, instr, UnitaryFamily("pauli_group"), relabelings="on")
            assert on >= off - 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabel_table_equals_per_entry_overlaps(self, seed):
        """Forming each pulled target once per b leaves every entry bit-identical."""
        rng = np.random.default_rng(seed)
        instr = _random_instrument(rng, outcomes=3)
        g = fidelity_game_of(pauli_six(), 4)
        d_spec = g.spectator_dim
        ys = [choi_apply_second(j, 2, 2, g.input_state.matrix, d_spec) for j in instr.mats]
        members = UnitaryFamily("pauli_group").members(2)
        us = [members[int(k)] for k in rng.integers(0, len(members), g.outcomes)]
        f = g.scores
        old = np.array(
            [[f[b] * _overlap(ys[a], g.targets[b], us[b], d_spec) for a in range(len(ys))] for b in range(g.outcomes)]
        )
        assert np.array_equal(_relabel_table(ys, g, us, d_spec), old)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        instr = _random_instrument(rng)
        g = fidelity_game_of(pauli_six(), 4)
        fam = UnitaryFamily("seesaw_polished")
        assert game_score(g, instr, fam) == game_score(g, instr, fam)


class TestPullbackTarget:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_matches_forward_application(self, seed):
        rng = np.random.default_rng(seed)
        d_spec, d_v, d_b = 3, 2, 2
        sigma = rand_state((d_spec, d_v), rng=rng).matrix
        xi = 2.3 * rand_state((d_spec, d_b), rng=rng).matrix
        f_op = 0.7 * rand_state((d_v, d_b), rng=rng).matrix
        c = _pullback_target(sigma, xi, d_spec, d_v, d_b)
        direct = float(np.vdot(xi, choi_apply_second(f_op, d_v, d_b, sigma, d_spec)).real)
        assert abs(float(np.vdot(c, f_op).real) - direct) < 1e-12
        assert np.linalg.norm(c - dagger(c)) < 1e-13


class TestClassicalGameScore:
    def test_witness_game_classical_value_is_inverse_dimension(self):
        g = build_game_from_dual(rot_dual(ideal_instrument(2)))
        value = classical_game_score(g, UnitaryFamily("identity_only"))
        assert abs(value - 0.5) < 1e-5

    def test_benchmark_bounds_a_classical_player(self):
        """Bell measurement on the isotropic state at the threshold p = 1/3
        is PPT, so a classical player: on the ideal qubit dual game it
        scores 0.49999999940, above the lower end of the benchmark solve's
        interval (0.49999999939).  The benchmark is the verified dual
        value, the upper end, and bounds that score."""
        g = build_game_from_dual(rot_dual(ideal_instrument(2)))
        identity = UnitaryFamily("identity_only")
        value = classical_game_score(g, identity)
        player = build_instrument(bell_povm(2), isotropic_state(1.0 / 3.0, 2))
        assert game_score(g, player, identity) <= value
        assert abs(value - 0.5) <= 1e-8

    def test_hand_built_classical_strategy_attains_the_benchmark(self):
        # split each Bell projector into its PPT smoothing S_a/4; the
        # resulting family is no-signalling and scores exactly 1/2 in the
        # exact witness game (targets = Bell projectors, unit payoffs)
        bells = _bell_projectors(2)
        phi = DensityMatrix(max_entangled(2), (2, 2))
        g = CorrelationGame(phi, bells, np.ones(4))
        value = 0.0
        total = np.zeros((4, 4), dtype=complex)
        for b, xi in zip(bells, g.targets):
            s_op = 0.5 * (b + (np.eye(4) - b) / 3.0)
            f_op = s_op / 4.0
            total += f_op
            y = choi_apply_second(f_op, 2, 2, g.input_state.matrix, 2)
            value += float(np.vdot(xi, y).real)
        assert np.linalg.norm(total - np.eye(4) / 4.0) < 1e-12
        assert abs(value - 0.5) < 1e-12
        solved = classical_game_score(g, UnitaryFamily("identity_only"))
        assert abs(solved - 0.5) < 1e-6

    def test_fidelity_game_classical_threshold(self):
        # the classical fidelity on a 2-design is 2/(d + 1), under any correction
        for probes, outcomes, limit in ((pauli_six(), 4, 2.0 / 3.0), (_qutrit_mubs(), 9, 0.5)):
            g = fidelity_game_of(probes, outcomes)
            value = classical_game_score(g, UnitaryFamily("pauli_group"))
            assert abs(value - limit) < 1e-6

    def test_classical_player_reproduces_pure_product_target(self):
        v = np.zeros(2)
        v[0] = 1.0
        pure = np.outer(v, v)
        sigma = DensityMatrix(tensor(pure, pure), (2, 2))
        g = CorrelationGame(sigma, [tensor(pure, pure)], np.array([1.0]))
        assert abs(classical_game_score(g, UnitaryFamily("identity_only")) - 1.0) < 1e-6

    def test_strategy_operators_are_no_signalling(self):
        g = build_game_from_dual(rot_dual(ideal_instrument(2)))
        value, ops = classical_game_strategy(g, UnitaryFamily("identity_only"))
        total = sum(ops)
        marginal = partial_trace(total, (2, 2), keep=(1,))
        # sum_b F_b = (1/d_V) 1 (x) tau forces tr_V of the sum to be a state
        assert abs(np.trace(total).real - 1.0) < 1e-7
        assert np.linalg.norm(total - tensor(np.eye(2) / 2.0, marginal)) < 1e-6
        assert len(ops) == g.outcomes

    def test_advantage_never_exceeds_one_plus_robustness(self):
        rng = np.random.default_rng(23)
        g = build_game_from_dual(rot_dual(ideal_instrument(2)))
        classical = classical_game_score(g, UnitaryFamily("identity_only"))
        for _ in range(4):
            instr = _random_instrument(rng)
            t_val = rot(instr)
            score = game_score(g, instr, UnitaryFamily("identity_only"))
            assert score / classical <= 1.0 + t_val + 1e-4


class TestCorrectedClassicalBound:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_corrected_classical_player_exceeds_the_bound(self, d, seed):
        """Classical instruments turned by a random unitary on B per outcome,
        and the exact program under random Weyl corrections, never score
        above the bound of ``pauli_group`` and ``seesaw_polished``."""
        rng = np.random.default_rng(10 * d + seed)
        sigma = rand_state((2, d), rng=rng).matrix
        targets = [rand_state((2, d), rng=rng).matrix for _ in range(3)]
        g = CorrelationGame(DensityMatrix(sigma, (2, d)), targets, rng.uniform(0.2, 1.0, 3))
        identity = UnitaryFamily("identity_only")
        bound = classical_game_score(g, UnitaryFamily("pauli_group"))
        assert classical_game_score(g, UnitaryFamily("seesaw_polished")) == bound
        assert classical_game_score(g, identity) <= bound + 1e-7
        for _ in range(3):
            product = tensor(rand_state((d,), rng=rng).matrix, rand_state((d,), rng=rng).matrix)
            instr = build_instrument(rand_povm((d, d), 3, rng=rng), DensityMatrix(product, (d, d)))
            turns = [tensor(np.eye(d), rand_unitary(d, rng)) for _ in instr.mats]
            turned = [u @ j @ dagger(u) for u, j in zip(turns, instr.mats)]
            # per-outcome corrections break no-signalling, so skip that check
            corrected = TeleportationInstrument(turned, (d, d), validate=False)
            assert game_score(g, corrected, identity) <= bound + 1e-7
        weyls = weyl_family(d)
        for _ in range(3):
            us = [weyls[k] for k in rng.integers(0, len(weyls), 3)]
            pulled = [_pulled(xi, u, 2) for xi, u in zip(targets, us)]
            payoffs = [f * _pullback_target(sigma, xi, 2, d, d) for f, xi in zip(g.scores, pulled)]
            assert classical_max(payoffs, (d, d))[0] <= bound + 1e-7


class TestBuildGameFromDual:
    def test_ideal_dual_gives_bell_targets_and_unit_payoffs(self):
        g = build_game_from_dual(rot_dual(ideal_instrument(2)))
        assert np.allclose(g.scores, 1.0, atol=1e-6)
        assert np.linalg.norm(g.input_state.matrix - max_entangled(2)) < 1e-12
        for xi, bell in zip(g.targets, _bell_projectors(2)):
            assert np.linalg.norm(xi - bell) < 1e-5

    def test_advantage_ratio_reaches_one_plus_robustness(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            instr = _entangled_instrument(rng)
            dual = rot_dual(instr)
            g = build_game_from_dual(dual)
            score = game_score(g, instr, UnitaryFamily("identity_only"))
            classical = classical_game_score(g, UnitaryFamily("identity_only"))
            assert abs(2.0 * score - (1.0 + dual.value)) < 1e-4
            assert score / classical >= (1.0 + dual.value) - 1e-4
            assert classical <= 0.5 + 1e-5

    def test_classical_instrument_gains_nothing(self):
        rng = np.random.default_rng(37)
        state = DensityMatrix(
            tensor(rand_state((2,), rng=rng).matrix, rand_state((2,), rng=rng).matrix),
            (2, 2),
        )
        instr = build_instrument(rand_povm((2, 2), 4, rng=rng), state)
        dual = rot_dual(instr)
        g = build_game_from_dual(dual)
        score = game_score(g, instr, UnitaryFamily("identity_only"))
        classical = classical_game_score(g, UnitaryFamily("identity_only"))
        assert abs(score - classical) < 1e-5

    def test_degenerate_dual_rejected(self):
        from telerobust.linalg import NumericalError
        from telerobust.rot import RotDualSolution

        zero = np.zeros((4, 4))
        fake = RotDualSolution(0.0, [zero, zero], np.eye(4) / 2.0, [], (2, 2))
        with pytest.raises(NumericalError, match="degenerate"):
            build_game_from_dual(fake)


def _direct_average_fidelity(instr, ens, family):
    """sum_a max_U sum_x w_x <omega_x| U Lambda_a(omega_x) U^dag |omega_x>,
    written out probe by probe: one correction per outcome, shared by
    every probe."""
    d_v, d_b = instr.dims
    total = 0.0
    for j in instr.mats:
        outs = [choi_apply(j, d_v, d_b, w.matrix) for w in ens.states]
        total += max(
            sum(
                wx * float(np.vdot(w.matrix, u @ out @ dagger(u)).real)
                for wx, w, out in zip(ens.weights, ens.states, outs)
            )
            for u in family.members(d_b)
        )
    return total


class TestFidelityGame:
    def test_mixed_probe_rejected(self):
        mixed = DensityMatrix(np.eye(2) / 2.0, (2,))
        ens = InputEnsemble([mixed, mixed], np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="pure"):
            fidelity_game_of(ens, 4)

    def test_weighted_probes_score_their_weighted_average(self):
        """Without corrections each probe contributes its own fidelity,
        weighted: the score of a weighted ensemble is sum_x w_x F_x."""
        rng = np.random.default_rng(19)
        instr = _random_instrument(rng, outcomes=3)
        states = pauli_six().states
        weights = rng.dirichlet(np.ones(len(states)))
        fam = UnitaryFamily("identity_only")
        single = [average_fidelity(instr, InputEnsemble([w], np.array([1.0])), fam) for w in states]
        value = average_fidelity(instr, InputEnsemble(states, weights), fam)
        assert abs(value - float(np.dot(weights, single))) < 1e-12

    @settings(deadline=None, max_examples=8)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_game_path_equals_direct_average(self, seed, outcomes):
        """average_fidelity, one game_score call, equals the per-probe
        formula for non-uniform weights and 1 to 5 outcomes."""
        rng = np.random.default_rng(seed)
        instr = _random_instrument(rng, outcomes=outcomes)
        ens = InputEnsemble(pauli_six().states, rng.dirichlet(np.ones(6)))
        for fam in (UnitaryFamily("identity_only"), UnitaryFamily("pauli_group")):
            direct = _direct_average_fidelity(instr, ens, fam)
            assert abs(average_fidelity(instr, ens, fam) - direct) < 1e-12


class TestAverageFidelity:
    def test_ideal_instrument_with_group_corrections_is_perfect(self):
        value = average_fidelity(ideal_instrument(2), pauli_six(), UnitaryFamily("pauli_group"))
        assert abs(value - 1.0) < 1e-9

    def test_uncorrected_ideal_instrument_is_imperfect(self):
        value = average_fidelity(ideal_instrument(2), pauli_six(), UnitaryFamily("identity_only"))
        assert value < 0.9

    def test_product_state_instrument_guesses_at_random(self):
        rng = np.random.default_rng(41)
        state = DensityMatrix(
            tensor(rand_state((2,), rng=rng).matrix, np.eye(2) / 2.0), (2, 2)
        )
        instr = build_instrument(rand_povm((2, 2), 4, rng=rng), state)
        value = average_fidelity(instr, pauli_six(), UnitaryFamily("identity_only"))
        assert abs(value - 0.5) < 1e-10

    def test_classical_optimum_hits_two_thirds(self):
        # measure the input in Z while sharing a classically correlated
        # pair: outcome (beta, gamma) says the input collapsed to beta and
        # Bob holds gamma, so a flip correction realizes the best
        # measure-and-prepare protocol on the 2-design
        basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        chois = [tensor(pb, pg) / 4.0 for pb in basis for pg in basis]
        instr = TeleportationInstrument(chois, (2, 2))
        value = average_fidelity(instr, pauli_six(), UnitaryFamily("pauli_group"))
        assert abs(value - 2.0 / 3.0) < 1e-9

    def test_probe_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="probe dimension"):
            average_fidelity(ideal_instrument(3), pauli_six(), UnitaryFamily("identity_only"))
