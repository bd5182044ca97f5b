"""Simulation recipes: validation, application, and monotonicity search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telerobust.games import game_score
from telerobust.linalg import dagger, hermitize, max_entangled, tensor
from telerobust.qobjects import (
    ChoiOperator,
    TeleportationInstrument,
    bell_povm,
    build_instrument,
    ideal_instrument,
    kraus_choi,
    partial_trace,
    rand_state,
    rand_unitary,
)
from telerobust.rot import rot
from telerobust.simorder import (
    ClassicalSimulation,
    MonotoneReport,
    MonotoneViolation,
    QuantumSimulation,
    _functional_game_value,
    _rand_game,
    apply_classical_sim,
    apply_quantum_sim,
    check_monotones,
    depolarizing_choi,
    identity_channel_choi,
    rand_channel_choi,
    rand_classical_sim,
    rand_quantum_sim,
)


def _entangled_instrument(seed):
    rng = np.random.default_rng(seed)
    return build_instrument(bell_povm(2), rand_state((2, 2), rank=1, rng=rng))


class TestRandChannelChoi:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unchanged_from_the_inline_formula(self, seed):
        """Two 2-piece Kraus draws from rng.normal, summed in order."""
        d_in, d_out = 2, 3
        rng = np.random.default_rng(seed)
        phi = max_entangled(d_in)
        old = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
        for w in rng.dirichlet(np.ones(2)):
            g = rng.normal(size=(2 * d_out, d_in)) + 1j * rng.normal(size=(2 * d_out, d_in))
            q, _ = np.linalg.qr(g)
            for i in range(2):
                full = tensor(np.eye(d_in), q[i * d_out : (i + 1) * d_out, :])
                old = old + w * (full @ phi @ dagger(full))
        assert np.array_equal(rand_channel_choi(d_in, d_out, rng=seed), hermitize(old))


class TestClassicalSimulation:
    def test_identity_and_permutation_and_merge(self):
        assert np.array_equal(ClassicalSimulation.identity(3).kernel, np.eye(3))
        perm = ClassicalSimulation.permutation([1, 2, 0])
        assert perm.kernel[1, 0] == 1.0 and perm.kernel.sum() == 3.0
        merged = ClassicalSimulation.merge_all(4)
        assert merged.out_outcomes == 1 and merged.in_outcomes == 4

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ClassicalSimulation(np.array([[1.2], [-0.2]]))

    def test_bad_column_sums_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClassicalSimulation(np.array([[0.5, 0.3], [0.4, 0.7]]))

    def test_vector_input_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            ClassicalSimulation(np.ones(3) / 3.0)


class TestQuantumSimulation:
    def test_trivial_recipe_validates(self):
        sim = QuantumSimulation.trivial(4, 2, 2)
        assert sim.branch_probs.sum() == 1.0
        assert len(sim.pre) == len(sim.post) == 1

    def test_branch_probabilities_must_be_a_distribution(self):
        iden = ChoiOperator(identity_channel_choi(2), 2, 2)
        with pytest.raises(ValueError, match="distribution"):
            QuantumSimulation(np.array([0.7, 0.7]), [np.eye(2)] * 2, [iden] * 2, [iden] * 2)

    def test_branch_count_mismatch_rejected(self):
        iden = ChoiOperator(identity_channel_choi(2), 2, 2)
        with pytest.raises(ValueError, match="branch count"):
            QuantumSimulation(np.array([0.5, 0.5]), [np.eye(2)] * 2, [iden], [iden] * 2)

    def test_kernel_shape_mismatch_rejected(self):
        iden = ChoiOperator(identity_channel_choi(2), 2, 2)
        with pytest.raises(ValueError, match="shape"):
            QuantumSimulation(
                np.array([0.5, 0.5]),
                [np.eye(2), np.ones((1, 2))],
                [iden] * 2,
                [iden] * 2,
            )

    def test_non_channel_rejected(self):
        # half the identity channel loses trace
        lossy = ChoiOperator(identity_channel_choi(2) / 2.0, 2, 2)
        iden = ChoiOperator(identity_channel_choi(2), 2, 2)
        with pytest.raises(ValueError, match="trace-preserving"):
            QuantumSimulation(np.array([1.0]), [np.eye(2)], [lossy], [iden])

    def test_dimension_mismatch_across_branches_rejected(self):
        iden2 = ChoiOperator(identity_channel_choi(2), 2, 2)
        iden3 = ChoiOperator(identity_channel_choi(3), 3, 3)
        with pytest.raises(ValueError, match="differ in dimensions"):
            QuantumSimulation(
                np.array([0.5, 0.5]), [np.eye(2)] * 2, [iden2, iden3], [iden2] * 2
            )


class TestApplyClassical:
    def test_identity_kernel_leaves_instrument_unchanged(self):
        ideal = ideal_instrument(2)
        simmed = apply_classical_sim(ideal, ClassicalSimulation.identity(4))
        for a, b in zip(simmed.mats, ideal.mats):
            assert np.array_equal(a, b)

    def test_forgetting_the_outcome_kills_robustness(self):
        merged = apply_classical_sim(ideal_instrument(2), ClassicalSimulation.merge_all(4))
        assert merged.outcomes == 1
        assert np.linalg.norm(merged.mats[0] - np.eye(4) / 4.0) <= 1e-12
        assert abs(rot(merged)) <= 1e-6

    def test_relabelling_preserves_robustness(self):
        ideal = ideal_instrument(2)
        perm = apply_classical_sim(ideal, ClassicalSimulation.permutation([2, 0, 3, 1]))
        assert abs(rot(perm) - rot(ideal)) <= 1e-8

    def test_outcome_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="outcomes"):
            apply_classical_sim(ideal_instrument(2), ClassicalSimulation.identity(3))


class TestApplyQuantum:
    def test_trivial_recipe_leaves_instrument_unchanged(self):
        ideal = ideal_instrument(2)
        simmed = apply_quantum_sim(ideal, QuantumSimulation.trivial(4, 2, 2))
        for a, b in zip(simmed.mats, ideal.mats):
            assert np.linalg.norm(a - b) <= 1e-12

    def test_depolarizing_post_channel_kills_robustness(self):
        dep = QuantumSimulation(
            np.array([1.0]),
            [np.eye(4)],
            [ChoiOperator(identity_channel_choi(2), 2, 2)],
            [ChoiOperator(depolarizing_choi(2), 2, 2)],
        )
        assert abs(rot(apply_quantum_sim(ideal_instrument(2), dep))) <= 1e-6

    def test_local_unitaries_preserve_robustness(self):
        rng = np.random.default_rng(3)
        lu = QuantumSimulation(
            np.array([1.0]),
            [np.eye(4)],
            [ChoiOperator(kraus_choi(rand_unitary(2, rng)), 2, 2)],
            [ChoiOperator(kraus_choi(rand_unitary(2, rng)), 2, 2)],
        )
        ideal = ideal_instrument(2)
        assert abs(rot(apply_quantum_sim(ideal, lu)) - rot(ideal)) <= 1e-6

    def test_pre_channel_dimension_checked(self):
        sim = QuantumSimulation.trivial(4, 3, 2)
        with pytest.raises(ValueError, match="pre-channel"):
            apply_quantum_sim(ideal_instrument(2), sim)

    def test_post_channel_dimension_checked(self):
        sim = QuantumSimulation.trivial(4, 2, 3)
        with pytest.raises(ValueError, match="post-channel"):
            apply_quantum_sim(ideal_instrument(2), sim)

    def test_kernel_width_checked(self):
        sim = QuantumSimulation.trivial(3, 2, 2)
        with pytest.raises(ValueError, match="outcomes"):
            apply_quantum_sim(ideal_instrument(2), sim)

    @settings(deadline=None, max_examples=8)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_composed_route_matches_functional_route(self, seed):
        # the same score computed with and without Choi composition
        rng = np.random.default_rng(seed)
        instr = _entangled_instrument(seed)
        sim = rand_quantum_sim(instr.outcomes, 2, 2, rng)
        game = _rand_game(2, 2, rng)
        composed = game_score(game, apply_quantum_sim(instr, sim), relabelings="on")
        functional = _functional_game_value(game, instr, sim)
        assert abs(composed - functional) <= 1e-10


class TestRandomRecipes:
    def test_random_channel_is_a_channel(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            c = rand_channel_choi(d, d, rng)
            marg = partial_trace(c, (d, d), keep=(0,))
            assert np.linalg.norm(marg - np.eye(d) / d) <= 1e-12
            assert np.linalg.eigvalsh(c)[0] >= -1e-12

    def test_random_recipes_validate_and_are_seeded(self):
        a = rand_classical_sim(4, np.random.default_rng(7))
        b = rand_classical_sim(4, np.random.default_rng(7))
        assert np.array_equal(a.kernel, b.kernel)
        q1 = rand_quantum_sim(4, 2, 2, np.random.default_rng(7))
        q2 = rand_quantum_sim(4, 2, 2, np.random.default_rng(7))
        assert np.array_equal(q1.kernels[0], q2.kernels[0])
        assert np.array_equal(q1.pre[0].matrix, q2.pre[0].matrix)


class TestCheckMonotones:
    def test_ideal_instrument_survives_the_search(self):
        rep = check_monotones(
            ideal_instrument(2), classical_samples=8, quantum_samples=4, mixture_samples=4, seed=5
        )
        assert rep.ok and rep.checked == 16 and rep.dims == (2, 2)

    def test_random_entangled_instrument_survives_the_search(self):
        rep = check_monotones(
            _entangled_instrument(11), classical_samples=6, quantum_samples=3, mixture_samples=3, seed=6
        )
        assert rep.ok

    def test_report_flags_violations(self):
        v = MonotoneViolation("robustness", "classical", 0.5, 0.7, None)
        assert abs(v.excess - 0.2) <= 1e-15
        rep = MonotoneReport((2, 2), 1, [v])
        assert not rep.ok

    def test_search_is_deterministic(self):
        """With a tolerance nothing clears, every check is reported, so the
        report lists each before/after in the order the checks were made."""
        instr = ideal_instrument(2)
        kwargs = dict(classical_samples=3, quantum_samples=2, mixture_samples=2, seed=9, tol=-1e9)
        a = check_monotones(instr, **kwargs)
        b = check_monotones(instr, **kwargs)

        def entries(rep):
            return [(v.quantity, v.sim_kind, v.before, v.after) for v in rep.violations]

        assert a.checked == 7 and entries(a) == entries(b)
        assert [(v.quantity, v.sim_kind) for v in a.violations] == (
            [("robustness", "classical"), ("discrimination", "classical"), ("game", "classical")] * 3
            + [("robustness", "quantum"), ("game", "quantum")] * 2
            + [("robustness-convexity", "mixture")] * 2
        )

        base = rot(instr)
        for v in a.violations:
            if v.quantity == "robustness":
                apply = apply_classical_sim if v.sim_kind == "classical" else apply_quantum_sim
                assert (v.before, v.after) == (base, rot(apply(instr, v.recipe)))
            elif v.quantity == "robustness-convexity":
                p, other = v.recipe["weight"], v.recipe["other"]
                mixed = TeleportationInstrument(
                    [p * x + (1.0 - p) * y for x, y in zip(instr.mats, other.mats)], instr.dims
                )
                assert (v.before, v.after) == (p * base + (1.0 - p) * rot(other), rot(mixed))
