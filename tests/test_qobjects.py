"""Tests for the teleportation-experiment domain objects."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telerobust.linalg import (
    dagger,
    frobenius_inner,
    frobenius_norm,
    hermitize,
    ket,
    max_entangled,
    min_eig,
    partial_trace,
    tensor,
)
from telerobust.qobjects import (
    ChoiOperator,
    DensityMatrix,
    InputEnsemble,
    Povm,
    TeleportationInstrument,
    apply_subchannel,
    bell_povm,
    build_instrument,
    choi_adjoint,
    choi_apply,
    choi_compose,
    fit_choi,
    ideal_instrument,
    kraus_choi,
    pauli_six,
    rand_kraus,
    rand_povm,
    rand_state,
    rand_unitary,
    realize_from_choi,
    sample,
    validate_no_signalling,
    weyl,
    weyl_family,
)


def _rand_channel_choi(rng, d_in, d_out, kraus=None):
    """Choi operator of a random channel from normalized Kraus operators."""
    kraus = kraus or d_in * d_out
    ops = [rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in)) for _ in range(kraus)]
    norm = sum(dagger(k) @ k for k in ops)
    from telerobust.linalg import pinv_sqrt

    fix = pinv_sqrt(norm)
    ops = [k @ fix for k in ops]
    phi = max_entangled(d_in)
    j = sum(tensor(np.eye(d_in), k) @ phi @ dagger(tensor(np.eye(d_in), k)) for k in ops)
    return hermitize(j)


class TestValidation:
    def test_density_matrix_accepts_states_and_rejects_junk(self):
        DensityMatrix(np.eye(2) / 2, (2,))
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2), (2,))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))  # negative eigenvalue
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, (2,))  # shape mismatch
        m = np.array([[0.5, 0.5j], [0.5j, 0.5]])
        with pytest.raises(ValueError):
            DensityMatrix(m, (2,))  # not Hermitian

    def test_povm_validation(self):
        Povm([np.eye(2) / 2, np.eye(2) / 2], (2,))
        with pytest.raises(ValueError):
            Povm([np.eye(2), np.eye(2)], (2,))  # sums to 2
        with pytest.raises(ValueError):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])], (2,))  # negative element
        with pytest.raises(ValueError):
            Povm([np.eye(3)], (2,))  # wrong shape

    def test_choi_operator_validation(self):
        phi = max_entangled(2)
        ChoiOperator(phi / 4, 2, 2)
        with pytest.raises(ValueError):
            ChoiOperator(-phi, 2, 2)  # not PSD
        with pytest.raises(ValueError):
            ChoiOperator(2 * phi, 2, 2)  # trace 2 exceeds any outcome probability
        with pytest.raises(ValueError):
            ChoiOperator(phi, 2, 3)  # shape mismatch

    def test_instrument_rejects_signalling_family(self):
        phi = max_entangled(2)
        # a lone Bell projector sums to itself, not to (1/2) 1 (x) marginal
        with pytest.raises(ValueError):
            TeleportationInstrument([phi / 2], (2, 2))

    def test_input_ensemble_weights(self):
        states = [DensityMatrix(np.eye(2) / 2, (2,))] * 2
        with pytest.raises(ValueError):
            InputEnsemble(states, np.array([0.9, 0.2]))
        with pytest.raises(ValueError):
            InputEnsemble(states, np.array([1.0]))


class TestIdealInstrument:
    def test_choi_operators_are_scaled_bell_projectors(self):
        inst = ideal_instrument(2)
        phi = max_entangled(2)
        for a, w in enumerate(weyl_family(2)):
            u = tensor(np.eye(2), w)
            np.testing.assert_allclose(
                inst.mats[a], u @ phi @ dagger(u) / 4, atol=1e-12
            )

    def test_outcomes_are_equally_likely_and_correctable(self):
        rng = np.random.default_rng(0)
        omega = rand_state((2,), rng=rng)
        inst = ideal_instrument(2)
        total_p = 0.0
        for a, w in enumerate(weyl_family(2)):
            out = apply_subchannel(inst.choi_ops[a], omega)
            p = float(np.trace(out).real)
            np.testing.assert_allclose(p, 0.25, atol=1e-10)
            total_p += p
            corrected = dagger(w) @ (out / p) @ w
            np.testing.assert_allclose(corrected, omega.matrix, atol=1e-10)
        np.testing.assert_allclose(total_p, 1.0, atol=1e-10)

    def test_higher_dimension_still_teleports(self):
        inst = ideal_instrument(3)
        rng = np.random.default_rng(1)
        omega = rand_state((3,), rng=rng)
        out = apply_subchannel(inst.choi_ops[0], omega)
        p = float(np.trace(out).real)
        np.testing.assert_allclose(p, 1.0 / 9.0, atol=1e-10)
        np.testing.assert_allclose(out / p, omega.matrix, atol=1e-10)


class TestBuildAndMarginals:
    def test_no_signalling_and_bob_marginal(self):
        rng = np.random.default_rng(2)
        rho = rand_state((2, 3), rng=rng)
        m = rand_povm((2, 2), 5, rng=rng)
        inst = build_instrument(m, rho)
        assert inst.dims == (2, 3)
        marginal, residual = validate_no_signalling(inst)
        assert residual < 1e-10
        np.testing.assert_allclose(
            marginal.matrix, partial_trace(rho.matrix, (2, 3), keep=(1,)), atol=1e-10
        )

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        rho = rand_state((2, 2), rng=rng)
        m = rand_povm((2, 2), 3, rng=rng)
        inst = build_instrument(m, rho)
        omega = rand_state((2,), rng=rng)
        probs = [float(np.trace(apply_subchannel(j, omega)).real) for j in inst.choi_ops]
        assert all(p > -1e-12 for p in probs)
        np.testing.assert_allclose(sum(probs), 1.0, atol=1e-10)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            build_instrument(rand_povm((2, 3), 4, rng=rng), rand_state((2, 2), rng=rng))


class TestRealize:
    def test_round_trip_ideal(self):
        inst = ideal_instrument(2)
        state, povm = realize_from_choi(inst)
        again = build_instrument(povm, state)
        for a, b in zip(inst.mats, again.mats):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        inst = build_instrument(rand_povm((2, 2), 4, rng=rng), rand_state((2, 2), rng=rng))
        state, povm = realize_from_choi(inst)
        again = build_instrument(povm, state)
        for a, b in zip(inst.mats, again.mats):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_round_trip_rank_deficient_marginal(self):
        rng = np.random.default_rng(6)
        pure_b = np.zeros((2, 2), dtype=complex)
        pure_b[0, 0] = 1.0
        rho = DensityMatrix(tensor(rand_state((2,), rng=rng).matrix, pure_b), (2, 2))
        inst = build_instrument(rand_povm((2, 2), 4, rng=rng), rho)
        state, povm = realize_from_choi(inst)
        again = build_instrument(povm, state)
        for a, b in zip(inst.mats, again.mats):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_signalling_family_rejected(self):
        phi = max_entangled(2)
        with pytest.raises(ValueError):
            realize_from_choi([phi / 2, np.eye(4) / 8])


class TestFit:
    def _clean_data(self, inst, probes):
        return [[apply_subchannel(j, s) for s in probes.states] for j in inst.choi_ops]

    def test_recovers_clean_data(self):
        inst = ideal_instrument(2)
        probes = pauli_six()
        fit, residual = fit_choi(probes, self._clean_data(inst, probes))
        assert residual < 1e-12
        for a, b in zip(inst.mats, fit.mats):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_noisy_data_projects_to_valid_instrument(self):
        rng = np.random.default_rng(7)
        inst = build_instrument(rand_povm((2, 2), 4, rng=rng), rand_state((2, 2), rng=rng))
        probes = pauli_six()
        data = self._clean_data(inst, probes)
        noisy = [
            [s + 1e-6 * hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) for s in row]
            for row in data
        ]
        fit, residual = fit_choi(probes, noisy)
        assert residual < 1e-4
        marg, ns = validate_no_signalling(fit, strict=False)
        assert ns < 1e-7
        for a, b in zip(inst.mats, fit.mats):
            np.testing.assert_allclose(a, b, atol=1e-4)

    @staticmethod
    def _misfit(fit, probes, data):
        """Worst outcome's Frobenius distance of predicted outputs from the data, over all probes."""
        return max(
            np.sqrt(sum(frobenius_norm(apply_subchannel(j, w) - s) ** 2 for w, s in zip(probes.states, row)))
            for j, row in zip(fit.choi_ops, data)
        )

    def test_consistent_but_unphysical_data_is_projected(self):
        """Outcome-dependent rescaling is invisible to least squares but
        breaks no-signalling; the fit must land back on a valid instrument,
        reporting how far that instrument is from the data."""
        inst = ideal_instrument(2)
        probes = pauli_six()
        data = self._clean_data(inst, probes)
        skew = [1.002, 0.998, 1.0, 1.0]
        data = [[f * s for s in row] for f, row in zip(skew, data)]
        fit, residual = fit_choi(probes, data)
        _, ns = validate_no_signalling(fit, strict=False)
        assert ns < 1e-7
        for a, b in zip(inst.mats, fit.mats):
            np.testing.assert_allclose(a, b, atol=5e-3)
        assert 1.1e-3 < residual < 1.2e-3
        assert abs(residual - self._misfit(fit, probes, data)) <= 1e-12

    def test_projection_far_from_the_data_reports_its_residual(self):
        """One outcome of ideal teleportation fits exactly by least squares,
        but the nearest one-outcome instrument is a channel far from it."""
        inst = ideal_instrument(2)
        probes = pauli_six()
        data = self._clean_data(inst, probes)[:1]
        fit, residual = fit_choi(probes, data)
        assert fit.outcomes == 1
        assert abs(residual - self._misfit(fit, probes, data)) <= 1e-12
        assert residual > 1.0

    def test_heavy_noise_returned_raw_with_residual(self):
        rng = np.random.default_rng(8)
        inst = ideal_instrument(2)
        probes = pauli_six()
        data = self._clean_data(inst, probes)
        noisy = [
            [s + 1e-2 * hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) for s in row]
            for row in data
        ]
        fit, residual = fit_choi(probes, noisy, tol=1e-4)
        assert residual > 1e-4  # reported, not hidden

    def test_incomplete_probes_rejected(self):
        probes = pauli_six()
        short = InputEnsemble(probes.states[:3], np.full(3, 1.0 / 3.0))
        inst = ideal_instrument(2)
        with pytest.raises(ValueError):
            fit_choi(short, self._clean_data(inst, short))


class TestChoiCalculus:
    def test_identity_channel_choi_is_max_entangled(self):
        rng = np.random.default_rng(9)
        x = hermitize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        np.testing.assert_allclose(choi_apply(max_entangled(3), 3, 3, x), x, atol=1e-11)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 500), st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    def test_adjoint_reverses_the_pairing(self, seed, dims):
        d_in, d_out = dims
        rng = np.random.default_rng(seed)
        j = _rand_channel_choi(rng, d_in, d_out)
        x = hermitize(rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in)))
        y = hermitize(rng.standard_normal((d_out, d_out)) + 1j * rng.standard_normal((d_out, d_out)))
        j_adj = choi_adjoint(j, d_in, d_out)
        lhs = frobenius_inner(y, choi_apply(j, d_in, d_out, x))
        rhs = frobenius_inner(choi_apply(j_adj, d_out, d_in, y), x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_adjoint_is_involutive(self):
        rng = np.random.default_rng(10)
        j = _rand_channel_choi(rng, 2, 3)
        back = choi_adjoint(choi_adjoint(j, 2, 3), 3, 2)
        np.testing.assert_allclose(back, j, atol=1e-12)

    def test_adjoint_of_channel_is_unital(self):
        rng = np.random.default_rng(11)
        j = _rand_channel_choi(rng, 2, 3)
        j_adj = choi_adjoint(j, 2, 3)
        np.testing.assert_allclose(choi_apply(j_adj, 3, 2, np.eye(3)), np.eye(2), atol=1e-10)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 500))
    def test_composition_matches_sequential_application(self, seed):
        rng = np.random.default_rng(seed)
        j1 = _rand_channel_choi(rng, 2, 3)
        j2 = _rand_channel_choi(rng, 3, 2)
        x = hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        j21 = choi_compose(j2, 3, 2, j1, 2)
        np.testing.assert_allclose(
            choi_apply(j21, 2, 2, x),
            choi_apply(j2, 3, 2, choi_apply(j1, 2, 3, x)),
            atol=1e-10,
        )

    def test_compose_with_identity_is_identity(self):
        rng = np.random.default_rng(12)
        j = _rand_channel_choi(rng, 2, 3)
        np.testing.assert_allclose(choi_compose(max_entangled(3), 3, 3, j, 2), j, atol=1e-11)
        np.testing.assert_allclose(choi_compose(j, 2, 3, max_entangled(2), 2), j, atol=1e-11)


class TestOperatorFamilies:
    def test_weyl_unitaries_orthogonal(self):
        for d in (2, 3):
            fam = weyl_family(d)
            assert len(fam) == d * d
            for a, wa in enumerate(fam):
                np.testing.assert_allclose(wa @ dagger(wa), np.eye(d), atol=1e-12)
                for b, wb in enumerate(fam):
                    overlap = np.trace(dagger(wa) @ wb) / d
                    np.testing.assert_allclose(abs(overlap), 1.0 if a == b else 0.0, atol=1e-12)

    def test_bell_povm_is_projective_and_complete(self):
        for d in (2, 3):
            povm = bell_povm(d)
            np.testing.assert_allclose(sum(povm.elements), np.eye(d * d), atol=1e-12)
            for e in povm.elements:
                np.testing.assert_allclose(e @ e, e, atol=1e-12)
                np.testing.assert_allclose(np.trace(e), 1.0, atol=1e-12)

    def test_pauli_six_is_tomographically_complete(self):
        assert pauli_six().tomographically_complete

    def test_short_ensemble_is_not_complete(self):
        probes = pauli_six()
        short = InputEnsemble(probes.states[:3], np.full(3, 1.0 / 3.0))
        assert not short.tomographically_complete


def _inline_kraus_choi(k):
    """(1 (x) K) phi+ (1 (x) K)^dag written out, as the constructions did inline."""
    d = k.shape[1]
    full = tensor(np.eye(d), k)
    return full @ max_entangled(d) @ dagger(full)


class TestKrausChoi:
    @pytest.mark.parametrize("d", [2, 3])
    def test_bell_povm_is_unchanged(self, d):
        old = [hermitize(_inline_kraus_choi(w)) for w in weyl_family(d)]
        new = bell_povm(d).elements
        assert len(new) == d * d and all(np.array_equal(a, b) for a, b in zip(new, old))

    def test_rectangular_kraus_operator_is_applied(self):
        rng = np.random.default_rng(4)
        k = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        omega = rand_state((2,), rng=rng).matrix
        np.testing.assert_allclose(choi_apply(kraus_choi(k), 2, 3, omega), k @ omega @ dagger(k), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rand_kraus_splits_a_haar_isometry(self, seed):
        pieces = rand_kraus(2, 3, 2, np.random.default_rng(seed))
        assert [k.shape for k in pieces] == [(3, 2), (3, 2)]
        np.testing.assert_allclose(sum(dagger(k) @ k for k in pieces), np.eye(2), atol=1e-12)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
        assert np.array_equal(np.concatenate(pieces), q)


class TestSampling:
    def test_rand_state_valid_and_seeded(self):
        a = rand_state((2, 2), rng=np.random.default_rng(42))
        b = rand_state((2, 2), rng=np.random.default_rng(42))
        np.testing.assert_allclose(a.matrix, b.matrix, atol=0)
        assert min_eig(a.matrix) > -1e-12
        np.testing.assert_allclose(np.trace(a.matrix), 1.0, atol=1e-12)

    def test_rand_state_rank_control(self):
        a = rand_state((2, 2), rank=1, rng=np.random.default_rng(0))
        vals = np.linalg.eigvalsh(a.matrix)
        assert np.sum(vals > 1e-10) == 1

    def test_rand_unitary_is_unitary(self):
        u = rand_unitary(3, rng=np.random.default_rng(1))
        np.testing.assert_allclose(u @ dagger(u), np.eye(3), atol=1e-12)

    def test_rand_povm_valid(self):
        m = rand_povm((2, 3), 4, rng=np.random.default_rng(2))
        assert len(m) == 4
        np.testing.assert_allclose(sum(m.elements), np.eye(6), atol=1e-10)

    def test_sample_dispatcher(self):
        s = sample("state", seed=3, dims=(2, 2))
        assert isinstance(s, DensityMatrix)
        m = sample("povm", seed=3, dim=(2, 2), outcomes=4)
        assert isinstance(m, Povm)
        u = sample("unitary", seed=3, d=2)
        np.testing.assert_allclose(u @ dagger(u), np.eye(2), atol=1e-12)
        with pytest.raises(ValueError):
            sample("oracle", seed=3)

    def test_sample_is_reproducible(self):
        a = sample("state", seed=11, dims=(2, 2))
        b = sample("state", seed=11, dims=(2, 2))
        np.testing.assert_allclose(a.matrix, b.matrix, atol=0)


def test_apply_subchannel_type_errors():
    inst = ideal_instrument(2)
    with pytest.raises(TypeError):
        apply_subchannel(inst.mats[0], np.eye(2) / 2)
    with pytest.raises(ValueError):
        apply_subchannel(inst.choi_ops[0], np.eye(3) / 3)
