"""Tests for the dense multilinear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telerobust.linalg import (
    NumericalError,
    clip_psd,
    dagger,
    frobenius_inner,
    frobenius_norm,
    herm_eig,
    hermitize,
    is_hermitian,
    ket,
    max_entangled,
    max_entangled_ket,
    min_eig,
    partial_trace,
    partial_transpose,
    permute_systems,
    pinv_sqrt,
    psd_sqrt,
    swap_operator,
    tensor,
)


def _rand_herm(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(g)


def _rand_psd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ dagger(g)


def test_tensor_matches_kron_chain():
    rng = np.random.default_rng(0)
    a, b, c = (_rand_herm(rng, d) for d in (2, 3, 2))
    np.testing.assert_allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))


def test_ket_basis():
    v = ket(1, 3)
    assert v.shape == (3,)
    np.testing.assert_allclose(v, [0, 1, 0])
    with pytest.raises(IndexError):
        ket(5, 3)


def test_partial_trace_of_product_factorizes():
    rng = np.random.default_rng(1)
    a = _rand_psd(rng, 2)
    b = _rand_psd(rng, 3)
    np.testing.assert_allclose(
        partial_trace(tensor(a, b), (2, 3), keep=(0,)), a * np.trace(b), atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(tensor(a, b), (2, 3), keep=(1,)), b * np.trace(a), atol=1e-12
    )


def test_partial_trace_three_factors_and_full_trace():
    rng = np.random.default_rng(2)
    x = _rand_herm(rng, 12)
    kept = partial_trace(x, (2, 3, 2), keep=(0, 2))
    assert kept.shape == (4, 4)
    np.testing.assert_allclose(np.trace(kept), np.trace(x), atol=1e-12)
    total = partial_trace(x, (2, 3, 2), keep=())
    np.testing.assert_allclose(total[0, 0], np.trace(x), atol=1e-12)


def test_partial_trace_rejects_bad_inputs():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 3), keep=(0,))
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 2), keep=(5,))


def test_partial_transpose_on_products():
    rng = np.random.default_rng(3)
    a = _rand_herm(rng, 2)
    b = _rand_herm(rng, 3)
    x = tensor(a, b)
    np.testing.assert_allclose(partial_transpose(x, (2, 3), 1), tensor(a, b.T), atol=1e-12)
    np.testing.assert_allclose(partial_transpose(x, (2, 3), 0), tensor(a.T, b), atol=1e-12)


def test_partial_transpose_composes_to_full_transpose():
    rng = np.random.default_rng(4)
    x = _rand_herm(rng, 6)
    y = partial_transpose(partial_transpose(x, (2, 3), 0), (2, 3), 1)
    np.testing.assert_allclose(y, x.T, atol=1e-12)


def test_partial_transpose_is_involutive():
    rng = np.random.default_rng(5)
    x = _rand_herm(rng, 6)
    np.testing.assert_allclose(
        partial_transpose(partial_transpose(x, (2, 3), 1), (2, 3), 1), x, atol=1e-13
    )


@pytest.mark.parametrize("subsystem", [0, 1])
def test_partial_transpose_of_a_stack_is_matrix_wise(subsystem):
    rng = np.random.default_rng(15)
    stack = np.stack([_rand_herm(rng, 6) + 1j * _rand_psd(rng, 6) for _ in range(5)])
    got = partial_transpose(stack, (2, 3), subsystem)
    assert got.shape == stack.shape
    for x, y in zip(stack, got):
        np.testing.assert_array_equal(y, partial_transpose(x, (2, 3), subsystem))
    with pytest.raises(ValueError, match="incompatible"):
        partial_transpose(stack[:, :4, :4], (2, 3), subsystem)


@pytest.mark.parametrize("keep", [(0,), (1,)])
def test_partial_trace_of_a_stack_is_matrix_wise(keep):
    rng = np.random.default_rng(16)
    stack = np.stack([_rand_herm(rng, 6) + 1j * _rand_psd(rng, 6) for _ in range(5)])
    got = partial_trace(stack, (2, 3), keep)
    d = (2, 3)[keep[0]]
    assert got.shape == (5, d, d)
    for x, y in zip(stack, got):
        np.testing.assert_array_equal(y, partial_trace(x, (2, 3), keep))
    with pytest.raises(ValueError, match="incompatible"):
        partial_trace(stack[:, :4, :4], (2, 3), keep)


def test_entangled_state_fails_ppt_product_state_passes():
    phi = max_entangled(2)
    assert min_eig(partial_transpose(phi, (2, 2), 1)) < -0.4
    rng = np.random.default_rng(6)
    a = _rand_psd(rng, 2)
    sep = tensor(a / np.trace(a).real, a / np.trace(a).real)
    assert min_eig(partial_transpose(sep, (2, 2), 1)) > -1e-12


def test_swap_operator_action():
    d = 3
    s = swap_operator(d)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    np.testing.assert_allclose(s @ np.kron(u, v), np.kron(v, u), atol=1e-13)


def test_max_entangled_marginals():
    for d in (2, 3):
        phi = max_entangled(d)
        np.testing.assert_allclose(np.trace(phi), 1.0, atol=1e-13)
        np.testing.assert_allclose(
            partial_trace(phi, (d, d), keep=(0,)), np.eye(d) / d, atol=1e-13
        )
        v = max_entangled_ket(d)
        np.testing.assert_allclose(np.outer(v, v.conj()), phi, atol=1e-13)


def test_permute_systems_identity_and_swap():
    rng = np.random.default_rng(8)
    a = _rand_herm(rng, 2)
    b = _rand_herm(rng, 3)
    x = tensor(a, b)
    np.testing.assert_allclose(permute_systems(x, (2, 3), (0, 1)), x, atol=1e-13)
    np.testing.assert_allclose(permute_systems(x, (2, 3), (1, 0)), tensor(b, a), atol=1e-13)


def test_permute_systems_three_factor_cycle():
    rng = np.random.default_rng(9)
    ops = [_rand_herm(rng, d) for d in (2, 3, 2)]
    x = tensor(*ops)
    perm = (2, 0, 1)
    y = permute_systems(x, (2, 3, 2), perm)
    np.testing.assert_allclose(y, tensor(ops[2], ops[0], ops[1]), atol=1e-12)
    with pytest.raises(ValueError):
        permute_systems(x, (2, 3, 2), (0, 0, 1))


def test_hermitian_checks_and_projection():
    rng = np.random.default_rng(10)
    x = _rand_herm(rng, 4)
    assert is_hermitian(x)
    assert not is_hermitian(x + 1e-3 * 1j * np.eye(4))
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitize(g)
    np.testing.assert_allclose(h, dagger(h), atol=1e-14)


def test_herm_eig_rejects_non_hermitian():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(ValueError):
        herm_eig(g)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(12)
    x = _rand_psd(rng, 5)
    r = psd_sqrt(x)
    np.testing.assert_allclose(r @ r, x, atol=1e-10)
    with pytest.raises(ValueError):
        psd_sqrt(-np.eye(2))
    with pytest.raises(NumericalError, match="negative eigenvalue"):
        psd_sqrt(np.diag([1.0, -1e-9]))


def test_clip_psd_keeps_psd_and_drops_negative_part():
    rng = np.random.default_rng(15)
    x = _rand_psd(rng, 4)
    np.testing.assert_allclose(clip_psd(x), x, atol=1e-10)
    y = _rand_herm(rng, 4)
    vals, vecs = np.linalg.eigh(y)
    assert vals[0] < 0 < vals[-1]
    clipped = clip_psd(y)
    np.testing.assert_allclose(clipped, (vecs * np.maximum(vals, 0.0)) @ dagger(vecs), atol=1e-12)
    assert min_eig(clipped) >= -1e-12
    # the nearest PSD matrix: what is removed is the negative part, orthogonal to the rest
    np.testing.assert_allclose(frobenius_norm(y - clipped), np.linalg.norm(vals[vals < 0]), atol=1e-12)
    assert abs(frobenius_inner(clipped, y - clipped)) <= 1e-12
    np.testing.assert_allclose(clip_psd(-x), np.zeros((4, 4)), atol=1e-12)


def test_pinv_sqrt_is_pseudo_inverse_on_range():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    x = g @ dagger(g)  # rank 2
    s = pinv_sqrt(x)
    proj = s @ x @ s
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
    np.testing.assert_allclose(np.trace(proj).real, 2.0, atol=1e-10)
    with pytest.raises(NumericalError, match="negative eigenvalue"):
        pinv_sqrt(-np.eye(2))


def test_frobenius_inner_and_norm():
    rng = np.random.default_rng(14)
    x = _rand_herm(rng, 3)
    np.testing.assert_allclose(frobenius_inner(x, x), frobenius_norm(x) ** 2, atol=1e-12)
    assert abs(frobenius_inner(x, x).imag) < 1e-14


@settings(deadline=None)
@given(st.integers(0, 200), st.sampled_from([2, 3]), st.sampled_from([2, 3]))
def test_ptrace_permute_consistency(seed, d1, d2):
    """Tracing factor 1 of the swapped operator equals tracing factor 0."""
    rng = np.random.default_rng(seed)
    x = _rand_herm(rng, d1 * d2)
    swapped = permute_systems(x, (d1, d2), (1, 0))
    np.testing.assert_allclose(
        partial_trace(swapped, (d2, d1), keep=(0,)),
        partial_trace(x, (d1, d2), keep=(1,)),
        atol=1e-11,
    )


@settings(deadline=None)
@given(st.integers(0, 200), st.sampled_from([2, 3]))
def test_partial_transpose_preserves_trace_and_spectrum_of_products(seed, d):
    rng = np.random.default_rng(seed)
    x = _rand_herm(rng, d * d)
    y = partial_transpose(x, (d, d), 1)
    np.testing.assert_allclose(np.trace(y), np.trace(x), atol=1e-11)
    # involutivity once more through the property route
    np.testing.assert_allclose(partial_transpose(y, (d, d), 1), x, atol=1e-11)


@settings(deadline=None)
@given(st.integers(0, 200), st.sampled_from([2, 3]), st.sampled_from([2, 3]))
def test_swap_conjugation_matches_permute(seed, d1, d2):
    """Permuting two equal-size factors is conjugation by the swap."""
    if d1 != d2:
        d2 = d1
    rng = np.random.default_rng(seed)
    x = _rand_herm(rng, d1 * d2)
    s = swap_operator(d1)
    np.testing.assert_allclose(
        permute_systems(x, (d1, d2), (1, 0)), s @ x @ dagger(s), atol=1e-11
    )
