"""Dense linear algebra helpers for finite-dimensional quantum objects.

Everything here works on plain complex numpy arrays.  Operators on a
composite system are stored in the Kronecker convention: the operator
``kron(A, B)`` acts as ``A`` on the first tensor factor and ``B`` on the
second, and a vector index ``i*d2 + j`` addresses basis ket ``|i>|j>``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericalError",
    "tensor",
    "dagger",
    "frobenius_inner",
    "frobenius_norm",
    "is_hermitian",
    "hermitize",
    "partial_trace",
    "partial_transpose",
    "permute_systems",
    "swap_operator",
    "max_entangled_ket",
    "max_entangled",
    "herm_eig",
    "min_eig",
    "is_psd",
    "clip_psd",
    "psd_sqrt",
    "pinv_sqrt",
    "ket",
]

# Tolerance used when symmetrizing operators that are Hermitian up to noise.
HERM_TOL = 1e-10


class NumericalError(ValueError):
    """An internal computation met a value it cannot proceed from.

    Distinct from invalid input: the inputs passed validation, but a
    derived quantity (a benchmark, a marginal, an eigenvalue) came out
    degenerate.  Defined here, at the bottom of the import graph, so
    every module can raise it; ``conic`` re-exports it next to
    ``SolverError``.
    """


def tensor(*ops):
    """Kronecker product of one or more matrices."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def dagger(x):
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.asarray(x).conj().swapaxes(-1, -2)


def frobenius_inner(a, b):
    """Hilbert-Schmidt inner product <a, b> = tr(a^dag b)."""
    return complex(np.vdot(np.asarray(a), np.asarray(b)))


def frobenius_norm(a):
    return float(np.linalg.norm(np.asarray(a)))


def is_hermitian(x, tol=HERM_TOL):
    x = np.asarray(x)
    scale = max(1.0, frobenius_norm(x))
    return frobenius_norm(x - dagger(x)) <= tol * scale


def hermitize(x):
    """Project onto the Hermitian part, (x + x^dag)/2, matrix-wise on a stack."""
    x = np.asarray(x, dtype=complex)
    return (x + dagger(x)) / 2.0


def ket(i, d):
    """Computational basis column vector |i> in dimension d."""
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def _reshape_multi(x, dims):
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    x = np.asarray(x, dtype=complex)
    if x.shape != (n, n):
        raise ValueError(f"operator shape {x.shape} incompatible with dims {dims}")
    return x.reshape(dims + dims), dims


def partial_trace(x, dims, keep):
    """Trace out all tensor factors not listed in ``keep``, matrix-wise on a stack.

    Parameters
    ----------
    x : array, square matrix on the composite system prod(dims), or a
        stack (m, n, n) of them.
    dims : sequence of factor dimensions.
    keep : iterable of factor indices (0-based) that survive, in their
        original order.
    """
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (2, 3) or x.shape[-2:] != (n, n):
        raise ValueError(f"operator shape {x.shape} incompatible with dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    k = len(dims)
    if any(i < 0 or i >= k for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {k} factors")
    # einsum: tie the row index of each traced factor to its column index;
    # a stack's leading axis gets the otherwise unused label 2k
    lead = [2 * k] * (x.ndim - 2)
    row = list(range(k))
    col = [i if i not in keep else k + i for i in range(k)]
    t = x.reshape(x.shape[:-2] + dims + dims)
    out = np.einsum(t, lead + row + col, lead + [row[i] for i in keep] + [col[i] for i in keep])
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return out.reshape(x.shape[:-2] + (d_keep, d_keep))


def permute_systems(x, dims, perm):
    """Reorder the tensor factors of an operator.

    ``perm[j]`` names the old factor that lands in new slot ``j``; the
    returned operator acts on factors of dimension ``dims[perm[j]]``.
    """
    t, dims = _reshape_multi(x, dims)
    perm = [int(p) for p in perm]
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {perm} is not a permutation of {k} factors")
    t = t.transpose(perm + [k + p for p in perm])
    n = int(np.prod(dims))
    return t.reshape(n, n)


def partial_transpose(x, dims, subsystem=1):
    """Partial transpose on one factor of a bipartite operator, matrix-wise on a stack.

    ``dims`` must have exactly two entries; ``subsystem`` is 0 or 1.
    """
    if len(dims) != 2:
        raise ValueError("partial_transpose expects two-factor dims")
    if subsystem not in (0, 1):
        raise ValueError("subsystem must be 0 or 1")
    dims = tuple(int(d) for d in dims)
    n = dims[0] * dims[1]
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (2, 3) or x.shape[-2:] != (n, n):
        raise ValueError(f"operator shape {x.shape} incompatible with dims {dims}")
    lead = x.ndim - 2
    swap = (2, 1, 0, 3) if subsystem == 0 else (0, 3, 2, 1)
    t = x.reshape(x.shape[:lead] + dims + dims)
    return t.transpose(tuple(range(lead)) + tuple(lead + p for p in swap)).reshape(x.shape)


def swap_operator(d):
    """Swap operator on C^d x C^d."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def max_entangled_ket(d):
    """Normalized maximally entangled ket (1/sqrt(d)) sum_i |ii>."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def max_entangled(d):
    """Projector onto the normalized maximally entangled state."""
    v = max_entangled_ket(d)
    return np.outer(v, v.conj())


def herm_eig(x, tol=HERM_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Symmetrizes the input first and raises if the anti-Hermitian part
    exceeds ``tol`` relative to the operator scale.  Returns eigenvalues
    in ascending order and the matrix of eigenvectors (columns).
    """
    x = np.asarray(x, dtype=complex)
    scale = max(1.0, frobenius_norm(x))
    if frobenius_norm(x - dagger(x)) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(hermitize(x))
    return vals, vecs


def min_eig(x):
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(hermitize(np.asarray(x, dtype=complex)))[0])


def is_psd(x, tol=1e-9):
    return min_eig(x) >= -tol


def clip_psd(x):
    """Nearest PSD matrix in Frobenius norm: the Hermitian part of x with
    its negative eigenvalues set to zero."""
    vals, vecs = np.linalg.eigh(hermitize(x))
    return (vecs * np.clip(vals, 0.0, None)) @ dagger(vecs)


def psd_sqrt(x, tol=1e-10):
    """Principal square root of a PSD matrix; small negatives are clipped."""
    vals, vecs = herm_eig(x)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    if vals[0] < -tol * scale:
        raise NumericalError(f"matrix has negative eigenvalue {vals[0]:.3e}")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root) @ dagger(vecs)


def pinv_sqrt(x, cutoff=1e-10, tol=1e-10):
    """Moore-Penrose inverse square root of a PSD matrix.

    Eigenvalues below ``cutoff`` (relative to the largest) are treated as
    zero.  Raises if an eigenvalue lies below ``-tol`` on the same scale.
    """
    vals, vecs = herm_eig(x)
    scale = max(float(np.max(np.abs(vals))) if vals.size else 0.0, 1e-300)
    if vals[0] < -tol * max(1.0, scale):
        raise NumericalError(f"matrix has negative eigenvalue {vals[0]:.3e}")
    inv = np.where(vals > cutoff * scale, 1.0 / np.sqrt(np.clip(vals, 1e-300, None)), 0.0)
    return (vecs * inv) @ dagger(vecs)
