"""Domain types and constructions for teleportation experiments.

A teleportation experiment is a shared state rho^{AB} together with a
POVM {M_a} on V'A.  Feeding an input omega on V' through it leaves Bob
holding the unnormalized states Lambda_a[omega]; the collection of maps
Lambda_a is the teleportation instrument.  Everything downstream works
on the Choi operators J_a = (I (x) Lambda_a)[phi+], normalized so that
a trace-preserving channel has unit-trace Choi operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    dagger,
    frobenius_norm,
    hermitize,
    is_hermitian,
    ket,
    max_entangled,
    max_entangled_ket,
    min_eig,
    partial_trace,
    pinv_sqrt,
    psd_sqrt,
    tensor,
)

__all__ = [
    "DensityMatrix",
    "Povm",
    "ChoiOperator",
    "TeleportationInstrument",
    "InputEnsemble",
    "build_instrument",
    "apply_subchannel",
    "validate_no_signalling",
    "realize_from_choi",
    "fit_choi",
    "ideal_instrument",
    "sample",
    "rand_state",
    "rand_povm",
    "rand_unitary",
    "weyl",
    "kraus_choi",
    "rand_kraus",
    "bell_povm",
    "pauli_six",
]

PSD_TOL = 1e-9
NS_TOL = 1e-8


@dataclass
class DensityMatrix:
    """Quantum state; ``dims`` lists the tensor-factor dimensions."""

    matrix: np.ndarray
    dims: tuple
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.dims = tuple(int(d) for d in self.dims)
        n = int(np.prod(self.dims))
        if self.matrix.shape != (n, n):
            raise ValueError(f"state shape {self.matrix.shape} does not match dims {self.dims}")
        if self.validate:
            if not is_hermitian(self.matrix):
                raise ValueError("state is not Hermitian")
            if min_eig(self.matrix) < -PSD_TOL:
                raise ValueError("state is not PSD within tolerance")
            if abs(np.trace(self.matrix).real - 1.0) > PSD_TOL:
                raise ValueError("state trace differs from 1 beyond tolerance")

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass
class Povm:
    """Measurement with PSD elements summing to the identity."""

    elements: list
    dims: tuple

    def __post_init__(self):
        self.elements = [np.asarray(e, dtype=complex) for e in self.elements]
        self.dims = tuple(int(d) for d in self.dims)
        n = int(np.prod(self.dims))
        for e in self.elements:
            if e.shape != (n, n):
                raise ValueError("POVM element has wrong shape")
        for i, e in enumerate(self.elements):
            if not is_hermitian(e) or min_eig(e) < -PSD_TOL:
                raise ValueError(f"POVM element {i} is not PSD within tolerance")
        if frobenius_norm(sum(self.elements) - np.eye(n)) > PSD_TOL * n:
            raise ValueError("POVM elements do not sum to identity")

    def __len__(self):
        return len(self.elements)


@dataclass
class ChoiOperator:
    """Choi operator J = (I (x) Lambda)[phi+] of a subchannel V -> B.

    PSD means the map is completely positive; the trace is the outcome
    probability on a maximally entangled input, so it never exceeds 1.
    """

    matrix: np.ndarray
    in_dim: int
    out_dim: int
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.in_dim = int(self.in_dim)
        self.out_dim = int(self.out_dim)
        n = self.in_dim * self.out_dim
        if self.matrix.shape != (n, n):
            raise ValueError(f"Choi shape {self.matrix.shape} does not match dims {(self.in_dim, self.out_dim)}")
        if self.validate:
            if not is_hermitian(self.matrix):
                raise ValueError("Choi operator is not Hermitian")
            if min_eig(self.matrix) < -PSD_TOL:
                raise ValueError("Choi operator is not PSD within tolerance (map not CP)")
            if np.trace(self.matrix).real > 1.0 + PSD_TOL:
                raise ValueError("Choi trace exceeds 1; not a subchannel of a channel")


@dataclass
class TeleportationInstrument:
    """Outcome-indexed Choi operators satisfying no-signalling."""

    choi_ops: list
    dims: tuple
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        self.dims = (int(self.dims[0]), int(self.dims[1]))
        self.choi_ops = [
            ChoiOperator(j.matrix if isinstance(j, ChoiOperator) else j, *self.dims, validate=self.validate)
            for j in self.choi_ops
        ]
        if self.validate:
            _, residual = validate_no_signalling(self, strict=False)
            if residual > NS_TOL:
                raise ValueError(f"no-signalling residual {residual:.3e} exceeds {NS_TOL:g}")
            total = sum(np.trace(j.matrix).real for j in self.choi_ops)
            if abs(total - 1.0) > NS_TOL:
                raise ValueError(
                    f"outcome probabilities on the entangled input sum to {total:.6g}, not 1"
                )

    @property
    def mats(self):
        return [j.matrix for j in self.choi_ops]

    @property
    def outcomes(self):
        return len(self.choi_ops)


@dataclass
class InputEnsemble:
    """Weighted probe states used for scoring and tomography."""

    states: list
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.states) != self.weights.size:
            raise ValueError("weights and states differ in length")
        if np.any(self.weights < -1e-12) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must form a probability distribution")

    @property
    def tomographically_complete(self):
        """True iff the states span the full operator space."""
        d = self.states[0].matrix.shape[0]
        gram = np.array(
            [[np.vdot(a.matrix, b.matrix) for b in self.states] for a in self.states]
        )
        return np.linalg.matrix_rank(gram, tol=1e-10) >= d * d


def build_instrument(measurement: Povm, state: DensityMatrix) -> TeleportationInstrument:
    """Teleportation instrument of a measurement on V'A and a shared AB state.

    J_a = tr_{V'A}[(1_V (x) M_a (x) 1_B)(phi+^{VV'} (x) rho^{AB})].
    """
    d_v, d_a = measurement.dims
    d_a2, d_b = state.dims
    if d_a != d_a2:
        raise ValueError(f"measurement A-dim {d_a} does not match state A-dim {d_a2}")
    phi = max_entangled(d_v)
    base = tensor(phi, state.matrix)  # on V (x) V' (x) A (x) B
    dims = (d_v, d_v, d_a, d_b)
    ops = []
    for m in measurement.elements:
        full = tensor(np.eye(d_v), m, np.eye(d_b))
        ops.append(hermitize(partial_trace(full @ base, dims, keep=(0, 3))))
    return TeleportationInstrument(ops, (d_v, d_b))


def apply_subchannel(j, omega):
    """Unnormalized output state Lambda[omega] = d_V tr_V[(omega^T (x) 1) J].

    Its trace is the probability of the outcome on input ``omega``.
    """
    if isinstance(j, ChoiOperator):
        d_in, d_out, mat = j.in_dim, j.out_dim, j.matrix
    else:
        raise TypeError("apply_subchannel expects a ChoiOperator")
    om = omega.matrix if isinstance(omega, DensityMatrix) else np.asarray(omega, dtype=complex)
    if om.shape != (d_in, d_in):
        raise ValueError(f"input dimension {om.shape[0]} does not match in_dim {d_in}")
    return choi_apply(mat, d_in, d_out, om)


def _no_signalling(mats, d_v, d_b):
    """(marginal, residual) of a Choi family: marginal = tr_V sum_a J_a and
    residual the Frobenius distance of sum_a J_a from (1/d_V) 1 (x) marginal."""
    total = sum(mats)
    marginal = partial_trace(total, (d_v, d_b), keep=(1,))
    return marginal, float(frobenius_norm(total - tensor(np.eye(d_v), marginal) / d_v))


def validate_no_signalling(instr: TeleportationInstrument, strict=True):
    """Extract Bob's marginal and the no-signalling residual.

    Returns (marginal, residual) with residual the Frobenius distance of
    sum_a J_a from (1/d_V) 1 (x) marginal.  With ``strict`` a residual
    beyond 1e-6 raises.
    """
    marginal, residual = _no_signalling(instr.mats, *instr.dims)
    if strict and residual > 1e-6:
        raise ValueError(f"no-signalling residual {residual:.3e} flags an invalid instrument")
    tr = np.trace(marginal).real
    rho = DensityMatrix(marginal / tr if tr > 0 else marginal, (instr.dims[1],), validate=False)
    return rho, residual


def realize_from_choi(ops) -> tuple[DensityMatrix, Povm]:
    """State-and-measurement realization of a no-signalling Choi family.

    Returns the purification |eta> of Bob's marginal (A a copy of B) and
    the POVM on V'A whose teleportation instrument has exactly the given
    Choi operators.  A rank-deficient marginal leaves the POVM free on
    the unreachable subspace; the remainder is split equally.
    """
    mats = [np.asarray(x, dtype=complex) for x in (ops.mats if isinstance(ops, TeleportationInstrument) else ops)]
    n = mats[0].shape[0]
    for x in mats:
        if x.shape != (n, n) or not is_hermitian(x) or min_eig(x) < -1e-8:
            raise ValueError("Choi family must be Hermitian PSD")
    # infer (d_V, d_B) from the instrument if given, else require square split
    if isinstance(ops, TeleportationInstrument):
        d_v, d_b = ops.dims
    else:
        d_v = d_b = int(round(np.sqrt(n)))
        if d_v * d_b != n:
            raise ValueError("pass a TeleportationInstrument for non-square dims")
    eta, residual = _no_signalling(mats, d_v, d_b)
    if residual > NS_TOL:
        raise ValueError(f"family violates no-signalling by {residual:.3e}")

    eta = hermitize(eta / np.trace(eta).real)
    ket_eta = np.sqrt(d_b) * tensor(np.eye(d_b), psd_sqrt(eta)) @ max_entangled_ket(d_b)
    state = DensityMatrix(np.outer(ket_eta, ket_eta.conj()), (d_b, d_b))

    inv_t = pinv_sqrt(eta).T
    scale = tensor(np.eye(d_v), inv_t)
    povm_ops = [d_v * hermitize(scale @ x.T @ scale) for x in mats]
    gap = np.eye(d_v * d_b) - sum(povm_ops)
    povm_ops = [m + gap / len(povm_ops) for m in povm_ops]
    return state, Povm(povm_ops, (d_v, d_b))


def fit_choi(inputs: InputEnsemble, data, tol=1e-4) -> tuple[TeleportationInstrument, float]:
    """Tomographic least-squares fit of an instrument from probe outputs.

    ``data[a][x]`` is the unnormalized output state for outcome ``a`` on
    probe ``inputs.states[x]``.  Returns the fitted instrument and its
    residual: the worst case over outcomes of the Frobenius distance
    between the instrument's predicted outputs and the data, stacked over
    probes.  Data whose least-squares residual reaches ``tol`` is returned
    raw with that residual, wrapped without validation.  Otherwise a fit
    that is already a valid instrument is returned as it is, and any other
    is projected onto the nearest valid instrument (in trace norm); the
    residual is then that of the projection, which may reach ``tol`` when
    no valid instrument fits the data.
    """
    from .conic import SdpProblem, smat_stack, solve_checked, svec, svec_stack

    if not inputs.tomographically_complete:
        raise ValueError("probe set is not tomographically complete")
    d_v = inputs.states[0].matrix.shape[0]
    d_b = np.asarray(data[0][0]).shape[0]
    n = d_v * d_b

    basis = smat_stack(np.eye(n * n), n)
    design = []
    for omega in inputs.states:
        block = tensor(omega.matrix.T, np.eye(d_b))
        design.append(svec_stack(hermitize(d_v * partial_trace(block @ basis, (d_v, d_b), keep=(1,)))).T)
    design = np.concatenate(design, axis=0)

    targets = [np.concatenate([svec(hermitize(np.asarray(s, dtype=complex))) for s in row]) for row in data]
    vecs = [np.linalg.lstsq(design, t, rcond=None)[0] for t in targets]
    fitted = list(smat_stack(vecs, n))

    def misfit(vs):
        return max(float(np.linalg.norm(design @ v - t)) for v, t in zip(vs, targets))

    residual = misfit(vecs)
    if residual >= tol:
        return TeleportationInstrument(fitted, (d_v, d_b), validate=False), residual
    if all(min_eig(j) >= -PSD_TOL for j in fitted) and _no_signalling(fitted, d_v, d_b)[1] <= NS_TOL:
        return TeleportationInstrument(fitted, (d_v, d_b)), residual

    # nearest valid instrument in trace norm
    prob = SdpProblem()
    js = [prob.add_block(n) for _ in fitted]
    ds = [prob.add_block(n) for _ in fitted]
    tau = prob.add_block(d_b)
    slacks = [(prob.add_block(n), prob.add_block(n)) for _ in fitted]
    prob.set_objective({d: np.eye(n) for d in ds}, sense="min")
    for a in range(len(fitted)):
        u, w = slacks[a]
        prob.add_operator_equality([(u, 1.0), (js[a], 1.0), (ds[a], -1.0)], fitted[a])
        prob.add_operator_equality([(w, 1.0), (js[a], -1.0), (ds[a], -1.0)], -fitted[a])
    prob.add_operator_equality(
        [(js[a], 1.0) for a in range(len(fitted))]
        + [(tau, lambda t: -tensor(np.eye(d_v), t) / d_v)],
        np.zeros((n, n)),
    )
    prob.add_constraint({tau: np.eye(d_b)}, "=", 1.0)
    sol = solve_checked(prob, what="instrument projection")
    projected = [sol.primal_blocks[j] for j in js]
    return TeleportationInstrument(projected, (d_v, d_b)), misfit(svec_stack(projected))


def weyl(d, m, n):
    """Discrete Weyl (shift-and-clock) unitary X^m Z^n in dimension d."""
    w = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    for i in range(d):
        x[(i + 1) % d, i] = 1.0
    z = np.diag([w**i for i in range(d)])
    return np.linalg.matrix_power(x, m) @ np.linalg.matrix_power(z, n)


def weyl_family(d):
    """All d^2 Weyl unitaries, ordered by (m, n)."""
    return [weyl(d, m, n) for m in range(d) for n in range(d)]


def kraus_choi(k):
    """Choi operator (1 (x) K) phi+ (1 (x) K)^dag of rho -> K rho K^dag.

    The input dimension is ``K.shape[1]``, the output ``K.shape[0]``.
    """
    k = np.asarray(k, dtype=complex)
    d = k.shape[1]
    full = tensor(np.eye(d), k)
    return full @ max_entangled(d) @ dagger(full)


def bell_povm(d) -> Povm:
    """Generalized Bell measurement: rank-1 projectors (1 (x) W_a) phi+ (.)."""
    return Povm([hermitize(kraus_choi(w)) for w in weyl_family(d)], (d, d))


def ideal_instrument(d) -> TeleportationInstrument:
    """Bell measurement on a maximally entangled pair: perfect teleportation."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    state = DensityMatrix(max_entangled(d), (d, d))
    return build_instrument(bell_povm(d), state)


def isotropic_state(p, d=2) -> DensityMatrix:
    """Maximally entangled state at visibility p, white noise otherwise.

    Entangled iff p > 1/(d+1); teleporting through it with a Bell
    measurement gives entanglement fidelity p + (1-p)/d^2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    mat = p * max_entangled(d) + (1.0 - p) * np.eye(d * d) / (d * d)
    return DensityMatrix(mat, (d, d))


def pauli_six() -> InputEnsemble:
    """Six Pauli eigenstates with equal weight: a projective 2-design."""
    kets = [
        ket(0, 2),
        ket(1, 2),
        (ket(0, 2) + ket(1, 2)) / np.sqrt(2),
        (ket(0, 2) - ket(1, 2)) / np.sqrt(2),
        (ket(0, 2) + 1j * ket(1, 2)) / np.sqrt(2),
        (ket(0, 2) - 1j * ket(1, 2)) / np.sqrt(2),
    ]
    states = [DensityMatrix(np.outer(v, v.conj()), (2,)) for v in kets]
    return InputEnsemble(states, np.full(6, 1.0 / 6.0))


def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_state(dims, rank=None, rng=None) -> DensityMatrix:
    """Ginibre-induced random density matrix on the given factors."""
    rng = np.random.default_rng(rng)
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    rank = n if rank is None else int(rank)
    g = _ginibre(rng, n, rank)
    rho = g @ dagger(g)
    return DensityMatrix(rho / np.trace(rho).real, dims)


def rand_unitary(d, rng=None):
    """Haar-random unitary via QR with the phase convention fixed."""
    rng = np.random.default_rng(rng)
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rand_kraus(d_in, d_out, count, rng):
    """Kraus operators K_1..K_count (d_out x d_in) of a Haar-random channel:
    the rows of an isometry from the QR of a Ginibre matrix, split in order."""
    q, _ = np.linalg.qr(_ginibre(rng, count * d_out, d_in))
    return [q[i * d_out : (i + 1) * d_out, :] for i in range(count)]


def rand_povm(dims, outcomes, rng=None) -> Povm:
    """Random POVM from normalized positive operators."""
    rng = np.random.default_rng(rng)
    dims = tuple(int(d) for d in dims) if isinstance(dims, (tuple, list)) else (int(dims),)
    n = int(np.prod(dims))
    raw = []
    for _ in range(outcomes):
        g = _ginibre(rng, n, n)
        raw.append(g @ dagger(g))
    scale = pinv_sqrt(sum(raw))
    elems = [hermitize(scale @ p @ scale) for p in raw]
    return Povm(elems, dims)


def sample(kind, seed=0, **params):
    """Seeded generator dispatcher for states, POVMs, and unitaries."""
    rng = np.random.default_rng(seed)
    if kind == "state":
        return rand_state(params["dims"], params.get("rank"), rng)
    if kind == "povm":
        return rand_povm(params["dim"], params["outcomes"], rng)
    if kind == "unitary":
        return rand_unitary(params["d"], rng)
    raise ValueError(f"unknown sample kind {kind!r}")


def choi_apply(choi_mat, in_dim, out_dim, x):
    """Apply the map with the given Choi operator to ``x``."""
    full = tensor(np.asarray(x, dtype=complex).T, np.eye(out_dim)) @ choi_mat
    return in_dim * partial_trace(full, (in_dim, out_dim), keep=(1,))


def choi_apply_second(choi_mat, in_dim, out_dim, x, d_spec):
    """Apply the map to the second factor: (I (x) map)[x] for x on spec*in."""
    t = np.asarray(x, dtype=complex).reshape(d_spec, in_dim, d_spec, in_dim)
    k = np.asarray(choi_mat, dtype=complex).reshape(in_dim, out_dim, in_dim, out_dim)
    out = in_dim * np.einsum("vbwc,bocp->vowp", t, k)
    return out.reshape(d_spec * out_dim, d_spec * out_dim)


def choi_adjoint(choi_mat, in_dim, out_dim):
    """Choi operator (on out (x) in) of the adjoint map."""
    t = np.asarray(choi_mat, dtype=complex).reshape(in_dim, out_dim, in_dim, out_dim)
    t2 = (in_dim / out_dim) * t.transpose(3, 2, 1, 0)
    return np.ascontiguousarray(t2.reshape(out_dim * in_dim, out_dim * in_dim))


def choi_compose(second, mid_dim, out_dim, first, in_dim):
    """Choi operator of (second o first) from the two Choi operators."""
    return choi_apply_second(second, mid_dim, out_dim, first, in_dim)
