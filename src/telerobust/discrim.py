"""Subchannel discrimination powered by teleportation resources.

A referee applies one branch of an instrument {E_x} to half of a shared
state; the player measures the processed half together with the kept
half and guesses which branch acted.  The success probability depends
on the player's resources only through the teleportation instrument
they induce, so it can be evaluated directly at the Choi level.

Two classical benchmarks are exposed: the ensemble program (a
semidefinite program over PPT no-signalling Choi families — the form
every advantage theorem here uses) and a closed-form product benchmark
(best single probe state, no memory).  At desk scale the two provably
differ; see the regression test that pins both numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    NumericalError,
    hermitize,
    max_entangled,
    min_eig,
    partial_trace,
    permute_systems,
    tensor,
)
from .qobjects import (
    ChoiOperator,
    DensityMatrix,
    Povm,
    TeleportationInstrument,
    build_instrument,
    choi_adjoint,
    choi_apply,
    choi_apply_second,
    kraus_choi,
    rand_kraus,
    weyl_family,
)
from .rot import RotDualSolution, classical_max

__all__ = [
    "DiscriminationInstrument",
    "Strategy",
    "DiscrimConstruction",
    "p_succ",
    "p_succ_strategy",
    "classical_ensemble_strategy",
    "classical_p_succ_ensemble",
    "classical_p_succ_product",
    "build_discrimination_from_dual",
    "advantage_ratio",
    "checked_denominator",
    "pauli_twirl_instrument",
    "rand_discrimination_instrument",
]

_SUM_TOL = 1e-8


@dataclass
class DiscriminationInstrument:
    """Branches {E_x} of a channel to be told apart.

    Each branch is a completely positive map with matching input and
    output dimension, stored by its Choi operator; the branches must sum
    to a trace-preserving map.

    A branch that occurs k times is stored once, with multiplicity k
    (default 1 for every branch).  Exactly equal branches passed
    separately are merged here, in first-occurrence order, with their
    multiplicities summed.  ``subchannels`` and ``mats`` hold the
    distinct branches; ``outcomes`` counts branches with multiplicity,
    sum_x k_x.  Only sums over all branches weight by k_x (the
    trace-preserving check); a max over branches, or one variable per
    branch, is unchanged by copies and runs over the distinct ones.
    """

    subchannels: list
    multiplicities: list | None = None

    def __post_init__(self):
        if not self.subchannels:
            raise ValueError("at least one subchannel required")
        if self.multiplicities is None:
            self.multiplicities = [1] * len(self.subchannels)
        if len(self.multiplicities) != len(self.subchannels):
            raise ValueError(
                f"{len(self.multiplicities)} multiplicities for "
                f"{len(self.subchannels)} subchannels"
            )
        for k in self.multiplicities:
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
                raise ValueError(f"multiplicity {k!r} is not a positive integer")
        self.multiplicities = [int(k) for k in self.multiplicities]
        first, branches, mults = {}, [], []
        for s, k in zip(self.subchannels, self.multiplicities):
            if isinstance(s, ChoiOperator):
                if s.in_dim != s.out_dim:
                    raise ValueError("subchannels need matching input and output dimension")
                m, d = np.asarray(s.matrix, dtype=complex), s.in_dim
            else:
                m = np.asarray(s, dtype=complex)
                d = int(round(np.sqrt(np.sqrt(m.size))))
            key = (d, m.shape, m.tobytes())
            if key in first:
                mults[first[key]] += k
            else:
                first[key] = len(branches)
                branches.append((m, d))
                mults.append(k)
        ops = [ChoiOperator(m, d, d) for m, d in branches]
        if len({o.in_dim for o in ops}) != 1:
            raise ValueError("subchannels differ in dimension")
        self.subchannels, self.multiplicities = ops, mults
        d = ops[0].in_dim
        total = sum(
            k * partial_trace(o.matrix, (d, d), keep=(0,))
            for k, o in zip(mults, ops)
        )
        if np.linalg.norm(total - np.eye(d) / d) > _SUM_TOL:
            raise ValueError("subchannels do not sum to a trace-preserving map")

    @property
    def dim(self):
        return self.subchannels[0].in_dim

    @property
    def outcomes(self):
        return sum(self.multiplicities)

    @property
    def mats(self):
        return [s.matrix for s in self.subchannels]


@dataclass
class Strategy:
    """Player resources: a joint guess measurement and a quantum memory.

    The memory is the shared state of a teleportation experiment (kept
    half first, probed half second); the referee's subchannel acts on
    the probed half, and ``measurement`` — indexed like a teleportation
    measurement on input (x) kept-half — supplies the guess outcomes.
    Public as the physical-resource reference for :func:`p_succ`, through
    :func:`p_succ_strategy`.
    """

    measurement: Povm
    memory: DensityMatrix

    def __post_init__(self):
        if len(self.measurement.dims) != 2 or len(self.memory.dims) != 2:
            raise ValueError("strategy needs bipartite measurement and memory")
        if self.measurement.dims[1] != self.memory.dims[0]:
            raise ValueError(
                "measurement second factor must match the memory kept half"
            )

    def instrument(self) -> TeleportationInstrument:
        """The teleportation instrument these resources induce."""
        return build_instrument(self.measurement, self.memory)


@dataclass
class DiscrimConstruction:
    """Bookkeeping for an instrument built from a robustness certificate.

    ``alpha`` rescales the witnesses so the branch maps stay completely
    positive; ``fictitious_count`` is the number of padding branches
    absorbing the leftover weight.  The classical benchmark of the built
    instrument is at most alpha + 1/fictitious_count.
    """

    alpha: float
    fictitious_count: int
    source_dual: RotDualSolution

    def __post_init__(self):
        self.alpha = float(self.alpha)
        self.fictitious_count = int(self.fictitious_count)
        if self.fictitious_count < 1:
            raise ValueError("fictitious branch count must be at least 1")
        d_v, _ = self.source_dual.dims
        stack = sum(
            partial_trace(a, (d_v, a.shape[0] // d_v), keep=(1,))
            for a in self.source_dual.witnesses_A
        )
        expected = 1.0 / float(np.linalg.eigvalsh(hermitize(stack))[-1])
        if abs(self.alpha - expected) > 1e-10:
            raise ValueError(
                f"alpha {self.alpha} is inconsistent with the witnesses "
                f"(expected {expected})"
            )


def p_succ(e: DiscriminationInstrument, instr: TeleportationInstrument) -> float:
    """Guessing probability of an instrument-assisted player.

    Evaluates d_V^2 sum_a max_x tr[(I (x) E_x)[J_a] phi+], read as
    sum_a max_x tr[P_x J_a] with the payoff operators
    P_x = d_V^2 (I (x) E_x^dag)[phi+] that the classical benchmark
    maximizes too: the optimal post-processing of the measurement
    outcome is deterministic guessing, realized per outcome by the
    argmax over branches.
    """
    d = e.dim
    if instr.dims != (d, d):
        raise ValueError(
            f"instrument dims {instr.dims} do not match the branch dimension {d}"
        )
    payoffs = _guess_pullbacks(e)
    return float(sum(max(float(np.vdot(p, j).real) for p in payoffs) for j in instr.mats))


def p_succ_strategy(e: DiscriminationInstrument, strategy: Strategy) -> float:
    """Guessing probability evaluated on the physical resources.

    Applies each branch to the probed half of the memory and pairs the
    result with the guess measurement directly, without forming the
    induced instrument; agrees with ``p_succ`` on that instrument to
    numerical precision.  Public as the physical-resource reference that
    :func:`p_succ` is checked against.
    """
    d = e.dim
    d_in, d_kept = strategy.measurement.dims
    if strategy.memory.dims[1] != d or d_in != d:
        raise ValueError("memory probed half must match the branch dimension")
    rho = strategy.memory.matrix
    total = 0.0
    for m in strategy.measurement.elements:
        flipped = permute_systems(m, (d_in, d_kept), (1, 0))
        scores = [
            float(np.vdot(flipped, choi_apply_second(c, d, d, rho, d_kept)).real)
            for c in e.mats
        ]
        total += max(scores)
    return float(total)


def _guess_pullbacks(e: DiscriminationInstrument):
    """d_V^2 (I (x) E_x^dag)[phi+]: the per-branch payoff operators."""
    d = e.dim
    phi = max_entangled(d)
    ops = []
    for c in e.mats:
        adj = choi_adjoint(c, d, d)
        ops.append(hermitize(d * d * choi_apply_second(adj, d, d, phi, d)))
    return ops


def classical_ensemble_strategy(e: DiscriminationInstrument, tol=1e-9):
    """Best guessing probability over classical (PPT) players, with its strategy and route.

    Maximizes d_V^2 sum_x tr[(I (x) E_x)[F_x] phi+] over PPT operators
    F_x >= 0 with sum_x F_x = (1/d_V) 1 (x) tau for a state tau; the
    post-processing is absorbed into the variables because the classical
    set is closed under relabeling.  A branch of multiplicity k gets one
    variable — splitting a PPT operator across k identical payoffs
    changes nothing.  Returns (value, [F_x], route) as
    :func:`~telerobust.rot.classical_max` does: a task compiled from a
    Bell measurement's dual has Weyl-covariant branches and V-invariant
    padding, so it takes the "covariant" route, one PPT block lifted to
    every branch; any other task is solved in full ("solve").
    """
    payoffs = _guess_pullbacks(e)
    return classical_max(payoffs, (e.dim, e.dim), tol, what="classical discrimination benchmark")


def classical_p_succ_ensemble(e: DiscriminationInstrument, tol=1e-9) -> float:
    """The value of :func:`classical_ensemble_strategy`: the classical benchmark of the task.

    The CLI calls :func:`classical_ensemble_strategy`, whose route its
    records name; this value-only form is for library callers.
    """
    return classical_ensemble_strategy(e, tol)[0]


def classical_p_succ_product(e: DiscriminationInstrument) -> float:
    """Best guessing probability with a single probe and no memory.

    Closed form max_x lambda_max(E_x^dag[1]): pick the branch whose
    adjoint applied to the identity has the largest eigenvalue and probe
    with the matching eigenstate.
    """
    d = e.dim
    best = 0.0
    for c in e.mats:
        adj = choi_adjoint(c, d, d)
        on_id = hermitize(choi_apply(adj, d, d, np.eye(d)))
        best = max(best, float(np.linalg.eigvalsh(on_id)[-1]))
    return best


def build_discrimination_from_dual(dual: RotDualSolution, fictitious=10_000):
    """Near-optimal discrimination instrument from a robustness certificate.

    The real branches have adjoint Choi operators (alpha/d_V) A_x — so
    guessing them witnesses the certificate value — and ``fictitious``
    identical padding branches absorb the leftover weight
    (1/(N d_V^2)) 1 (x) (1 - alpha sum_x tr_V A_x), keeping the total
    trace-preserving; the padding is stored once, with multiplicity N.
    Every branch is validated completely positive and the summed adjoint
    unital.  Returns the instrument together with a DiscrimConstruction
    carrying alpha and the branch count.
    """
    d_v, d_b = dual.dims
    if d_v != d_b:
        raise ValueError("construction needs matching instrument input and output")
    fictitious = int(fictitious)
    if fictitious < 1:
        raise ValueError("fictitious branch count must be at least 1")
    d = d_v
    stack = hermitize(
        sum(partial_trace(a, (d, d), keep=(1,)) for a in dual.witnesses_A)
    )
    top = float(np.linalg.eigvalsh(stack)[-1])
    if top < 1e-12:
        raise NumericalError("witnesses have vanishing marginal; cannot normalize")
    alpha = 1.0 / top
    adjoints = [(alpha / d) * hermitize(a_op) for a_op in dual.witnesses_A]
    pad_adj = (1.0 / (fictitious * d * d)) * tensor(np.eye(d), np.eye(d) - alpha * stack)

    for x, adj in enumerate(adjoints + [pad_adj]):
        low = min_eig(adj)
        if low < -1e-9:
            raise ValueError(
                f"branch {x} is not completely positive (min eig {low:.3e})"
            )
    unital = sum(choi_apply(adj, d, d, np.eye(d)) for adj in adjoints)
    unital = unital + fictitious * choi_apply(pad_adj, d, d, np.eye(d))
    if np.linalg.norm(unital - np.eye(d)) > 1e-10:
        raise ValueError("summed adjoint is not unital; branches do not form a channel")

    chois = [hermitize(choi_adjoint(adj, d, d)) for adj in adjoints + [pad_adj]]
    instr = DiscriminationInstrument(chois, [1] * len(adjoints) + [fictitious])
    cons = DiscrimConstruction(alpha, fictitious, dual)
    return instr, cons


def checked_denominator(benchmark: float) -> float:
    """A classical benchmark fit to divide by; raises if it vanishes."""
    if benchmark < 1e-12:
        raise NumericalError("classical benchmark is degenerate; ratio undefined")
    return benchmark


def advantage_ratio(e: DiscriminationInstrument, instr: TeleportationInstrument, tol=1e-9):
    """Quantum-over-classical guessing ratio for a fixed branch family.

    Returns (ratio, numerator, denominator, route): the ratio, the success
    probability with ``instr``, the classical ensemble benchmark, and the
    route that benchmark took (see :func:`classical_ensemble_strategy`).
    """
    benchmark, _, route = classical_ensemble_strategy(e, tol=tol)
    denominator = checked_denominator(benchmark)
    numerator = p_succ(e, instr)
    return numerator / denominator, numerator, denominator, route


def pauli_twirl_instrument(d=2) -> DiscriminationInstrument:
    """Branches rho -> W_k rho W_k^dag / d^2 over the shift-and-phase group."""
    return DiscriminationInstrument([kraus_choi(w) / (d * d) for w in weyl_family(d)])


def rand_discrimination_instrument(d, branches=3, rng=None) -> DiscriminationInstrument:
    """Random branch family: Kraus pieces of a Haar-random channel."""
    rng = np.random.default_rng(rng)
    return DiscriminationInstrument([kraus_choi(k) for k in rand_kraus(d, d, branches, rng)])
