"""Simulation preorders on teleportation instruments.

A classical simulation post-processes the outcome label through a
stochastic kernel; a quantum simulation additionally dresses the
instrument with correlated pre- and post-channels before relabelling.
Every figure of merit in this library is monotone under the matching
class of simulations, and ``check_monotones`` hammers one instrument
with random recipes, reporting each violation together with the recipe
that produced it.  A clean report is randomized evidence, not proof:
certifying that one instrument does *not* simulate another needs a
separating certificate (a witness, a game, or a discrimination task),
never a failed search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrim import p_succ, rand_discrimination_instrument
from .games import CorrelationGame, game_score
from .linalg import hermitize, max_entangled
from .qobjects import (
    ChoiOperator,
    TeleportationInstrument,
    build_instrument,
    choi_adjoint,
    choi_apply_second,
    choi_compose,
    kraus_choi,
    partial_trace,
    rand_kraus,
    rand_povm,
    rand_state,
)
from .rot import rot_many

__all__ = [
    "ClassicalSimulation",
    "QuantumSimulation",
    "MonotoneViolation",
    "MonotoneReport",
    "apply_classical_sim",
    "apply_quantum_sim",
    "check_monotones",
    "identity_channel_choi",
    "depolarizing_choi",
    "rand_channel_choi",
    "rand_classical_sim",
    "rand_quantum_sim",
]

_KERNEL_TOL = 1e-12
_CHANNEL_TOL = 1e-9


def _check_kernel(kernel, what):
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2:
        raise ValueError(f"{what} must be a matrix of conditional probabilities")
    if np.any(kernel < -_KERNEL_TOL):
        raise ValueError(f"{what} has negative entries")
    sums = kernel.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > _KERNEL_TOL):
        raise ValueError(f"{what} columns do not sum to 1 (sums {sums})")
    return kernel


def _check_channel(op: ChoiOperator, what):
    marg = partial_trace(op.matrix, (op.in_dim, op.out_dim), keep=(0,))
    gap = np.linalg.norm(marg - np.eye(op.in_dim) / op.in_dim)
    if gap > _CHANNEL_TOL:
        raise ValueError(f"{what} is not trace-preserving (residual {gap:.3e})")


@dataclass
class ClassicalSimulation:
    """Stochastic relabelling p(b|a); column a holds the distribution of b."""

    kernel: np.ndarray

    def __post_init__(self):
        self.kernel = _check_kernel(self.kernel, "simulation kernel")

    @property
    def in_outcomes(self):
        return self.kernel.shape[1]

    @property
    def out_outcomes(self):
        return self.kernel.shape[0]

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @classmethod
    def permutation(cls, perm):
        n = len(perm)
        k = np.zeros((n, n))
        for a, b in enumerate(perm):
            k[b, a] = 1.0
        return cls(k)

    @classmethod
    def merge_all(cls, n):
        """Forget the outcome entirely: everything maps to a single label."""
        return cls(np.ones((1, n)))


@dataclass
class QuantumSimulation:
    """Correlated dressing: with probability p_l apply pre-channel l, the
    instrument, post-channel l, and relabel by p(b|a,l).

    Pre-channels map the new input system into the instrument's input;
    post-channels map the instrument's output onward.  All branches must
    share dimensions and relabelling shape.
    """

    branch_probs: np.ndarray
    kernels: list
    pre: list
    post: list

    def __post_init__(self):
        self.branch_probs = np.asarray(self.branch_probs, dtype=float)
        p = self.branch_probs
        if p.ndim != 1 or np.any(p < -_KERNEL_TOL) or abs(p.sum() - 1.0) > _KERNEL_TOL:
            raise ValueError("branch probabilities must form a distribution")
        n = p.size
        if not (len(self.kernels) == len(self.pre) == len(self.post) == n):
            raise ValueError("branch count mismatch across probabilities, kernels, channels")
        self.kernels = [_check_kernel(k, f"branch {i} kernel") for i, k in enumerate(self.kernels)]
        shapes = {k.shape for k in self.kernels}
        if len(shapes) != 1:
            raise ValueError("branch kernels differ in shape")
        for name, ops in (("pre", self.pre), ("post", self.post)):
            dims = {(o.in_dim, o.out_dim) for o in ops}
            if len(dims) != 1:
                raise ValueError(f"{name}-channels differ in dimensions")
            for i, o in enumerate(ops):
                _check_channel(o, f"branch {i} {name}-channel")

    @classmethod
    def trivial(cls, n_outcomes, d_v, d_b):
        """The do-nothing recipe: one branch, identity everything."""
        return cls(
            np.array([1.0]),
            [np.eye(n_outcomes)],
            [ChoiOperator(identity_channel_choi(d_v), d_v, d_v)],
            [ChoiOperator(identity_channel_choi(d_b), d_b, d_b)],
        )


def identity_channel_choi(d):
    """Choi operator of the identity channel."""
    return max_entangled(d)


def depolarizing_choi(d):
    """Choi operator of the channel replacing every input with 1/d.

    Public as the reference entanglement-breaking channel: a quantum
    simulation that post-processes with it must leave T = 0.
    """
    return np.eye(d * d, dtype=complex) / (d * d)


def apply_classical_sim(
    instr: TeleportationInstrument, sim: ClassicalSimulation
) -> TeleportationInstrument:
    """Relabelled instrument with Choi operators J'_b = sum_a p(b|a) J_a."""
    if sim.in_outcomes != instr.outcomes:
        raise ValueError(
            f"kernel expects {sim.in_outcomes} outcomes, instrument has {instr.outcomes}"
        )
    mats = instr.mats
    new = [
        sum(sim.kernel[b, a] * mats[a] for a in range(instr.outcomes))
        for b in range(sim.out_outcomes)
    ]
    return TeleportationInstrument(new, instr.dims)


def apply_quantum_sim(
    instr: TeleportationInstrument, sim: QuantumSimulation
) -> TeleportationInstrument:
    """Dressed instrument J'_b = sum_{a,l} p_l p(b|a,l) Theta_l o Lambda_a o Omega_l.

    The output is validated as a no-signalling instrument on the new
    dimensions; correlated classical memory between the channels and the
    relabelling is exactly what the branch index carries.
    """
    d_v, d_b = instr.dims
    for o in sim.pre:
        if o.out_dim != d_v:
            raise ValueError("pre-channel output must match the instrument input")
    for o in sim.post:
        if o.in_dim != d_b:
            raise ValueError("post-channel input must match the instrument output")
    if sim.kernels[0].shape[1] != instr.outcomes:
        raise ValueError(
            f"kernels expect {sim.kernels[0].shape[1]} outcomes, instrument has {instr.outcomes}"
        )
    d_v_new = sim.pre[0].in_dim
    d_b_new = sim.post[0].out_dim
    n_out = sim.kernels[0].shape[0]
    new = [np.zeros((d_v_new * d_b_new, d_v_new * d_b_new), dtype=complex) for _ in range(n_out)]
    for p_l, kern, pre, post in zip(sim.branch_probs, sim.kernels, sim.pre, sim.post):
        for a, j in enumerate(instr.mats):
            inner = choi_compose(j, d_v, d_b, pre.matrix, d_v_new)
            dressed = choi_compose(post.matrix, d_b, d_b_new, inner, d_v_new)
            for b in range(n_out):
                w = p_l * kern[b, a]
                if w != 0.0:
                    new[b] = new[b] + w * dressed
    return TeleportationInstrument([hermitize(m) for m in new], (d_v_new, d_b_new))


@dataclass
class MonotoneViolation:
    """One broken inequality, with the recipe that broke it."""

    quantity: str
    sim_kind: str
    before: float
    after: float
    recipe: object

    @property
    def excess(self):
        return self.after - self.before


@dataclass
class MonotoneReport:
    """Outcome of a randomized monotonicity search."""

    dims: tuple
    checked: int
    violations: list

    @property
    def ok(self):
        return not self.violations


def rand_channel_choi(d_in, d_out=None, rng=None, branches=2):
    """Choi of a random channel: Haar isometries with a 2-level
    environment, mixed over ``branches`` independent draws."""
    rng = np.random.default_rng(rng)
    d_out = d_in if d_out is None else d_out
    weights = rng.dirichlet(np.ones(branches))
    choi = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for w in weights:
        for kraus in rand_kraus(d_in, d_out, 2, rng):
            choi = choi + w * kraus_choi(kraus)
    return hermitize(choi)


def rand_classical_sim(n_in, rng=None, max_out=5) -> ClassicalSimulation:
    """Random stochastic relabelling with 1..max_out output labels."""
    rng = np.random.default_rng(rng)
    m = int(rng.integers(1, max_out + 1))
    kernel = rng.random((m, n_in)) + 1e-3
    kernel = kernel / kernel.sum(axis=0)
    return ClassicalSimulation(kernel)


def rand_quantum_sim(n_in, d_v, d_b, rng=None, branches=2, max_out=5) -> QuantumSimulation:
    """Random correlated dressing preserving the instrument dimensions."""
    rng = np.random.default_rng(rng)
    m = int(rng.integers(1, max_out + 1))
    probs = rng.dirichlet(np.ones(branches))
    kernels = []
    pre = []
    post = []
    for _ in range(branches):
        kernel = rng.random((m, n_in)) + 1e-3
        kernels.append(kernel / kernel.sum(axis=0))
        pre.append(ChoiOperator(rand_channel_choi(d_v, d_v, rng), d_v, d_v))
        post.append(ChoiOperator(rand_channel_choi(d_b, d_b, rng), d_b, d_b))
    return QuantumSimulation(probs, kernels, pre, post)


def _rand_game(d_v, d_b, rng) -> CorrelationGame:
    """Random small game matching the instrument dimensions."""
    n_out = int(rng.integers(2, 5))
    sigma = rand_state((2, d_v), rank=int(rng.integers(1, 3)), rng=rng)
    targets = [rand_state((2 * d_b,), rng=rng).matrix for _ in range(n_out)]
    scores = rng.random(n_out)
    return CorrelationGame(sigma, targets, scores)


def _functional_game_value(game: CorrelationGame, instr, sim: QuantumSimulation):
    """Relabel-optimized identity-family score of the dressed instrument,
    evaluated without composing any Choi operators.

    The pre-channel is pushed onto the game input and the adjoint
    post-channel onto the targets, so this is an independent route to
    the same number ``game_score`` computes on ``apply_quantum_sim``.
    """
    d_v, d_b = instr.dims
    d_spec = game.spectator_dim
    sigma = game.input_state.matrix
    n_in = instr.outcomes
    n_game = game.outcomes
    n_b = sim.kernels[0].shape[0]
    v = np.zeros((n_b, n_game))
    for p_l, kern, pre, post in zip(sim.branch_probs, sim.kernels, sim.pre, sim.post):
        sigma_l = choi_apply_second(pre.matrix, pre.in_dim, pre.out_dim, sigma, d_spec)
        adj = choi_adjoint(post.matrix, post.in_dim, post.out_dim)
        pulled = [
            choi_apply_second(adj, post.out_dim, post.in_dim, xi, d_spec)
            for xi in game.targets
        ]
        w = np.zeros((n_in, n_game))
        for a, j in enumerate(instr.mats):
            y = choi_apply_second(j, d_v, d_b, sigma_l, d_spec)
            for c, xi in enumerate(pulled):
                w[a, c] = float(np.vdot(xi, y).real)
        v = v + p_l * (kern @ w)
    return float(sum(np.max(game.scores * v[b]) for b in range(n_b)))


def check_monotones(
    instr: TeleportationInstrument,
    classical_samples=50,
    quantum_samples=20,
    mixture_samples=20,
    seed=0,
    tol=1e-6,
) -> MonotoneReport:
    """Randomized search for monotonicity violations.

    Checked inequalities, each against ``tol``:

    * robustness never increases under classical or quantum simulations
      and is convex under outcome-wise mixing of instruments;
    * discrimination success and game scores never increase under
      classical relabellings;
    * under quantum simulations the game score of the dressed instrument
      is covered by the better of the undressed score and an
      independently evaluated functional route through the recipe (the
      dressing itself can create score out of nothing — a constant
      post-channel pointed at the targets already does — so the naive
      inequality is not a theorem and is not checked).

    Together the checks exercise every composition path; violations are
    returned with the offending recipe attached.

    The search runs in three phases.  First every recipe is drawn and
    every check that needs no robustness value is evaluated, in one
    fixed order, so a seed always draws the same recipes.  Then the
    robustness of the base instrument, of each simulated instrument and
    of each mixture and its other member is computed by one
    :func:`~telerobust.rot.rot_many` call, which solves them in parallel
    on forked workers when more than one CPU is usable.  Last, the
    violations are listed sample by sample — the classical recipes, then
    the quantum ones, then the mixtures — each sample's robustness check
    before its other checks.
    """
    rng = np.random.default_rng(seed)
    d_v, d_b = instr.dims
    needs_rot = [instr]  # solved in this order; the base instrument first
    samples = []  # (kind, recipe, [(quantity, before, after), ...])

    for _ in range(classical_samples):
        sim = rand_classical_sim(instr.outcomes, rng)
        simmed = apply_classical_sim(instr, sim)
        needs_rot.append(simmed)
        checks = []
        if d_v == d_b:
            e = rand_discrimination_instrument(d_v, branches=int(rng.integers(2, 5)), rng=rng)
            checks.append(("discrimination", p_succ(e, instr), p_succ(e, simmed)))
        g = _rand_game(d_v, d_b, rng)
        before = game_score(g, instr, relabelings="on")
        checks.append(("game", before, game_score(g, simmed, relabelings="on")))
        samples.append(("classical", sim, checks))

    for _ in range(quantum_samples):
        sim = rand_quantum_sim(instr.outcomes, d_v, d_b, rng)
        simmed = apply_quantum_sim(instr, sim)
        needs_rot.append(simmed)
        g = _rand_game(d_v, d_b, rng)
        covered = max(
            game_score(g, instr, relabelings="on"),
            _functional_game_value(g, instr, sim),
        )
        samples.append(("quantum", sim, [("game", covered, game_score(g, simmed, relabelings="on"))]))

    for _ in range(mixture_samples):
        other = build_instrument(
            rand_povm((d_v, 2), instr.outcomes, rng=rng),
            rand_state((2, d_b), rng=rng),
        )
        p = float(rng.uniform(0.05, 0.95))
        mixed = TeleportationInstrument(
            [p * a + (1.0 - p) * b for a, b in zip(instr.mats, other.mats)], instr.dims
        )
        needs_rot += [other, mixed]
        samples.append(("mixture", {"weight": p, "other": other}, []))

    robustness = iter(rot_many(needs_rot))
    base_t = next(robustness)
    violations = []

    def note(quantity, kind, before, after, recipe):
        if after > before + tol:
            violations.append(MonotoneViolation(quantity, kind, float(before), float(after), recipe))

    for kind, recipe, checks in samples:
        if kind == "mixture":
            p = recipe["weight"]
            bound = p * base_t + (1.0 - p) * next(robustness)
            note("robustness-convexity", kind, bound, next(robustness), recipe)
        else:
            note("robustness", kind, base_t, next(robustness), recipe)
        for quantity, before, after in checks:
            note(quantity, kind, before, after, recipe)

    return MonotoneReport(instr.dims, len(samples), violations)
