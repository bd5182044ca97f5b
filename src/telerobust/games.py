"""Correlation-transfer games scored against teleportation data.

A game hands the player the second half of a referee state sigma on
V' (x) V, the player pushes that half through a teleportation instrument,
announces an outcome b, optionally applies a correcting unitary on the
output, and earns f(b) times the overlap of the corrected joint state
with a target operator xi_b on V' (x) B.

Two benchmarks matter: the score an actual instrument achieves (a
certified lower bound, since the search is restricted to outcome
relabelings and a correction family), and the best score any classical
instrument can reach: without corrections a semidefinite program over
PPT no-signalling Choi families, and with them one convex bound over
every classical player under every per-outcome correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    NumericalError,
    clip_psd,
    dagger,
    hermitize,
    is_hermitian,
    max_entangled,
    min_eig,
    tensor,
)
from .qobjects import (
    PSD_TOL,
    DensityMatrix,
    InputEnsemble,
    TeleportationInstrument,
    choi_apply_second,
    weyl_family,
)
from .rot import RotDualSolution, classical_max, corrected_classical_bound

__all__ = [
    "FAMILY_KINDS",
    "CorrelationGame",
    "UnitaryFamily",
    "game_score",
    "classical_game_score",
    "classical_game_strategy",
    "build_game_from_dual",
    "fidelity_game_of",
    "average_fidelity",
]

FAMILY_KINDS = ("identity_only", "pauli_group", "seesaw_polished")
_POLISH_STEPS = 20


@dataclass
class UnitaryFamily:
    """Correction unitaries the player may apply per outcome.

    ``identity_only`` applies no correction, ``pauli_group`` picks the
    best discrete shift-and-phase (Weyl) operator, and
    ``seesaw_polished`` refines the best group member with up to 20
    monotone polar-update steps, a local search rather than a finite set.
    Scores computed over any family are certified lower bounds on the
    optimum over all unitaries.
    """

    kind: str = "identity_only"

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown unitary family kind {self.kind!r}")

    @property
    def classical_set(self):
        """The classical players whose best score :func:`classical_game_score` bounds."""
        return "identity corrections" if self.kind == "identity_only" else "any per-outcome correction"

    def members(self, d):
        """Starting unitaries for output dimension ``d``."""
        if self.kind == "identity_only":
            return [np.eye(d, dtype=complex)]
        return weyl_family(d)

    def starts(self, d, n):
        """Correction assignments a see-saw over ``n`` outcomes starts from:
        all identity, then (unless ``identity_only``) the group pattern."""
        starts = [[np.eye(d, dtype=complex)] * n]
        if self.kind != "identity_only":
            members = self.members(d)
            starts.append([members[b % len(members)] for b in range(n)])
        return starts


@dataclass
class CorrelationGame:
    """Referee data: input state, per-outcome targets, and payoffs.

    ``input_state`` lives on spectator (x) probe; each target is a PSD
    operator on spectator (x) output, and ``scores[b]`` is the
    non-negative payoff for matching target ``b``.
    """

    input_state: DensityMatrix
    targets: list
    scores: np.ndarray

    def __post_init__(self):
        if len(self.input_state.dims) != 2:
            raise ValueError("game input state must be bipartite (spectator, probe)")
        self.targets = [np.asarray(t, dtype=complex) for t in self.targets]
        self.scores = np.asarray(self.scores, dtype=float)
        if not self.targets:
            raise ValueError("game needs at least one target")
        if self.scores.shape != (len(self.targets),):
            raise ValueError("one payoff per target required")
        d_spec = self.input_state.dims[0]
        shapes = {t.shape for t in self.targets}
        if len(shapes) != 1:
            raise ValueError("targets differ in shape")
        ((rows, cols),) = shapes
        if rows != cols or rows % d_spec != 0:
            raise ValueError("targets must be square on spectator (x) output")
        if np.any(self.scores < 0):
            raise ValueError("payoffs must be non-negative")
        for b, t in enumerate(self.targets):
            if not is_hermitian(t) or min_eig(t) < -PSD_TOL:
                raise ValueError(f"target {b} is not PSD within tolerance")

    @property
    def spectator_dim(self):
        return self.input_state.dims[0]

    @property
    def probe_dim(self):
        return self.input_state.dims[1]

    @property
    def target_dim(self):
        """Output dimension the targets expect from the player."""
        return self.targets[0].shape[0] // self.input_state.dims[0]

    @property
    def outcomes(self):
        return len(self.targets)


def _pulled(xi, u, d_spec):
    """(1 (x) U)^dag Xi (1 (x) U): the target seen before the correction U."""
    full = tensor(np.eye(d_spec), u)
    return dagger(full) @ xi @ full


def _overlap(y, xi, u, d_spec):
    """tr[(1 (x) U) Y (1 (x) U)^dag Xi] for Hermitian Y, Xi."""
    return float(np.vdot(_pulled(xi, u, d_spec), y).real)


def _relabel_table(ys, game, us, d_spec):
    """f(b) * _overlap(ys[a], xi_b, us[b]) at [b, a], with each pulled target formed once per b."""
    f = game.scores
    pulled = [_pulled(xi, u, d_spec) for xi, u in zip(game.targets, us)]
    return np.array([[f[b] * float(np.vdot(k, y).real) for y in ys] for b, k in enumerate(pulled)])


def _polar_factor(mat):
    p, _, qh = np.linalg.svd(mat)
    return p @ qh


def _best_unitary(y, xi, family, d_spec, d_out):
    """Best correction for one outcome slot: (value, unitary).

    Enumerates the family, then (for the polished family) runs polar
    updates on the linearized objective.  The objective is a PSD
    quadratic form in the unitary, so each polar step cannot decrease
    it; the best iterate is kept regardless.
    """
    members = family.members(d_out)
    vals = [_overlap(y, xi, u, d_spec) for u in members]
    idx = int(np.argmax(vals))
    best_val, best_u = vals[idx], members[idx]
    if family.kind != "seesaw_polished":
        return best_val, best_u
    y4 = y.reshape(d_spec, d_out, d_spec, d_out)
    x4 = xi.reshape(d_spec, d_out, d_spec, d_out)
    u = best_u
    for _ in range(_POLISH_STEPS):
        grad = np.einsum("jqip,pr,irjs->qs", x4, u, y4)
        u_new = _polar_factor(grad)
        val_new = _overlap(y, xi, u_new, d_spec)
        if val_new <= best_val + 1e-14:
            break
        best_val, best_u, u = val_new, u_new, u_new
    return best_val, best_u


def _check_game_dims(game, instr):
    if instr.dims[0] != game.probe_dim:
        raise ValueError(
            f"instrument input dimension {instr.dims[0]} does not match "
            f"the game probe dimension {game.probe_dim}"
        )
    if instr.dims[1] != game.target_dim:
        raise ValueError(
            f"instrument output dimension {instr.dims[1]} does not match "
            f"the game target dimension {game.target_dim}"
        )


def game_score(game, instr, corrections=None, relabelings="off"):
    """Certified lower bound on the score an instrument earns in a game.

    Evaluates sum_b f(b) tr[(1 (x) U_b) (I (x) Lambda'_b)[sigma]
    (1 (x) U_b)^dag xi_b] where Lambda'_b ranges over outcome
    relabelings of the instrument (only when ``relabelings`` is "on")
    and U_b over the correction family.  No pre- or post-processing
    channels are searched, so the result lower-bounds the unrestricted
    game value.  Deterministic: no randomness, ties break to the lowest
    index.
    """
    corrections = corrections if corrections is not None else UnitaryFamily()
    if relabelings not in ("on", "off"):
        raise ValueError("relabelings must be 'on' or 'off'")
    _check_game_dims(game, instr)
    d_spec, d_v, d_b = game.spectator_dim, game.probe_dim, game.target_dim
    sigma = game.input_state.matrix
    ys = [choi_apply_second(j, d_v, d_b, sigma, d_spec) for j in instr.mats]
    f = game.scores

    if relabelings == "off":
        if instr.outcomes != game.outcomes:
            raise ValueError(
                f"instrument has {instr.outcomes} outcomes but the game has "
                f"{game.outcomes}; enable relabelings to bridge them"
            )
        total = 0.0
        for b, (y, xi) in enumerate(zip(ys, game.targets)):
            if f[b] <= 0.0:
                continue
            val, _ = _best_unitary(f[b] * y, xi, corrections, d_spec, d_b)
            total += val
        return total

    n_a, n_b = instr.outcomes, game.outcomes
    best_total = -np.inf
    for start in corrections.starts(d_b, n_b):
        us = list(start)
        prev = -np.inf
        for _ in range(12):
            # best deterministic relabeling at fixed corrections: each
            # instrument outcome reports the game outcome paying most
            table = _relabel_table(ys, game, us, d_spec)
            cols = np.argmax(table, axis=0)
            for b in range(n_b):
                if f[b] <= 0.0:
                    continue
                picked = [a for a in range(n_a) if cols[a] == b]
                if not picked:
                    continue
                y_eff = f[b] * sum(ys[a] for a in picked)
                _, us[b] = _best_unitary(y_eff, game.targets[b], corrections, d_spec, d_b)
            table = _relabel_table(ys, game, us, d_spec)
            total = float(np.max(table, axis=0).sum())
            if total <= prev + 1e-12:
                break
            prev = total
        best_total = max(best_total, prev)
    return float(best_total)


def _pullback_target(sigma_mat, xi_mat, d_spec, d_v, d_b):
    """Operator C on V (x) B with tr[F C] = tr[(I (x) Lambda_F)[sigma] Xi].

    Lets the classical benchmark treat the game payoff as a linear
    functional of the player's Choi operator F.
    """
    s4 = np.asarray(sigma_mat, dtype=complex).reshape(d_spec, d_v, d_spec, d_v)
    x4 = np.asarray(xi_mat, dtype=complex).reshape(d_spec, d_b, d_spec, d_b)
    c = d_v * np.einsum("wpvo,vbwc->cpbo", x4, s4)
    return hermitize(c.reshape(d_v * d_b, d_v * d_b))


def classical_game_strategy(game, corrections=None, tol=1e-9):
    """Classical benchmark with the strategy that attains it: (value, [F_b]).

    With ``identity_only`` corrections, the exact program over PPT
    no-signalling Choi families (:func:`classical_max`).  With any other
    family, one convex bound (:func:`corrected_classical_bound`) on every
    classical player under every per-outcome correction, whose F_b absorb
    the corrections; on the fidelity game of a 2-design it is 2/(d + 1)
    (Horodecki, Horodecki & Horodecki, PRA 60, 1888 (1999)).
    """
    corrections = corrections if corrections is not None else UnitaryFamily()
    d_spec, d_v, d_b = game.spectator_dim, game.probe_dim, game.target_dim
    if float(np.sum(game.scores)) == 0.0:
        return 0.0, [np.zeros((d_v * d_b, d_v * d_b))] * game.outcomes
    sigma = game.input_state.matrix
    payoffs = [None] * game.outcomes
    for b in np.flatnonzero(game.scores > 0.0):
        payoffs[b] = game.scores[b] * _pullback_target(sigma, game.targets[b], d_spec, d_v, d_b)
    program = classical_max if corrections.kind == "identity_only" else corrected_classical_bound
    return program(payoffs, (d_v, d_b), tol, what="classical game benchmark")


def classical_game_score(game, corrections=None, tol=1e-9):
    """Best score of the classical players ``corrections.classical_set`` names; see :func:`classical_game_strategy`."""
    return classical_game_strategy(game, corrections, tol=tol)[0]


def build_game_from_dual(dual: RotDualSolution, tol=1e-9) -> CorrelationGame:
    """Game whose quantum-over-classical advantage reproduces 1 + T.

    Reuses the witness operators of a robustness certificate: the
    referee input is the maximally entangled state, target b is the
    trace-normalized witness A_b, and the payoff is tr A_b.  Scoring the
    witnessed instrument with identity corrections then returns
    (1 + T)/d_V by construction, while no classical player can exceed
    1/d_V.  Outcomes whose witness has (near-)zero trace are kept as
    dead slots with zero payoff.
    """
    d_v, d_b = dual.dims
    sigma = DensityMatrix(max_entangled(d_v), (d_v, d_v))
    n = d_v * d_b
    targets, scores = [], []
    for a_op in dual.witnesses_A:
        clipped = clip_psd(a_op)
        weight = float(np.trace(clipped).real)
        if weight <= tol:
            targets.append(np.zeros((n, n)))
            scores.append(0.0)
        else:
            targets.append(clipped / weight)
            scores.append(weight)
    if all(s == 0.0 for s in scores):
        raise NumericalError("all witnesses have zero trace; the certificate is degenerate")
    return CorrelationGame(sigma, targets, np.asarray(scores))


def fidelity_game_of(inputs: InputEnsemble, outcomes: int) -> CorrelationGame:
    """Game whose score is the average teleportation fidelity.

    The referee keeps a classical flag |x><x| of which probe was drawn,
    so the input state is sum_x w_x |x><x| (x) omega_x; each of the
    ``outcomes`` slots has target sum_x |x><x| (x) omega_x and payoff 1,
    which makes the game score collapse to the weighted overlap of the
    corrected output with the probe.  Requires pure probes (an
    :class:`InputEnsemble` holds probes of one dimension).
    """
    d = inputs.states[0].dim
    for x, st in enumerate(inputs.states):
        if np.linalg.eigvalsh(st.matrix)[-1] < 1.0 - 1e-9:
            raise ValueError(f"probe {x} is mixed; the fidelity game needs pure probes")
    n = len(inputs.states)
    flagged = [tensor(np.diag(np.eye(n)[x]), st.matrix) for x, st in enumerate(inputs.states)]
    sigma = DensityMatrix(sum(w * f for w, f in zip(inputs.weights, flagged)), (n, d))
    return CorrelationGame(sigma, [sum(flagged)] * outcomes, np.ones(outcomes))


def average_fidelity(instr: TeleportationInstrument, inputs: InputEnsemble, corrections=None):
    """Input-averaged fidelity of corrected outputs against pure probes.

    Computes sum_x w_x sum_a <omega_x| U_a rho_{a|x} U_a^dag |omega_x>
    with rho_{a|x} the unnormalized conditional output, maximizing each
    outcome's correction over the family: the :func:`game_score` of
    :func:`fidelity_game_of`.  A lower bound whenever the family falls
    short of all unitaries.
    """
    return game_score(fidelity_game_of(inputs, instr.outcomes), instr, corrections)
