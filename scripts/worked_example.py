"""One instrument, end to end: robustness, game, and discrimination task.

Builds the Bell-measurement instrument on an isotropic pair at the given
visibility, certifies its robustness from both sides, then turns the dual
certificate into the two operational tasks it promises:

  * a correlation game whose straight-play score, times d_V, is 1 + T and
    whose classical ceiling is 1/d_V;
  * a branch-discrimination family whose guessing ratio over the classical
    benchmark approaches 1 + T as the fictitious padding grows.

Then it repeats the robustness and the game for the fidelity-blind state
p |psi-><psi-| + (1 - p) |00><00| at p = 0.2 (Badziag, Horodecki,
Horodecki & Horodecki, PRA 62, 012311 (2000)): no correction lifts its
teleportation fidelity above the classical 2/3, which is computed as the
bound on every classical player under any per-outcome correction in the
fidelity game of the six Pauli eigenstates, yet the state is entangled,
T = p^2 / (4 (1 - p)) = 0.0125, and the game from the certificate still
pays 1 + T times the classical score.  At an isotropic visibility p <= 1/3
the Bell instrument is PPT outcome by outcome and its certificates are
written down without a solve (route "ppt").  The fidelity-blind state is
not, but Bell measurement on any state is Weyl-covariant, so its program
is solved on one outcome and lifted to all four (route "covariant"), as
is the isotropic one above p = 1/3.

    python3 scripts/worked_example.py --visibility 1.0 --fictitious 10000
"""

import argparse
import sys

import numpy as np

from telerobust.discrim import build_discrimination_from_dual, classical_p_succ_ensemble, p_succ
from telerobust.games import (
    UnitaryFamily,
    average_fidelity,
    build_game_from_dual,
    classical_game_score,
    fidelity_game_of,
    game_score,
)
from telerobust.qobjects import DensityMatrix, bell_povm, build_instrument, isotropic_state, pauli_six
from telerobust.rot import rot_certified

BLIND_P = 0.2  # singlet weight of the fidelity-blind state


def fidelity_blind_state(p):
    """p |psi-><psi-| + (1 - p) |00><00| on two qubits."""
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return DensityMatrix(p * np.outer(psi_minus, psi_minus) + (1 - p) * np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))


def game_ratio(cert, instr):
    """Straight-play score of the certificate's game over its classical score."""
    game = build_game_from_dual(cert.dual)
    family = UnitaryFamily("identity_only")
    return game_score(game, instr, family) / classical_game_score(game, family)


def fidelity_blind(p):
    instr = build_instrument(bell_povm(2), fidelity_blind_state(p))
    family = UnitaryFamily("seesaw_polished")
    fidelity = average_fidelity(instr, pauli_six(), family)
    limit = classical_game_score(fidelity_game_of(pauli_six(), instr.outcomes), family)
    cert = rot_certified(instr)
    print(f"\nfidelity-blind state p |psi-><psi-| + (1 - p) |00><00|, p = {p}")
    print(f"  best fidelity found        {fidelity:.8f}  (classical limit {limit:.8f}, 2/(d + 1) = 2/3)")
    print(f"  robustness T               {cert.value:.8f}  (p^2 / (4 (1 - p)) = {p**2 / (4 * (1 - p)):.8f}, "
          f"route {cert.route})")
    print(f"  game advantage ratio       {game_ratio(cert, instr):.8f}  (1 + T = {1 + cert.value:.8f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--visibility", type=float, default=1.0,
                        help="isotropic-state visibility p in [0, 1] (default 1.0)")
    parser.add_argument("--fictitious", type=int, default=10_000,
                        help="padding branches for the discrimination family")
    args = parser.parse_args()

    instr = build_instrument(bell_povm(2), isotropic_state(args.visibility, 2))
    d_v = instr.dims[0]

    cert = rot_certified(instr)
    dual, t_val = cert.dual, cert.value
    print(f"instrument: Bell measurement on isotropic pair, p = {args.visibility}")
    print(f"robustness T = {t_val:.8f}  (primal {cert.primal.value:.8f}, dual {dual.value:.8f}, "
          f"route {cert.route})")

    game = build_game_from_dual(dual)
    score = game_score(game, instr, UnitaryFamily("identity_only"))
    classical = classical_game_score(game, UnitaryFamily("identity_only"))
    print("\ncorrelation game from the certificate:")
    print(f"  straight-play score        {score:.8f}  (d_V * score = {d_v * score:.8f}, 1 + T = {1 + t_val:.8f})")
    print(f"  best classical score       {classical:.8f}  (ceiling 1/d_V = {1 / d_v})")
    print(f"  advantage ratio            {score / classical:.8f}")

    if dual.value <= 1e-9:
        print("\nno entanglement to leverage; skipping the discrimination family")
    else:
        discriminate(dual, instr, t_val, args.fictitious)
    fidelity_blind(BLIND_P)
    return 0


def discriminate(dual, instr, t_val, fictitious):
    built, cons = build_discrimination_from_dual(dual, fictitious=fictitious)
    numerator = p_succ(built, instr)
    denominator = classical_p_succ_ensemble(built)
    floor = (1 + t_val) / (1 + 1 / (cons.alpha * fictitious))
    print("\ndiscrimination family from the certificate:")
    print(f"  branches                   {built.outcomes}  (alpha = {cons.alpha:.6f}, padding {cons.fictitious_count})")
    print(f"  guessing probability       {numerator:.8f}")
    print(f"  classical benchmark        {denominator:.8f}")
    print(f"  ratio                      {numerator / denominator:.8f}  (>= {floor:.8f}, ceiling {1 + t_val:.8f})")


if __name__ == "__main__":
    sys.exit(main())
