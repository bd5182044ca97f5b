"""One instrument, end to end: robustness, game, and discrimination task.

Builds the Bell-measurement instrument on an isotropic pair at the given
visibility, certifies its robustness from both sides, then turns the dual
certificate into the two operational tasks it promises:

  * a correlation game whose straight-play score, times d_V, is 1 + T and
    whose classical ceiling is 1/d_V;
  * a branch-discrimination family whose guessing ratio over the classical
    benchmark approaches 1 + T as the fictitious padding grows.

    python3 scripts/worked_example.py --visibility 1.0 --fictitious 10000
"""

import argparse
import sys

from telerobust.discrim import build_discrimination_from_dual, classical_p_succ_ensemble, p_succ
from telerobust.games import UnitaryFamily, build_game_from_dual, classical_game_score, game_score
from telerobust.qobjects import bell_povm, build_instrument, isotropic_state
from telerobust.rot import rot_certified


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
    print(f"robustness T = {t_val:.8f}  (primal {cert.primal.value:.8f}, dual {dual.value:.8f})")

    game = build_game_from_dual(dual)
    score = game_score(game, instr, UnitaryFamily("identity_only"))
    classical = classical_game_score(game, UnitaryFamily("identity_only"))
    print("\ncorrelation game from the certificate:")
    print(f"  straight-play score        {score:.8f}  (d_V * score = {d_v * score:.8f}, 1 + T = {1 + t_val:.8f})")
    print(f"  best classical score       {classical:.8f}  (ceiling 1/d_V = {1 / d_v})")
    print(f"  advantage ratio            {score / classical:.8f}")

    if dual.value <= 1e-9:
        print("\nno entanglement to leverage; skipping the discrimination family")
        return 0

    built, cons = build_discrimination_from_dual(dual, fictitious=args.fictitious)
    numerator = p_succ(built, instr)
    denominator = classical_p_succ_ensemble(built)
    floor = (1 + t_val) / (1 + 1 / (cons.alpha * args.fictitious))
    print("\ndiscrimination family from the certificate:")
    print(f"  branches                   {built.outcomes}  (alpha = {cons.alpha:.6f}, padding {cons.fictitious_count})")
    print(f"  guessing probability       {numerator:.8f}")
    print(f"  classical benchmark        {denominator:.8f}")
    print(f"  ratio                      {numerator / denominator:.8f}  (>= {floor:.8f}, ceiling {1 + t_val:.8f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
