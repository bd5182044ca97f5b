"""Command-line front end.

Every subcommand loads validated experiment files, runs one pipeline,
and emits a result record (JSON by default, CSV with ``--format csv``)
holding the computed values, any solver certificates, warnings, and the
wall time; ``sweep`` writes a CSV table instead.  ``main`` fills in each
record's ``command`` from the parsed command path and its ``inputs``
from the digests of the files the handler loaded, so a handler states
only what it computed.

Each command accepts only the flags it reads; any other flag exits 2.
``--tol`` is declared, with its default, on the commands that pass it to
a solve or a fit, and ``--seed`` only on ``sim check``, the one command
that samples.  A rerun of any command line reproduces its output, apart
from the wall time.

Exit codes: 0 success, 2 unknown command or bad flags, 3 invalid or
inconsistent input files, 4 solver failure, 5 internal numerical failure
(valid inputs, but a derived quantity came out degenerate, such as a
vanishing classical benchmark or a negative eigenvalue in an inverse
square root).

The CLI runs its linear algebra on one BLAS thread unless
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``
already says otherwise.  The solver's matrices have at most a few
thousand rows, where a second thread costs more in handoffs than it
saves: ``rot compute`` at d = 3 took 0.65-0.84 s with one thread and
1.53-1.77 s with two on a 2-vCPU Xeon.  The defaults are set before numpy
loads, because the BLAS library reads them once, when it is loaded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

# Before numpy and the package's modules load (see the module docstring).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from .conic import NumericalError, SolverError
from .discrim import (
    DiscriminationInstrument,
    advantage_ratio,
    build_discrimination_from_dual,
    checked_denominator,
    classical_p_succ_ensemble,
    classical_p_succ_product,
    p_succ,
    pauli_twirl_instrument,
)
from .games import (
    FAMILY_KINDS,
    CorrelationGame,
    UnitaryFamily,
    average_fidelity,
    build_game_from_dual,
    classical_game_score,
    game_score,
)
from .qobjects import (
    DensityMatrix,
    InputEnsemble,
    Povm,
    TeleportationInstrument,
    bell_povm,
    build_instrument,
    fit_choi,
    ideal_instrument,
    isotropic_state,
    pauli_six,
    realize_from_choi,
)
from .rot import rot_certified, rot_dual, rot_many
from .serialize import (
    FileFormatError,
    ResultRecord,
    TomographyData,
    certificate_payload,
    encode_object,
    file_digest,
    load_experiment,
    record_dumps,
    save_experiment,
)
from .simorder import (
    ClassicalSimulation,
    QuantumSimulation,
    apply_classical_sim,
    apply_quantum_sim,
    check_monotones,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_SOLVER = 4
EXIT_NUMERIC = 5


def _ppt_warnings(d_v, d_b):
    n = d_v * d_b
    if n > 6:
        return [
            "separability is relaxed to the positive-partial-transpose cone, "
            f"exact only for total dimension <= 6; here d_V*d_B = {n}, so "
            "classical sets may be over-approximated and robustness "
            "under-estimated"
        ]
    return []


def _pick(args, flag, cls, what):
    """The one ``cls`` object in the file named by ``--<flag>``.

    Records the file's digest under ``flag`` in ``args.loaded``, which
    ``main`` writes to the record's ``inputs``.
    """
    path = getattr(args, flag)
    objects = load_experiment(path)
    found = sorted(
        (name, obj) for name, obj in objects.items() if isinstance(obj, cls)
    )
    if len(found) != 1:
        raise FileFormatError(
            str(path), f"expected exactly one {what} object, found {len(found)}"
        )
    args.loaded[flag] = file_digest(path)
    return found[0][1]


def _format_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _record_csv(record: ResultRecord) -> str:
    keys = list(record.values)
    head = ",".join(keys)
    row = ",".join(_format_cell(record.values[k]) for k in keys)
    return head + "\n" + row + "\n"


def _write(text, out):
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rot_compute(args):
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    cert = rot_certified(instr, tol=args.tol)
    return ResultRecord(
        values={
            "robustness": cert.value,
            "primal_value": cert.primal.value,
            "dual_value": cert.dual.value,
            "route_gap": cert.width,
            "route": cert.route,
            "iterations": cert.dual.solution.iterations,
        },
        certificates={
            "primal": certificate_payload(cert.primal.solution),
            "dual": certificate_payload(cert.dual.solution),
        },
        warnings=_ppt_warnings(*instr.dims),
    )


def cmd_rot_dual(args):
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    d = rot_dual(instr, tol=args.tol)
    return ResultRecord(
        values={"robustness_lower_bound": d.value, "route": d.route, "iterations": d.solution.iterations},
        certificates={"dual": certificate_payload(d.solution)},
        warnings=_ppt_warnings(*instr.dims),
    )


def cmd_instrument_build(args):
    measurement = _pick(args, "measurement", Povm, "POVM")
    state = _pick(args, "state", DensityMatrix, "state")
    instr = build_instrument(measurement, state)
    save_experiment(args.save, {"instrument": instr})
    return ResultRecord(values={"outcomes": instr.outcomes, "d_v": instr.dims[0], "d_b": instr.dims[1]})


def cmd_instrument_ideal(args):
    instr = ideal_instrument(args.d)
    save_experiment(args.save, {"instrument": instr})
    return ResultRecord(values={"d": args.d, "outcomes": instr.outcomes})


def cmd_instrument_realize(args):
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    state, measurement = realize_from_choi(instr)
    rebuilt = build_instrument(measurement, state)
    residual = max(
        float(np.linalg.norm(a - b)) for a, b in zip(rebuilt.mats, instr.mats)
    )
    save_experiment(args.save, {"state": state, "measurement": measurement})
    return ResultRecord(values={"round_trip_residual": residual})


def _check_tomography(path, data, probes):
    """Raise ``FileFormatError`` on ``path`` unless each outcome has one output per probe, all of one shape."""
    shape = np.shape(data[0][0])
    for a, row in enumerate(data):
        if len(row) != probes:
            raise FileFormatError(str(path), f"outcome {a} has {len(row)} outputs for {probes} probes")
        for x, out in enumerate(row):
            if np.shape(out) != shape:
                raise FileFormatError(
                    str(path), f"output {x} of outcome {a} has shape {np.shape(out)}, output 0 of outcome 0 {shape}"
                )


def cmd_instrument_fit(args):
    inputs = _pick(args, "inputs", InputEnsemble, "input ensemble")
    data = _pick(args, "data", TomographyData, "tomography data")
    _check_tomography(args.data, data.data, len(inputs.states))
    instr, residual = fit_choi(inputs, data.data, tol=args.tol)
    if residual >= args.tol:
        raise FileFormatError(
            str(args.data),
            f"tomography data fit with residual {residual:.3e} >= tol {args.tol:g}; "
            "no valid instrument reproduces the data, so nothing was saved",
        )
    save_experiment(args.save, {"instrument": instr})
    return ResultRecord(values={"residual": residual, "outcomes": instr.outcomes})


def cmd_game_build_from_dual(args):
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    dual = rot_dual(instr, tol=args.tol)
    game = build_game_from_dual(dual)
    save_experiment(args.save, {"game": game})
    return ResultRecord(
        values={"dual_value": dual.value, "outcomes": game.outcomes},
        certificates={"dual": certificate_payload(dual.solution)},
        warnings=_ppt_warnings(*instr.dims),
    )


def cmd_game_score(args):
    game = _pick(args, "game", CorrelationGame, "game")
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    score = game_score(
        game, instr, UnitaryFamily(args.family), relabelings=args.relabel
    )
    return ResultRecord(values={"score": score})


def cmd_game_classical(args):
    game = _pick(args, "game", CorrelationGame, "game")
    family = UnitaryFamily(args.family)
    score = classical_game_score(game, family, tol=args.tol)
    return ResultRecord(
        values={"classical_score": score, "classical_set": family.classical_set},
        warnings=_ppt_warnings(game.probe_dim, game.target_dim),
    )


def cmd_discrim_build_from_dual(args):
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    dual = rot_dual(instr, tol=args.tol)
    e, cons = build_discrimination_from_dual(dual, fictitious=args.fictitious)
    save_experiment(args.save, {"discrimination": e})
    return ResultRecord(
        values={
            "alpha": cons.alpha,
            "fictitious_count": cons.fictitious_count,
            "branches": e.outcomes,
            "dual_value": dual.value,
        },
        certificates={"dual": certificate_payload(dual.solution)},
        warnings=_ppt_warnings(*instr.dims),
    )


def cmd_discrim_psucc(args):
    e = _pick(args, "e", DiscriminationInstrument, "discrimination instrument")
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    return ResultRecord(values={"p_succ": p_succ(e, instr)})


def cmd_discrim_classical(args):
    e = _pick(args, "e", DiscriminationInstrument, "discrimination instrument")
    return ResultRecord(
        values={
            "ensemble": classical_p_succ_ensemble(e, tol=args.tol),
            "product": classical_p_succ_product(e),
        },
        warnings=_ppt_warnings(e.dim, e.dim),
    )


def cmd_discrim_ratio(args):
    e = _pick(args, "e", DiscriminationInstrument, "discrimination instrument")
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    ratio, numerator, denominator = advantage_ratio(e, instr, tol=args.tol)
    return ResultRecord(
        values={"ratio": ratio, "numerator": numerator, "denominator": denominator},
        warnings=_ppt_warnings(e.dim, e.dim),
    )


def cmd_sim_apply(args):
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    sim = _pick(args, "sim", (ClassicalSimulation, QuantumSimulation), "simulation")
    if isinstance(sim, ClassicalSimulation):
        simmed = apply_classical_sim(instr, sim)
        kind = "classical"
    else:
        simmed = apply_quantum_sim(instr, sim)
        kind = "quantum"
    save_experiment(args.save, {"instrument": simmed})
    return ResultRecord(
        values={
            "kind": kind,
            "outcomes": simmed.outcomes,
            "d_v": simmed.dims[0],
            "d_b": simmed.dims[1],
        },
    )


def _violation_payload(v):
    recipe = v.recipe
    if isinstance(recipe, (ClassicalSimulation, QuantumSimulation)):
        recipe_obj = encode_object(recipe)
    elif isinstance(recipe, dict):
        recipe_obj = {
            "weight": recipe["weight"],
            "other": encode_object(recipe["other"]),
        }
    else:
        recipe_obj = None
    return {
        "quantity": v.quantity,
        "sim_kind": v.sim_kind,
        "before": v.before,
        "after": v.after,
        "recipe": recipe_obj,
    }


def cmd_sim_check(args):
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    report = check_monotones(
        instr,
        classical_samples=args.classical,
        quantum_samples=args.quantum,
        mixture_samples=args.mixtures,
        seed=args.seed,
        tol=args.tol,
    )
    return ResultRecord(
        values={
            "checked": report.checked,
            "violations": len(report.violations),
            "ok": report.ok,
            "seed": args.seed,
        },
        certificates={
            "violations": [_violation_payload(v) for v in report.violations]
        },
        warnings=_ppt_warnings(*instr.dims),
    )


def cmd_fidelity(args):
    instr = _pick(args, "instrument", TeleportationInstrument, "instrument")
    if args.inputs:
        ensemble = _pick(args, "inputs", InputEnsemble, "input ensemble")
    else:
        ensemble = pauli_six()
    value = average_fidelity(instr, ensemble, UnitaryFamily(args.family))
    return ResultRecord(values={"average_fidelity": value})


def _load_sweep_config(path):
    """The grid of visibilities in the sweep config ``path``.

    A ``FileFormatError`` names the file, then the JSON path of the
    offending entry, as ``load_experiment``'s do: ``sweep.json: $.d: ...``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise FileFormatError(str(path), f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(str(path), f"not valid JSON: {exc}") from exc
    try:
        return _sweep_grid(cfg)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc.path}", exc.message) from exc


def _sweep_grid(cfg):
    """The grid a parsed sweep config asks for; errors name JSON paths only."""
    if not isinstance(cfg, dict):
        raise FileFormatError("$", "expected a JSON object")
    if cfg.get("parameter") != "isotropic_p":
        raise FileFormatError(
            "$.parameter", f"unknown sweep parameter {cfg.get('parameter')!r}"
        )
    d = cfg.get("d", 2)
    if type(d) is not int or d != 2:  # bool is a subclass of int
        raise FileFormatError("$.d", f"expected the integer 2, got {d!r}: qubit fixtures only")
    try:
        start = float(cfg["start"])
        stop = float(cfg["stop"])
        step = float(cfg["step"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError("$", f"malformed grid: {exc}") from exc
    if not (0.0 <= start < stop <= 1.0) or step <= 0.0:
        raise FileFormatError("$", "grid must satisfy 0 <= start < stop <= 1, step > 0")
    n = int(round((stop - start) / step))
    if n < 1 or abs(start + n * step - stop) > 1e-9:
        raise FileFormatError("$.step", "step does not divide the range")
    return [round(float(x), 10) for x in np.linspace(start, stop, n + 1)]


def cmd_sweep(args):
    grid = _load_sweep_config(args.config)
    ideal = ideal_instrument(2)
    game = build_game_from_dual(rot_dual(ideal, tol=args.tol))
    twirl = pauli_twirl_instrument(2)
    denominator = checked_denominator(classical_p_succ_ensemble(twirl, tol=args.tol))
    probes = pauli_six()
    family = UnitaryFamily("pauli_group")
    bell = bell_povm(2)

    instrs = [build_instrument(bell, isotropic_state(p, 2)) for p in grid]
    ts = rot_many(instrs, tol=args.tol)

    lines = ["p,robustness,fidelity,game_score,discrimination_ratio"]
    for p, instr, t_val in zip(grid, instrs, ts):
        fid = average_fidelity(instr, probes, family)
        score = game_score(game, instr)
        ratio = p_succ(twirl, instr) / denominator
        cells = [p, t_val, fid, score, ratio]
        lines.append(",".join(f"{c:.17g}" for c in cells))
    _write("\n".join(lines) + "\n", args.out)
    return None


def _int_at_least(low, what):
    """argparse type for counts: an integer >= ``low``, called ``what`` in errors."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive integer")
_non_negative_int = _int_at_least(0, "non-negative integer")
_dimension = _int_at_least(2, "dimension of at least 2")


def _leaf(p, handler, tol=None, record=True):
    """Flags every command shares; ``--tol`` only where a default is given.

    ``record=False`` marks a command that writes a table, not a result
    record, and so takes no ``--format``.
    """
    if tol is not None:
        p.add_argument("--tol", type=float, default=tol, help="numerical tolerance (default %(default)g)")
    p.add_argument("--out", help="write output to this file instead of stdout")
    if record:
        p.add_argument("--format", choices=("json", "csv"), default="json", help="result record format")
    p.set_defaults(handler=handler)


@functools.cache  # built once per process; each parse_args call starts a fresh namespace
def build_parser():
    parser = argparse.ArgumentParser(
        prog="telerobust",
        description=(
            "Quantify how far teleportation data sits outside the classical set, "
            "with certificates, games, and discrimination tasks to match."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    rot_p = sub.add_parser("rot", help="teleportation robustness")
    rot_sub = rot_p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    p = rot_sub.add_parser("compute", help="robustness with primal and dual certificates")
    p.add_argument("--instrument", required=True, help="experiment file holding the instrument")
    _leaf(p, cmd_rot_compute, tol=1e-8)
    p = rot_sub.add_parser("dual", help="witness certificate only")
    p.add_argument("--instrument", required=True)
    _leaf(p, cmd_rot_dual, tol=1e-8)

    in_p = sub.add_parser("instrument", help="construct, fit, or realize instruments")
    in_sub = in_p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    p = in_sub.add_parser("build", help="instrument of a POVM and a shared state")
    p.add_argument("--measurement", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--save", required=True, help="write the instrument file here")
    _leaf(p, cmd_instrument_build)
    p = in_sub.add_parser("fit", help="least-squares instrument from tomography data")
    p.add_argument("--inputs", required=True, help="probe ensemble file")
    p.add_argument("--data", required=True, help="tomography data file")
    p.add_argument("--save", required=True)
    _leaf(p, cmd_instrument_fit, tol=1e-4)
    p = in_sub.add_parser("ideal", help="Bell measurement on a maximally entangled pair")
    p.add_argument("--d", type=_dimension, default=2, help="local dimension (default 2)")
    p.add_argument("--save", required=True)
    _leaf(p, cmd_instrument_ideal)
    p = in_sub.add_parser("realize", help="state-and-measurement realization of Choi data")
    p.add_argument("--instrument", required=True)
    p.add_argument("--save", required=True)
    _leaf(p, cmd_instrument_realize)

    game_p = sub.add_parser("game", help="correlation-transfer games")
    game_sub = game_p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    p = game_sub.add_parser("build-from-dual", help="game whose advantage witnesses the robustness")
    p.add_argument("--instrument", required=True)
    p.add_argument("--save", required=True)
    _leaf(p, cmd_game_build_from_dual, tol=1e-8)
    p = game_sub.add_parser("score", help="score an instrument on a game")
    p.add_argument("--game", required=True)
    p.add_argument("--instrument", required=True)
    p.add_argument("--family", choices=FAMILY_KINDS, default="identity_only")
    p.add_argument("--relabel", choices=("on", "off"), default="off")
    _leaf(p, cmd_game_score)
    p = game_sub.add_parser("classical", help="best classical score of a game")
    p.add_argument("--game", required=True)
    p.add_argument("--family", choices=FAMILY_KINDS, default="identity_only")
    _leaf(p, cmd_game_classical, tol=1e-9)

    dis_p = sub.add_parser("discrim", help="subchannel discrimination with side information")
    dis_sub = dis_p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    p = dis_sub.add_parser("build-from-dual", help="near-optimal discrimination task from a certificate")
    p.add_argument("--instrument", required=True)
    p.add_argument("--fictitious", type=_positive_int, default=10_000, help="padding branch count (default 10000)")
    p.add_argument("--save", required=True)
    _leaf(p, cmd_discrim_build_from_dual, tol=1e-8)
    p = dis_sub.add_parser("psucc", help="guessing probability with an instrument")
    p.add_argument("--e", required=True, help="discrimination instrument file")
    p.add_argument("--instrument", required=True)
    _leaf(p, cmd_discrim_psucc)
    p = dis_sub.add_parser("classical", help="classical benchmarks (ensemble SDP and product form)")
    p.add_argument("--e", required=True)
    _leaf(p, cmd_discrim_classical, tol=1e-9)
    p = dis_sub.add_parser("ratio", help="quantum-over-classical advantage")
    p.add_argument("--e", required=True)
    p.add_argument("--instrument", required=True)
    _leaf(p, cmd_discrim_ratio, tol=1e-9)

    sim_p = sub.add_parser("sim", help="simulation recipes and monotone checks")
    sim_sub = sim_p.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    p = sim_sub.add_parser("apply", help="apply a classical or quantum recipe")
    p.add_argument("--instrument", required=True)
    p.add_argument("--sim", required=True, help="file holding the recipe")
    p.add_argument("--save", required=True)
    _leaf(p, cmd_sim_apply)
    p = sim_sub.add_parser("check", help="randomized monotonicity search")
    p.add_argument("--instrument", required=True)
    p.add_argument("--classical", type=_non_negative_int, default=50, help="classical recipes to try")
    p.add_argument("--quantum", type=_non_negative_int, default=20, help="quantum recipes to try")
    p.add_argument("--mixtures", type=_non_negative_int, default=20, help="convex mixtures to try")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="seed for the sampled recipes (default 0)")
    _leaf(p, cmd_sim_check, tol=1e-6)

    p = sub.add_parser("fidelity", help="average teleportation fidelity over probe states")
    p.add_argument("--instrument", required=True)
    p.add_argument("--inputs", help="probe ensemble file (default: six Pauli eigenstates)")
    p.add_argument("--family", choices=FAMILY_KINDS, default="pauli_group")
    _leaf(p, cmd_fidelity)

    p = sub.add_parser("sweep", help="CSV table over a parameter grid")
    p.add_argument("--config", required=True, help="grid configuration file")
    _leaf(p, cmd_sweep, tol=1e-8, record=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.loaded = {}
    started = time.perf_counter()
    try:
        record = args.handler(args)
    except NumericalError as exc:  # a ValueError, so caught before the input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:  # FileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if record is not None:
        record.command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
        record.inputs = args.loaded
        record.wall_time = time.perf_counter() - started
        _write(_record_csv(record) if args.format == "csv" else record_dumps(record), args.out)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
