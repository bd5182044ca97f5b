"""End-to-end command-line tests: every subcommand, exit codes, sweeps."""

import argparse
import inspect
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from telerobust import cli, conic, discrim
from telerobust.conic import SolverError, verify_certificate
from telerobust.discrim import build_discrimination_from_dual, pauli_twirl_instrument
from telerobust.games import build_game_from_dual
from telerobust.linalg import hermitize
from telerobust.qobjects import (
    DensityMatrix,
    InputEnsemble,
    bell_povm,
    build_instrument,
    choi_apply,
    ideal_instrument,
    isotropic_state,
    TeleportationInstrument,
    pauli_six,
)
from telerobust.rot import rot_dual, rot_dual_problem, rot_primal_problem
from telerobust.serialize import (
    FileFormatError,
    TomographyData,
    file_digest,
    load_experiment,
    record_loads,
    save_experiment,
    solution_from_payload,
)
from telerobust.simorder import ClassicalSimulation


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Standard experiment files shared across the command tests."""
    root = tmp_path_factory.mktemp("clifiles")
    paths = {
        "ideal2": root / "ideal2.json",
        "ideal3": root / "ideal3.json",
        "pauli6": root / "pauli6.json",
        "twirl": root / "pauli_twirl.json",
        "iso07": root / "iso07.json",
        "task40": root / "task40.json",
    }
    save_experiment(paths["ideal2"], {"instrument": ideal_instrument(2)})
    save_experiment(paths["ideal3"], {"instrument": ideal_instrument(3)})
    save_experiment(paths["pauli6"], {"probes": pauli_six()})
    save_experiment(paths["twirl"], {"e": pauli_twirl_instrument(2)})
    iso07 = build_instrument(bell_povm(2), isotropic_state(0.7, 2))
    save_experiment(paths["iso07"], {"instrument": iso07})
    task40, _ = build_discrimination_from_dual(rot_dual(iso07), fictitious=40)
    save_experiment(paths["task40"], {"task": task40})
    return paths


@pytest.fixture(scope="module")
def more_files(files, tmp_path_factory):
    """The inputs of the commands that read a POVM, a state, tomography
    data, a game or a simulation recipe, next to the standard files."""
    root = tmp_path_factory.mktemp("clifiles_more")
    paths = dict(files)
    for name in ("povm", "state", "tomo", "game", "merge"):
        paths[name] = root / f"{name}.json"
    ideal = ideal_instrument(2)
    save_experiment(paths["povm"], {"m": bell_povm(2)})
    save_experiment(paths["state"], {"s": isotropic_state(0.7)})
    tomo = [[choi_apply(j, 2, 2, w.matrix) for w in pauli_six().states] for j in ideal.mats]
    save_experiment(paths["tomo"], {"data": TomographyData(tomo)})
    save_experiment(paths["game"], {"game": build_game_from_dual(rot_dual(ideal))})
    save_experiment(paths["merge"], {"recipe": ClassicalSimulation.merge_all(4)})
    return paths


def run_record(args, tmp_path, name="record.json"):
    """Run the CLI with --out and return (exit code, parsed record)."""
    out = tmp_path / name
    code = cli.main([*args, "--out", str(out)])
    if code != 0:
        return code, None
    return code, record_loads(out.read_text(encoding="utf-8"))


class TestExitCodes:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self, files):
        with pytest.raises(SystemExit) as exc:
            cli.main(["rot", "frobnicate", "--instrument", str(files["ideal2"])])
        assert exc.value.code == 2

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = cli.main(["rot", "dual", "--instrument", str(tmp_path / "nope.json")])
        assert code == 3
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_file_exits_3_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "version": 1,
                    "objects": {
                        "x": {
                            "type": "state",
                            "matrix": {"dims": [2], "re": [[1, 0]], "im": [[0, 0]]},
                        }
                    },
                }
            ),
            encoding="utf-8",
        )
        code = cli.main(["rot", "compute", "--instrument", str(bad)])
        assert code == 3
        assert "$.objects.x" in capsys.readouterr().err

    def test_wrong_object_kind_exits_3(self, files, capsys):
        code = cli.main(["rot", "dual", "--instrument", str(files["pauli6"])])
        assert code == 3
        assert "exactly one instrument" in capsys.readouterr().err

    def test_dimension_clash_exits_3(self, files, capsys):
        code = cli.main(
            [
                "discrim",
                "psucc",
                "--e",
                str(files["twirl"]),
                "--instrument",
                str(files["ideal3"]),
            ]
        )
        assert code == 3
        assert "dims" in capsys.readouterr().err

    def test_solver_failure_exits_4(self, files, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise SolverError("solver exploded")

        monkeypatch.setattr(cli, "rot_dual", boom)
        code = cli.main(["rot", "dual", "--instrument", str(files["ideal2"])])
        assert code == 4
        assert "solver exploded" in capsys.readouterr().err

    def test_solver_failure_in_forked_workers_exits_4(self, files, monkeypatch, capsys):
        """The robustness solves of ``sim check`` run on forked workers,
        which inherit the patched solver; the failure still exits 4."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(
            conic, "solve", lambda prob, **kwargs: conic.SdpSolution(status="max_iterations", message="stalled")
        )
        code = cli.main(
            ["sim", "check", "--instrument", str(files["ideal2"]),
             "--classical", "2", "--quantum", "1", "--mixtures", "1"]
        )
        assert code == 4
        assert "status 'max_iterations'" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_step_length_failure_exits_4(self, files, monkeypatch, capsys):
        """A LinAlgError in the step length is a failed solve (4), not a file error (3)."""

        def fail(z, dz):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(conic, "_max_step", fail)
        code = cli.main(["rot", "compute", "--instrument", str(files["ideal2"])])
        assert code == 4
        assert "'numerical_error'" in capsys.readouterr().err

    def test_scaling_failure_exits_4(self, files, monkeypatch, capsys):
        """A LinAlgError in the Nesterov-Todd scaling is a failed solve (4)."""

        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        code = cli.main(["rot", "compute", "--instrument", str(files["ideal2"])])
        assert code == 4
        err = capsys.readouterr().err
        assert "'numerical_error'" in err and "scaling-point factorization failed" in err

    def test_degenerate_benchmark_exits_5(self, files, monkeypatch, capsys):
        monkeypatch.setattr(discrim, "classical_p_succ_ensemble", lambda e, tol=1e-9: 0.0)
        code = cli.main(
            ["discrim", "ratio", "--e", str(files["twirl"]), "--instrument", str(files["ideal2"])]
        )
        assert code == 5
        assert "degenerate" in capsys.readouterr().err

    def test_negative_marginal_in_realize_exits_5(self, tmp_path, capsys):
        """A valid instrument whose marginal has an eigenvalue of -1e-9.

        Its Choi operator 1/2 (x) eta passes the PSD check within 1e-9,
        but the square root of eta meets the negative eigenvalue.
        """
        eta = np.diag([1.0 + 1e-9, -1e-9])
        path = tmp_path / "instr.json"
        save_experiment(path, {"instrument": TeleportationInstrument([np.kron(np.eye(2) / 2, eta)], (2, 2))})
        code = cli.main(["instrument", "realize", "--instrument", str(path), "--save", str(tmp_path / "real.json")])
        assert code == 5
        assert "negative eigenvalue" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1", "ten"])
    def test_non_positive_fictitious_exits_2(self, files, tmp_path, capsys, count):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["discrim", "build-from-dual", "--instrument", str(files["ideal2"]),
                 "--fictitious", count, "--save", str(tmp_path / "task.json")]
            )
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
        assert not (tmp_path / "task.json").exists()

    @pytest.mark.parametrize("flag", ["--classical", "--quantum", "--mixtures"])
    def test_negative_sample_count_exits_2(self, files, capsys, flag):
        counts = {"--classical": "0", "--quantum": "0", "--mixtures": "0", flag: "-3"}
        with pytest.raises(SystemExit) as exc:
            cli.main(["sim", "check", "--instrument", str(files["ideal2"])] + [a for kv in counts.items() for a in kv])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sim", "check", "--instrument", str(files["ideal2"]), "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "non-negative integer" in err

    @pytest.mark.parametrize("d", ["1", "0", "two"])
    def test_dimension_below_two_exits_2(self, tmp_path, capsys, d):
        with pytest.raises(SystemExit) as exc:
            cli.main(["instrument", "ideal", "--d", d, "--save", str(tmp_path / "ideal.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--d" in err and "dimension of at least 2" in err
        assert not (tmp_path / "ideal.json").exists()

    def test_zero_sample_counts_check_nothing(self, files, tmp_path):
        code, rec = run_record(
            ["sim", "check", "--instrument", str(files["ideal2"]),
             "--classical", "0", "--quantum", "0", "--mixtures", "0"],
            tmp_path,
        )
        assert code == 0
        assert rec.values["checked"] == 0 and rec.values["ok"] is True

    @pytest.mark.parametrize(
        "mults, where",
        [
            ([1, 1, 1, 1, 0], r"multiplicities\[4\]"),
            ([1, 1, 1, 1, -1], r"multiplicities\[4\]"),
            ([1, 1, 1, 1, 1.5], r"multiplicities\[4\]"),
            ([1, 1, 1, 1, True], r"multiplicities\[4\]"),
            ([1, 1, 1, 1, "40"], r"multiplicities\[4\]"),
            ([1, 1, 1, 1], r"multiplicities:"),
            (None, r"multiplicities:"),
        ],
        ids=["zero", "negative", "fraction", "bool", "string", "wrong_length", "missing"],
    )
    def test_tampered_multiplicities_exit_3_with_path(self, files, tmp_path, capsys, mults, where):
        payload = json.loads(files["task40"].read_text(encoding="utf-8"))
        assert payload["objects"]["task"]["multiplicities"] == [1, 1, 1, 1, 40]
        if mults is None:
            del payload["objects"]["task"]["multiplicities"]
        else:
            payload["objects"]["task"]["multiplicities"] = mults
        bad = tmp_path / "task.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        path = r"\$\.objects\.task\." + where
        with pytest.raises(FileFormatError, match=path):
            load_experiment(bad)
        code = cli.main(["discrim", "ratio", "--e", str(bad), "--instrument", str(files["iso07"])])
        assert code == 3
        assert re.search(path, capsys.readouterr().err)


def _leaves(parser, path=()):
    """(command path, parser) for every command the CLI accepts."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, path + (name,))
            return
    yield " ".join(path), parser


def _flags(parser):
    """Option string -> action, for every flag but --help."""
    return {a.option_strings[0]: a for a in parser._actions if a.option_strings and a.dest != "help"}


LEAVES = dict(_leaves(cli.build_parser()))

# The commands that pass --tol to a solve or a fit, with their defaults.
TOL_DEFAULTS = {
    "rot compute": 1e-8,
    "rot dual": 1e-8,
    "instrument fit": 1e-4,
    "game build-from-dual": 1e-8,
    "game classical": 1e-9,
    "discrim build-from-dual": 1e-8,
    "discrim classical": 1e-9,
    "discrim ratio": 1e-9,
    "sim check": 1e-6,
    "sweep": 1e-8,
}


class TestFlags:
    """Each command accepts only the flags it reads."""

    def test_seventeen_commands_accept_eighty_three_flags(self):
        assert len(LEAVES) == 17
        assert sum(len(_flags(p)) for p in LEAVES.values()) == 83

    @pytest.mark.parametrize("command", sorted(LEAVES))
    def test_seed_only_on_sim_check(self, command):
        assert ("--seed" in _flags(LEAVES[command])) == (command == "sim check")

    @pytest.mark.parametrize("command", sorted(LEAVES))
    def test_tol_only_on_solver_and_fit_commands_with_its_default(self, command):
        parser = LEAVES[command]
        tol = _flags(parser).get("--tol")
        if command not in TOL_DEFAULTS:
            assert tol is None
            return
        assert tol is not None and tol.default == TOL_DEFAULTS[command]
        assert f"(default {TOL_DEFAULTS[command]:g})" in parser.format_help()

    @pytest.mark.parametrize("command", sorted(LEAVES))
    def test_format_on_every_record_command_and_not_on_sweep(self, command):
        assert ("--format" in _flags(LEAVES[command])) == (command != "sweep")

    @pytest.mark.parametrize("command", sorted(LEAVES))
    def test_every_flag_is_read(self, command):
        """Each flag is read by the handler (``args.<dest>`` or
        ``_pick(args, "<dest>", ...)``) or by ``main`` (``--out`` and
        ``--format``)."""
        parser = LEAVES[command]
        source = inspect.getsource(parser.get_default("handler"))
        read = set(re.findall(r"args\.(\w+)", source)) | set(re.findall(r'_pick\(args, "(\w+)"', source))
        read |= {"out", "format"}
        unread = [flag for flag, action in _flags(parser).items() if action.dest not in read]
        assert unread == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["rot", "compute", "--instrument", "x.json", "--seed", "7"],
            ["instrument", "ideal", "--save", "x.json", "--tol", "1"],
            ["sweep", "--config", "x.json", "--format", "json"],
        ],
        ids=["seed_on_rot_compute", "tol_on_instrument_ideal", "format_on_sweep"],
    )
    def test_a_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# (command, flags with "@key" for a file of ``more_files`` and "@save" for
# the output file, the inputs the record names as {flag: file key})
RECORD_CASES = [
    ("rot compute", ["--instrument", "@ideal2"], {"instrument": "ideal2"}),
    ("rot dual", ["--instrument", "@ideal2"], {"instrument": "ideal2"}),
    ("instrument build", ["--measurement", "@povm", "--state", "@state", "--save", "@save"],
     {"measurement": "povm", "state": "state"}),
    ("instrument fit", ["--inputs", "@pauli6", "--data", "@tomo", "--save", "@save"],
     {"inputs": "pauli6", "data": "tomo"}),
    ("instrument ideal", ["--d", "2", "--save", "@save"], {}),
    ("instrument realize", ["--instrument", "@ideal2", "--save", "@save"], {"instrument": "ideal2"}),
    ("game build-from-dual", ["--instrument", "@ideal2", "--save", "@save"], {"instrument": "ideal2"}),
    ("game score", ["--game", "@game", "--instrument", "@ideal2"], {"game": "game", "instrument": "ideal2"}),
    ("game classical", ["--game", "@game"], {"game": "game"}),
    ("discrim build-from-dual", ["--instrument", "@iso07", "--fictitious", "40", "--save", "@save"],
     {"instrument": "iso07"}),
    ("discrim psucc", ["--e", "@task40", "--instrument", "@iso07"], {"e": "task40", "instrument": "iso07"}),
    ("discrim classical", ["--e", "@twirl"], {"e": "twirl"}),
    ("discrim ratio", ["--e", "@task40", "--instrument", "@iso07"], {"e": "task40", "instrument": "iso07"}),
    ("sim apply", ["--instrument", "@ideal2", "--sim", "@merge", "--save", "@save"],
     {"instrument": "ideal2", "sim": "merge"}),
    ("sim check", ["--instrument", "@ideal2", "--classical", "1", "--quantum", "1", "--mixtures", "1"],
     {"instrument": "ideal2"}),
    ("fidelity", ["--instrument", "@ideal2"], {"instrument": "ideal2"}),
    ("fidelity", ["--instrument", "@ideal2", "--inputs", "@pauli6"], {"instrument": "ideal2", "inputs": "pauli6"}),
]


class TestRecordProvenance:
    """``main`` names the command and digests exactly the files it loaded."""

    def test_every_record_command_is_covered(self):
        assert {command for command, _, _ in RECORD_CASES} == set(LEAVES) - {"sweep"}

    @pytest.mark.parametrize(
        "command, flags, inputs", RECORD_CASES,
        ids=[c + ("+inputs" if c == "fidelity" and "--inputs" in f else "") for c, f, _ in RECORD_CASES],
    )
    def test_record_names_command_and_inputs(self, more_files, tmp_path, command, flags, inputs):
        paths = {**more_files, "save": tmp_path / "saved.json"}
        argv = command.split() + [str(paths[w[1:]]) if w.startswith("@") else w for w in flags]
        code, rec = run_record(argv, tmp_path)
        assert code == 0
        assert rec.command == command
        assert rec.inputs == {flag: file_digest(more_files[key]) for flag, key in inputs.items()}


class TestRotCompute:
    def test_ideal_value_and_certificates(self, files, tmp_path):
        code, rec = run_record(
            ["rot", "compute", "--instrument", str(files["ideal2"])], tmp_path
        )
        assert code == 0
        assert rec.command == "rot compute"
        assert abs(rec.values["robustness"] - 1.0) <= 1e-5
        assert rec.values["route_gap"] <= 1e-6
        assert sorted(rec.certificates) == ["dual", "primal"]
        assert rec.warnings == []
        assert rec.wall_time > 0
        assert rec.inputs["instrument"].startswith("sha256:")

    def test_certificates_reverify_after_reload(self, files, tmp_path):
        code, rec = run_record(
            ["rot", "compute", "--instrument", str(files["ideal2"])], tmp_path
        )
        assert code == 0
        instr = load_experiment(files["ideal2"])["instrument"]
        primal_prob, *_ = rot_primal_problem(instr)
        dual_prob, *_ = rot_dual_problem(instr)
        for prob, key in ((primal_prob, "primal"), (dual_prob, "dual")):
            sol = solution_from_payload(rec.certificates[key])
            report = verify_certificate(prob, sol, tol=1e-6)
            assert report.ok, f"{key}: {report.messages}"

    @pytest.mark.parametrize("d", [2, 3])
    def test_threshold_value_is_clamped_and_certified(self, tmp_path, d):
        """At p = 1/(d + 1), T = 0: the record reports it in [0, 1e-8]."""
        instr = build_instrument(bell_povm(d), isotropic_state(1.0 / (d + 1), d))
        path = tmp_path / "threshold.json"
        save_experiment(path, {"instrument": instr})
        code, rec = run_record(["rot", "compute", "--instrument", str(path)], tmp_path)
        assert code == 0
        assert 0.0 <= rec.values["robustness"] <= 1e-8
        assert rec.values["dual_value"] <= rec.values["robustness"] <= rec.values["primal_value"] + 1e-8
        for prob, key in ((rot_primal_problem(instr)[0], "primal"), (rot_dual_problem(instr)[0], "dual")):
            report = verify_certificate(prob, solution_from_payload(rec.certificates[key]), tol=1e-6)
            assert report.ok, f"{key}: {report.messages}"

    @pytest.mark.parametrize(
        "tamper, where",
        [
            (lambda c: c.pop("ppt_pairs"), r"ppt_pairs: missing"),
            (lambda c: [c["ppt_pairs"][1]["Q"][k].pop() for k in ("re", "im")], r"ppt_pairs\[1\]\.Q\.re:"),
            (lambda c: c["ppt_pairs"][1]["P"]["re"][2].pop(), r"ppt_pairs\[1\]\.P\.re\[2\]:"),
            (lambda c: c["ppt_pairs"][1].pop("Q"), r"ppt_pairs\[1\]: missing key 'Q'"),
            (lambda c: c["ppt_pairs"][1]["P"]["im"][0].__setitem__(3, "0.5"), r"ppt_pairs\[1\]\.P\.im\[0\]\[3\]:"),
            (lambda c: c["ppt_pairs"][1].__setitem__("block", 99), r"ppt_pairs\[1\]\.block:"),
            (lambda c: c.__setitem__("ppt_pairs", {"0": None}), r"ppt_pairs: expected a list"),
        ],
        ids=["missing", "truncated_matrix", "truncated_row", "missing_member", "non_numeric",
             "bad_block", "not_a_list"],
    )
    def test_tampered_ppt_pairs_name_the_path(self, files, tmp_path, tamper, where):
        """Reloading a record with broken pairs raises FileFormatError
        (exit code 3 in the CLI) naming the JSON path."""
        code, rec = run_record(["rot", "compute", "--instrument", str(files["ideal2"])], tmp_path)
        assert code == 0
        cert = json.loads(json.dumps(rec.certificates["primal"]))
        assert [pair["block"] for pair in cert["ppt_pairs"]] == [0, 1, 2, 3]
        tamper(cert)
        with pytest.raises(FileFormatError, match=r"^certificate\." + where):
            solution_from_payload(cert)

    @pytest.mark.parametrize(
        "key, tamper, where",
        [
            ("dual", lambda c: c.__setitem__("primal_value", float("nan")), r"primal_value: expected a finite"),
            ("dual", lambda c: c.__setitem__("dual_value", float("-inf")), r"dual_value: expected a finite"),
            ("dual", lambda c: c["dual_multipliers"].__setitem__(3, float("nan")),
             r"dual_multipliers\[3\]: expected a finite"),
            ("dual", lambda c: c["primal_blocks"][2]["re"][1].__setitem__(0, float("inf")),
             r"primal_blocks\[2\]\.re\[1\]\[0\]: expected a finite"),
            ("primal", lambda c: c["ppt_pairs"][1]["Q"]["im"][0].__setitem__(2, float("-inf")),
             r"ppt_pairs\[1\]\.Q\.im\[0\]\[2\]: expected a finite"),
            ("dual", lambda c: c.__setitem__("primal_blocks", None), r"primal_blocks: expected a non-empty list"),
        ],
        ids=["nan_primal_value", "minus_infinity_dual_value", "nan_multiplier", "infinite_block", "infinite_pair",
             "null_primal_blocks"],
    )
    def test_non_finite_certificate_entries_name_the_path(self, files, tmp_path, key, tamper, where):
        """NaN and Infinity, which JSON readers accept, and a null block list are refused with the path."""
        code, rec = run_record(["rot", "compute", "--instrument", str(files["ideal2"])], tmp_path)
        assert code == 0
        cert = json.loads(json.dumps(rec.certificates[key]))
        tamper(cert)
        cert = json.loads(json.dumps(cert))  # as a file holding NaN or Infinity reads back
        with pytest.raises(FileFormatError, match=r"^certificate\." + where):
            solution_from_payload(cert)

    def test_dropped_pairs_fail_verification_naming_the_block(self, files, tmp_path):
        code, rec = run_record(["rot", "compute", "--instrument", str(files["ideal2"])], tmp_path)
        assert code == 0
        cert = dict(rec.certificates["primal"])
        cert["ppt_pairs"] = cert["ppt_pairs"][1:]
        prob, *_ = rot_primal_problem(load_experiment(files["ideal2"])["instrument"])
        report = verify_certificate(prob, solution_from_payload(cert), tol=1e-6)
        assert not report.ok
        assert report.checks["dual_slack_block0"] == np.inf
        assert "no decomposition pair (P, Q) for PPT block 0" in report.messages

    def test_stdout_json_by_default(self, files, capsys):
        assert cli.main(["rot", "dual", "--instrument", str(files["ideal2"])]) == 0
        rec = record_loads(capsys.readouterr().out)
        assert abs(rec.values["robustness_lower_bound"] - 1.0) <= 1e-5

    def test_csv_format(self, files, capsys):
        code = cli.main(
            ["rot", "compute", "--instrument", str(files["ideal2"]), "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        head = lines[0].split(",")
        row = lines[1].split(",")
        assert head[0] == "robustness" and len(head) == len(row)
        assert abs(float(row[0]) - 1.0) <= 1e-5

    def test_consecutive_calls_do_not_leak_flags(self, files, capsys):
        """The parser is built once per process; a flag of one call does not reach the next."""
        assert cli.build_parser() is cli.build_parser()
        argv = ["rot", "dual", "--instrument", str(files["ideal2"])]
        assert cli.main([*argv, "--format", "csv", "--tol", "1e-7"]) == 0
        assert capsys.readouterr().out.startswith("robustness_lower_bound")
        assert cli.main(argv) == 0
        rec = record_loads(capsys.readouterr().out)
        assert abs(rec.values["robustness_lower_bound"] - 1.0) <= 1e-5

    def test_out_file_leaves_stdout_empty(self, files, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main(
            ["rot", "dual", "--instrument", str(files["ideal2"]), "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.exists()


class TestPptWarning:
    def test_absent_at_total_dimension_four(self, files, tmp_path):
        _, rec = run_record(
            ["rot", "dual", "--instrument", str(files["ideal2"])], tmp_path
        )
        assert rec.warnings == []

    def test_present_at_total_dimension_nine(self, files, tmp_path):
        _, rec = run_record(
            ["rot", "dual", "--instrument", str(files["ideal3"])], tmp_path
        )
        assert len(rec.warnings) == 1
        assert "positive-partial-transpose" in rec.warnings[0]


class TestFidelity:
    def test_ideal_with_explicit_probes(self, files, tmp_path):
        code, rec = run_record(
            [
                "fidelity",
                "--instrument",
                str(files["ideal2"]),
                "--inputs",
                str(files["pauli6"]),
            ],
            tmp_path,
        )
        assert code == 0
        assert abs(rec.values["average_fidelity"] - 1.0) <= 1e-9

    def test_default_probe_set(self, files, tmp_path):
        code, rec = run_record(
            ["fidelity", "--instrument", str(files["ideal2"])], tmp_path
        )
        assert code == 0
        assert abs(rec.values["average_fidelity"] - 1.0) <= 1e-9

    def test_probes_of_different_dimensions_exit_3_naming_the_probe(self, files, tmp_path, capsys):
        probes = InputEnsemble(
            [DensityMatrix(np.diag([1.0, 0.0]), (2,)), DensityMatrix(np.diag([1.0, 0.0, 0.0]), (3,))],
            np.array([0.5, 0.5]),
        )
        path = tmp_path / "mixed_dims.json"
        save_experiment(path, {"probes": probes})
        code = cli.main(["fidelity", "--instrument", str(files["ideal2"]), "--inputs", str(path)])
        assert code == 3
        assert "probe 1 has dimension 3, but probe 0 has dimension 2" in capsys.readouterr().err


class TestGameFlow:
    def test_build_score_classical(self, files, tmp_path):
        game_file = tmp_path / "gstar.json"
        code, rec = run_record(
            [
                "game",
                "build-from-dual",
                "--instrument",
                str(files["ideal2"]),
                "--save",
                str(game_file),
            ],
            tmp_path,
        )
        assert code == 0
        assert abs(rec.values["dual_value"] - 1.0) <= 1e-5
        assert game_file.exists()

        code, rec = run_record(
            [
                "game",
                "score",
                "--game",
                str(game_file),
                "--instrument",
                str(files["ideal2"]),
            ],
            tmp_path,
        )
        assert code == 0
        score = rec.values["score"]
        assert abs(2.0 * score - 2.0) <= 1e-4

        code, rec = run_record(["game", "classical", "--game", str(game_file)], tmp_path)
        assert code == 0
        assert rec.values["classical_score"] <= 0.5 + 1e-5
        assert rec.warnings == []


class TestDiscrimFlow:
    def test_ratio_on_pauli_twirl(self, files, tmp_path):
        code, rec = run_record(
            [
                "discrim",
                "ratio",
                "--e",
                str(files["twirl"]),
                "--instrument",
                str(files["ideal2"]),
            ],
            tmp_path,
        )
        assert code == 0
        assert abs(rec.values["ratio"] - 2.0) <= 1e-4
        assert abs(rec.values["numerator"] - 1.0) <= 1e-5
        assert abs(rec.values["denominator"] - 0.5) <= 1e-5

    def test_classical_benchmarks(self, files, tmp_path):
        code, rec = run_record(
            ["discrim", "classical", "--e", str(files["twirl"])], tmp_path
        )
        assert code == 0
        assert abs(rec.values["ensemble"] - 0.5) <= 1e-4
        assert abs(rec.values["product"] - 0.25) <= 1e-9

    def test_build_then_psucc(self, files, tmp_path):
        e_file = tmp_path / "estar.json"
        code, rec = run_record(
            [
                "discrim",
                "build-from-dual",
                "--instrument",
                str(files["ideal2"]),
                "--fictitious",
                "40",
                "--save",
                str(e_file),
            ],
            tmp_path,
        )
        assert code == 0
        assert abs(rec.values["alpha"] - 0.5) <= 1e-5
        assert rec.values["branches"] == 4 + 40

        code, rec = run_record(
            [
                "discrim",
                "psucc",
                "--e",
                str(e_file),
                "--instrument",
                str(files["ideal2"]),
            ],
            tmp_path,
        )
        assert code == 0
        assert abs(rec.values["p_succ"] - 1.0) <= 1e-5


class TestInstrumentFlow:
    def test_ideal_then_realize_round_trip(self, files, tmp_path):
        real_file = tmp_path / "real.json"
        code, rec = run_record(
            [
                "instrument",
                "realize",
                "--instrument",
                str(files["ideal2"]),
                "--save",
                str(real_file),
            ],
            tmp_path,
        )
        assert code == 0
        assert rec.values["round_trip_residual"] <= 1e-8
        parts = load_experiment(real_file)
        assert sorted(parts) == ["measurement", "state"]

    def test_build_from_parts(self, files, tmp_path):
        from telerobust.qobjects import bell_povm

        povm_file = tmp_path / "povm.json"
        state_file = tmp_path / "state.json"
        instr_file = tmp_path / "iso.json"
        save_experiment(povm_file, {"m": bell_povm(2)})
        save_experiment(state_file, {"s": isotropic_state(0.7)})
        code, rec = run_record(
            [
                "instrument",
                "build",
                "--measurement",
                str(povm_file),
                "--state",
                str(state_file),
                "--save",
                str(instr_file),
            ],
            tmp_path,
        )
        assert code == 0
        assert rec.values["outcomes"] == 4

        code, rec = run_record(
            ["rot", "compute", "--instrument", str(instr_file)], tmp_path
        )
        assert code == 0
        # above the p = 1/3 threshold the value is (3p - 1)/2
        assert abs(rec.values["robustness"] - 0.55) <= 1e-4

    def test_fit_from_clean_tomography(self, files, tmp_path):
        instr = ideal_instrument(2)
        probes = pauli_six()
        data = TomographyData(
            [[choi_apply(j, 2, 2, w.matrix) for w in probes.states] for j in instr.mats]
        )
        data_file = tmp_path / "tomo.json"
        fit_file = tmp_path / "fitted.json"
        save_experiment(data_file, {"data": data})
        code, rec = run_record(
            [
                "instrument",
                "fit",
                "--inputs",
                str(files["pauli6"]),
                "--data",
                str(data_file),
                "--save",
                str(fit_file),
            ],
            tmp_path,
        )
        assert code == 0
        assert rec.values["residual"] <= 1e-6
        fitted = load_experiment(fit_file)["instrument"]
        assert all(
            np.allclose(a, b, atol=1e-8) for a, b in zip(fitted.mats, instr.mats)
        )

    def test_fit_of_heavy_noise_exits_3_and_saves_nothing(self, files, tmp_path, capsys):
        """A fit whose residual reaches --tol is not a valid instrument: nothing is written."""
        rng = np.random.default_rng(8)
        probes = pauli_six()
        noisy = TomographyData(
            [
                [
                    choi_apply(j, 2, 2, w.matrix)
                    + 0.2 * hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                    for w in probes.states
                ]
                for j in ideal_instrument(2).mats
            ]
        )
        data_file = tmp_path / "noisy.json"
        fit_file = tmp_path / "fitted.json"
        save_experiment(data_file, {"data": noisy})
        code = cli.main(
            ["instrument", "fit", "--inputs", str(files["pauli6"]), "--data", str(data_file), "--save", str(fit_file)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert str(data_file) in err
        assert re.search(r"residual \d\.\d{3}e[-+]\d+ >= tol 0\.0001", err), err
        assert not fit_file.exists()

    def test_fit_projected_far_from_the_data_exits_3_and_saves_nothing(self, files, tmp_path, capsys):
        """Outcome 0 of ideal teleportation alone fits exactly by least
        squares, but the nearest one-outcome instrument (a channel) misses
        the data by about 1.37; that residual is reported and refused."""
        probes = pauli_six()
        j = ideal_instrument(2).mats[0]
        data_file = tmp_path / "one_outcome.json"
        fit_file = tmp_path / "fitted.json"
        save_experiment(data_file, {"data": TomographyData([[choi_apply(j, 2, 2, w.matrix) for w in probes.states]])})
        code = cli.main(
            ["instrument", "fit", "--inputs", str(files["pauli6"]), "--data", str(data_file), "--save", str(fit_file)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "residual 1.369e+00 >= tol 0.0001" in err, err
        assert "raw fit" not in err
        assert not fit_file.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data[2].pop(), "outcome 2 has 5 outputs for 6 probes"),
            (lambda data: data[1].append(data[1][0]), "outcome 1 has 7 outputs for 6 probes"),
            (
                lambda data: data[3].__setitem__(4, np.eye(3)),
                "output 4 of outcome 3 has shape (3, 3), output 0 of outcome 0 (2, 2)",
            ),
        ],
        ids=["missing output", "extra output", "output shape"],
    )
    def test_fit_data_not_matching_the_probes_exits_3(self, files, tmp_path, capsys, edit, message):
        """Tomography data must hold one output per probe, all of one shape; the error names the data file."""
        data = [[choi_apply(j, 2, 2, w.matrix) for w in pauli_six().states] for j in ideal_instrument(2).mats]
        edit(data)
        data_file = tmp_path / "tomo.json"
        fit_file = tmp_path / "fitted.json"
        save_experiment(data_file, {"data": TomographyData(data)})
        code = cli.main(
            ["instrument", "fit", "--inputs", str(files["pauli6"]), "--data", str(data_file), "--save", str(fit_file)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"error: {data_file}: {message}" in err, err
        assert not fit_file.exists()


class TestSimFlow:
    def test_apply_merge_all_kills_robustness(self, files, tmp_path):
        sim_file = tmp_path / "merge.json"
        merged_file = tmp_path / "merged.json"
        save_experiment(sim_file, {"recipe": ClassicalSimulation.merge_all(4)})
        code, rec = run_record(
            [
                "sim",
                "apply",
                "--instrument",
                str(files["ideal2"]),
                "--sim",
                str(sim_file),
                "--save",
                str(merged_file),
            ],
            tmp_path,
        )
        assert code == 0
        assert rec.values["kind"] == "classical"
        assert rec.values["outcomes"] == 1

        code, rec = run_record(
            ["rot", "compute", "--instrument", str(merged_file)], tmp_path
        )
        assert code == 0
        assert rec.values["robustness"] <= 1e-6

    def test_check_reports_clean_run(self, files, tmp_path):
        code, rec = run_record(
            [
                "sim",
                "check",
                "--instrument",
                str(files["ideal2"]),
                "--classical",
                "5",
                "--quantum",
                "2",
                "--mixtures",
                "2",
            ],
            tmp_path,
        )
        assert code == 0
        assert rec.values["ok"] is True
        assert rec.values["violations"] == 0
        assert rec.values["checked"] == 9
        assert rec.certificates["violations"] == []

    def test_ambiguous_sim_file_exits_3(self, files, tmp_path, capsys):
        sim_file = tmp_path / "two.json"
        save_experiment(
            sim_file,
            {
                "a": ClassicalSimulation.identity(4),
                "b": ClassicalSimulation.merge_all(4),
            },
        )
        code = cli.main(
            [
                "sim",
                "apply",
                "--instrument",
                str(files["ideal2"]),
                "--sim",
                str(sim_file),
                "--save",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 3
        assert "exactly one" in capsys.readouterr().err


class TestSweep:
    def _config(self, tmp_path, **overrides):
        cfg = {"parameter": "isotropic_p", "start": 0.0, "stop": 1.0, "step": 0.05}
        cfg.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_full_grid(self, files, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "p,robustness,fidelity,game_score,discrimination_ratio"
        assert len(lines) == 1 + 21
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        ps = [r[0] for r in rows]
        assert ps == [round(0.05 * k, 10) for k in range(21)]

        # flat at zero through the separability region, strictly rising after
        for p, t, *_ in rows:
            if p <= 1.0 / 3.0:
                assert t <= 1e-6
        rising = [r[1] for r in rows if r[0] >= 0.35]
        assert all(b > a for a, b in zip(rising, rising[1:]))

        # endpoint row reproduces the ideal-instrument record exactly
        code, rec = run_record(
            ["rot", "compute", "--instrument", str(files["ideal2"])], tmp_path
        )
        assert code == 0
        assert rows[-1][0] == 1.0
        assert rows[-1][1] == rec.values["robustness"]

        # fidelity column crosses the classical threshold where T leaves zero
        fid = {r[0]: r[2] for r in rows}
        assert abs(fid[1.0] - 1.0) <= 1e-6
        assert fid[0.3] < 2.0 / 3.0 < fid[0.4]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path, start=0.8, stop=1.0, step=0.1)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_degenerate_benchmark_exits_5(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "classical_p_succ_ensemble", lambda e, tol=1e-9: 0.0)
        cfg = self._config(tmp_path, start=0.8, stop=1.0, step=0.1)
        assert cli.main(["sweep", "--config", str(cfg)]) == 5
        assert "degenerate" in capsys.readouterr().err

    def test_tol_reaches_the_benchmark(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "classical_p_succ_ensemble", lambda e, tol=1e-9: seen.append(tol) or 0.5)
        cfg = self._config(tmp_path, start=0.9, stop=1.0, step=0.1)
        argv = ["sweep", "--config", str(cfg), "--tol", "3e-7", "--out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 0
        assert seen == [3e-7]

    def test_rejects_step_not_dividing_range(self, tmp_path, capsys):
        cfg = self._config(tmp_path, step=0.3)
        assert cli.main(["sweep", "--config", str(cfg)]) == 3
        assert "step" in capsys.readouterr().err

    def test_rejects_unknown_parameter(self, tmp_path, capsys):
        cfg = self._config(tmp_path, parameter="dial_to_eleven")
        assert cli.main(["sweep", "--config", str(cfg)]) == 3
        assert "parameter" in capsys.readouterr().err

    def test_rejects_out_of_range_grid(self, tmp_path, capsys):
        cfg = self._config(tmp_path, stop=1.5)
        assert cli.main(["sweep", "--config", str(cfg)]) == 3
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [[2], "2", 2.5, True, 3], ids=["list", "string", "fraction", "bool", "three"])
    def test_rejects_malformed_dimension(self, tmp_path, capsys, d):
        cfg = self._config(tmp_path, d=d)
        assert cli.main(["sweep", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "$.d" in err and "expected the integer 2" in err and "Traceback" not in err


class TestDeterminism:
    def test_rerun_reproduces_values_and_digests(self, files, tmp_path):
        args = ["rot", "compute", "--instrument", str(files["ideal2"])]
        _, first = run_record(args, tmp_path, "first.json")
        _, second = run_record(args, tmp_path, "second.json")
        assert first.values == second.values
        assert first.inputs == second.inputs
        assert first.certificates == second.certificates


# Run in a fresh interpreter: scipy must stay unloaded through a d = 2
# ``rot compute`` and a ``sim check`` (pinned to one CPU so that its
# robustness programs are solved in this process), and load for d = 3.
_SCIPY_ON_DEMAND = r"""
import os, sys
import telerobust.cli as cli
from telerobust import qobjects, serialize

if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
root = sys.argv[1]

def rot_compute(d, p):
    path, out = f"{root}/iso{d}.json", f"{root}/rot{d}.json"
    instr = qobjects.build_instrument(qobjects.bell_povm(d), qobjects.isotropic_state(p, d))
    serialize.save_experiment(path, {"instrument": instr})
    assert cli.main(["rot", "compute", "--instrument", path, "--out", out]) == 0
    return path, serialize.record_loads(open(out, encoding="utf-8").read()).values["robustness"]

path, _ = rot_compute(2, 0.7)
argv = ["sim", "check", "--instrument", path, "--classical", "4", "--quantum", "2", "--mixtures", "2"]
assert cli.main(argv + ["--seed", "0", "--out", f"{root}/check.json"]) == 0
assert "scipy" not in sys.modules, "scipy loaded by a d = 2 command"
_, t = rot_compute(3, 0.7)
assert "scipy" in sys.modules, "scipy not loaded by the d = 3 dual"
assert abs(t - 1.2) <= 1e-6, t
"""


def test_scipy_loads_only_for_programs_above_the_numpy_bound(tmp_path):
    """d = 2 commands run on numpy alone; the d = 3 dual loads scipy and gets T = 1.2."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_ON_DEMAND, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
