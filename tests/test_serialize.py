"""Experiment-file and result-record serialization tests."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telerobust.conic import verify_certificate
from telerobust.discrim import (
    DiscriminationInstrument,
    build_discrimination_from_dual,
    classical_p_succ_ensemble,
    classical_p_succ_product,
    p_succ,
    pauli_twirl_instrument,
)
from telerobust.games import CorrelationGame, build_game_from_dual
from telerobust.qobjects import (
    DensityMatrix,
    InputEnsemble,
    Povm,
    TeleportationInstrument,
    bell_povm,
    build_instrument,
    choi_apply,
    ideal_instrument,
    isotropic_state,
    pauli_six,
    rand_povm,
    rand_state,
)
from telerobust.rot import rot_certified, rot_dual, rot_dual_problem, rot_primal_problem
from telerobust.serialize import (
    FileFormatError,
    ResultRecord,
    TomographyData,
    certificate_payload,
    decode_matrix,
    decode_object,
    encode_matrix,
    encode_object,
    file_digest,
    load_experiment,
    record_dumps,
    record_loads,
    save_experiment,
    solution_from_payload,
)


def _rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestMatrixCodec:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        mat = _rand_complex(rng, 6)
        back, dims = decode_matrix(encode_matrix(mat, (2, 3)), "m")
        assert dims == (2, 3)
        assert back.shape == (6, 6)
        assert np.array_equal(back, mat)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_round_trip_property(self, seed, n):
        """tolist keeps every double bit, so decoding restores it exactly."""
        rng = np.random.default_rng(seed)
        mat = _rand_complex(rng, n)
        assert np.array_equal(decode_matrix(encode_matrix(mat), "m")[0], mat)

    def test_rejects_missing_key(self):
        with pytest.raises(FileFormatError, match=r"\$\.m"):
            decode_matrix({"dims": [2], "re": [[1, 0], [0, 1]]}, "$.m")

    def test_rejects_bad_dims(self):
        enc = encode_matrix(np.eye(2))
        enc["dims"] = [2, 0]
        with pytest.raises(FileFormatError, match="dims"):
            decode_matrix(enc, "$.m")

    def test_rejects_shape_dims_mismatch(self):
        enc = encode_matrix(np.eye(4))
        enc["dims"] = [3]
        with pytest.raises(FileFormatError, match="\\$\\.m"):
            decode_matrix(enc, "$.m")

    def test_rejects_ragged_rows(self):
        enc = encode_matrix(np.eye(2))
        enc["re"] = [[1.0, 0.0], [0.0]]
        with pytest.raises(FileFormatError, match="row"):
            decode_matrix(enc, "$.m")

    def test_rejects_im_shape_mismatch(self):
        enc = encode_matrix(np.eye(2))
        enc["im"] = [[0.0, 0.0]]
        with pytest.raises(FileFormatError, match="im"):
            decode_matrix(enc, "$.m")

    def test_rejects_non_numeric_entry(self):
        enc = encode_matrix(np.eye(2))
        enc["re"][0][1] = "oops"
        with pytest.raises(FileFormatError, match="\\$\\.m"):
            decode_matrix(enc, "$.m")

    @pytest.mark.parametrize("bad", [True, "0.5", None], ids=["bool", "string", "null"])
    def test_non_number_in_last_row_names_its_entry(self, bad):
        """A grid that fails the fast all-numbers check is walked entry by entry."""
        enc = encode_matrix(np.eye(3))
        enc["im"][2][1] = bad
        with pytest.raises(FileFormatError, match=re.escape("$.m.im[2][1]: expected a number")):
            decode_matrix(enc, "$.m")

    @pytest.mark.parametrize("bad", [True, "0.5", None], ids=["bool", "string", "null"])
    def test_non_number_multiplier_names_its_entry(self, bad):
        payload = certificate_payload(rot_dual(ideal_instrument(2)).solution)
        last = len(payload["dual_multipliers"]) - 1
        payload["dual_multipliers"][last] = bad
        with pytest.raises(FileFormatError, match=re.escape(f"certificate.dual_multipliers[{last}]: expected a number")):
            solution_from_payload(payload)


class TestObjectCodecs:
    def test_state_round_trip(self):
        state = isotropic_state(0.3)
        back = decode_object(encode_object(state))
        assert isinstance(back, DensityMatrix)
        assert back.dims == state.dims
        assert np.array_equal(back.matrix, state.matrix)

    def test_povm_round_trip(self):
        povm = bell_povm(2)
        back = decode_object(encode_object(povm))
        assert isinstance(back, Povm)
        assert back.dims == povm.dims
        for a, b in zip(back.elements, povm.elements):
            assert np.array_equal(a, b)

    def test_instrument_round_trip(self):
        instr = ideal_instrument(2)
        back = decode_object(encode_object(instr))
        assert isinstance(back, TeleportationInstrument)
        assert back.dims == instr.dims
        for a, b in zip(back.mats, instr.mats):
            assert np.array_equal(a, b)

    def test_ensemble_round_trip(self):
        ens = pauli_six()
        back = decode_object(encode_object(ens))
        assert isinstance(back, InputEnsemble)
        assert np.array_equal(back.weights, ens.weights)
        for a, b in zip(back.states, ens.states):
            assert np.array_equal(a.matrix, b.matrix)

    def test_game_round_trip(self):
        game = build_game_from_dual(rot_dual(ideal_instrument(2)))
        back = decode_object(encode_object(game))
        assert isinstance(back, CorrelationGame)
        assert np.array_equal(back.input_state.matrix, game.input_state.matrix)
        assert back.input_state.dims == game.input_state.dims
        assert np.array_equal(back.scores, game.scores)
        for a, b in zip(back.targets, game.targets):
            assert np.array_equal(a, b)

    def test_discrimination_round_trip(self):
        e = pauli_twirl_instrument(2)
        back = decode_object(encode_object(e))
        assert isinstance(back, DiscriminationInstrument)
        assert back.dim == e.dim
        for a, b in zip(back.mats, e.mats):
            assert np.array_equal(a, b)

    def test_tomography_round_trip(self):
        instr = ideal_instrument(2)
        ens = pauli_six()
        data = TomographyData(
            [[choi_apply(j, 2, 2, w.matrix) for w in ens.states] for j in instr.mats]
        )
        back = decode_object(encode_object(data))
        assert isinstance(back, TomographyData)
        for ra, rb in zip(back.data, data.data):
            for a, b in zip(ra, rb):
                assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_simulation_round_trips(self):
        from telerobust.simorder import ClassicalSimulation, QuantumSimulation

        cs = ClassicalSimulation.permutation([2, 0, 1])
        back = decode_object(encode_object(cs))
        assert isinstance(back, ClassicalSimulation)
        assert np.array_equal(back.kernel, cs.kernel)

        qs = QuantumSimulation.trivial(4, 2, 3)
        back = decode_object(encode_object(qs))
        assert isinstance(back, QuantumSimulation)
        assert np.array_equal(back.branch_probs, qs.branch_probs)
        for a, b in zip(back.kernels, qs.kernels):
            assert np.array_equal(a, b)
        for a, b in zip(back.pre, qs.pre):
            assert a.in_dim == b.in_dim and a.out_dim == b.out_dim
            assert np.array_equal(a.matrix, b.matrix)
        for a, b in zip(back.post, qs.post):
            assert np.array_equal(a.matrix, b.matrix)

    def test_unknown_type_lists_known_ones(self):
        with pytest.raises(FileFormatError, match="instrument"):
            decode_object({"type": "wormhole"}, "$.objects.w")

    def test_decoded_objects_revalidate(self):
        enc = encode_object(bell_povm(2))
        enc["elements"][0]["re"][0][0] = -5.0
        with pytest.raises(FileFormatError, match="\\$\\.objects\\.m"):
            decode_object(enc, "$.objects.m")


class TestExperimentFile:
    def test_save_load_multi_object(self, tmp_path):
        path = tmp_path / "exp.json"
        save_experiment(
            path,
            {
                "instrument": ideal_instrument(2),
                "probes": pauli_six(),
                "twirl": pauli_twirl_instrument(2),
            },
        )
        back = load_experiment(path)
        assert sorted(back) == ["instrument", "probes", "twirl"]
        assert isinstance(back["instrument"], TeleportationInstrument)
        assert isinstance(back["probes"], InputEnsemble)
        assert isinstance(back["twirl"], DiscriminationInstrument)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="cannot read"):
            load_experiment(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FileFormatError, match="JSON"):
            load_experiment(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"version": 9, "objects": {}}), encoding="utf-8")
        with pytest.raises(FileFormatError, match="version"):
            load_experiment(path)

    def test_empty_objects(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"version": 1, "objects": {}}), encoding="utf-8")
        with pytest.raises(FileFormatError, match="objects"):
            load_experiment(path)

    def test_error_names_offending_object(self, tmp_path):
        path = tmp_path / "broken.json"
        payload = {
            "version": 1,
            "objects": {
                "fine": encode_object(isotropic_state(0.5)),
                "broken": {"type": "state", "matrix": {"dims": [2]}},
            },
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FileFormatError, match=r"\$\.objects\.broken"):
            load_experiment(path)


@pytest.fixture(scope="module")
def padded():
    """A built task with 40 padding branches, and the instrument it came from.

    A generic instrument, so the padding carries weight (on isotropic
    states the padding vanishes).
    """
    rng = np.random.default_rng(0)
    instr = build_instrument(rand_povm((2, 2), 4, rng=rng), rand_state((2, 2), rank=1, rng=rng))
    task, _ = build_discrimination_from_dual(rot_dual(instr), fictitious=40)
    return task, instr


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestDiscriminationFiles:
    def test_version_2_writes_each_branch_once(self, padded, tmp_path):
        task, _ = padded
        path = tmp_path / "task.json"
        save_experiment(path, {"task": task})
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 2
        assert len(payload["objects"]["task"]["subchannels"]) == 5
        assert payload["objects"]["task"]["multiplicities"] == [1, 1, 1, 1, 40]
        back = load_experiment(path)["task"]
        assert back.multiplicities == task.multiplicities and back.outcomes == 44
        for a, b in zip(back.mats, task.mats):
            assert np.array_equal(a, b)

    def test_version_1_file_is_read_with_copies_merged(self, padded, tmp_path):
        task, instr = padded
        new = tmp_path / "v2.json"
        save_experiment(new, {"task": task})
        explicit = [m for m, k in zip(task.mats, task.multiplicities) for _ in range(k)]
        old = _write(
            tmp_path / "v1.json",
            {
                "version": 1,
                "objects": {
                    "task": {
                        "type": "discrimination",
                        "dim": 2,
                        "subchannels": [encode_matrix(m, (2, 2)) for m in explicit],
                    }
                },
            },
        )
        legacy, current = load_experiment(old)["task"], load_experiment(new)["task"]
        assert legacy.outcomes == 44 and len(legacy.mats) == 5
        assert legacy.multiplicities == [1, 1, 1, 1, 40]
        assert abs(p_succ(legacy, instr) - p_succ(current, instr)) <= 1e-12
        assert abs(classical_p_succ_ensemble(legacy) - classical_p_succ_ensemble(current)) <= 1e-12
        assert abs(classical_p_succ_product(legacy) - classical_p_succ_product(current)) <= 1e-12

    def test_version_1_merge_keeps_first_occurrence_order(self, tmp_path):
        halves = [m / 2.0 for m in pauli_twirl_instrument(2).mats]
        order = [0, 1, 0, 2, 3, 1, 2, 3]
        path = _write(
            tmp_path / "v1.json",
            {
                "version": 1,
                "objects": {
                    "e": {
                        "type": "discrimination",
                        "dim": 2,
                        "subchannels": [encode_matrix(halves[i], (2, 2)) for i in order],
                    }
                },
            },
        )
        e = load_experiment(path)["e"]
        assert e.multiplicities == [2, 2, 2, 2]
        for a, b in zip(e.mats, halves):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_padding_multiplicity_off_by_one_fails_trace_preservation(self, padded, tmp_path, delta):
        task, _ = padded
        payload = {"version": 2, "objects": {"task": encode_object(task)}}
        payload["objects"]["task"]["multiplicities"][4] += delta
        path = _write(tmp_path / "off.json", payload)
        with pytest.raises(FileFormatError, match=r"\$\.objects\.task: .*trace-preserving"):
            load_experiment(path)


class TestResultRecord:
    def _record(self):
        return ResultRecord(
            command="rot compute",
            inputs={"instrument": "sha256:00ff"},
            values={"robustness": 1.0000000064390831, "route_gap": np.pi * 1e-9},
            certificates={},
            warnings=["just a note"],
            wall_time=0.04819345000000001,
        )

    def test_round_trip_is_lossless(self):
        rec = self._record()
        back = record_loads(record_dumps(rec))
        assert back.command == rec.command
        assert back.inputs == rec.inputs
        assert back.warnings == rec.warnings
        assert back.wall_time == rec.wall_time
        for key, val in rec.values.items():
            assert back.values[key] == val

    def test_dumps_is_deterministic(self):
        rec = self._record()
        assert record_dumps(rec) == record_dumps(record_loads(record_dumps(rec)))

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_doubles_survive(self, seed):
        rng = np.random.default_rng(seed)
        vals = {f"v{i}": float(x) for i, x in enumerate(rng.standard_normal(4))}
        rec = ResultRecord(command="x", inputs={}, values=vals, certificates={},
                           warnings=[], wall_time=float(rng.random()))
        back = record_loads(record_dumps(rec))
        assert back.values == vals
        assert back.wall_time == rec.wall_time

    def _tampered(self, **fields):
        payload = json.loads(record_dumps(self._record()))
        payload.update(fields)
        return json.dumps(payload)

    def test_non_numeric_wall_time_names_the_path(self):
        with pytest.raises(FileFormatError, match=r"record\.wall_time: expected a number"):
            record_loads(self._tampered(wall_time="abc"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["values.robustness", "values.route_gap", "wall_time"])
    def test_non_finite_numbers_name_the_path(self, where, bad):
        payload = json.loads(record_dumps(self._record()))
        *section, key = where.split(".")
        (payload[section[0]] if section else payload)[key] = bad
        text = json.dumps(payload)  # writes NaN, Infinity or -Infinity
        with pytest.raises(FileFormatError, match=re.escape(f"record.{where}: expected a finite number")):
            record_loads(text)

    def test_warnings_must_be_a_list_of_strings(self):
        with pytest.raises(FileFormatError, match=r"record\.warnings: expected a list"):
            record_loads(self._tampered(warnings="oops"))
        with pytest.raises(FileFormatError, match=r"record\.warnings\[1\]: expected a string"):
            record_loads(self._tampered(warnings=["fine", 7]))

    def test_certificates_must_be_an_object(self):
        with pytest.raises(FileFormatError, match=r"record\.certificates: expected an object"):
            record_loads(self._tampered(certificates=[1]))

    def test_file_digest_tracks_content(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text("hello", encoding="utf-8")
        d1 = file_digest(a)
        assert d1.startswith("sha256:") and d1 == file_digest(a)
        a.write_text("hello!", encoding="utf-8")
        assert file_digest(a) != d1


class TestCertificatePayload:
    def test_reload_preserves_feasibility(self):
        """A reloaded certificate re-verifies with the exact same residuals."""
        instr = ideal_instrument(2)
        dual = rot_dual(instr)
        prob, *_ = rot_dual_problem(instr)
        direct = verify_certificate(prob, dual.solution, tol=1e-6)
        assert direct.ok

        payload = json.loads(json.dumps(certificate_payload(dual.solution)))
        reloaded = verify_certificate(prob, solution_from_payload(payload), tol=1e-6)
        assert reloaded.ok
        assert abs(reloaded.max_violation - direct.max_violation) <= 1e-9

    def test_reload_keeps_decomposition_pairs(self):
        """The pairs of every PPT block survive the round trip exactly."""
        instr = build_instrument(bell_povm(2), isotropic_state(0.7, 2))
        primal = rot_certified(instr).primal
        payload = json.loads(json.dumps(certificate_payload(primal.solution)))
        assert [pair["block"] for pair in payload["ppt_pairs"]] == [0, 1, 2, 3]
        back = solution_from_payload(payload)
        assert sorted(back.ppt_pairs) == [0, 1, 2, 3]
        for k, (p, q) in primal.solution.ppt_pairs.items():
            np.testing.assert_array_equal(back.ppt_pairs[k][0], p)
            np.testing.assert_array_equal(back.ppt_pairs[k][1], q)
        prob = rot_primal_problem(instr)[0]
        direct = verify_certificate(prob, primal.solution, tol=1e-6)
        reloaded = verify_certificate(prob, back, tol=1e-6)
        assert direct.ok and reloaded.ok
        assert reloaded.max_violation == direct.max_violation

    def test_payload_rejects_missing_fields(self):
        with pytest.raises(FileFormatError, match="primal_blocks"):
            solution_from_payload({"dual_multipliers": []})
