"""JSON round-tripping for domain objects, experiment files and records.

Matrices travel as ``{"dims": [..], "re": [[..]], "im": [[..]]}`` with
split real/imaginary double arrays — certificates are meant to be read
by humans, so no binary format.  Python's shortest-round-trip float
representation keeps every value lossless through a dump/load cycle.
Every decoder reports failures with the JSON path to the offending
entry, so a broken file points at itself.

Records and experiment files are written as one line of JSON with
sorted keys and a trailing newline, because without an indent ``json``
runs its C encoder.  That wrote the d = 3 ``rot compute`` record
(185 kB) in 6 ms, against 14 ms for the indented layout (365 kB over
13 245 lines), on a 2-vCPU Intel Xeon.  ``python -m json.tool``
pretty-prints them, and files written indented by earlier versions are
still read.

Experiment files are ``{"version": 2, "objects": {name: payload}}``.  A
discrimination payload lists each distinct branch once under
``"subchannels"`` and, under ``"multiplicities"``, one positive integer
per branch: how many times it occurs.  Version 1 files, which wrote
every branch out and had no multiplicities, are still read; as with any
construction, ``DiscriminationInstrument`` merges their exactly equal
branches into one branch with a multiplicity.

A solver certificate (``certificate_payload``) holds the primal blocks,
the dual multipliers, the two objective values and ``"ppt_pairs"``: a
list of ``{"block": k, "P": matrix, "Q": matrix}``, one per PPT-tagged
block k, with that block's dual slack equal to P + Q^{T_B}.  These pairs
are what lets ``verify_certificate`` check a PPT block without a solver,
so the key is required (an empty list when the program has no PPT
block).  A record written before the pairs were stored fails
re-verification: ``solution_from_payload`` raises a ``FileFormatError``
naming ``<certificate>.ppt_pairs``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .conic import SdpSolution
from .discrim import DiscriminationInstrument
from .games import CorrelationGame
from .qobjects import (
    ChoiOperator,
    DensityMatrix,
    InputEnsemble,
    Povm,
    TeleportationInstrument,
)
from .simorder import ClassicalSimulation, QuantumSimulation

__all__ = [
    "FileFormatError",
    "ResultRecord",
    "TomographyData",
    "encode_matrix",
    "decode_matrix",
    "encode_object",
    "decode_object",
    "save_experiment",
    "load_experiment",
    "certificate_payload",
    "solution_from_payload",
    "record_dumps",
    "record_loads",
    "file_digest",
]

FILE_VERSION = 2
READABLE_VERSIONS = (1, 2)


class FileFormatError(ValueError):
    """A file failed validation; ``path`` points at the offending entry.

    For an entry of an experiment file, ``path`` is the file name followed
    by the entry's JSON path; ``message`` says what is wrong with it.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _expect(cond, path, message):
    if not cond:
        raise FileFormatError(path, message)


def _finite(arr, path):
    """``arr``, checked for NaN and infinities, which ``json`` reads as floats.

    The first non-finite entry is named by ``path`` and its index.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        first = np.argwhere(~finite)[0]
        raise FileFormatError(path + "".join(f"[{i}]" for i in first), "expected a finite number")
    return arr


@dataclass
class TomographyData:
    """Measured outputs, ``data[a][x]`` for outcome a on probe x."""

    data: list


def encode_matrix(mat, dims=None):
    mat = np.asarray(mat, dtype=complex)
    if dims is None:
        dims = [mat.shape[0]]
    return {
        "dims": [int(d) for d in dims],
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


def _numbers(values):
    """True when every entry is a JSON number (an int or a float, not a bool)."""
    return set(map(type, values)) <= {float, int}


def _decode_grid(obj, path):
    # One np.asarray converts every entry and checks the shape (ragged rows
    # raise); the set of entry types refuses what it lets through: a true
    # becomes 1, a numeric string its number and a null NaN.
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is not None and arr.ndim == 2 and arr.size and _numbers(chain.from_iterable(obj)):
        return _finite(arr, path)
    # the slow walk names the first entry that is wrong
    _expect(isinstance(obj, list) and obj, path, "expected a non-empty list of rows")
    width = None
    for i, row in enumerate(obj):
        _expect(isinstance(row, list), f"{path}[{i}]", "expected a list of numbers")
        if width is None:
            width = len(row)
        _expect(len(row) == width, f"{path}[{i}]", f"row length {len(row)} != {width}")
        for j, v in enumerate(row):
            _expect(
                isinstance(v, (int, float)) and not isinstance(v, bool),
                f"{path}[{i}][{j}]",
                "expected a number",
            )
    return _finite(np.asarray(obj, dtype=float), path)


def decode_matrix(obj, path):
    """Matrix payload -> (complex array, factor dims)."""
    _expect(isinstance(obj, dict), path, "expected a matrix object")
    for key in ("dims", "re", "im"):
        _expect(key in obj, path, f"missing key {key!r}")
    dims = obj["dims"]
    _expect(isinstance(dims, list) and dims, f"{path}.dims", "expected a non-empty list")
    for i, d in enumerate(dims):
        _expect(
            isinstance(d, int) and not isinstance(d, bool) and d >= 1,
            f"{path}.dims[{i}]",
            "expected a positive integer",
        )
    re = _decode_grid(obj["re"], f"{path}.re")
    im = _decode_grid(obj["im"], f"{path}.im")
    _expect(re.shape == im.shape, f"{path}.im", f"shape {im.shape} != re shape {re.shape}")
    side = int(np.prod(dims))
    _expect(
        re.shape == (side, side),
        f"{path}.re",
        f"shape {re.shape} does not match dims product {side}",
    )
    return re + 1j * im, tuple(dims)


def _decode_weights(obj, path, length=None):
    _expect(isinstance(obj, list) and obj, path, "expected a non-empty list of numbers")
    if not _numbers(obj):
        for i, v in enumerate(obj):
            _expect(
                isinstance(v, (int, float)) and not isinstance(v, bool),
                f"{path}[{i}]",
                "expected a number",
            )
    if length is not None:
        _expect(len(obj) == length, path, f"expected {length} entries, got {len(obj)}")
    return _finite(np.asarray(obj, dtype=float), path)


def _wrap(path, build):
    """Run a domain constructor, converting its complaints to file errors."""
    try:
        return build()
    except FileFormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise FileFormatError(path, str(exc)) from exc


def _matrix_list(obj, path, key):
    seq = obj.get(key)
    _expect(isinstance(seq, list) and seq, f"{path}.{key}", "expected a non-empty list")
    return [decode_matrix(m, f"{path}.{key}[{i}]")[0] for i, m in enumerate(seq)]


def encode_object(obj):
    """Type-tagged payload for any domain object this library ships."""
    if isinstance(obj, DensityMatrix):
        return {"type": "state", "matrix": encode_matrix(obj.matrix, obj.dims)}
    if isinstance(obj, Povm):
        return {
            "type": "povm",
            "dims": [int(d) for d in obj.dims],
            "elements": [encode_matrix(m, obj.dims) for m in obj.elements],
        }
    if isinstance(obj, TeleportationInstrument):
        return {
            "type": "instrument",
            "dims": [int(d) for d in obj.dims],
            "chois": [encode_matrix(m, obj.dims) for m in obj.mats],
        }
    if isinstance(obj, InputEnsemble):
        return {
            "type": "ensemble",
            "states": [encode_matrix(s.matrix, s.dims) for s in obj.states],
            "weights": obj.weights.tolist(),
        }
    if isinstance(obj, CorrelationGame):
        d_spec = obj.spectator_dim
        return {
            "type": "game",
            "input": encode_matrix(obj.input_state.matrix, obj.input_state.dims),
            "targets": [
                encode_matrix(t, (d_spec, t.shape[0] // d_spec)) for t in obj.targets
            ],
            "scores": np.asarray(obj.scores, dtype=float).tolist(),
        }
    if isinstance(obj, DiscriminationInstrument):
        d = obj.dim
        return {
            "type": "discrimination",
            "dim": d,
            "subchannels": [encode_matrix(m, (d, d)) for m in obj.mats],
            "multiplicities": list(obj.multiplicities),
        }
    if isinstance(obj, TomographyData):
        return {
            "type": "tomography",
            "data": [[encode_matrix(m) for m in row] for row in obj.data],
        }
    if isinstance(obj, ClassicalSimulation):
        return {"type": "classical_sim", "kernel": obj.kernel.tolist()}
    if isinstance(obj, QuantumSimulation):
        pre, post = obj.pre[0], obj.post[0]
        return {
            "type": "quantum_sim",
            "branch_probs": obj.branch_probs.tolist(),
            "kernels": [k.tolist() for k in obj.kernels],
            "pre_dims": [pre.in_dim, pre.out_dim],
            "post_dims": [post.in_dim, post.out_dim],
            "pre": [encode_matrix(o.matrix, (o.in_dim, o.out_dim)) for o in obj.pre],
            "post": [encode_matrix(o.matrix, (o.in_dim, o.out_dim)) for o in obj.post],
        }
    raise TypeError(f"no encoding for objects of type {type(obj).__name__}")


def _decode_state(obj, path):
    mat, dims = decode_matrix(obj.get("matrix"), f"{path}.matrix")
    return _wrap(f"{path}.matrix", lambda: DensityMatrix(mat, dims))


def _decode_povm(obj, path):
    dims = obj.get("dims")
    _expect(
        isinstance(dims, list) and len(dims) == 2, f"{path}.dims", "expected [d_v, d_a]"
    )
    elems = _matrix_list(obj, path, "elements")
    return _wrap(path, lambda: Povm(elems, tuple(dims)))


def _decode_instrument(obj, path):
    dims = obj.get("dims")
    _expect(
        isinstance(dims, list) and len(dims) == 2, f"{path}.dims", "expected [d_v, d_b]"
    )
    chois = _matrix_list(obj, path, "chois")
    return _wrap(path, lambda: TeleportationInstrument(chois, tuple(dims)))


def _decode_ensemble(obj, path):
    seq = obj.get("states")
    _expect(isinstance(seq, list) and seq, f"{path}.states", "expected a non-empty list")
    states = []
    for i, payload in enumerate(seq):
        mat, dims = decode_matrix(payload, f"{path}.states[{i}]")
        states.append(_wrap(f"{path}.states[{i}]", lambda m=mat, d=dims: DensityMatrix(m, d)))
    weights = _decode_weights(obj.get("weights"), f"{path}.weights", len(states))
    return _wrap(path, lambda: InputEnsemble(states, weights))


def _decode_game(obj, path):
    mat, dims = decode_matrix(obj.get("input"), f"{path}.input")
    state = _wrap(f"{path}.input", lambda: DensityMatrix(mat, dims))
    targets = _matrix_list(obj, path, "targets")
    scores = _decode_weights(obj.get("scores"), f"{path}.scores", len(targets))
    return _wrap(path, lambda: CorrelationGame(state, targets, scores))


def _discrimination_branches(obj, path):
    d = obj.get("dim")
    _expect(
        isinstance(d, int) and not isinstance(d, bool) and d >= 2,
        f"{path}.dim",
        "expected an integer dimension >= 2",
    )
    mats = _matrix_list(obj, path, "subchannels")
    for i, m in enumerate(mats):
        _expect(
            m.shape == (d * d, d * d),
            f"{path}.subchannels[{i}]",
            f"shape {m.shape} does not match dim {d}",
        )
    return mats


def _decode_discrimination(obj, path):
    mats = _discrimination_branches(obj, path)
    mults = obj.get("multiplicities")
    where = f"{path}.multiplicities"
    _expect(isinstance(mults, list), where, f"expected a list of {len(mats)} positive integers")
    _expect(len(mults) == len(mats), where, f"expected {len(mats)} entries, got {len(mults)}")
    for i, k in enumerate(mults):
        _expect(
            isinstance(k, int) and not isinstance(k, bool) and k >= 1,
            f"{where}[{i}]",
            "expected a positive integer",
        )
    return _wrap(path, lambda: DiscriminationInstrument(mats, mults))


def _decode_discrimination_v1(obj, path):
    """Version 1 wrote every branch out, with no multiplicities."""
    mats = _discrimination_branches(obj, path)
    return _wrap(path, lambda: DiscriminationInstrument(mats))


def _decode_tomography(obj, path):
    rows = obj.get("data")
    _expect(isinstance(rows, list) and rows, f"{path}.data", "expected a non-empty list")
    out = []
    for a, row in enumerate(rows):
        _expect(isinstance(row, list) and row, f"{path}.data[{a}]", "expected a non-empty list")
        out.append(
            [decode_matrix(m, f"{path}.data[{a}][{x}]")[0] for x, m in enumerate(row)]
        )
    return TomographyData(out)


def _decode_classical_sim(obj, path):
    kernel = _decode_grid(obj.get("kernel"), f"{path}.kernel")
    return _wrap(f"{path}.kernel", lambda: ClassicalSimulation(kernel))


def _decode_quantum_sim(obj, path):
    probs = _decode_weights(obj.get("branch_probs"), f"{path}.branch_probs")
    kern_seq = obj.get("kernels")
    _expect(
        isinstance(kern_seq, list) and kern_seq, f"{path}.kernels", "expected a non-empty list"
    )
    kernels = [_decode_grid(k, f"{path}.kernels[{i}]") for i, k in enumerate(kern_seq)]
    channels = {}
    for key in ("pre", "post"):
        dims = obj.get(f"{key}_dims")
        _expect(
            isinstance(dims, list) and len(dims) == 2,
            f"{path}.{key}_dims",
            "expected [in_dim, out_dim]",
        )
        mats = _matrix_list(obj, path, key)
        channels[key] = [
            _wrap(f"{path}.{key}[{i}]", lambda m=m: ChoiOperator(m, dims[0], dims[1]))
            for i, m in enumerate(mats)
        ]
    return _wrap(
        path, lambda: QuantumSimulation(probs, kernels, channels["pre"], channels["post"])
    )


_DECODERS = {
    "state": _decode_state,
    "povm": _decode_povm,
    "instrument": _decode_instrument,
    "ensemble": _decode_ensemble,
    "game": _decode_game,
    "discrimination": _decode_discrimination,
    "tomography": _decode_tomography,
    "classical_sim": _decode_classical_sim,
    "quantum_sim": _decode_quantum_sim,
}

# Decoders of older file versions, where a payload differs from the current one.
_LEGACY_DECODERS = {1: {"discrimination": _decode_discrimination_v1}}


def decode_object(obj, path="object", version=FILE_VERSION):
    _expect(isinstance(obj, dict), path, "expected an object")
    kind = obj.get("type")
    _expect(
        kind in _DECODERS,
        f"{path}.type",
        f"unknown type {kind!r}; expected one of {sorted(_DECODERS)}",
    )
    decoder = _LEGACY_DECODERS.get(version, {}).get(kind, _DECODERS[kind])
    return decoder(obj, path)


def save_experiment(path, objects):
    """Write named domain objects as one experiment file."""
    payload = {
        "version": FILE_VERSION,
        "objects": {name: encode_object(obj) for name, obj in objects.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload))


def load_experiment(path):
    """Read an experiment file back into named, validated domain objects.

    A ``FileFormatError`` names the file, then the JSON path of the
    offending entry: ``probes.json: $.objects.probes: ...``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise FileFormatError(str(path), f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(str(path), f"not valid JSON: {exc}") from exc
    try:
        _expect(isinstance(payload, dict), "$", "expected a JSON object")
        version = payload.get("version")
        _expect(
            isinstance(version, int) and not isinstance(version, bool) and version in READABLE_VERSIONS,
            "$.version",
            f"expected one of {list(READABLE_VERSIONS)}",
        )
        objs = payload.get("objects")
        _expect(isinstance(objs, dict) and objs, "$.objects", "expected a non-empty object map")
        return {
            name: decode_object(obj, f"$.objects.{name}", version) for name, obj in objs.items()
        }
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc.path}", exc.message) from exc


def certificate_payload(sol: SdpSolution):
    """The parts of a solve that re-verification needs."""
    return {
        "primal_blocks": [encode_matrix(b) for b in sol.primal_blocks],
        "dual_multipliers": np.asarray(sol.dual_multipliers, dtype=float).tolist(),
        "ppt_pairs": [
            {"block": int(k), "P": encode_matrix(p), "Q": encode_matrix(q)}
            for k, (p, q) in sorted(sol.ppt_pairs.items())
        ],
        "primal_value": float(sol.primal_value),
        "dual_value": float(sol.dual_value),
    }


def _decode_ppt_pairs(obj, path, blocks):
    _expect(isinstance(obj, list), path, "expected a list of {block, P, Q} objects")
    pairs = {}
    for i, entry in enumerate(obj):
        where = f"{path}[{i}]"
        _expect(isinstance(entry, dict), where, "expected a {block, P, Q} object")
        k = entry.get("block")
        _expect(
            isinstance(k, int) and not isinstance(k, bool) and 0 <= k < len(blocks),
            f"{where}.block",
            f"expected a block index in [0, {len(blocks)})",
        )
        _expect(k not in pairs, f"{where}.block", f"block {k} has a pair already")
        pair = []
        for key in ("P", "Q"):
            _expect(key in entry, where, f"missing key {key!r}")
            mat = decode_matrix(entry[key], f"{where}.{key}")[0]
            _expect(
                mat.shape == blocks[k].shape,
                f"{where}.{key}",
                f"shape {mat.shape} does not match block {k} of shape {blocks[k].shape}",
            )
            pair.append(mat)
        pairs[k] = tuple(pair)
    return pairs


def solution_from_payload(obj, path="certificate"):
    """Rebuild a solution for ``verify_certificate`` from its payload."""
    _expect(isinstance(obj, dict), path, "expected a certificate object")
    blocks = _matrix_list(obj, path, "primal_blocks")
    mults = _decode_weights(obj.get("dual_multipliers"), f"{path}.dual_multipliers")
    _expect(
        "ppt_pairs" in obj,
        f"{path}.ppt_pairs",
        "missing; a certificate written without its decomposition pairs cannot be "
        "re-verified without a solver",
    )
    pairs = _decode_ppt_pairs(obj["ppt_pairs"], f"{path}.ppt_pairs", blocks)
    for key in ("primal_value", "dual_value"):
        value = obj.get(key)
        _expect(
            isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
            f"{path}.{key}",
            "expected a finite number",
        )
    return SdpSolution(
        status="optimal",
        primal_blocks=blocks,
        dual_multipliers=mults,
        ppt_pairs=pairs,
        primal_value=float(obj["primal_value"]),
        dual_value=float(obj["dual_value"]),
    )


@dataclass
class ResultRecord:
    """What a command computed, with enough context to re-check it.

    ``command`` is the command path (``"rot compute"``) and ``inputs``
    maps each input flag to its file's digest; the CLI fills both in.
    """

    command: str = ""
    inputs: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    wall_time: float = 0.0

    def to_payload(self):
        return {
            "command": self.command,
            "inputs": dict(self.inputs),
            "values": dict(self.values),
            "certificates": self.certificates,
            "warnings": list(self.warnings),
            "wall_time": float(self.wall_time),
        }

    @classmethod
    def from_payload(cls, obj, path="record"):
        _expect(isinstance(obj, dict), path, "expected a record object")
        for key in ("command", "inputs", "values"):
            _expect(key in obj, path, f"missing key {key!r}")
        _expect(isinstance(obj["command"], str), f"{path}.command", "expected a string")
        _expect(isinstance(obj["inputs"], dict), f"{path}.inputs", "expected an object")
        _expect(isinstance(obj["values"], dict), f"{path}.values", "expected an object")
        certificates = obj.get("certificates", {})
        warnings = obj.get("warnings", [])
        wall_time = obj.get("wall_time", 0.0)
        _expect(isinstance(certificates, dict), f"{path}.certificates", "expected an object")
        _expect(isinstance(warnings, list), f"{path}.warnings", "expected a list of strings")
        for i, w in enumerate(warnings):
            _expect(isinstance(w, str), f"{path}.warnings[{i}]", "expected a string")
        _expect(type(wall_time) in (int, float), f"{path}.wall_time", "expected a number")
        _expect(math.isfinite(wall_time), f"{path}.wall_time", "expected a finite number")
        for key, value in obj["values"].items():
            finite = not isinstance(value, float) or math.isfinite(value)
            _expect(finite, f"{path}.values.{key}", "expected a finite number")
        return cls(
            command=obj["command"],
            inputs=dict(obj["inputs"]),
            values=dict(obj["values"]),
            certificates=certificates,
            warnings=list(warnings),
            wall_time=float(wall_time),
        )


def _json_text(payload):
    """One line of JSON with sorted keys and a trailing newline.

    Without an indent ``json`` runs its C encoder; floats are written by
    ``repr`` either way, so every value round-trips exactly.
    """
    return json.dumps(payload, sort_keys=True) + "\n"


def record_dumps(record: ResultRecord) -> str:
    return _json_text(record.to_payload())


def record_loads(text: str) -> ResultRecord:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError("record", f"not valid JSON: {exc}") from exc
    return ResultRecord.from_payload(payload)


def file_digest(path) -> str:
    """Content digest used to tie a record to its input files."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()
