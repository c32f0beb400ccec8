"""JSON file formats and report serialization.

Matrices travel as ``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with
the data flat in row-major order; Kraus sets as ``{"dim": d, "ops":
[matrix, ...]}``. Matrix data is read in one pass when every entry is a
pair of finite JSON numbers; otherwise the per-entry loop reads it and
names the first bad entry, so parse errors always name the offending
field. Reports are ASCII JSON indented by 2, byte-identical to
``json.dumps(report, indent=2, allow_nan=False)``, written by one
in-package encoder straight from the result dataclasses, keys in field
order; a scenario's leaf table is written as one object per leaf.
Floats are Python's shortest round-trip repr (each distinct magnitude in
a block of matrices is rendered once), so identical results serialize to
identical bytes; non-finite scalars become null, and a non-finite matrix
entry is a ValueError.
Reports are streamed as they are encoded, in writes of about 64 KiB, so a
report is never held in memory whole. A file report is streamed into a
temp file and renamed over ``out`` once complete, so a failed run never
leaves a partial report behind; the file gets the mode a plain
``open(out, "w")`` would give a new file, ``0o666 & ~umask``. On stdout,
an encoder failure (only a non-finite matrix or a type it cannot encode,
which no parsed input gives) leaves the part already written.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import (
    CHANNEL_EQUALITY_TOL,
    COMPLETENESS_TOL,
    Branches,
    DensityMatrix,
    KrausSet,
)
from .covariance import UNITARY_TOL, FrameTransform, MixingUnitary
from .linalg import _blocks

__all__ = [
    "InputError",
    "dump_report",
    "load_json",
    "parse_frame",
    "parse_kraus_set",
    "parse_matrix",
    "parse_scenario_config",
    "run_report",
]


class InputError(ValueError):
    """Malformed or invalid input data; maps to CLI exit code 1."""


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
    except (ValueError, RecursionError) as e:
        # decode errors, undecodable bytes, and nesting too deep to parse
        raise InputError(f"{path}: invalid JSON: {e}") from e


def _as_object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object")
    return obj


def _get(obj, key: str, path: str):
    _as_object(obj, path)
    if key not in obj:
        raise InputError(f"{path}.{key}: missing field")
    return obj[key]


def _as_int(value, path: str, minimum: int = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise InputError(f"{path}: must be >= {minimum}")
    return value


def _as_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: expected a number")
    try:
        value = float(value)
    except OverflowError:
        raise InputError(f"{path}: number out of range") from None
    if not math.isfinite(value):
        raise InputError(f"{path}: must be finite")
    return value


def _checked(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError an InputError naming ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def parse_matrix(obj, path: str) -> np.ndarray:
    """Read a MatrixFile object into a complex array."""
    rows = _as_int(_get(obj, "rows", path), f"{path}.rows", minimum=1)
    cols = _as_int(_get(obj, "cols", path), f"{path}.cols", minimum=1)
    data = _get(obj, "data", path)
    if not isinstance(data, list):
        raise InputError(f"{path}.data: expected a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise InputError(
            f"{path}.data: has {len(data)} entries, expected rows*cols = {rows * cols}"
        )
    # One C-level pass for well-formed data, read flat (twice as fast as
    # nested). Exact types: np.array would read True or "1" as a number;
    # anything else (np.float64, say) takes the loop.
    if set(map(type, data)) == {list} and set(map(len, data)) == {2}:
        flat = list(itertools.chain.from_iterable(data))
        if set(map(type, flat)) <= {float, int}:
            try:
                a = np.array(flat, dtype=np.float64)
            except OverflowError:
                pass
            else:
                if np.isfinite(a).all():
                    return a.view(np.complex128).reshape(rows, cols)
    # Any other data: the per-entry loop, which names the first bad entry.
    values = np.empty(rows * cols, dtype=np.complex128)
    for i, entry in enumerate(data):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputError(f"{path}.data[{i}]: expected an [re, im] pair")
        re = _as_real(entry[0], f"{path}.data[{i}][0]")
        im = _as_real(entry[1], f"{path}.data[{i}][1]")
        values[i] = complex(re, im)
    return values.reshape(rows, cols)


def parse_kraus_set(obj, path: str, tol: float = COMPLETENESS_TOL) -> KrausSet:
    """Read ``{"dim": d, "ops": [matrix, ...]}`` into a KrausSet.

    ``"trace_preserving": false`` admits branch subsets; completeness of
    flagged sets is checked at ``tol``, never tighter than the default.
    """
    dim = _as_int(_get(obj, "dim", path), f"{path}.dim", minimum=1)
    ops_obj = _get(obj, "ops", path)
    if not isinstance(ops_obj, list) or not ops_obj:
        raise InputError(f"{path}.ops: expected a nonempty list of matrices")
    ops = []
    for i, op_obj in enumerate(ops_obj):
        op = parse_matrix(op_obj, f"{path}.ops[{i}]")
        if op.shape != (dim, dim):
            raise InputError(
                f"{path}.ops[{i}]: shape {op.shape} does not match dim {dim}"
            )
        ops.append(op)
    tp = obj.get("trace_preserving", True)
    if not isinstance(tp, bool):
        raise InputError(f"{path}.trace_preserving: expected a boolean")
    return _checked(path, KrausSet, ops, trace_preserving=tp, completeness_tol=tol)


def parse_frame(obj, path: str, tol: float = UNITARY_TOL) -> FrameTransform:
    mat = parse_matrix(obj, path)
    return _checked(path, FrameTransform, mat, unitarity_tol=tol)


def parse_scenario_config(obj, path: str):
    """Read a scenario file into a ``scenario.ScenarioConfig``.

    Schema:
    ``{"dim_a": int, "dim_b": int, "initial_state": matrix, "frame": matrix,
    "tol": optional number, "interventions": [{"label": str, "target":
    "A"|"B"|"JOINT", "kraus": kraus_set, "mixing": optional matrix,
    "sprime_kraus": optional kraus_set}, ...]}``. Only this reader loads
    ``scenario``, when it is first called.
    """
    from .scenario import Intervention, ScenarioConfig, Target

    targets = {t.value: t for t in Target}
    _as_object(obj, path)
    tol = CHANNEL_EQUALITY_TOL
    if "tol" in obj:
        tol = _as_real(obj["tol"], f"{path}.tol")
        if tol <= 0:
            raise InputError(f"{path}.tol: must be positive")
    dim_a = _as_int(_get(obj, "dim_a", path), f"{path}.dim_a", minimum=1)
    dim_b = _as_int(_get(obj, "dim_b", path), f"{path}.dim_b", minimum=1)
    where = f"{path}.initial_state"
    initial = _checked(
        where, DensityMatrix, parse_matrix(_get(obj, "initial_state", path), where)
    )
    frame = parse_frame(_get(obj, "frame", path), f"{path}.frame", tol)

    iv_list = _get(obj, "interventions", path)
    if not isinstance(iv_list, list):
        raise InputError(f"{path}.interventions: expected a list")
    interventions = []
    for i, iv_obj in enumerate(iv_list):
        iv_path = f"{path}.interventions[{i}]"
        _as_object(iv_obj, iv_path)
        label = iv_obj.get("label", f"intervention-{i}")
        if not isinstance(label, str):
            raise InputError(f"{iv_path}.label: expected a string")
        target_str = _get(iv_obj, "target", iv_path)
        if not isinstance(target_str, str) or target_str not in targets:
            raise InputError(
                f"{iv_path}.target: expected one of {sorted(targets)}, "
                f"got {target_str!r}"
            )
        kraus = parse_kraus_set(_get(iv_obj, "kraus", iv_path), f"{iv_path}.kraus", tol)
        mixing = None
        if iv_obj.get("mixing") is not None:
            mat = parse_matrix(iv_obj["mixing"], f"{iv_path}.mixing")
            mixing = _checked(
                f"{iv_path}.mixing", MixingUnitary, mat, unitarity_tol=tol
            )
        sprime = None
        if iv_obj.get("sprime_kraus") is not None:
            sprime = parse_kraus_set(
                iv_obj["sprime_kraus"], f"{iv_path}.sprime_kraus", tol
            )
        interventions.append(
            _checked(
                iv_path, Intervention, label=label, kraus=kraus,
                target=targets[target_str], mixing=mixing, sprime_kraus=sprime,
            )
        )

    return _checked(
        path, ScenarioConfig, initial_state=initial, dim_a=dim_a, dim_b=dim_b,
        frame=frame, interventions=tuple(interventions), tol=tol,
    )


_INDENT = "  "

# A report goes to its destination in writes of about this many characters
# (one matrix's text more at most), so it is never held in memory whole.
_CHUNK = 64 * 1024


class _Buffer(list):
    __slots__ = ("write", "size")  # where the pieces go, and their characters

    def add(self, text: str) -> None:  # hand the pieces on once they reach _CHUNK
        self.append(text)
        self.size += len(text)
        if self.size >= _CHUNK:
            self.write("".join(self))
            self.clear()
            self.size = 0


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"cannot encode {type(key).__name__} key in a report")
    return f"{encode_basestring_ascii(key)}: "


def _scalar(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "null"


def _write(obj, level: int, out: _Buffer, lead: str = "") -> None:
    """Add ``lead`` and the JSON text of a report value at nesting ``level``.

    Result dataclasses become objects in field order, so the dataclasses
    are the report schema. Non-finite floats become null; enums their
    value; density matrices and arrays the matrix file format; a leaf
    table goes to :func:`_write_branches`.
    """
    if isinstance(obj, float):
        text = _scalar(obj)
    elif obj is None:
        text = "null"
    elif isinstance(obj, bool):
        text = "true" if obj else "false"
    elif isinstance(obj, int):
        text = int.__repr__(obj)
    elif isinstance(obj, str):
        text = encode_basestring_ascii(obj)
    elif isinstance(obj, DensityMatrix):
        return _write(obj.mat, level, out, lead)
    elif isinstance(obj, np.ndarray):
        (text,) = _matrix_texts(obj[None], level)
    elif isinstance(obj, Branches):
        return _write_branches(obj, level, out, lead)
    elif isinstance(obj, (list, tuple)):
        return _write_block("[]", (("", v) for v in obj), level, out, lead)
    elif isinstance(obj, enum.Enum):
        return _write(obj.value, level, out, lead)
    elif isinstance(obj, dict):
        members = ((_key(k), v) for k, v in obj.items())
        return _write_block("{}", members, level, out, lead)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        members = ((_key(f.name), getattr(obj, f.name)) for f in fields)
        return _write_block("{}", members, level, out, lead)
    else:
        raise TypeError(f"cannot encode {type(obj).__name__} in a report")
    out.add(lead + text)


def _write_block(brackets: str, members, level: int, out: _Buffer, lead: str) -> None:
    """Add ``lead`` and an array or object; ``members`` yields (key prefix, value)."""
    inner = "\n" + _INDENT * (level + 1)
    sep = lead + brackets[0] + inner
    empty = True
    for prefix, value in members:
        _write(value, level + 1, out, sep + prefix)
        sep = "," + inner
        empty = False
    out.add(lead + brackets if empty else f"\n{_INDENT * level}{brackets[1]}")


def _write_branches(branches: Branches, level: int, out: _Buffer, lead: str) -> None:
    """Add ``lead`` and a leaf table as a list, each leaf from one template.

    Live states are rendered as many leaves at a time as ``linalg``'s block
    budget holds; a leaf goes out in pieces that end at a state.
    """
    member, item = "\n" + _INDENT * (level + 2), "\n" + _INDENT * (level + 3)
    middle, close = f',{member}"state_sprime": ', f"\n{_INDENT * (level + 1)}}}"
    sep, between = f"{lead}[\n{_INDENT * (level + 1)}", f",\n{_INDENT * (level + 1)}"
    sequences = branches.sequences
    for block in _blocks(len(branches), branches.states[0].nbytes):
        rows = slice(block.start, block.stop)
        live = branches.live[rows]
        texts = _matrix_texts(branches.states[rows][live], level + 2)
        # the bounded lists first: zip stops before taking another sequence
        for (p_s, p_sp), (live_s, live_sp), seq in zip(
            branches.probabilities[rows].tolist(), live.tolist(), sequences
        ):
            seq = f",{item}".join(map(int.__repr__, seq))
            seq = f"[{item}{seq}{member}]" if seq else "[]"
            out.add(
                f'{sep}{{{member}"sequence": {seq},'
                f'{member}"probability_s": {_scalar(p_s)},'
                f'{member}"probability_sprime": {_scalar(p_sp)},'
                f'{member}"state_s": '
            )
            out.add((next(texts) if live_s else "null") + middle)
            out.add((next(texts) if live_sp else "null") + close)
            sep = between
    out.add(f"\n{_INDENT * level}]")


def _float_texts(flat: np.ndarray) -> list:
    """``float.__repr__`` of each entry of a 1-D float64 array, as a list.

    Each distinct ``|x|`` bit pattern is rendered once, and ``-x`` takes the
    text with a minus prepended: exact for every finite x, -0.0 included.
    A non-finite entry is stdlib json's ValueError, naming the first one.
    """
    if not np.isfinite(flat).all():
        bad = float(flat[~np.isfinite(flat)][0])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    magnitudes, rank = np.unique(np.abs(flat).view(np.uint64), return_inverse=True)
    texts = list(map(float.__repr__, magnitudes.view(np.float64).tolist()))
    table = np.array(texts + ["-" + t for t in texts], dtype=object)
    return table[rank + np.signbit(flat) * len(texts)].tolist()


def _matrix_texts(mats: np.ndarray, level: int):
    """Yield each matrix of an ``(n, r, c)`` stack, rendered as one block."""
    n, rows, cols = mats.shape
    flat = np.ascontiguousarray(mats, dtype=np.complex128).view(np.float64).ravel()
    entries = iter(_float_texts(flat))
    # data is a list (level + 1) of [re, im] pairs (level + 2)
    inner, pair, part = ("\n" + _INDENT * (level + k) for k in (1, 2, 3))
    pairs = map(f",{part}".join, zip(entries, entries))
    between = f"{pair}],{pair}[{part}"
    for _ in range(n):
        data = between.join(itertools.islice(pairs, rows * cols))
        data = f"[{pair}[{part}{data}{pair}]{inner}]" if data else "[]"
        yield (
            f'{{{inner}"rows": {rows},{inner}"cols": {cols},{inner}"data": '
            f"{data}\n{_INDENT * level}}}"
        )


def run_report(
    command: str, seed: int, tolerance: float, trials: int, results, version: str
) -> dict:
    """The report: the envelope around a result dataclass or dict."""
    return dict(
        command=command, seed=seed, tolerance=tolerance, trials=trials,
        results=results, version=version,
    )


def _stream(report, write) -> None:
    """Hand ``report``'s text and a final newline to ``write`` in chunks."""
    out = _Buffer()
    out.write, out.size = write, 0
    _write(report, 0, out)
    write("".join(out) + "\n")


def dump_report(report, out: str | None) -> None:
    """Stream a report's text to stdout, or atomically to a file."""
    if out is None or out == "-":
        return _stream(report, sys.stdout.write)
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as e:
        # name the destination, not the random temp file
        raise OSError(e.errno, e.strerror, out) from e
    # mkstemp makes the file 0600; give it the mode open(out, "w") would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            _stream(report, fh.write)
        try:
            os.replace(tmp_path, out)
        except OSError as e:
            raise OSError(e.errno, e.strerror, out) from e
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
