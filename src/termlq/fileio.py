"""Instance files, replay logs, and byte-deterministic reports.

Instances are JSON documents with keys n, m, N, A, B, Q, R, H, x0, xi and an
optional learn block {l, seed, mean, covariance_scale}; A and B are read in
one conversion each. Reports are emitted by a deterministic serializer:
insertion-ordered keys and every float rendered at 17 significant digits,
so identical runs produce byte-identical files, with one format call per
float64 stack. Replay logs are plain text, one transition per line.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import IoError, ParseError
from .model import ProblemInstance, make_instance, require_valid
from .qlearn import GaussianSpec, ReplayLog

FLOAT_FORMAT = ".17g"


@dataclass(frozen=True)
class InstanceFile:
    """A parsed instance with its learn block: the sample count and seed
    (None when the block leaves them out) and the probe distribution."""

    instance: ProblemInstance
    l: int | None = None
    seed: int | None = None
    dist: GaussianSpec = GaussianSpec()


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"key '{key}' is missing")
    return doc[key]


def _as_int(doc: dict, key: str, name: str | None = None) -> int:
    """doc[key] as an integer (bools refused); errors name the key as name."""
    v = _require(doc, key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"key '{name or key}': expected an integer, found {type(v).__name__}")
    return v


def _as_finite(doc: dict, key: str, name: str) -> float:
    """doc[key] as a finite float (bools refused); errors name the key as name."""
    v = _require(doc, key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"key '{name}': expected a number, found {type(v).__name__}")
    try:
        f = float(v)
    except OverflowError:   # an integer beyond the float range
        f = math.inf
    if not math.isfinite(f):
        raise ParseError(f"key '{name}': expected a finite number, found {f}")
    return f


def _as_array(value, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """value as a float array of the given shape. As in the learn block, an
    entry that is not a JSON number raises ParseError naming key and index."""
    try:
        M = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:   # or an int beyond float
        _name_non_number(value, key)
        raise ParseError(f"key '{key}': not numeric ({exc})") from exc
    if M.shape != shape:
        raise ParseError(f"key '{key}': expected shape {shape}, found shape {M.shape}")
    if not set(map(type, chain.from_iterable(value) if M.ndim == 2 else value)) <= {int, float}:
        _name_non_number(value, key)
    return M


def _name_non_number(value, key: str) -> None:
    # raise naming the first entry of nested lists that is not a JSON number
    if isinstance(value, list):
        for i, v in enumerate(value):
            if not isinstance(v, list) and type(v) not in (int, float):
                raise ParseError(f"key '{key}[{i}]': expected a number, found {type(v).__name__}")
            _name_non_number(v, f"{key}[{i}]")


def load_instance_file(path: str | Path) -> InstanceFile:
    """Parse and validate an instance document.

    Shape checks run before numeric validation; every parse error names the
    offending key and index.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"document root: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root: expected an object")

    n = _as_int(doc, "n")
    m = _as_int(doc, "m")
    N = _as_int(doc, "N")
    if n < 1 or m < 1 or N < 0:
        raise ParseError(f"dimensions out of range: n={n}, m={m}, N={N}")

    def matrix_stack(key: str, rows: int, cols: int) -> np.ndarray | list[np.ndarray]:
        raw = _require(doc, key)
        if not isinstance(raw, list):
            raise ParseError(f"key '{key}': expected an array of matrices")
        if len(raw) != N + 1:
            raise ParseError(f"key '{key}': expected length {N + 1}, found {len(raw)}")
        # one conversion of the whole stack; anything it misses goes to the
        # per-matrix loop, whose errors name the key and index
        try:
            M = np.asarray(raw, dtype=float)
            entries = chain.from_iterable(chain.from_iterable(raw))
            if M.shape == (N + 1, rows, cols) and set(map(type, entries)) <= {int, float}:
                return M
        except (TypeError, ValueError, OverflowError):
            pass
        return [_as_array(entry, f"{key}[{i}]", (rows, cols)) for i, entry in enumerate(raw)]

    A = matrix_stack("A", n, n)
    B = matrix_stack("B", n, m)
    Q = _as_array(_require(doc, "Q"), "Q", (n, n))
    R = _as_array(_require(doc, "R"), "R", (m, m))
    H = _as_array(_require(doc, "H"), "H", (n, n))
    x0 = _as_array(_require(doc, "x0"), "x0", (n,))
    xi = _as_array(_require(doc, "xi"), "xi", (n,))

    inst = make_instance(A, B, Q, R, H, x0, xi)
    require_valid(inst)

    block = doc.get("learn", {})
    if not isinstance(block, dict):
        raise ParseError("key 'learn': expected an object")
    unknown = set(block) - {"l", "seed", "mean", "covariance_scale"}
    if unknown:
        raise ParseError(f"key 'learn': unknown entries {sorted(unknown)}")
    # null stands for an absent entry
    given = {key: (_as_int if key in ("l", "seed") else _as_finite)(block, key, f"learn.{key}")
             for key, value in block.items() if value is not None}
    probes = {key: given.pop(key) for key in ("mean", "covariance_scale") if key in given}
    try:
        dist = GaussianSpec(**probes)
    except ValueError as exc:   # both are finite here, so the scale is not positive
        raise ParseError("key 'learn.covariance_scale': must be positive") from exc
    return InstanceFile(instance=inst, dist=dist, **given)


def _emit(obj, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(f'{pad}  "{key}": ')
            _emit(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in obj):
            out.append("[" + ", ".join(_scalar(v) for v in obj) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _emit(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim not in (1, 2) or not obj.size:
            _emit(obj.tolist(), indent, out)
            return
        # a float stack: one finiteness check and one format call, laid out
        # as the list path lays out obj.tolist()
        if not np.isfinite(obj).all():
            raise IoError("non-finite value in report")
        text = "[" + ", ".join(["%" + FLOAT_FORMAT] * obj.shape[-1]) + "]"
        if obj.ndim == 2:
            lead = "\n" + pad + "  "
            text = "[" + lead + ("," + lead).join([text] * len(obj)) + "\n" + pad + "]"
        out.append(text % tuple(obj.ravel().tolist()))
    elif obj is None or isinstance(obj, (bool, int, float, str, np.integer, np.floating)):
        out.append(_scalar(obj))
    else:
        raise IoError(f"cannot serialize {type(obj).__name__}")


def _scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not math.isfinite(f):
            raise IoError("non-finite value in report")
        return format(f, FLOAT_FORMAT)
    if isinstance(v, str):
        return json.dumps(v)
    raise IoError(f"cannot serialize {type(v).__name__}")


def dumps_report(report: dict) -> str:
    """Deterministic JSON text: insertion-ordered keys, floats at 17
    significant digits. Identical inputs give identical bytes."""
    out: list[str] = []
    _emit(report, 0, out)
    out.append("\n")
    return "".join(out)


def write_report(report: dict, path: str | Path) -> None:
    try:
        Path(path).write_text(dumps_report(report))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def instance_hash(inst: ProblemInstance) -> str:
    """SHA-256 of the instance data: (n, m, N) as little-endian int64, then
    the little-endian float64 bytes of A, B, Q, R, H, x0 and xi in that
    order. A validated instance is finite, and -0.0 and 0.0 hash apart."""
    digest = hashlib.sha256(np.array([inst.n, inst.m, inst.N], dtype="<i8").tobytes())
    for a in (inst.A, inst.B, inst.Q, inst.R, inst.H, inst.x0, inst.xi):
        digest.update(np.asarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def read_replay_log(path: str | Path, n: int, m: int) -> ReplayLog:
    """Parse a replay log for an n-state, m-input plant: one transition per
    line, the stage k, then the x, u, lam and x_next entries as decimal
    floats. Blank lines are skipped; a malformed line, a non-finite field
    included, raises a ParseError naming its line number.

    One np.loadtxt call parses a well-formed log, reading the file in
    chunks. Anything it refuses goes to the line loop, which accepts what
    int() and float() accept (digit separators, non-ASCII digits) and names
    the first malformed line.
    """
    width = 1 + 3 * n + m
    try:
        ks, V = _replay_table(path, width)
    except (OSError, UnicodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return ReplayLog(ks, V[:, :n], V[:, n:n + m], V[:, n + m:2 * n + m], V[:, 2 * n + m:])


def _replay_table(path: str | Path, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(stages, the other fields as a (records, width - 1) float array)."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            # a log without records makes np.loadtxt warn; the loop takes it
            warnings.simplefilter("error", UserWarning)
            rec = np.loadtxt(fh, comments=None, ndmin=1,
                             dtype=[("k", "<i8"), ("v", "<f8", (width - 1,))])
        if np.isfinite(rec["v"]).all():   # else the loop names the line
            return rec["k"], rec["v"]
    except (ValueError, UserWarning):
        pass
    # lines end at "\n" only: np.loadtxt reads form feeds and the other
    # str.splitlines breaks as whitespace, and so does this loop
    ks: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(Path(path).read_text().split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != width:
            raise ParseError(f"line {lineno}: expected {width} fields, found {len(parts)}")
        try:
            k = int(parts[0])
            rows.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError(f"line {lineno}: non-finite field")
        if abs(k) >= 2 ** 63:
            raise ParseError(f"line {lineno}: stage {k} does not fit a 64-bit integer")
        ks.append(k)
    return np.array(ks, dtype=np.int64), np.array(rows, dtype=float).reshape(len(rows), width - 1)
