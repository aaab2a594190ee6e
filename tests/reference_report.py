"""Per-element reference for the report serializer.

This is the serializer `termlq.fileio` shipped before its flat-float fast
path: every sequence element goes through the scalar dispatch on its own.
The tests require `dumps_report` to give the same bytes on the same input.
"""

from __future__ import annotations

import json

import numpy as np

from termlq import IoError

FLOAT_FORMAT = ".17g"


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
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        flat = all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in seq)
        if flat:
            out.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad + "  ")
            _emit(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, out)
    elif obj is None or isinstance(obj, (bool, int, float, str, np.integer, np.floating)):
        out.append(_scalar(obj))
    else:
        raise IoError(f"cannot serialize {type(obj).__name__}")


def _scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not np.isfinite(f):
            raise IoError("non-finite value in report")
        return format(f, FLOAT_FORMAT)
    if isinstance(v, str):
        return json.dumps(v)
    raise IoError(f"cannot serialize {type(v).__name__}")


def reference_dumps_report(report: dict) -> str:
    out: list[str] = []
    _emit(report, 0, out)
    out.append("\n")
    return "".join(out)

