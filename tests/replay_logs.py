"""Test-only writer of the replay log format that termlq.fileio.read_replay_log
parses and `termlq learn --replay` reads."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from termlq import IoError
from termlq.fileio import FLOAT_FORMAT


def write_replay_log(batches, path: str | Path) -> None:
    """One transition per line: k, then x, u, lam, x_next entries as decimal
    floats at full precision. Each batch (a StageDataset or a ReplayLog)
    carries row-aligned arrays k, X, U, L, Xn, with k one stage for the
    whole batch or one per row; batches are written in order."""
    lines = []
    for b in batches:
        ks = np.broadcast_to(np.asarray(b.k, dtype=np.int64), (len(b.X),))
        rows = np.hstack([b.X, b.U, b.L, b.Xn])
        for k, row in zip(ks.tolist(), rows.tolist()):
            lines.append(" ".join([str(k)] + [format(v, FLOAT_FORMAT) for v in row]))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
