"""Test-only writer of the replay log format that termlq.fileio.read_replay_log
parses and `termlq learn --replay` reads, and a recorder of episodic logs:
plant runs from random initial states, not the learner's probes."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from termlq import IoError
from termlq.fileio import FLOAT_FORMAT
from termlq.model import ProblemInstance
from termlq.qlearn import ReplayLog


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


def episodic_log(inst: ProblemInstance, episodes: int, rng: np.random.Generator) -> ReplayLog:
    """Records of `episodes` runs of the plant inst over stages 0..N, each
    from x(0) ~ N(0, I) under standard-normal inputs, with a freely drawn
    standard-normal multiplier column (the multiplier is not a plant
    signal). Records are in time order, all episodes of stage 0 first, so
    every stage has one record per episode."""
    n, m, N = inst.n, inst.m, inst.N
    X = np.empty((N + 1, episodes, n))
    X[0] = rng.standard_normal((episodes, n))
    U = rng.standard_normal((N + 1, episodes, m))
    L = rng.standard_normal((N + 1, episodes, n))
    Xn = np.empty_like(X)
    for k in range(N + 1):
        Xn[k] = X[k] @ inst.A[k].T + U[k] @ inst.B[k].T
        if k < N:
            X[k + 1] = Xn[k]
    return ReplayLog(np.repeat(np.arange(N + 1), episodes),
                     *(a.reshape(-1, a.shape[-1]) for a in (X, U, L, Xn)))
