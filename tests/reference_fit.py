"""Test-only reference for the stage fit: the least-squares fit by LAPACK
gelsd (numpy.linalg.lstsq) and the outer-product regressor, as the learner
computed them before fit_stage moved to singular values plus one LU solve
of a square system."""

from __future__ import annotations

import numpy as np

from termlq.errors import RankDeficient
from termlq.linalg import RANK_RTOL
from termlq.qlearn import StageDataset, sample_threshold, unpack_symmetric


def outer_product_regressor(Z) -> np.ndarray:
    """regressor_matrix through the (l, d, d) stack of outer products z z'."""
    d = Z.shape[1]
    iu = np.triu_indices(d)
    prods = Z[:, :, None] * Z[:, None, :]
    scale = np.full((d, d), 2.0)
    np.fill_diagonal(scale, 1.0)
    return (prods * scale)[:, iu[0], iu[1]]


def lstsq_fit(ds: StageDataset, gamma) -> tuple[np.ndarray, float, float]:
    """fit_stage by numpy.linalg.lstsq: the same (Lambda(k), residual,
    cond) result and the same RankDeficient verdict and payload."""
    n, m = ds.X.shape[1], ds.U.shape[1]
    need = sample_threshold(n, m)
    Ups = outer_product_regressor(np.hstack([ds.X, ds.U, ds.L]))
    rcond = max(Ups.shape) * RANK_RTOL
    nu, _, rank, sv = np.linalg.lstsq(Ups, gamma, rcond=rcond)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    if rank < need:
        raise RankDeficient(
            f"stage {ds.k} regressor rank {rank} < {need}",
            rank=int(rank), cond=cond)
    residual = float(np.linalg.norm(Ups @ nu - gamma))
    return unpack_symmetric(nu, 2 * n + m), residual, cond
