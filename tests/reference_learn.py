"""The learner as it ran before the stage work moved into blocks: one loop
turn per stage draws that stage's probes, queries the oracle, builds the
regressor, takes its singular values and fits, all before the next stage.
Tests hold qlearn.learn to this loop bit for bit."""

from __future__ import annotations

import numpy as np

from termlq.errors import InsufficientSamples, NotReachable, RankDeficient
from termlq.linalg import min_norm_solve, range_tol, rank_cutoff, ro, sym
from termlq.qlearn import (
    RESIDUAL_WARN_RTOL,
    FitDiagnostics,
    GaussianSpec,
    LearnedSchedule,
    StageDataset,
    extract_stage,
    regressor_matrix,
    sample_threshold,
    stage_targets,
    unpack_symmetric,
)


def sample_stage(oracle, k, l, n, m, dist, seed) -> StageDataset:
    need = sample_threshold(n, m)
    if l < need:
        raise InsufficientSamples(f"l={l} below the identifiability threshold {need}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(k))))
    std = float(np.sqrt(dist.covariance_scale))
    X = dist.mean + std * rng.standard_normal((l, n))
    U = dist.mean + std * rng.standard_normal((l, m))
    L = dist.mean + std * rng.standard_normal((l, n))
    Xn = np.asarray(oracle.step(k, X, U), dtype=float)
    return StageDataset(k=int(k), X=ro(X), U=ro(U), L=ro(L), Xn=ro(Xn))


def fit_one_stage(ds: StageDataset, gamma) -> tuple[np.ndarray, float, float]:
    n, m = ds.X.shape[1], ds.U.shape[1]
    need = sample_threshold(n, m)
    Ups = regressor_matrix(np.hstack([ds.X, ds.U, ds.L]))
    M, b = Ups, gamma
    if len(Ups) > need:
        Qr, M = np.linalg.qr(Ups)
        b = Qr.T @ gamma
    s = np.linalg.svd(M, compute_uv=False)
    rank = int((s > rank_cutoff(Ups, s)).sum())
    cond = float(s[0] / s[-1]) if s[-1] > 0 else float("inf")
    if rank < need:
        raise RankDeficient(f"stage {ds.k} regressor rank {rank} < {need}",
                            rank=rank, cond=cond)
    nu = np.linalg.solve(M, b)
    residual = float(np.linalg.norm(Ups @ nu - gamma))
    return unpack_symmetric(nu, 2 * n + m), residual, cond


def reference_learn(oracle, dims, cost, x0, xi, l, dist, seed) -> LearnedSchedule:
    """qlearn.learn with the per-stage loop: the same arguments, results and
    exceptions."""
    n, m, N = dims
    Q, R, H = (np.asarray(W, dtype=float) for W in cost)
    x0 = np.asarray(x0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if dist is None:
        dist = GaussianSpec()
    d = 2 * n + m
    Lambda = np.empty((N + 1, d, d))
    residual, cond, gamma_norm = np.empty(N + 1), np.empty(N + 1), np.empty(N + 1)
    K, K1 = np.empty((N + 1, m, n)), np.empty((N + 1, m, n))
    P, Phi, G = np.empty((N + 2, n, n)), np.empty((N + 2, n, n)), np.empty((N + 2, n, n))
    P[N + 1] = sym(H)
    Phi[N + 1] = np.eye(n)
    G[N + 1] = 0.0
    for k in range(N, -1, -1):
        ds = sample_stage(oracle, k, l, n, m, dist, seed)
        P_next = H if k == N else P[k + 1]
        gamma = stage_targets(ds, Q, R, P_next, Phi[k + 1], G[k + 1])
        Lambda[k], residual[k], cond[k] = fit_one_stage(ds, gamma)
        gamma_norm[k] = np.linalg.norm(gamma)
        K[k], K1[k], P[k], Phi[k], G[k] = extract_stage(k, Lambda[k], G_next=G[k + 1])

    kernel_scale = float(np.abs(Lambda[0]).max())
    lam, resid, _ = min_norm_solve(G[0], Phi[0] @ x0 - xi, scale=kernel_scale)
    if resid > range_tol(xi):
        raise NotReachable(
            f"learned multiplier equation residual {resid:.6e} exceeds "
            f"tolerance {range_tol(xi):.6e}")
    diagnostics = FitDiagnostics(residual=ro(residual), cond=ro(cond),
                                 high_residual=ro(residual > RESIDUAL_WARN_RTOL * gamma_norm))
    return LearnedSchedule(Lambda=ro(Lambda), K=ro(K), K1=ro(K1), P=ro(P), Phi=ro(Phi),
                           G=ro(G), lambda_star=ro(lam), fit_diagnostics=diagnostics)
