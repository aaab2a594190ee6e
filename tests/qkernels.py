"""Test-only references for the learner: the regressor row of a single
probe, one stage's dataset and fit through the learner's block functions,
the terminal-stage targets, and the stage kernel the fit should recover,
assembled from the model-based schedule."""

from __future__ import annotations

import numpy as np

from termlq.linalg import ro, sym
from termlq.model import ModelSchedule, ProblemInstance
from termlq.qlearn import (
    GaussianSpec,
    SimulatedPlant,
    StageDataset,
    fit_stage,
    sample_stage_data,
    stage_systems,
    stage_targets,
)


def regressor_row(z) -> np.ndarray:
    """Feature row for one probe: upper triangle of z z' in row-major order,
    diagonal entries z_j^2 and off-diagonal entries 2 z_i z_j, so that
    row . nu = z' Lambda z when nu packs Lambda's upper triangle entrywise."""
    z = np.asarray(z, dtype=float)
    d = z.shape[0]
    zz = np.outer(z, z)
    w = 2.0 * zz - np.diag(z * z)
    return w[np.triu_indices(d)]


def stage_dataset(inst: ProblemInstance, k: int, l: int, dist: GaussianSpec,
                  seed: int) -> StageDataset:
    """The l probes learn draws for stage k of inst under seed, with the
    simulated plant's answers."""
    X, U, L, Xn = sample_stage_data(SimulatedPlant(inst), [k], l, inst.n, inst.m, dist, seed)
    return StageDataset(k, X[0], U[0], L[0], Xn[0])


def fit(ds: StageDataset, gamma: np.ndarray) -> tuple[np.ndarray, float, float]:
    """fit_stage on the stage systems of the probes of ds."""
    return fit_stage(ds, stage_systems(ds.X, ds.U, ds.L), gamma)


def terminal_targets(ds: StageDataset, inst: ProblemInstance) -> np.ndarray:
    """Stage targets at the terminal boundary values P(N+1) = H,
    Phi(N+1,N) = I and G(N+1) = 0."""
    n = inst.n
    return stage_targets(ds, inst.Q, inst.R, inst.H, np.eye(n), np.zeros((n, n)))


def model_kernel(inst: ProblemInstance, sched: ModelSchedule, k: int) -> np.ndarray:
    """Stage kernel assembled from the model-based schedule (the quantity the
    fit should recover exactly on noise-free data): blocks Q + A'P(k+1)A,
    B'P(k+1)A, Gamma(k), Phi(k+1,N)A, Phi(k+1,N)B and -G(k+1)."""
    A, B = inst.A[k], inst.B[k]
    P_next = sched.P[k + 1]
    Phi_next = sched.Phi[k + 1]
    n, m = inst.n, inst.m
    d = 2 * n + m
    Lam = np.zeros((d, d))
    Lam[:n, :n] = inst.Q + A.T @ P_next @ A
    Lam[n:n + m, :n] = B.T @ P_next @ A
    Lam[n:n + m, n:n + m] = sched.Gamma[k]
    Lam[n + m:, :n] = Phi_next @ A
    Lam[n + m:, n:n + m] = Phi_next @ B
    Lam[n + m:, n + m:] = -sched.G[k + 1]
    Lam[:n, n:n + m] = Lam[n:n + m, :n].T
    Lam[:n, n + m:] = Lam[n + m:, :n].T
    Lam[n:n + m, n + m:] = Lam[n + m:, n:n + m].T
    return ro(sym(Lam))
