"""Test-only costate helpers: the adjoint recursion along a rollout and the
stationarity and augmented-cost checks built on it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from termlq.linalg import Array, ro
from termlq.model import ModelSchedule, ProblemInstance, Trajectory


@dataclass(frozen=True)
class CostateSequence:
    """Adjoint sequence p(0..N) and its constraint part eta(0..N), each an
    (N+1, n) array with one row per stage."""

    p: Array
    eta: Array


def _adjoint(inst: ProblemInstance, traj: Trajectory, lam: Array) -> Array:
    # p(N) = H x(N+1) + lambda, then backward p(k-1) = A(k)' p(k) + Q x(k)
    N = inst.N
    p = np.empty((N + 1, inst.n))
    p[N] = inst.H @ traj.states[N + 1] + lam
    for k in range(N, 0, -1):
        p[k - 1] = inst.A[k].T @ p[k] + inst.Q @ traj.states[k]
    return p


def costate_sequence(inst: ProblemInstance, sched: ModelSchedule, traj: Trajectory,
                     lam: Array) -> CostateSequence:
    """Adjoint reconstruction along a trajectory.

    p(N) = H x(N+1) + lambda, then backward p(k-1) = A(k)' p(k) + Q x(k).
    The constraint part eta starts at eta(N) = lambda and propagates through
    the closed loop Ac(k) = A(k) + B(k) K(k), eta(k-1) = Ac(k)' eta(k), which
    equals Phi(k,N)' lambda.
    """
    N = inst.N
    eta = np.empty((N + 1, inst.n))
    eta[N] = lam
    for k in range(N, 0, -1):
        eta[k - 1] = (inst.A[k] + inst.B[k] @ sched.K[k]).T @ eta[k]
    return CostateSequence(p=ro(_adjoint(inst, traj, lam)), eta=ro(eta))


def costate_residual(inst: ProblemInstance, traj: Trajectory, lam: Array) -> float:
    """Stationarity defect max_k || R u(k) + B(k)' p(k) ||_inf along the
    trajectory; zero (to roundoff) exactly at the optimum."""
    return max(float(np.abs(inst.R @ u + B.T @ p).max())
               for u, B, p in zip(traj.inputs, inst.B, _adjoint(inst, traj, lam)))


def evaluate_augmented_cost(inst: ProblemInstance, traj: Trajectory, lam: Array) -> float:
    """Cost with the multiplier term attached: J + 2 lambda' x(N+1)."""
    return traj.cost + 2.0 * float(np.asarray(lam) @ traj.states[inst.N + 1])
