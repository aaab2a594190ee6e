"""The model-based backward pass as it ran before its recursion-free work
became stacked calls: riccati_backward forming PB' A(k) twice per stage, and
build_schedule making two solves and all its products per stage. Tests hold
termlq.model to these loops bit for bit."""

from __future__ import annotations

import numpy as np

from termlq.linalg import sym


def reference_riccati(inst) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    N, n, m = inst.N, inst.n, inst.m
    P = np.empty((N + 2, n, n))
    Gamma = np.empty((N + 1, m, m))
    K = np.empty((N + 1, m, n))
    P[N + 1] = sym(inst.H)
    for k in range(N, -1, -1):
        Ak, Bk = inst.A[k], inst.B[k]
        PB = P[k + 1] @ Bk
        Gamma[k] = sym(inst.R + Bk.T @ PB)
        K[k] = -np.linalg.solve(Gamma[k], PB.T @ Ak)
        P[k] = sym(inst.Q + Ak.T @ P[k + 1] @ Ak + (PB.T @ Ak).T @ K[k])
    return P, Gamma, K


def reference_schedule(inst, Gamma, K) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K1, Phi, G) of build_schedule, one stage per loop turn."""
    N, n, m = inst.N, inst.n, inst.m
    Phi = np.empty((N + 2, n, n))
    G = np.empty((N + 2, n, n))
    K1 = np.empty((N + 1, m, n))
    Phi[N + 1] = np.eye(n)
    G[N + 1] = 0.0
    for k in range(N, -1, -1):
        Bk = inst.B[k]
        Phi[k] = Phi[k + 1] @ (inst.A[k] + Bk @ K[k])
        Bbar = Bk @ np.linalg.solve(Gamma[k], Bk.T)
        G[k] = sym(G[k + 1] + Phi[k + 1] @ Bbar @ Phi[k + 1].T)
        K1[k] = -np.linalg.solve(Gamma[k], Bk.T @ Phi[k + 1].T)
    return K1, Phi, G
