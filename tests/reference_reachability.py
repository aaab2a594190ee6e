"""Per-stage reference for the reachability Gramian.

This is the test `termlq.model.check_reachability` shipped before its
backward sweep: every open-loop product A(N)...A(k+1) is rebuilt from the
identity, so it costs O(N^2) matrix products. The tests require the sweep to
give the same G1, certificate and verdict.
"""

from __future__ import annotations

import numpy as np

from termlq.linalg import min_norm_solve, range_tol, sym


def drift_product(inst, j: int, k: int) -> np.ndarray:
    """Open-loop transition A(k-1) ... A(j) mapping x(j) to x(k); I if j = k."""
    M = np.eye(inst.n)
    for i in range(j, k):
        M = inst.A[i] @ M
    return M


def reference_reachability(inst) -> tuple[bool, np.ndarray, np.ndarray | None]:
    """(reachable, G1, zeta or None), from the per-stage products."""
    N = inst.N
    G1 = np.zeros((inst.n, inst.n))
    for k in range(N + 1):
        T = drift_product(inst, k + 1, N + 1) @ inst.B[k]
        G1 += T @ T.T
    G1 = sym(G1)
    rhs = inst.xi - drift_product(inst, 0, N + 1) @ inst.x0
    zeta, resid, _ = min_norm_solve(G1, rhs)
    reachable = resid <= range_tol(inst.xi)
    return reachable, G1, zeta if reachable else None
