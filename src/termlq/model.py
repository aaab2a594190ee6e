"""Model-based solution of the finite-horizon LQ problem with an exact
terminal-state equality constraint.

The plant is time varying, x(k+1) = A(k) x(k) + B(k) u(k) for k = 0..N, with
cost

    J = sum_{k=0}^{N} [ x(k)' Q x(k) + u(k)' R u(k) ] + x(N+1)' H x(N+1)

and the hard constraint x(N+1) = xi. The solution is a backward Riccati pass
producing stage kernels P(k) and feedback gains K(k), plus a constant
multiplier lambda* entering through feedforward gains K1(k):

    u(k) = K(k) x(k) + K1(k) lambda*

lambda* solves Phi(0,N) x0 - G(0) lambda = xi, where Phi(k,N) is the
closed-loop transition product and G(s) the multiplier-to-terminal-state
Gramian accumulated over stages s..N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NonFiniteState,
    NotReachable,
    SingularGamma,
    StageOutOfRange,
    ValidationError,
)
from .linalg import Array, is_pd, is_psd, range_solve, ro, sym


@dataclass(frozen=True)
class ProblemInstance:
    """One terminal-constrained LQ problem.

    A (N+1, n, n) and B (N+1, n, m) stack the stage matrices, stage k = 0..N
    on the leading axis. Q and H must be symmetric positive semi-definite, R
    symmetric positive definite.
    """

    N: int
    n: int
    m: int
    A: Array
    B: Array
    Q: Array
    R: Array
    H: Array
    x0: Array
    xi: Array


@dataclass(frozen=True)
class ModelSchedule:
    """Backward-pass products for one instance, each a read-only array with
    the stage on its leading axis.

    P (N+2, n, n) ends with P(N+1) = H; Gamma (N+1, m, m), K (N+1, m, n) and
    K1 (N+1, m, n) cover stages 0..N; Phi (N+2, n, n) ends with
    Phi(N+1,N) = I, and G (N+2, n, n) with G(N+1) = 0.
    """

    P: Array
    Gamma: Array
    K: Array
    K1: Array
    Phi: Array
    G: Array


@dataclass(frozen=True)
class LambdaSolution:
    """Multiplier solve outcome.

    residual is the 2-norm of Phi(0,N) x0 - G(0) lambda* - xi, never above
    the relative range tolerance (solve_lambda raises otherwise); min_norm
    marks that G(0) was numerically rank deficient, so lambda* is the
    minimum-norm pick among many solutions.
    """

    lambda_star: Array
    residual: float
    min_norm: bool


@dataclass(frozen=True)
class Trajectory:
    """A rollout: states x(0..N+1) as an (N+2, n) array, inputs u(0..N) as
    an (N+1, m) array, the quadratic cost and the terminal miss against
    xi."""

    states: Array
    inputs: Array
    cost: float
    terminal_error: float


@dataclass(frozen=True)
class ReachabilityResult:
    """Gramian verdict, with the rank of G1 that its range solve took."""

    reachable: bool
    G1: Array
    rank: int
    zeta: Array | None


def make_instance(A: Sequence, B: Sequence, Q, R, H, x0, xi) -> ProblemInstance:
    """Build a ProblemInstance from array-likes, inferring dimensions.

    A and B are 3-D stacks with the stage on the leading axis, converted
    once, or sequences of stage matrices, converted one by one. Matrices of
    unequal shapes raise the ValidationError that require_valid gives them.
    """
    A_k, B_k = (X if isinstance(X, np.ndarray) and X.ndim == 3
                else [np.asarray(x, dtype=float) for x in X] for X in (A, B))
    if not len(A_k) or A_k[0].ndim != 2:
        raise ValidationError("A must be a nonempty sequence of matrices")
    n = A_k[0].shape[0]
    m = B_k[0].shape[1] if len(B_k) and B_k[0].ndim == 2 else 0
    N = len(A_k) - 1
    try:
        A_s, B_s = (ro(X if isinstance(X, np.ndarray) else np.stack(X)) for X in (A_k, B_k))
    except ValueError:
        _require_dims(N, n, m, A_k, B_k)
        raise
    return ProblemInstance(N=N, n=n, m=m, A=A_s, B=B_s, Q=ro(Q), R=ro(R), H=ro(H),
                           x0=ro(x0), xi=ro(xi))


def _check(name: str, passed: bool, detail: str) -> None:
    if not passed:
        raise ValidationError(f"instance check '{name}' failed: {detail}")


def _require_dims(N: int, n: int, m: int, A: Sequence[Array], B: Sequence[Array]) -> None:
    # A and B as stacks or as lists of stage matrices: a list is what
    # make_instance holds when the stage shapes differ
    _check("horizon", N >= 0, f"N={N}")
    _check("state_dim", n >= 1, f"n={n}")
    _check("input_dim", m >= 1, f"m={m}")
    _check("A_length", len(A) == N + 1, f"len(A)={len(A)}, expected {N + 1}")
    _check("B_length", len(B) == N + 1, f"len(B)={len(B)}, expected {N + 1}")
    for name, mats, shape in (("A", A, (n, n)), ("B", B, (n, m))):
        bad = next((k for k, M in enumerate(mats) if M.shape != shape), None)
        if bad is not None:
            _check(f"{name}_shape", False, f"{name}[{bad}] has shape {mats[bad].shape}")


def require_valid(inst: ProblemInstance) -> None:
    """Check dimensions, then finite entries, symmetry and definiteness, in
    that order; raises ValidationError naming the first failing check."""
    n, m, N = inst.n, inst.m, inst.N
    _require_dims(N, n, m, inst.A, inst.B)
    for name, M, shape in (("Q_shape", inst.Q, (n, n)), ("R_shape", inst.R, (m, m)),
                           ("H_shape", inst.H, (n, n))):
        _check(name, M.shape == shape, f"shape {M.shape}, expected {shape}")
    for name, v in (("x0_shape", inst.x0), ("xi_shape", inst.xi)):
        _check(name, v.shape == (n,), f"shape {v.shape}, expected ({n},)")
    finite = all(np.isfinite(a).all() for a in
                 (inst.A, inst.B, inst.Q, inst.R, inst.H, inst.x0, inst.xi))
    _check("finite_entries", finite, "non-finite entry present")
    for name, M in (("Q_symmetric", inst.Q), ("R_symmetric", inst.R), ("H_symmetric", inst.H)):
        gap = float(np.abs(M - M.T).max()) if M.size else 0.0
        _check(name, gap <= 1e-12 * max(1.0, float(np.abs(M).max())), f"asymmetry {gap:.3e}")
    for name, M, test in (("Q_psd", inst.Q, is_psd), ("R_pd", inst.R, is_pd),
                          ("H_psd", inst.H, is_psd)):
        okd, lo = test(M)
        _check(name, okd, f"eigenvalue {lo:.6e}")


def riccati_backward(inst: ProblemInstance) -> tuple[Array, Array, Array]:
    """Backward Riccati pass.

    Returns the stacks (P, Gamma, K): P(N+1) = H, then for k = N..0

        Gamma(k) = R + B(k)' P(k+1) B(k)
        K(k)     = -Gamma(k)^-1 B(k)' P(k+1) A(k)
        P(k)     = Q + A(k)' P(k+1) A(k) + A(k)' P(k+1) B(k) K(k)

    with every P(k) symmetrized. Raises SingularGamma if any Gamma(k) fails
    the positive-definite test, or NonFiniteState when it fails because the
    pass overflowed, or when P(0) overflows.
    """
    N, n, m = inst.N, inst.n, inst.m
    P = np.empty((N + 2, n, n))
    Gamma = np.empty((N + 1, m, m))
    K = np.empty((N + 1, m, n))
    P[N + 1] = sym(inst.H)
    for k in range(N, -1, -1):
        Ak, Bk = inst.A[k], inst.B[k]
        PB = P[k + 1] @ Bk
        Gamma[k] = sym(inst.R + Bk.T @ PB)
        okd, lo = is_pd(Gamma[k])
        if not okd:
            if not np.isfinite(Gamma[k]).all():
                raise NonFiniteState(f"Gamma({k}) is non-finite: the backward pass overflows")
            raise SingularGamma(f"Gamma({k}) has eigenvalue {lo:.6e}")
        PBA = PB.T @ Ak
        K[k] = -np.linalg.solve(Gamma[k], PBA)
        P[k] = sym(inst.Q + Ak.T @ P[k + 1] @ Ak + PBA.T @ K[k])
    # every other P(k) enters a Gamma: only P(0) can overflow unseen
    if not np.isfinite(P[0]).all():
        raise NonFiniteState("P(0) is non-finite: the backward pass overflows")
    return ro(P), ro(Gamma), ro(K)


def build_schedule(inst: ProblemInstance, P: Array, Gamma: Array, K: Array) -> ModelSchedule:
    """Closed-loop products and multiplier gains on top of the Riccati pass.

    With the closed loop Ac(k) = A(k) + B(k) K(k): Phi(k,N) = Ac(N) ... Ac(k)
    with Phi(N+1,N) = I; G(s) = sum_{j=s}^{N} Phi(j+1,N) Bbar(j) Phi(j+1,N)'
    with Bbar(j) = B(j) Gamma(j)^-1 B(j)'; K1(k) = -Gamma(k)^-1 B(k)' Phi(k+1,N)'.

    Only the product Phi and the running sum G are stage loops; Ac, Bbar,
    K1 and the terms of G are stacked calls over all stages.
    """
    N, n = inst.N, inst.n
    Bt = np.swapaxes(inst.B, 1, 2)
    Ac = inst.A + inst.B @ K
    Bbar = inst.B @ np.linalg.solve(Gamma, Bt)
    Phi = np.empty((N + 2, n, n))
    G = np.empty((N + 2, n, n))
    Phi[N + 1] = np.eye(n)
    G[N + 1] = 0.0
    for k in range(N, -1, -1):
        Phi[k] = Phi[k + 1] @ Ac[k]
    Phi_next, Phi_next_t = Phi[1:], np.swapaxes(Phi[1:], 1, 2)
    terms = Phi_next @ Bbar @ Phi_next_t
    for k in range(N, -1, -1):
        G[k] = sym(G[k + 1] + terms[k])
    K1 = -np.linalg.solve(Gamma, Bt @ Phi_next_t)
    return ModelSchedule(P=P, Gamma=Gamma, K=K, K1=ro(K1), Phi=ro(Phi), G=ro(G))


def solve_schedule(inst: ProblemInstance) -> ModelSchedule:
    """Riccati pass plus closed-loop products in one call."""
    P, Gamma, K = riccati_backward(inst)
    return build_schedule(inst, P, Gamma, K)


def check_reachability(inst: ProblemInstance) -> ReachabilityResult:
    """Gramian test: xi is attainable from x0 iff xi minus the pure drift
    terminal state lies in the range of

        G1 = sum_k T(k) T(k)',   T(k) = [A(N)...A(k+1)] B(k)

    decided by linalg.range_solve. Returns the rank of G1 that the solve
    took, and the minimum-norm certificate zeta when reachable.

    One backward sweep over k = N..0 carries M = A(N)...A(k+1): T(k) = M B(k)
    fills a column block of C = [T(0) ... T(N)], then M <- M A(k). So
    G1 = C C', the final M is the full drift A(N)...A(0), and the cost is
    linear in N. Raises NonFiniteState when the products or the solve overflow.
    """
    N, n, m = inst.N, inst.n, inst.m
    C = np.empty((n, m * (N + 1)))
    M = np.eye(n)
    for k in range(N, -1, -1):
        C[:, k * m:(k + 1) * m] = M @ inst.B[k]
        M = M @ inst.A[k]
    G1 = sym(C @ C.T)
    rhs = inst.xi - M @ inst.x0
    if not (np.isfinite(G1).all() and np.isfinite(rhs).all()):
        raise NonFiniteState(f"reachability Gramian or drift term is non-finite at N={N}")
    zeta, _, rank, miss = range_solve(G1, rhs, inst.xi, "reachability equation")
    return ReachabilityResult(reachable=miss is None, G1=ro(G1), rank=rank,
                              zeta=ro(zeta) if miss is None else None)


def solve_lambda(sched: ModelSchedule, inst: ProblemInstance) -> LambdaSolution:
    """Minimum-norm multiplier from Phi(0,N) x0 - G(0) lambda = xi.

    Raises NotReachable on a range miss (check_reachability gives the
    certificate), or NonFiniteState when the solve overflows.
    """
    rhs = sched.Phi[0] @ inst.x0 - inst.xi
    lam, resid, rank, miss = range_solve(sched.G[0], rhs, inst.xi, "multiplier equation")
    if miss is not None:
        raise NotReachable(f"multiplier equation {miss}")
    return LambdaSolution(lambda_star=ro(lam), residual=resid, min_norm=rank < inst.n)


def optimal_policy(sched: ModelSchedule, lam: Array) -> Callable[[int, Array], Array]:
    """The closed control law u(k) = K(k) x + K1(k) lambda as a
    (stage, state) -> input callable; raises StageOutOfRange outside 0..N.
    sched is any schedule with K and K1 stacks, learned ones included."""
    def policy(k: int, x: Array) -> Array:
        if not 0 <= k < len(sched.K):
            raise StageOutOfRange(f"stage {k} outside 0..{len(sched.K) - 1}")
        return sched.K[k] @ x + sched.K1[k] @ lam
    return policy


def rollout(inst: ProblemInstance, policy: Callable[[int, Array], Array]) -> Trajectory:
    """Simulate x(k+1) = A(k) x(k) + B(k) u(k) under the policy, accumulate
    the quadratic cost, and record the terminal miss against xi. Raises
    NonFiniteState when a state or the cost overflows."""
    states = np.empty((inst.N + 2, inst.n))
    inputs = np.empty((inst.N + 1, inst.m))
    x = np.array(inst.x0, dtype=float)
    states[0] = x
    cost = 0.0
    for k in range(inst.N + 1):
        u = np.atleast_1d(np.asarray(policy(k, x), dtype=float))
        cost += float(x @ inst.Q @ x + u @ inst.R @ u)
        x = inst.A[k] @ x + inst.B[k] @ u
        if not np.isfinite(x).all():
            raise NonFiniteState(f"state at stage {k + 1} is non-finite")
        inputs[k] = u
        states[k + 1] = x
    cost += float(x @ inst.H @ x)
    if not np.isfinite(cost):
        raise NonFiniteState("rollout cost is non-finite")
    terminal_error = float(np.abs(x - inst.xi).max())
    return Trajectory(states=ro(states), inputs=ro(inputs),
                      cost=cost, terminal_error=terminal_error)
