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
from .linalg import Array, is_pd, is_psd, min_norm_solve, range_tol, ro, sym


@dataclass(frozen=True)
class ProblemInstance:
    """One terminal-constrained LQ problem.

    A and B hold N+1 stage matrices each (k = 0..N). Q and H must be
    symmetric positive semi-definite, R symmetric positive definite.
    """

    N: int
    n: int
    m: int
    A: tuple[Array, ...]
    B: tuple[Array, ...]
    Q: Array
    R: Array
    H: Array
    x0: Array
    xi: Array


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    checks: tuple[CheckResult, ...]

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


@dataclass(frozen=True)
class ModelSchedule:
    """Backward-pass products for one instance.

    P has N+2 entries (P(N+1) = H), Gamma/K/K1/Ac have N+1, Phi has N+2 with
    Phi(N+1,N) = I, and G has N+2 with G(N+1) = 0.
    """

    P: tuple[Array, ...]
    Gamma: tuple[Array, ...]
    K: tuple[Array, ...]
    K1: tuple[Array, ...]
    Ac: tuple[Array, ...]
    Phi: tuple[Array, ...]
    G: tuple[Array, ...]


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
    states: tuple[Array, ...]
    inputs: tuple[Array, ...]
    cost: float
    terminal_error: float


@dataclass(frozen=True)
class ReachabilityResult:
    reachable: bool
    G1: Array
    zeta: Array | None


def make_instance(A: Sequence, B: Sequence, Q, R, H, x0, xi) -> ProblemInstance:
    """Build a ProblemInstance from array-likes, inferring dimensions."""
    A_t = tuple(ro(a) for a in A)
    B_t = tuple(ro(b) for b in B)
    if not A_t or A_t[0].ndim != 2:
        raise ValidationError("A must be a nonempty sequence of matrices")
    n = A_t[0].shape[0]
    m = B_t[0].shape[1] if B_t and B_t[0].ndim == 2 else 0
    return ProblemInstance(
        N=len(A_t) - 1,
        n=n,
        m=m,
        A=A_t,
        B=B_t,
        Q=ro(Q),
        R=ro(R),
        H=ro(H),
        x0=ro(x0),
        xi=ro(xi),
    )


def validate_instance(inst: ProblemInstance) -> ValidationReport:
    """Per-check validation report: dimensions, symmetry, definiteness.

    Never raises; callers decide whether to abort on report.ok = False.
    """
    checks: list[CheckResult] = []
    n, m, N = inst.n, inst.m, inst.N

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, passed, detail))

    add("horizon", N >= 0, f"N={N}" if N < 0 else "")
    add("state_dim", n >= 1, f"n={n}" if n < 1 else "")
    add("input_dim", m >= 1, f"m={m}" if m < 1 else "")

    ok_len_A = len(inst.A) == N + 1
    add("A_length", ok_len_A, "" if ok_len_A else f"len(A)={len(inst.A)}, expected {N + 1}")
    ok_len_B = len(inst.B) == N + 1
    add("B_length", ok_len_B, "" if ok_len_B else f"len(B)={len(inst.B)}, expected {N + 1}")

    bad = next((k for k, a in enumerate(inst.A) if a.shape != (n, n)), None)
    add("A_shape", bad is None, "" if bad is None else f"A[{bad}] has shape {inst.A[bad].shape}")
    bad = next((k for k, b in enumerate(inst.B) if b.shape != (n, m)), None)
    add("B_shape", bad is None, "" if bad is None else f"B[{bad}] has shape {inst.B[bad].shape}")

    for name, M, shape in (("Q_shape", inst.Q, (n, n)), ("R_shape", inst.R, (m, m)),
                           ("H_shape", inst.H, (n, n))):
        add(name, M.shape == shape, "" if M.shape == shape else f"shape {M.shape}, expected {shape}")
    for name, v, dim in (("x0_shape", inst.x0, n), ("xi_shape", inst.xi, n)):
        add(name, v.shape == (dim,), "" if v.shape == (dim,) else f"shape {v.shape}, expected ({dim},)")

    if all(c.passed for c in checks):
        for name, M in (("Q_symmetric", inst.Q), ("R_symmetric", inst.R), ("H_symmetric", inst.H)):
            gap = float(np.abs(M - M.T).max()) if M.size else 0.0
            add(name, gap <= 1e-12 * max(1.0, float(np.abs(M).max())), f"asymmetry {gap:.3e}")
        for name, M, test in (("Q_psd", inst.Q, is_psd), ("R_pd", inst.R, is_pd),
                              ("H_psd", inst.H, is_psd)):
            okd, lo = test(sym(M))
            add(name, okd, "" if okd else f"eigenvalue {lo:.6e}")
        finite = all(np.isfinite(a).all() for a in
                     (*inst.A, *inst.B, inst.Q, inst.R, inst.H, inst.x0, inst.xi))
        add("finite_entries", finite, "" if finite else "non-finite entry present")

    return ValidationReport(ok=all(c.passed for c in checks), checks=tuple(checks))


def require_valid(inst: ProblemInstance) -> None:
    report = validate_instance(inst)
    if not report.ok:
        first = report.failures()[0]
        raise ValidationError(f"instance check '{first.name}' failed: {first.detail}")


def riccati_backward(inst: ProblemInstance) -> tuple[tuple[Array, ...], tuple[Array, ...], tuple[Array, ...]]:
    """Backward Riccati pass.

    Returns (P, Gamma, K): P(N+1) = H, then for k = N..0

        Gamma(k) = R + B(k)' P(k+1) B(k)
        K(k)     = -Gamma(k)^-1 B(k)' P(k+1) A(k)
        P(k)     = Q + A(k)' P(k+1) A(k) + A(k)' P(k+1) B(k) K(k)

    with every P(k) symmetrized. Raises SingularGamma if any Gamma(k) fails
    the positive-definite test.
    """
    N = inst.N
    P: list[Array] = [None] * (N + 2)  # type: ignore[list-item]
    Gamma: list[Array] = [None] * (N + 1)  # type: ignore[list-item]
    K: list[Array] = [None] * (N + 1)  # type: ignore[list-item]
    P[N + 1] = ro(sym(inst.H))
    for k in range(N, -1, -1):
        Ak, Bk = inst.A[k], inst.B[k]
        PB = P[k + 1] @ Bk
        Gk = sym(inst.R + Bk.T @ PB)
        okd, lo = is_pd(Gk)
        if not okd:
            raise SingularGamma(f"Gamma({k}) has eigenvalue {lo:.6e}")
        Kk = -np.linalg.solve(Gk, PB.T @ Ak)
        Pk = sym(inst.Q + Ak.T @ P[k + 1] @ Ak + (PB.T @ Ak).T @ Kk)
        P[k], Gamma[k], K[k] = ro(Pk), ro(Gk), ro(Kk)
    return tuple(P), tuple(Gamma), tuple(K)


def build_schedule(inst: ProblemInstance, P: Sequence[Array], Gamma: Sequence[Array],
                   K: Sequence[Array]) -> ModelSchedule:
    """Closed-loop products and multiplier gains on top of the Riccati pass.

    Ac(k) = A(k) + B(k) K(k); Phi(k,N) = Ac(N) ... Ac(k) with Phi(N+1,N) = I;
    G(s) = sum_{j=s}^{N} Phi(j+1,N) Bbar(j) Phi(j+1,N)' with
    Bbar(j) = B(j) Gamma(j)^-1 B(j)'; K1(k) = -Gamma(k)^-1 B(k)' Phi(k+1,N)'.
    """
    N, n = inst.N, inst.n
    Ac: list[Array] = [None] * (N + 1)  # type: ignore[list-item]
    Phi: list[Array] = [None] * (N + 2)  # type: ignore[list-item]
    G: list[Array] = [None] * (N + 2)  # type: ignore[list-item]
    K1: list[Array] = [None] * (N + 1)  # type: ignore[list-item]
    Phi[N + 1] = ro(np.eye(n))
    G[N + 1] = ro(np.zeros((n, n)))
    for k in range(N, -1, -1):
        Bk = inst.B[k]
        Ac[k] = ro(inst.A[k] + Bk @ K[k])
        Phi[k] = ro(Phi[k + 1] @ Ac[k])
        Bbar = Bk @ np.linalg.solve(Gamma[k], Bk.T)
        G[k] = ro(sym(G[k + 1] + Phi[k + 1] @ Bbar @ Phi[k + 1].T))
        K1[k] = ro(-np.linalg.solve(Gamma[k], Bk.T @ Phi[k + 1].T))
    return ModelSchedule(P=tuple(P), Gamma=tuple(Gamma), K=tuple(K),
                         K1=tuple(K1), Ac=tuple(Ac), Phi=tuple(Phi), G=tuple(G))


def solve_schedule(inst: ProblemInstance) -> ModelSchedule:
    """Riccati pass plus closed-loop products in one call."""
    P, Gamma, K = riccati_backward(inst)
    return build_schedule(inst, P, Gamma, K)


def check_reachability(inst: ProblemInstance) -> ReachabilityResult:
    """Gramian test: xi is attainable from x0 iff xi minus the pure drift
    terminal state lies in the range of

        G1 = sum_k T(k) T(k)',   T(k) = [A(N)...A(k+1)] B(k)

    decided by the residual of a minimum-norm solve against the relative
    range tolerance. Returns the minimum-norm certificate zeta when
    reachable.

    One backward sweep over k = N..0 carries M = A(N)...A(k+1): T(k) = M B(k)
    fills a column block of C = [T(0) ... T(N)], then M <- M A(k). So
    G1 = C C', the final M is the full drift A(N)...A(0), and the cost is
    linear in N. Raises NonFiniteState when the products overflow.
    """
    N, n, m = inst.N, inst.n, inst.m
    C = np.empty((n, m * (N + 1)))
    M = np.eye(n)
    # an overflow is reported as NonFiniteState, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N, -1, -1):
            C[:, k * m:(k + 1) * m] = M @ inst.B[k]
            M = M @ inst.A[k]
        G1 = sym(C @ C.T)
        rhs = inst.xi - M @ inst.x0
    if not (np.isfinite(G1).all() and np.isfinite(rhs).all()):
        raise NonFiniteState(f"reachability Gramian or drift term is non-finite at N={N}")
    zeta, resid, _ = min_norm_solve(G1, rhs)
    reachable = resid <= range_tol(inst.xi)
    return ReachabilityResult(reachable=reachable, G1=ro(G1),
                              zeta=ro(zeta) if reachable else None)


def solve_lambda(sched: ModelSchedule, inst: ProblemInstance) -> LambdaSolution:
    """Minimum-norm multiplier from Phi(0,N) x0 - G(0) lambda = xi.

    Raises NotReachable when the residual exceeds the range tolerance
    (callers should consult check_reachability for the certificate).
    """
    rhs = sched.Phi[0] @ inst.x0 - inst.xi
    lam, resid, rank = min_norm_solve(sched.G[0], rhs)
    if resid > range_tol(inst.xi):
        raise NotReachable(
            f"multiplier equation residual {resid:.6e} exceeds tolerance "
            f"{range_tol(inst.xi):.6e}")
    return LambdaSolution(lambda_star=ro(lam), residual=resid, min_norm=rank < inst.n)


def optimal_policy(sched: ModelSchedule, lam: Array) -> Callable[[int, Array], Array]:
    """The closed control law u(k) = K(k) x + K1(k) lambda as a
    (stage, state) -> input callable; raises StageOutOfRange outside 0..N."""
    def policy(k: int, x: Array) -> Array:
        if not 0 <= k < len(sched.K):
            raise StageOutOfRange(f"stage {k} outside 0..{len(sched.K) - 1}")
        return sched.K[k] @ x + sched.K1[k] @ lam
    return policy


def rollout(inst: ProblemInstance, policy: Callable[[int, Array], Array]) -> Trajectory:
    """Simulate x(k+1) = A(k) x(k) + B(k) u(k) under the policy, accumulate
    the quadratic cost, and record the terminal miss against xi. Raises
    NonFiniteState when a state or the cost overflows."""
    x = np.array(inst.x0, dtype=float)
    states = [ro(x)]
    inputs: list[Array] = []
    cost = 0.0
    # an overflow is reported as NonFiniteState, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(inst.N + 1):
            u = np.atleast_1d(np.asarray(policy(k, x), dtype=float))
            cost += float(x @ inst.Q @ x + u @ inst.R @ u)
            x = inst.A[k] @ x + inst.B[k] @ u
            if not np.isfinite(x).all():
                raise NonFiniteState(f"state at stage {k + 1} is non-finite")
            inputs.append(ro(u))
            states.append(ro(x))
        cost += float(x @ inst.H @ x)
    if not np.isfinite(cost):
        raise NonFiniteState("rollout cost is non-finite")
    terminal_error = float(np.abs(x - inst.xi).max())
    return Trajectory(states=tuple(states), inputs=tuple(inputs),
                      cost=cost, terminal_error=terminal_error)
