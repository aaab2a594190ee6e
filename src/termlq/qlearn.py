"""Model-free recovery of the terminal-constrained LQ controller.

The learner never reads the plant matrices. Per stage it probes the plant
with a batch of Gaussian (state, input, multiplier) triples, observes the
one-step transitions through a TransitionOracle, and fits the stage kernel
Lambda(k) of the quadratic form

    q(x, u, lam) = z' Lambda(k) z,   z = (x, u, lambda)

by linear least squares on the packed upper triangle. Feedback and
feedforward gains, the value kernels P(k), the closed-loop products
Phi(k,N), the Gramian G(k), and finally the multiplier lambda* all come out
of the fitted blocks; the backward pass carries only learned quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, NotReachable, OracleMiss, RankDeficient, SingularBlock
from .linalg import Array, RANK_RTOL, is_pd, min_norm_solve, range_tol, ro, sym
from .model import ProblemInstance

# fitted residuals above this fraction of ||gamma|| get flagged
RESIDUAL_WARN_RTOL = 1e-6


class TransitionOracle:
    """One-step plant access for a batch of probes: step(k, X, U) -> Xn with
    one row per probe, Xn[i] the successor of state X[i] under input U[i] at
    stage k. Implementations hide the system matrices from the learner."""

    def step(self, k: int, X: Array, U: Array) -> Array:
        raise NotImplementedError


class SimulatedPlant(TransitionOracle):
    """Noise-free plant wrapper around a hidden instance.

    The learner receives only this object (plus dimensions, cost weights,
    x0, xi); it must not read the wrapped A/B.
    """

    def __init__(self, inst: ProblemInstance):
        self._inst = inst

    def step(self, k: int, X: Array, U: Array) -> Array:
        inst = self._inst
        if not 0 <= k <= inst.N:
            raise OracleMiss(f"stage {k} outside 0..{inst.N}")
        X = np.asarray(X, dtype=float)
        U = np.asarray(U, dtype=float)
        # stacked matrix-vector products: each row equals A(k) @ x + B(k) @ u
        # bit for bit, which a GEMM over the batch does not
        return (inst.A[k] @ X[:, :, None])[:, :, 0] + (inst.B[k] @ U[:, :, None])[:, :, 0]


class ReplayLog(TransitionOracle):
    """Serves pre-recorded transitions, held as row-aligned arrays: stage k,
    state X, input U, multiplier probe L and successor Xn, one row per
    record. Raises OracleMiss when any queried row has no record. Lookup is
    exact on (stage, state, input), the first record winning, so a learner
    re-running the recorded seed gets byte-identical answers."""

    def __init__(self, k, X: Array, U: Array, L: Array, Xn: Array):
        self.X, self.U, self.L, self.Xn = (np.asarray(a, dtype=float) for a in (X, U, L, Xn))
        self.k = np.broadcast_to(np.asarray(k, dtype=np.int64), self.X.shape[:1])
        self._rows: dict[bytes, int] = {}
        for i, key in enumerate(_row_keys(self.k, self.X, self.U)):
            self._rows.setdefault(key, i)

    def step(self, k: int, X: Array, U: Array) -> Array:
        rows = [self._rows.get(key) for key in _row_keys(np.full(len(X), k), X, U)]
        if None in rows:
            raise OracleMiss(f"no recorded transition for stage {k} with the queried (x, u)")
        return self.Xn[rows]


def _row_keys(k: Array, X: Array, U: Array) -> list[bytes]:
    # the float64 bytes of each row of [k, x, u]: exact-match lookup keys
    rows = np.column_stack([np.asarray(k, dtype=np.float64), X, U])
    return rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel().tolist()


@dataclass(frozen=True)
class GaussianSpec:
    """Probe distribution: independent Gaussian blocks for x, u and the
    multiplier probe, each mean + sqrt(covariance_scale) * standard normal."""

    x_mean: Array
    u_mean: Array
    lam_mean: Array
    covariance_scale: float = 1.0


def default_gaussian_spec(n: int, m: int, mean: float = 0.0,
                          covariance_scale: float = 1.0) -> GaussianSpec:
    """Zero-mean unit-covariance probes unless overridden."""
    if covariance_scale <= 0:
        raise ValueError("covariance_scale must be positive")
    return GaussianSpec(x_mean=ro(np.full(n, float(mean))),
                        u_mean=ro(np.full(m, float(mean))),
                        lam_mean=ro(np.full(n, float(mean))),
                        covariance_scale=float(covariance_scale))


@dataclass(frozen=True)
class StageDataset:
    """l probes at stage k as row-aligned arrays: states X (l, n), inputs
    U (l, m), multiplier probes L (l, n) and the oracle's successors
    Xn (l, n)."""

    k: int
    X: Array
    U: Array
    L: Array
    Xn: Array


def sample_threshold(n: int, m: int) -> int:
    """Least sample count with an identifiable fit: (2n+m)(2n+m+1)/2."""
    d = 2 * n + m
    return d * (d + 1) // 2


def sample_stage_data(oracle: TransitionOracle, k: int, l: int, dist: GaussianSpec,
                      seed: int) -> StageDataset:
    """Draw l i.i.d. Gaussian (x, u, lam) probes for stage k and record the
    oracle's one-step answers, one batch query per stage. Deterministic
    given (seed, k); each stage uses an independent substream."""
    n = dist.x_mean.shape[0]
    m = dist.u_mean.shape[0]
    need = sample_threshold(n, m)
    if l < need:
        raise InsufficientSamples(f"l={l} below the identifiability threshold {need}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(k))))
    std = float(np.sqrt(dist.covariance_scale))
    X = dist.x_mean + std * rng.standard_normal((l, n))
    U = dist.u_mean + std * rng.standard_normal((l, m))
    L = dist.lam_mean + std * rng.standard_normal((l, n))
    Xn = np.asarray(oracle.step(k, X, U), dtype=float)
    if Xn.shape != X.shape:
        raise ValueError(f"oracle answered shape {Xn.shape} for {X.shape} probe states")
    return StageDataset(k=int(k), X=ro(X), U=ro(U), L=ro(L), Xn=ro(Xn))


def regressor_matrix(Z: Array) -> Array:
    """Regressor rows for an (l, d) block of probes: row r is the upper
    triangle of z z' for z = Z[r] in row-major order, diagonal entries z_j^2
    and off-diagonal entries 2 z_i z_j, so that row . nu = z' Lambda z when
    nu packs Lambda's upper triangle entrywise."""
    l, d = Z.shape
    iu = np.triu_indices(d)
    prods = Z[:, :, None] * Z[:, None, :]
    scale = np.full((d, d), 2.0)
    np.fill_diagonal(scale, 1.0)
    return (prods * scale)[:, iu[0], iu[1]]


def pack_symmetric(M: Array) -> Array:
    """Row-major upper-triangle vectorization of a symmetric matrix."""
    M = np.asarray(M, dtype=float)
    return M[np.triu_indices(M.shape[0])]


def unpack_symmetric(v: Array, d: int) -> Array:
    """Inverse of pack_symmetric: expand a packed vector to the full
    symmetric matrix."""
    out = np.zeros((d, d))
    iu = np.triu_indices(d)
    out[iu] = v
    out.T[iu] = v
    return out


@dataclass(frozen=True)
class QMatrix:
    """Fitted stage kernel Lambda(k), symmetric (2n+m) x (2n+m), with block
    views in the (x, u, lambda) layout."""

    k: int
    n: int
    m: int
    Lambda: Array

    @property
    def L11(self) -> Array:
        n = self.n
        return self.Lambda[:n, :n]

    @property
    def L21(self) -> Array:
        n, m = self.n, self.m
        return self.Lambda[n:n + m, :n]

    @property
    def L22(self) -> Array:
        n, m = self.n, self.m
        return self.Lambda[n:n + m, n:n + m]

    @property
    def L31(self) -> Array:
        n, m = self.n, self.m
        return self.Lambda[n + m:, :n]

    @property
    def L32(self) -> Array:
        n, m = self.n, self.m
        return self.Lambda[n + m:, n:n + m]

    @property
    def L33(self) -> Array:
        n, m = self.n, self.m
        return self.Lambda[n + m:, n + m:]

    @property
    def nu(self) -> Array:
        return pack_symmetric(self.Lambda)


@dataclass(frozen=True)
class FitDiagnostics:
    """Residual 2-norm and regressor condition number of one stage fit."""

    residual: float
    cond: float
    high_residual: bool


@dataclass(frozen=True)
class StageExtract:
    """Per-stage quantities recovered from a fitted kernel."""

    K: Array
    K1: Array
    P: Array
    Phi_row: Array
    G: Array


@dataclass(frozen=True)
class LearnedSchedule:
    """Model-free counterpart of ModelSchedule.

    P, Phi, G are padded to the model shape with the learner-known boundary
    values P(N+1)=H, Phi(N+1,N)=I, G(N+1)=0 so the two schedules compare
    index for index.
    """

    qmatrices: tuple[QMatrix, ...]
    K: tuple[Array, ...]
    K1: tuple[Array, ...]
    P: tuple[Array, ...]
    Phi: tuple[Array, ...]
    G: tuple[Array, ...]
    lambda_star: Array
    fit_diagnostics: tuple[FitDiagnostics, ...]


def stage_targets(ds: StageDataset, Q: Array, R: Array, P_next: Array,
                  Phi_next: Array, G_next: Array) -> Array:
    """Regression targets gamma for one stage, one Bellman target for all:

        gamma = x'Qx + u'Ru + x+'P(k+1)x+ + 2 x+'Phi(k+1,N)'lam - lam'G(k+1)lam

    with the fitted quantities of stage k+1, or at the terminal stage the
    boundary values P(N+1) = H, Phi(N+1,N) = I and G(N+1) = 0.
    """
    X, U, L, Xn = ds.X, ds.U, ds.L, ds.Xn
    gamma = np.einsum("ij,jk,ik->i", X, Q, X) + np.einsum("ij,jk,ik->i", U, R, U)
    gamma = gamma + np.einsum("ij,jk,ik->i", Xn, P_next, Xn)
    gamma = gamma + 2.0 * np.einsum("ij,ij->i", Xn @ Phi_next.T, L)
    return gamma - np.einsum("ij,jk,ik->i", L, G_next, L)


def fit_stage(ds: StageDataset, gamma: Array) -> tuple[QMatrix, FitDiagnostics]:
    """Least-squares fit of the packed kernel coefficients.

    Solves argmin ||Ups nu - gamma||_2 by singular value decomposition (not
    the normal equations), unpacks nu into the symmetric Lambda(k), and
    reports the residual and the regressor condition number. Raises
    RankDeficient when Ups loses column rank at the shared cutoff.
    """
    n, m = ds.X.shape[1], ds.U.shape[1]
    need = sample_threshold(n, m)
    Ups = regressor_matrix(np.hstack([ds.X, ds.U, ds.L]))
    rcond = max(Ups.shape) * RANK_RTOL
    nu, _, rank, sv = np.linalg.lstsq(Ups, gamma, rcond=rcond)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    if rank < need:
        raise RankDeficient(
            f"stage {ds.k} regressor rank {rank} < {need}",
            rank=int(rank), cond=cond)
    residual = float(np.linalg.norm(Ups @ nu - gamma))
    warn = residual > RESIDUAL_WARN_RTOL * float(np.linalg.norm(gamma))
    qm = QMatrix(k=ds.k, n=n, m=m, Lambda=ro(unpack_symmetric(nu, 2 * n + m)))
    return qm, FitDiagnostics(residual=residual, cond=cond, high_residual=bool(warn))


def extract_stage(qm: QMatrix, G_next: Array) -> StageExtract:
    """Controller pieces from one fitted kernel.

    K = -L22^-1 L21, K1 = -L22^-1 L32', P = L11 - L21' L22^-1 L21,
    Phi_row = L31 - L32 L22^-1 L21 (the row Phi(k,N) of the closed-loop
    table), G = G_next + L32 L22^-1 L32'. At the terminal stage G_next = 0.
    """
    ok, lo = is_pd(sym(qm.L22))
    if not ok:
        raise SingularBlock(f"stage {qm.k} input block has eigenvalue {lo:.6e}")
    L22 = sym(qm.L22)
    W21 = np.linalg.solve(L22, qm.L21)
    W32 = np.linalg.solve(L22, qm.L32.T)
    K = -W21
    K1 = -W32
    P = sym(qm.L11 - qm.L21.T @ W21)
    Phi_row = qm.L31 - qm.L32 @ W21
    G = sym(np.asarray(G_next, dtype=float) + qm.L32 @ W32)
    return StageExtract(K=ro(K), K1=ro(K1), P=ro(P), Phi_row=ro(Phi_row), G=ro(G))


def learn(oracle: TransitionOracle, dims: tuple[int, int, int],
          cost: tuple[Array, Array, Array], x0: Array, xi: Array, l: int,
          dist: GaussianSpec | None, seed: int) -> LearnedSchedule:
    """Full model-free pipeline over stages N..0.

    Every stage is fitted from the targets of stage_targets: the terminal
    stage from the boundary values, every interior stage from the previously
    extracted P, Phi, G (never the plant matrices). The multiplier solves the
    stage-0 block equation

        [-L33(0) - L32(0) K1(0)] lambda = Phi(0,N) x0 - xi

    by the minimum-norm pseudoinverse. Raises NotReachable when that system
    is inconsistent beyond the range tolerance.
    """
    n, m, N = dims
    Q, R, H = (np.asarray(W, dtype=float) for W in cost)
    x0 = np.asarray(x0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if dist is None:
        dist = default_gaussian_spec(n, m)
    if dist.x_mean.shape != (n,) or dist.u_mean.shape != (m,):
        raise ValueError("probe distribution dimensions do not match dims")

    qms: list[QMatrix] = [None] * (N + 1)  # type: ignore[list-item]
    diags: list[FitDiagnostics] = [None] * (N + 1)  # type: ignore[list-item]
    K: list[Array] = [None] * (N + 1)  # type: ignore[list-item]
    K1: list[Array] = [None] * (N + 1)  # type: ignore[list-item]
    P: list[Array] = [None] * (N + 2)  # type: ignore[list-item]
    Phi: list[Array] = [None] * (N + 2)  # type: ignore[list-item]
    G: list[Array] = [None] * (N + 2)  # type: ignore[list-item]
    P[N + 1] = ro(sym(H))
    Phi[N + 1] = ro(np.eye(n))
    G[N + 1] = ro(np.zeros((n, n)))

    for k in range(N, -1, -1):
        ds = sample_stage_data(oracle, k, l, dist, seed)
        # the terminal target takes H as given, not its symmetric part P(N+1):
        # the two round differently in the targets
        P_next = H if k == N else P[k + 1]
        gamma = stage_targets(ds, Q, R, P_next, Phi[k + 1], G[k + 1])
        qm, diags[k] = fit_stage(ds, gamma)
        ex = extract_stage(qm, G_next=G[k + 1])
        qms[k], K[k], K1[k] = qm, ex.K, ex.K1
        P[k], Phi[k], G[k] = ex.P, ex.Phi_row, ex.G

    qm0 = qms[0]
    M = sym(-qm0.L33 - qm0.L32 @ K1[0])
    # rank the multiplier system against the fitted kernel magnitude: fit
    # noise in a numerically zero G(0) must not pass for invertible
    kernel_scale = float(np.abs(qm0.Lambda).max())
    lam, resid, _ = min_norm_solve(M, Phi[0] @ x0 - xi, scale=kernel_scale)
    if resid > range_tol(xi):
        raise NotReachable(
            f"learned multiplier equation residual {resid:.6e} exceeds "
            f"tolerance {range_tol(xi):.6e}")

    return LearnedSchedule(qmatrices=tuple(qms), K=tuple(K), K1=tuple(K1),
                           P=tuple(P), Phi=tuple(Phi), G=tuple(G),
                           lambda_star=ro(lam), fit_diagnostics=tuple(diags))


def learned_policy(ls: LearnedSchedule):
    """Control law (stage, state) -> input from a learned schedule."""
    def policy(k: int, x: Array) -> Array:
        return ls.K[k] @ x + ls.K1[k] @ ls.lambda_star
    return policy
