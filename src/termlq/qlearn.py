"""Model-free recovery of the terminal-constrained LQ controller.

The learner never reads the plant matrices. Per stage it probes the plant
with a batch of Gaussian (state, input, multiplier) triples, observes the
one-step transitions through a TransitionOracle, and fits the stage kernel
Lambda(k) of the quadratic form

    q(x, u, lam) = z' Lambda(k) z,   z = (x, u, lambda)

by linear least squares on the packed upper triangle: one square system
per stage, whose singular values give the rank verdict and the condition
number and whose LU solve gives the coefficients. Feedback and
feedforward gains, the value kernels P(k), the closed-loop products
Phi(k,N), the Gramian G(k), and finally the multiplier lambda* all come out
of the fitted blocks; the backward pass carries only learned quantities.

A stage's probes, and so its regressor and the singular values of its
square system, do not depend on the backward pass: only the targets do.
The learner therefore draws the probes and factors the regressors for a
block of consecutive stages at a time, in stacked numpy calls, and keeps
per stage only what the pass carries: one oracle batch, the targets, the
rank verdict, one LU solve and the extraction, stage by stage from N down
to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    InsufficientSamples,
    NonFiniteState,
    NotReachable,
    OracleMiss,
    RankDeficient,
    SingularBlock,
)
from .linalg import Array, is_pd, range_solve, rank_cutoff, ro, sym
from .model import ProblemInstance, optimal_policy

# fitted residuals above this fraction of ||gamma|| get flagged
RESIDUAL_WARN_RTOL = 1e-6
# regressor bytes of one block of stages: learn factors max(1, BLOCK_BYTES //
# (8 l p)) stages per stacked call, so the stack stays small at wide dims
BLOCK_BYTES = 256 * 1024


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
    """Probe distribution: every entry of the x, u and multiplier probes is
    mean + sqrt(covariance_scale) times an independent standard normal.
    Raises ValueError unless both values are finite and the scale is
    positive."""

    mean: float = 0.0
    covariance_scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.covariance_scale)):
            raise ValueError("mean and covariance_scale must be finite")
        if self.covariance_scale <= 0:
            raise ValueError("covariance_scale must be positive")


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


def draw_probes(ks, l: int, n: int, m: int, dist: GaussianSpec,
                seed: int) -> tuple[Array, Array, Array]:
    """Draw l i.i.d. Gaussian (x, u, lam) probes for each stage of ks, for
    an n-state, m-input plant.

    Returns the stacks X (len(ks), l, n), U (len(ks), l, m) and
    L (len(ks), l, n), the stages on the leading axis in the order of ks.
    Deterministic given (seed, k): each stage draws x, then u, then lam from
    its own substream SeedSequence((seed, k)), so a stage's probes do not
    depend on the stages drawn with it.
    """
    Zx, Zu, Zl = np.empty((len(ks), l, n)), np.empty((len(ks), l, m)), np.empty((len(ks), l, n))
    for i, k in enumerate(ks):
        # what default_rng builds from the SeedSequence, without its checks
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(k)))))
        for Z in (Zx, Zu, Zl):
            rng.standard_normal(out=Z[i])
    std = float(np.sqrt(dist.covariance_scale))
    return dist.mean + std * Zx, dist.mean + std * Zu, dist.mean + std * Zl


def sample_stage_data(oracle: TransitionOracle, k: int, X: Array, U: Array,
                      L: Array) -> StageDataset:
    """Record the oracle's one-step answers to the probes (X, U, L) of stage
    k, one batch query."""
    Xn = np.asarray(oracle.step(k, X, U), dtype=float)
    if Xn.shape != X.shape:
        raise ValueError(f"oracle answered shape {Xn.shape} for {X.shape} probe states")
    return StageDataset(k=int(k), X=ro(X), U=ro(U), L=ro(L), Xn=ro(Xn))


@lru_cache(maxsize=16)
def _upper_triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle of a d x d matrix in
    row-major order, as np.triu_indices gives them, read-only. Cached: every
    stage of every learn packs and unpacks with the same few d."""
    iu = np.triu_indices(d)
    for index in iu:
        index.setflags(write=False)
    return iu


def regressor_matrix(Z: Array) -> Array:
    """Regressor rows for an (l, d) block of probes, or for each block of an
    (..., l, d) stack: row r is the upper triangle of z z' for z = Z[r] in
    row-major order, diagonal entries z_j^2 and off-diagonal entries
    2 z_i z_j, so that row . nu = z' Lambda z when nu packs Lambda's upper
    triangle entrywise."""
    i, j = _upper_triangle(Z.shape[-1])
    Ups = Z[..., i] * Z[..., j]
    Ups *= np.where(i == j, 1.0, 2.0)
    return Ups


def pack_symmetric(M: Array) -> Array:
    """Row-major upper-triangle vectorization of a symmetric matrix, or of
    each matrix of a stack along the last two axes."""
    M = np.asarray(M, dtype=float)
    i, j = _upper_triangle(M.shape[-1])
    return M[..., i, j]


def unpack_symmetric(v: Array, d: int) -> Array:
    """Inverse of pack_symmetric: expand a packed vector to the full
    symmetric matrix."""
    out = np.zeros((d, d))
    iu = _upper_triangle(d)
    out[iu] = v
    out.T[iu] = v
    return out


@dataclass(frozen=True)
class StageSystems:
    """The part of the stage fits that needs no targets, for one stage or
    for a block of stages on the leading axis.

    Ups (..., l, p) holds the regressors. M holds the systems the fits
    solve: Ups itself up to the threshold l = p, above it the reduced QR
    factor R (..., p, p), with Qr (..., l, p) carrying the targets to it
    (None up to the threshold). s holds the singular values of M, which are
    those of Ups. Indexing gives one stage's systems.
    """

    Ups: Array
    M: Array
    Qr: Array | None
    s: Array

    def __getitem__(self, i: int) -> StageSystems:
        return StageSystems(self.Ups[i], self.M[i], None if self.Qr is None else self.Qr[i],
                            self.s[i])


def stage_systems(X: Array, U: Array, L: Array) -> StageSystems:
    """Regressors, their reduction to square systems and the singular values
    for probes (X, U, L) of one stage or stacks of them: one stacked call
    each for the regressors, the QR reduction (above the threshold) and the
    singular values. Raises NonFiniteState, before any LAPACK call, when a
    regressor entry is not finite."""
    Ups = regressor_matrix(np.concatenate([X, U, L], axis=-1))
    if not np.isfinite(Ups).all():
        raise NonFiniteState("probe regressors are non-finite: the probes overflow when squared")
    M, Qr = Ups, None
    if Ups.shape[-2] > Ups.shape[-1]:
        Qr, M = np.linalg.qr(Ups)
    return StageSystems(Ups=Ups, M=M, Qr=Qr, s=np.linalg.svd(M, compute_uv=False))


@dataclass(frozen=True)
class FitDiagnostics:
    """Per-stage fit health, one entry per stage 0..N: the residual 2-norm,
    the regressor condition number, and the flag for a residual above
    RESIDUAL_WARN_RTOL times the target norm."""

    residual: Array
    cond: Array
    high_residual: Array


@dataclass(frozen=True)
class LearnedSchedule:
    """Model-free counterpart of ModelSchedule, each per-stage quantity a
    read-only array with the stage on its leading axis.

    Lambda (N+1, 2n+m, 2n+m) holds the fitted kernels in the (x, u, lambda)
    layout, K and K1 (N+1, m, n) the gains. P, Phi and G (N+2, n, n) end
    with the learner-known boundary values P(N+1) = H, Phi(N+1,N) = I and
    G(N+1) = 0, so the two schedules compare index for index.
    """

    Lambda: Array
    K: Array
    K1: Array
    P: Array
    Phi: Array
    G: Array
    lambda_star: Array
    fit_diagnostics: FitDiagnostics


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


def fit_stage(ds: StageDataset, system: StageSystems, gamma: Array) -> tuple[Array, float, float]:
    """Least-squares fit of the packed kernel coefficients.

    Solves argmin ||Ups nu - gamma||_2 through the stage's square p x p
    system of stage_systems, p = sample_threshold(n, m): Ups itself at the
    threshold, or above it the reduced QR factor R of Ups against Q' gamma,
    which has the same singular values and the same least-squares solution.
    The singular values give the rank at the shared cutoff and the
    regressor condition number; an LU solve then gives nu (never the normal
    equations). Returns (Lambda(k), residual 2-norm ||Ups nu - gamma||,
    regressor condition number), with nu unpacked into the symmetric
    Lambda(k). Raises RankDeficient, before any solve, when Ups loses column
    rank at the shared cutoff; short systems (l < p) always do.
    """
    n, m = ds.X.shape[1], ds.U.shape[1]
    need = sample_threshold(n, m)
    s = system.s
    rank = int((s > rank_cutoff(system.Ups, s)).sum())
    cond = float(s[0] / s[-1]) if s[-1] > 0 else float("inf")
    if rank < need:
        raise RankDeficient(
            f"stage {ds.k} regressor rank {rank} < {need}",
            rank=rank, cond=cond)
    b = gamma if system.Qr is None else system.Qr.T @ gamma
    nu = np.linalg.solve(system.M, b)
    residual = float(np.linalg.norm(system.Ups @ nu - gamma))
    return unpack_symmetric(nu, 2 * n + m), residual, cond


def extract_stage(k: int, Lam: Array,
                  G_next: Array) -> tuple[Array, Array, Array, Array, Array]:
    """Controller pieces (K, K1, P, Phi_row, G) from the fitted kernel
    Lambda(k) of stage k.

    With the blocks L11..L33 of Lambda(k) in the (x, u, lambda) layout:
    K = -L22^-1 L21, K1 = -L22^-1 L32', P = L11 - L21' L22^-1 L21,
    Phi_row = L31 - L32 L22^-1 L21 (the row Phi(k,N) of the closed-loop
    table), G = G_next + L32 L22^-1 L32'. At the terminal stage G_next = 0.
    Raises SingularBlock when L22 fails the positive-definite test, or
    NonFiniteState when it fails because the fit overflowed.
    """
    n, d = G_next.shape[0], Lam.shape[0]
    u, lam = slice(n, d - n), slice(d - n, d)
    L11, L21, L22 = Lam[:n, :n], Lam[u, :n], Lam[u, u]
    L31, L32 = Lam[lam, :n], Lam[lam, u]
    L22 = sym(L22)
    ok, lo = is_pd(L22)
    if not ok:
        if not np.isfinite(L22).all():
            raise NonFiniteState(f"stage {k} fitted kernel is non-finite")
        raise SingularBlock(f"stage {k} input block has eigenvalue {lo:.6e}")
    W21 = np.linalg.solve(L22, L21)
    W32 = np.linalg.solve(L22, L32.T)
    P = sym(L11 - L21.T @ W21)
    Phi_row = L31 - L32 @ W21
    G = sym(np.asarray(G_next, dtype=float) + L32 @ W32)
    return -W21, -W32, P, Phi_row, G


def learn(oracle: TransitionOracle, dims: tuple[int, int, int],
          cost: tuple[Array, Array, Array], x0: Array, xi: Array, l: int,
          dist: GaussianSpec | None, seed: int) -> LearnedSchedule:
    """Full model-free pipeline over stages N..0.

    Every stage is fitted from the targets of stage_targets: the terminal
    stage from the boundary values, every interior stage from the previously
    extracted P, Phi, G (never the plant matrices). The probes and the
    stage systems come per block of stages (BLOCK_BYTES); the oracle answers
    one batch per stage, in stage order. Raises InsufficientSamples before
    any oracle query when l is below the identifiability threshold. The
    multiplier solves the stage-0 block equation

        [-L33(0) - L32(0) K1(0)] lambda = Phi(0,N) x0 - xi

    by the minimum-norm pseudoinverse. Raises NotReachable on a range miss,
    or NonFiniteState when the solve overflows.
    """
    n, m, N = dims
    Q, R, H = (np.asarray(W, dtype=float) for W in cost)
    x0 = np.asarray(x0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if dist is None:
        dist = GaussianSpec()

    p = sample_threshold(n, m)
    if l < p:
        raise InsufficientSamples(f"l={l} below the identifiability threshold {p}")
    width = max(1, BLOCK_BYTES // (8 * l * p))

    d = 2 * n + m
    Lambda = np.empty((N + 1, d, d))
    residual, cond, gamma_norm = np.empty(N + 1), np.empty(N + 1), np.empty(N + 1)
    K, K1 = np.empty((N + 1, m, n)), np.empty((N + 1, m, n))
    P, Phi, G = np.empty((N + 2, n, n)), np.empty((N + 2, n, n)), np.empty((N + 2, n, n))
    P[N + 1] = sym(H)
    Phi[N + 1] = np.eye(n)
    G[N + 1] = 0.0

    for top in range(N, -1, -width):
        ks = range(top, max(top - width, -1), -1)
        X, U, L = draw_probes(ks, l, n, m, dist, seed)
        systems = stage_systems(X, U, L)
        for i, k in enumerate(ks):
            ds = sample_stage_data(oracle, k, X[i], U[i], L[i])
            # the terminal target takes H as given, not its symmetric part
            # P(N+1): the two round differently in the targets
            P_next = H if k == N else P[k + 1]
            gamma = stage_targets(ds, Q, R, P_next, Phi[k + 1], G[k + 1])
            Lambda[k], residual[k], cond[k] = fit_stage(ds, systems[i], gamma)
            gamma_norm[k] = np.linalg.norm(gamma)
            K[k], K1[k], P[k], Phi[k], G[k] = extract_stage(k, Lambda[k], G_next=G[k + 1])

    L32, L33 = Lambda[0, n + m:, n:n + m], Lambda[0, n + m:, n + m:]
    M = sym(-L33 - L32 @ K1[0])
    # rank the multiplier system against the fitted kernel magnitude: fit
    # noise in a numerically zero G(0) must not pass for invertible
    kernel_scale = float(np.abs(Lambda[0]).max())
    lam, _, _, miss = range_solve(M, Phi[0] @ x0 - xi, xi, "learned multiplier equation",
                                  scale=kernel_scale)
    if miss is not None:
        raise NotReachable(f"learned multiplier equation {miss}")

    diagnostics = FitDiagnostics(residual=ro(residual), cond=ro(cond),
                                 high_residual=ro(residual > RESIDUAL_WARN_RTOL * gamma_norm))
    return LearnedSchedule(Lambda=ro(Lambda), K=ro(K), K1=ro(K1), P=ro(P), Phi=ro(Phi),
                           G=ro(G), lambda_star=ro(lam), fit_diagnostics=diagnostics)


def learned_policy(ls: LearnedSchedule) -> Callable[[int, Array], Array]:
    """Control law (stage, state) -> input from a learned schedule: the
    optimal_policy of its gains and multiplier."""
    return optimal_policy(ls, ls.lambda_star)
