"""Small shared numerical kernels, the one owner of every numerical verdict
(definiteness, rank cutoff, range test), and a block-tridiagonal solve."""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .errors import NonFiniteState

Array = npt.NDArray[np.float64]

# eigenvalue slack for definiteness tests, scaled by the matrix magnitude
PSD_TOL = 1e-9
# singular values below max(shape) * sigma_max * RANK_RTOL count as zero
RANK_RTOL = 1e-12


def sym(M: Array) -> Array:
    # (M + M') / 2, guards asymmetric drift from accumulated roundoff
    return (M + M.T) / 2.0


def ro(a) -> Array:
    """Contiguous float64 copy with the write flag cleared."""
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def min_eigenvalue(M: Array) -> float:
    # M is symmetric (sym output, or checked as such): eigvalsh reads one triangle
    return float(np.linalg.eigvalsh(M)[0])


def _scaled_tol(M: Array) -> float:
    scale = float(np.abs(M).max()) if M.size else 0.0
    return PSD_TOL * scale


def is_psd(M: Array) -> tuple[bool, float]:
    """(verdict, smallest eigenvalue) for the positive semi-definite test."""
    lo = min_eigenvalue(M)
    return lo >= -_scaled_tol(M), lo


def is_pd(M: Array) -> tuple[bool, float]:
    """(verdict, smallest eigenvalue) for the positive definite test."""
    lo = min_eigenvalue(M)
    return lo > _scaled_tol(M), lo


def rank_cutoff(M: Array, s: Array, scale: float = 0.0) -> float:
    # singular values s of M up to this count as zero; scale floors sigma_max
    smax = float(s[0]) if s.size else 0.0
    return max(M.shape) * max(smax, float(scale)) * RANK_RTOL


def min_norm_solve(M: Array, rhs: Array, scale: float = 0.0) -> tuple[Array, float, int]:
    """Minimum-norm least-squares solution of M y = rhs.

    Returns (y, residual 2-norm, numerical rank of M). Uses the singular
    value decomposition with the shared rank cutoff. A positive scale widens
    the cutoff reference beyond sigma_max: callers whose M carries noise
    from an earlier computation pass that computation's magnitude so a
    numerically-zero M keeps rank 0 instead of inverting its own noise.
    """
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = s > rank_cutoff(M, s, scale)
    rank = int(keep.sum())
    coeff = np.zeros_like(s)
    coeff[keep] = (U.T @ rhs)[keep] / s[keep]
    y = Vt.T @ coeff
    resid = float(np.linalg.norm(M @ y - rhs))
    return y, resid, rank


def range_solve(M: Array, rhs: Array, ref: Array, what: str,
                scale: float = 0.0) -> tuple[Array, float, int, str | None]:
    """The one range test: min_norm_solve(M, rhs, scale) with its residual
    judged against range_tol(ref). Returns (y, residual, rank, miss): miss
    is None when rhs is in range, else "residual R exceeds tolerance T" for
    the caller to raise in its own class. Raises NonFiniteState naming the
    equation `what` when the residual or the tolerance overflows: never a
    verdict."""
    y, resid, rank = min_norm_solve(M, rhs, scale)
    tol = range_tol(ref)
    if not (np.isfinite(resid) and np.isfinite(tol)):
        raise NonFiniteState(f"{what} range test overflows: residual {resid:.6e}, "
                             f"tolerance {tol:.6e}")
    miss = None if resid <= tol else f"residual {resid:.6e} exceeds tolerance {tol:.6e}"
    return y, resid, rank, miss


def block_tridiagonal_solve(diag: Array, sub: Array, rhs: Array) -> Array:
    """Solve T z = rhs for a block-tridiagonal T whose upper blocks are the
    transposes of its lower ones, by one forward block elimination.

    diag (K, s, s) holds the diagonal blocks T(k,k), sub (K-1, s, s) the
    blocks T(k+1,k) below them, and rhs (K, s, r) the right-hand sides;
    returns z with the shape of rhs. The sweep runs k = 0..K-1: each Schur
    complement S(k) = T(k,k) - T(k,k-1) W(k-1) is solved once against
    [T(k,k+1), y(k)], and back-substitution reuses those stored solves W(k).
    Raises numpy.linalg.LinAlgError when some S(k) is singular.
    """
    K, s, _ = diag.shape
    right = np.zeros((K, s, s + rhs.shape[2]))
    right[:-1, :, :s] = np.swapaxes(sub, 1, 2)
    right[:, :, s:] = rhs
    W = np.empty_like(right)
    W[0] = np.linalg.solve(diag[0], right[0])
    for k in range(1, K):
        carry = sub[k - 1] @ W[k - 1]
        right[k, :, s:] -= carry[:, s:]
        W[k] = np.linalg.solve(diag[k] - carry[:, :s], right[k])
    z = np.empty_like(rhs, dtype=float)
    z[-1] = W[-1, :, s:]
    for k in range(K - 2, -1, -1):
        z[k] = W[k, :, s:] - W[k, :, :s] @ z[k + 1]
    return z


def range_tol(xi: Array) -> float:
    # relative residual test, robust to target scale
    return 1e-6 * max(1.0, float(np.linalg.norm(xi)))
