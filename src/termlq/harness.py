"""Independent verification: a stacked KKT quadratic-program oracle, solution
comparison, and Monte Carlo campaigns over random instances.

The oracle never touches the Riccati machinery. It eliminates states by
forward substitution, writes the cost as a dense quadratic in the stacked
input vector, and solves the equality-constrained program by one KKT linear
system. Agreement between the two paths certifies both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConstraint, SingularKkt, TermLqError, ValidationError
from .linalg import Array, range_tol, rank_cutoff, ro, sym
from .model import (
    LambdaSolution,
    ModelSchedule,
    ProblemInstance,
    Trajectory,
    check_reachability,
    drift_product,
    make_instance,
    optimal_policy,
    require_valid,
    rollout,
    solve_lambda,
    solve_schedule,
)
from .qlearn import (
    LearnedSchedule,
    SimulatedPlant,
    default_gaussian_spec,
    learn,
    learned_policy,
    sample_threshold,
)


@dataclass(frozen=True)
class KktSolution:
    """Stacked optimum: inputs u(0)..u(N) concatenated, the terminal
    constraint multiplier, the optimal cost, and the max KKT residual
    (stationarity and constraint, infinity norm)."""

    u_stacked: Array
    multiplier: Array
    cost: float
    kkt_residual: float


@dataclass(frozen=True)
class ComparisonReport:
    """Cross-path error summary. terminal_errors holds (model, learned)
    rollout misses; with no learned schedule the learned slots collapse to
    the model values and per_stage_condition is empty. model_trajectory and
    oracle are the model rollout and the KKT solution the summary compares,
    so callers need not recompute them."""

    max_gain_error: float
    lambda_error: float
    cost_gap: float
    terminal_errors: tuple[float, float]
    per_stage_condition: tuple[float, ...]
    model_trajectory: Trajectory
    oracle: KktSolution


@dataclass(frozen=True)
class ErrorStats:
    max: float
    median: float
    p95: float


@dataclass(frozen=True)
class CampaignSpec:
    """Monte Carlo configuration. samples=None uses the identifiability
    threshold for each drawn dimension pair; dims are drawn uniformly from
    the inclusive ranges."""

    count: int
    seed: int
    n_range: tuple[int, int] = (1, 4)
    m_range: tuple[int, int] = (1, 2)
    N_range: tuple[int, int] = (0, 8)
    samples: int | None = None


@dataclass(frozen=True)
class CampaignSummary:
    trials: int
    completed: int
    failures: int
    gain_error: ErrorStats
    lambda_error: ErrorStats
    cost_gap: ErrorStats
    terminal_error: ErrorStats


def stacked_operators(inst: ProblemInstance) -> tuple[list[Array], list[Array]]:
    """Forward-substitution maps: x(k) = C(k) u_stacked + D(k) x0.

    C(k) is n x m(N+1) with block j equal to A(k-1)...A(j+1) B(j) for j < k;
    D(k) is the pure drift product. Index k runs 0..N+1.
    """
    N, n, m = inst.N, inst.n, inst.m
    width = m * (N + 1)
    C = [np.zeros((n, width)) for _ in range(N + 2)]
    D = [drift_product(inst, 0, k) for k in range(N + 2)]
    for k in range(1, N + 2):
        for j in range(k):
            C[k][:, j * m:(j + 1) * m] = drift_product(inst, j + 1, k) @ inst.B[j]
    return C, D


def kkt_oracle(inst: ProblemInstance) -> KktSolution:
    """Equality-constrained QP solve over the stacked input vector.

    Cost: u'H0 u + 2 c0'u + J0 after eliminating states; constraint:
    C u = xi - D x0 with C, D the stage-(N+1) stacked operators. Feasibility
    is decided here from the constraint block itself: the target offset must
    lie in the range of C within the shared range tolerance. The Gramian test
    in check_reachability decides membership in the same subspace through a
    different matrix, so the two verdicts cross-validate each other. The
    constraint block is row-compressed by singular value decomposition, which
    handles rank-deficient constraints; the multiplier returns in the
    original constraint coordinates.
    """
    require_valid(inst)
    N, n, m = inst.N, inst.n, inst.m
    width = m * (N + 1)
    C, D = stacked_operators(inst)
    H0 = np.zeros((width, width))
    c0 = np.zeros(width)
    J0 = 0.0
    for k in range(N + 1):
        dk = D[k] @ inst.x0
        H0 += C[k].T @ inst.Q @ C[k]
        c0 += C[k].T @ inst.Q @ dk
        J0 += float(dk @ inst.Q @ dk)
        H0[k * m:(k + 1) * m, k * m:(k + 1) * m] += inst.R
    dT = D[N + 1] @ inst.x0
    H0 += C[N + 1].T @ inst.H @ C[N + 1]
    c0 += C[N + 1].T @ inst.H @ dT
    J0 += float(dT @ inst.H @ dT)
    H0 = sym(H0)

    Cterm = C[N + 1]
    b = inst.xi - dT
    U, s, Vt = np.linalg.svd(Cterm, full_matrices=False)
    r = int((s > rank_cutoff(Cterm, s)).sum())
    out_of_range = b - U[:, :r] @ (U[:, :r].T @ b) if r else b
    miss = float(np.linalg.norm(out_of_range))
    if miss > range_tol(inst.xi):
        raise InfeasibleConstraint(
            f"terminal constraint inconsistent: range residual {miss:.6e} "
            f"exceeds tolerance {range_tol(inst.xi):.6e}")
    try:
        if r:
            Cr = s[:r, None] * Vt[:r]
            KKT = np.block([[H0, Cr.T], [Cr, np.zeros((r, r))]])
            sol = np.linalg.solve(KKT, np.concatenate([-c0, U[:, :r].T @ b]))
            u, mu = sol[:width], U[:, :r] @ sol[width:]
        else:
            u = np.linalg.solve(H0, -c0)
            mu = np.zeros(n)
    except np.linalg.LinAlgError as exc:
        raise SingularKkt(f"KKT system singular with a feasible constraint: {exc}") from exc
    if not (np.isfinite(u).all() and np.isfinite(mu).all()):
        raise SingularKkt("KKT solve produced non-finite entries")

    cost = float(u @ H0 @ u + 2.0 * c0 @ u + J0)
    stat = float(np.abs(H0 @ u + Cterm.T @ mu + c0).max())
    feas = float(np.abs(Cterm @ u - b).max()) if r else 0.0
    return KktSolution(u_stacked=ro(u), multiplier=ro(mu), cost=cost,
                       kkt_residual=max(stat, feas))


def verify_solution(inst: ProblemInstance, sched: ModelSchedule, lamsol: LambdaSolution,
                    learned: LearnedSchedule | None = None) -> ComparisonReport:
    """Roll out the model-based controller (and the learned one when given),
    compare gains and multipliers entrywise, and check the rollout cost
    against the independent oracle."""
    model_traj = rollout(inst, optimal_policy(sched, lamsol.lambda_star))
    oracle = kkt_oracle(inst)
    cost_gap = abs(model_traj.cost - oracle.cost) / max(1.0, abs(oracle.cost))

    if learned is None:
        return ComparisonReport(max_gain_error=0.0, lambda_error=0.0,
                                cost_gap=float(cost_gap),
                                terminal_errors=(model_traj.terminal_error,
                                                 model_traj.terminal_error),
                                per_stage_condition=(), model_trajectory=model_traj,
                                oracle=oracle)

    gain_err = 0.0
    for k in range(inst.N + 1):
        gain_err = max(gain_err,
                       float(np.abs(learned.K[k] - sched.K[k]).max()),
                       float(np.abs(learned.K1[k] - sched.K1[k]).max()))
    for k in range(inst.N + 2):
        gain_err = max(gain_err, float(np.abs(learned.P[k] - sched.P[k]).max()))
    lam_err = float(np.abs(learned.lambda_star - lamsol.lambda_star).max())
    learned_traj = rollout(inst, learned_policy(learned))
    return ComparisonReport(
        max_gain_error=gain_err,
        lambda_error=lam_err,
        cost_gap=float(cost_gap),
        terminal_errors=(model_traj.terminal_error, learned_traj.terminal_error),
        per_stage_condition=tuple(d.cond for d in learned.fit_diagnostics),
        model_trajectory=model_traj, oracle=oracle)


def random_instance(rng: np.random.Generator, n: int, m: int, N: int) -> ProblemInstance:
    """Standard-normal system matrices and endpoints with identity weights."""
    A = [rng.standard_normal((n, n)) for _ in range(N + 1)]
    B = [rng.standard_normal((n, m)) for _ in range(N + 1)]
    return make_instance(A, B, np.eye(n), np.eye(m), np.eye(n),
                         rng.standard_normal(n), rng.standard_normal(n))


def draw_reachable_instance(rng: np.random.Generator, n_range: tuple[int, int],
                            m_range: tuple[int, int], N_range: tuple[int, int],
                            max_attempts: int = 1000) -> ProblemInstance | None:
    """Sample random instances until the reachability screen passes.

    Returns None when max_attempts random draws all fail the screen (possible
    for dimension draws with m(N+1) < n, which are never reachable for
    generic targets)."""
    for _ in range(max_attempts):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        N = int(rng.integers(N_range[0], N_range[1] + 1))
        inst = random_instance(rng, n, m, N)
        if check_reachability(inst).reachable:
            return inst
    return None


def _stats(values: list[float]) -> ErrorStats:
    if not values:
        return ErrorStats(max=0.0, median=0.0, p95=0.0)
    arr = np.asarray(values, dtype=float)
    return ErrorStats(max=float(arr.max()), median=float(np.median(arr)),
                      p95=float(np.percentile(arr, 95)))


def monte_carlo(spec: CampaignSpec) -> CampaignSummary:
    """Randomized cross-validation campaign.

    Per trial: draw a reachable random instance, solve the model-based path,
    run the model-free learner against a simulated plant, solve the oracle,
    and record the error spread. Per-instance failures (any TermLqError)
    are counted, never raised; any other exception is a program fault and
    propagates. Deterministic given the campaign seed.
    """
    for name, (lo, hi), floor in (("n_range", spec.n_range, 1),
                                  ("m_range", spec.m_range, 1),
                                  ("N_range", spec.N_range, 0)):
        if lo > hi or lo < floor:
            raise ValidationError(f"campaign {name} ({lo}, {hi}) is malformed")
    if spec.count < 0:
        raise ValidationError("campaign count must be nonnegative")

    gain_errs: list[float] = []
    lam_errs: list[float] = []
    cost_gaps: list[float] = []
    term_errs: list[float] = []
    failures = 0
    for t in range(spec.count):
        rng = np.random.default_rng(np.random.SeedSequence((int(spec.seed), t)))
        try:
            inst = draw_reachable_instance(rng, spec.n_range, spec.m_range, spec.N_range)
            if inst is None:
                failures += 1
                continue
            sched = solve_schedule(inst)
            lamsol = solve_lambda(sched, inst)
            l = spec.samples if spec.samples is not None else sample_threshold(inst.n, inst.m)
            learned = learn(SimulatedPlant(inst), (inst.n, inst.m, inst.N),
                            (inst.Q, inst.R, inst.H), inst.x0, inst.xi, l,
                            default_gaussian_spec(inst.n, inst.m),
                            seed=int(rng.integers(2 ** 63)))
            report = verify_solution(inst, sched, lamsol, learned)
        except TermLqError:
            failures += 1
            continue
        gain_errs.append(report.max_gain_error)
        lam_errs.append(report.lambda_error)
        cost_gaps.append(report.cost_gap)
        term_errs.append(max(report.terminal_errors))

    return CampaignSummary(trials=spec.count, completed=spec.count - failures,
                           failures=failures, gain_error=_stats(gain_errs),
                           lambda_error=_stats(lam_errs), cost_gap=_stats(cost_gaps),
                           terminal_error=_stats(term_errs))
