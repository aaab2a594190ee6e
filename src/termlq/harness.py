"""Independent verification: a sparse-form KKT quadratic-program oracle,
solution comparison, and Monte Carlo campaigns over random instances.

The oracle never touches the Riccati machinery. It keeps the inputs, the
states and the dynamics multipliers as variables, writes the dynamics and
the terminal constraint as equality rows, and solves the whole KKT system
by one generic forward block-tridiagonal sweep, at a cost linear in N.
Agreement of cost, inputs and costates between the two paths certifies
both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InfeasibleConstraint, NonFiniteState, SingularKkt, TermLqError,
                     ValidationError)
from .linalg import Array, block_tridiagonal_solve, range_solve, ro, sym
from .model import (
    LambdaSolution,
    ModelSchedule,
    ProblemInstance,
    Trajectory,
    check_reachability,
    make_instance,
    optimal_policy,
    require_valid,
    rollout,
    solve_lambda,
    solve_schedule,
)
from .qlearn import (
    GaussianSpec,
    LearnedSchedule,
    SimulatedPlant,
    learn,
    learned_policy,
    sample_threshold,
)

# random draws per campaign trial before draw_reachable_instance gives up
MAX_DRAW_ATTEMPTS = 1000


@dataclass(frozen=True)
class KktSolution:
    """Sparse-form optimum: inputs u(0)..u(N) concatenated, the terminal
    constraint multiplier, the optimal cost, the max KKT residual over every
    row (infinity norm), and the costates p(0)..p(N), one row per stage."""

    u_stacked: Array
    multiplier: Array
    cost: float
    kkt_residual: float
    costates: Array


@dataclass(frozen=True)
class ComparisonReport:
    """Cross-path error summary. cost_gap, input_gap and costate_gap compare
    the model rollout with the oracle, each relative to max(1, the largest
    magnitude of the oracle cost, the model inputs or the closed-loop
    costates P(k+1) x(k+1) + Phi(k+1,N)' lambda*). terminal_errors holds
    (model, learned) rollout misses, and per_stage_condition the learned
    fits' regressor condition numbers, stages 0..N; with no learned schedule
    the learned slots collapse to the model values and per_stage_condition
    is an empty array. model_trajectory and oracle are the model rollout and
    the KKT solution the summary compares, so callers need not recompute
    them."""

    max_gain_error: float
    lambda_error: float
    cost_gap: float
    input_gap: float
    costate_gap: float
    terminal_errors: tuple[float, float]
    per_stage_condition: Array
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
    """Campaign outcome. The campaign report is this record as a dict, so
    the field order here is the report's key order."""

    trials: int
    completed: int
    failures: int
    gain_error: ErrorStats
    lambda_error: ErrorStats
    cost_gap: ErrorStats
    terminal_error: ErrorStats


def kkt_oracle(inst: ProblemInstance) -> KktSolution:
    """Sparse-form equality-constrained QP solve: the states stay variables
    and the dynamics are equality rows, so no drift product is ever formed.

    Stage k holds z(k) = [u(k), p(k), x(k+1)], where p(k) multiplies the
    dynamics row of stage k, and the terminal row borders the last stage
    with the multiplier mu. The KKT rows are

        R u(k) + B(k)' p(k) = 0
        B(k) u(k) - x(k+1) = -A(k) x(k)
        Q x(k+1) - p(k) + A(k+1)' p(k+1) = 0      (k < N)
        H x(N+1) - p(N) + mu = 0,   x(N+1) = xi

    so p(0..N) are the costates and mu is the terminal multiplier. The
    stage blocks form a block-tridiagonal system, solved by one forward
    block sweep (linalg.block_tridiagonal_solve) for mu = 0 and for mu's
    unit columns together, at a cost linear in N; the dense KKT matrix is
    never formed. The border reduces to the n x n terminal Schur complement
    Sigma: Sigma mu = x_free - xi, where x_free is the terminal state at
    mu = 0. Feasibility is decided there by linalg.range_solve: a miss is
    InfeasibleConstraint; an overflow there or in the cost, NonFiniteState.
    The Gramian test in check_reachability decides membership in the same
    subspace through a different matrix, so the two verdicts cross-validate
    each other. The minimum-norm mu has no part in unreachable directions.
    kkt_residual is the max over every KKT row (both stationarity rows, the
    dynamics rows and the terminal row) of the absolute defect.
    """
    require_valid(inst)
    N, n, m = inst.N, inst.n, inst.m
    s = m + 2 * n
    iu, ip, ix = slice(0, m), slice(m, m + n), slice(m + n, s)
    A, B = inst.A, inst.B
    Q, R, H = sym(inst.Q), sym(inst.R), sym(inst.H)
    eye = np.eye(n)
    diag = np.zeros((N + 1, s, s))
    diag[:, iu, iu] = R
    diag[:, iu, ip] = np.swapaxes(B, 1, 2)
    diag[:, ip, iu] = B
    diag[:, ip, ix] = -eye
    diag[:, ix, ip] = -eye
    diag[:-1, ix, ix] = Q
    diag[-1, ix, ix] = H
    sub = np.zeros((N, s, s))
    sub[:, ip, ix] = A[1:]
    # column 0 is the system at mu = 0, columns 1..n are mu's unit columns
    rhs = np.zeros((N + 1, s, 1 + n))
    rhs[0, ip, 0] = -(A[0] @ inst.x0)
    rhs[-1, ix, 1:] = eye
    try:
        Z = block_tridiagonal_solve(diag, sub, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularKkt(f"KKT system singular: {exc}") from exc

    Sigma = sym(Z[-1, ix, 1:])
    mu, _, _, miss = range_solve(Sigma, Z[-1, ix, 0] - inst.xi, inst.xi, "terminal constraint")
    if miss is not None:
        raise InfeasibleConstraint(f"terminal constraint inconsistent: range {miss}")
    z = Z[:, :, 0] - Z[:, :, 1:] @ mu
    if not (np.isfinite(z).all() and np.isfinite(mu).all()):
        raise SingularKkt("KKT solve produced non-finite entries")

    rows = np.einsum("kij,kj->ki", diag, z) - rhs[:, :, 0]
    rows[1:] += np.einsum("kij,kj->ki", sub, z[:-1])
    rows[:-1] += np.einsum("kji,kj->ki", sub, z[1:])
    rows[-1, ix] += mu
    U = z[:, iu]
    X = np.vstack([inst.x0, z[:, ix]])
    cost = float(np.sum((X[:-1] @ Q) * X[:-1]) + np.sum((U @ R) * U) + X[-1] @ H @ X[-1])
    if not np.isfinite(cost):
        raise NonFiniteState("KKT optimum cost is non-finite")
    resid = max(float(np.abs(rows).max()), float(np.abs(X[-1] - inst.xi).max()))
    return KktSolution(u_stacked=ro(U.reshape(-1)), multiplier=ro(mu), cost=cost,
                       kkt_residual=resid, costates=ro(z[:, ip]))


def _relative_gap(value: Array, reference: Array) -> float:
    # max entrywise gap over max(1, the reference's largest magnitude)
    return float(np.abs(value - reference).max()) / max(1.0, float(np.abs(reference).max()))


def verify_solution(inst: ProblemInstance, sched: ModelSchedule, lamsol: LambdaSolution,
                    learned: LearnedSchedule | None = None) -> ComparisonReport:
    """Roll out the model-based controller (and the learned one when given),
    compare gains and multipliers entrywise, and check the rollout cost,
    inputs and closed-loop costates against the independent oracle."""
    lam = lamsol.lambda_star
    model_traj = rollout(inst, optimal_policy(sched, lam))
    oracle = kkt_oracle(inst)
    cost_gap = abs(model_traj.cost - oracle.cost) / max(1.0, abs(oracle.cost))
    U = model_traj.inputs
    costates = (np.einsum("kij,kj->ki", sched.P[1:], model_traj.states[1:])
                + np.einsum("kji,j->ki", sched.Phi[1:], lam))
    gaps = dict(cost_gap=float(cost_gap),
                input_gap=_relative_gap(oracle.u_stacked.reshape(U.shape), U),
                costate_gap=_relative_gap(oracle.costates, costates))

    if learned is None:
        return ComparisonReport(max_gain_error=0.0, lambda_error=0.0, **gaps,
                                terminal_errors=(model_traj.terminal_error,
                                                 model_traj.terminal_error),
                                per_stage_condition=ro(np.empty(0)),
                                model_trajectory=model_traj,
                                oracle=oracle)

    gain_err = max(float(np.abs(learned.K - sched.K).max()),
                   float(np.abs(learned.K1 - sched.K1).max()),
                   float(np.abs(learned.P - sched.P).max()))
    lam_err = float(np.abs(learned.lambda_star - lamsol.lambda_star).max())
    learned_traj = rollout(inst, learned_policy(learned))
    return ComparisonReport(
        max_gain_error=gain_err,
        lambda_error=lam_err,
        **gaps,
        terminal_errors=(model_traj.terminal_error, learned_traj.terminal_error),
        per_stage_condition=learned.fit_diagnostics.cond,
        model_trajectory=model_traj, oracle=oracle)


def random_instance(rng: np.random.Generator, n: int, m: int, N: int) -> ProblemInstance:
    """Standard-normal system matrices and endpoints with identity weights."""
    A = rng.standard_normal((N + 1, n, n))
    B = rng.standard_normal((N + 1, n, m))
    return make_instance(A, B, np.eye(n), np.eye(m), np.eye(n),
                         rng.standard_normal(n), rng.standard_normal(n))


def draw_reachable_instance(rng: np.random.Generator, n_range: tuple[int, int],
                            m_range: tuple[int, int],
                            N_range: tuple[int, int]) -> ProblemInstance | None:
    """Sample random instances until the reachability screen passes.

    Returns None when MAX_DRAW_ATTEMPTS random draws all fail the screen
    (possible for dimension draws with m(N+1) < n, which are never reachable
    for generic targets)."""
    for _ in range(MAX_DRAW_ATTEMPTS):
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
                            GaussianSpec(),
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
