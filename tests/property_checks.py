"""Seeded property loops shared by the regular suite and the acceptance
gate. Each function draws its own instances, asserts the invariant on every
case, and returns the number of cases exercised."""

from __future__ import annotations

import numpy as np

from termlq import (
    GaussianSpec,
    kkt_oracle,
    make_instance,
    optimal_policy,
    rollout,
    sample_threshold,
    solve_lambda,
    solve_schedule,
)
from termlq.harness import draw_reachable_instance
from termlq.qlearn import pack_symmetric, unpack_symmetric

from qkernels import fit, regressor_row, stage_dataset, terminal_targets


def stationarity_residual(inst, inputs, costates) -> float:
    """Stationarity defect max_k || R u(k) + B(k)' p(k) ||_inf of the inputs
    u(k) against the costates p(k), one row per stage; zero (to roundoff)
    exactly at the optimum."""
    return float(np.abs(np.einsum("ij,kj->ki", inst.R, inputs)
                        + np.einsum("kji,kj->ki", inst.B, costates)).max())


def _random_valid_instance(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 3))
    N = int(rng.integers(0, 9))
    A = [rng.standard_normal((n, n)) for _ in range(N + 1)]
    B = [rng.standard_normal((n, m)) for _ in range(N + 1)]
    if rng.random() < 0.5:
        Q, R, H = np.eye(n), np.eye(m), np.eye(n)
    else:
        S = rng.standard_normal((n, n))
        Q = S @ S.T / n
        T = rng.standard_normal((m, m))
        R = T @ T.T + 0.1 * np.eye(m)
        H = np.zeros((n, n)) if rng.random() < 0.3 else np.eye(n)
    return make_instance(A, B, Q, R, H, rng.standard_normal(n),
                         rng.standard_normal(n))


def check_p_symmetry_psd(cases: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        inst = _random_valid_instance(rng)
        sched = solve_schedule(inst)
        for P in sched.P:
            assert np.abs(P - P.T).max() <= 1e-12
            assert np.linalg.eigvalsh(P).min() >= -1e-9
    return cases


def check_gamma_definiteness(cases: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        inst = _random_valid_instance(rng)
        sched = solve_schedule(inst)
        r_floor = np.linalg.eigvalsh((inst.R + inst.R.T) / 2.0).min()
        for Gam in sched.Gamma:
            assert np.linalg.eigvalsh(Gam).min() >= r_floor - 1e-9
    return cases


def check_g_monotonicity(cases: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        inst = _random_valid_instance(rng)
        sched = solve_schedule(inst)
        for s in range(inst.N + 1):
            step = sched.G[s] - sched.G[s + 1]
            # rounding floor scales with the accumulated Gramian magnitude
            tol = 1e-9 * max(1.0, np.abs(sched.G[s]).max())
            assert np.linalg.eigvalsh((step + step.T) / 2.0).min() >= -tol
    return cases


def check_bellman_consistency(cases: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        inst = _random_valid_instance(rng)
        sched = solve_schedule(inst)
        for s in range(inst.N + 1):
            x = rng.standard_normal(inst.n)
            lam = rng.standard_normal(inst.n)
            u = sched.K[s] @ x + sched.K1[s] @ lam
            lhs = (x @ sched.P[s] @ x + 2.0 * x @ sched.Phi[s].T @ lam
                   - lam @ sched.G[s] @ lam)
            xn = inst.A[s] @ x + inst.B[s] @ u
            rhs = (x @ inst.Q @ x + u @ inst.R @ u
                   + xn @ sched.P[s + 1] @ xn
                   + 2.0 * xn @ sched.Phi[s + 1].T @ lam
                   - lam @ sched.G[s + 1] @ lam)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))
    return cases


def check_stationarity(cases: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    done = 0
    while done < cases:
        inst = draw_reachable_instance(rng, (1, 3), (1, 2), (0, 5))
        if inst is None:
            continue
        sched = solve_schedule(inst)
        lamsol = solve_lambda(sched, inst)
        traj = rollout(inst, optimal_policy(sched, lamsol.lambda_star))
        assert stationarity_residual(inst, traj.inputs, kkt_oracle(inst).costates) <= 1e-8
        done += 1
    return done


def check_quadratic_form_identity(cases: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    for i in range(cases):
        inst = _random_valid_instance(rng)
        l = sample_threshold(inst.n, inst.m)
        ds = stage_dataset(inst, inst.N, l,
                           GaussianSpec(),
                           seed=int(rng.integers(2 ** 63)))
        gamma = terminal_targets(ds, inst)
        Lam, _, _ = fit(ds, gamma)
        for z in np.hstack([ds.X, ds.U, ds.L]):
            direct = z @ Lam @ z
            packed = regressor_row(z) @ pack_symmetric(Lam)
            # identical sums in a different order; allow only the
            # reordering rounding floor
            scale = max(1.0, np.abs(z[:, None] * Lam * z[None, :]).sum())
            assert abs(direct - packed) <= 1e-12 * scale
    return cases


def check_packing_roundtrip(cases: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        d = int(rng.integers(1, 9))
        S = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-3, 4)
        M = (S + S.T) / 2.0
        assert np.array_equal(unpack_symmetric(pack_symmetric(M), d), M)
    return cases
