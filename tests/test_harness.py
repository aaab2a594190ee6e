"""Independent-oracle and campaign tests: the sparse-form KKT solve against
the backward pass, solution comparison, and Monte Carlo aggregation."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from termlq import (
    CampaignSpec,
    GaussianSpec,
    InfeasibleConstraint,
    RankDeficient,
    SimulatedPlant,
    ValidationError,
    kkt_oracle,
    learn,
    make_instance,
    monte_carlo,
    optimal_policy,
    rollout,
    sample_threshold,
    solve_lambda,
    solve_schedule,
    verify_solution,
)
from termlq import harness
from termlq.harness import draw_reachable_instance, random_instance
from termlq.linalg import block_tridiagonal_solve

from costates import costate_residual
from golden import example_instance


def scalar_instance(x0=1.5, xi=-2.0):
    one = np.eye(1)
    zero = np.zeros((1, 1))
    return make_instance([one], [one], zero, one, zero,
                         np.array([x0]), np.array([xi]))


def stacked_policy(sol, m):
    def policy(k, x):
        return sol.u_stacked[k * m:(k + 1) * m]
    return policy


class TestKktOracle:
    def test_scalar_single_variable_qp(self):
        sol = kkt_oracle(scalar_instance(x0=1.5, xi=-2.0))
        assert sol.u_stacked[0] == pytest.approx(-3.5)
        assert sol.cost == pytest.approx(3.5 ** 2)
        assert sol.kkt_residual <= 1e-12

    def test_example_cost_matches_rollout(self, example, example_schedule, example_lambda):
        traj = rollout(example, optimal_policy(example_schedule,
                                             example_lambda.lambda_star))
        sol = kkt_oracle(example)
        assert abs(traj.cost - sol.cost) / max(1.0, abs(sol.cost)) <= 1e-8

    def test_example_inputs_match_rollout(self, example, example_schedule, example_lambda):
        traj = rollout(example, optimal_policy(example_schedule,
                                             example_lambda.lambda_star))
        sol = kkt_oracle(example)
        stacked = np.concatenate(traj.inputs)
        npt.assert_allclose(sol.u_stacked, stacked, atol=1e-6)

    def test_constraint_satisfied(self, example):
        sol = kkt_oracle(example)
        traj = rollout(example, stacked_policy(sol, example.m))
        assert traj.terminal_error <= 1e-8

    def test_multiplier_certifies_stationarity(self, example):
        sol = kkt_oracle(example)
        traj = rollout(example, stacked_policy(sol, example.m))
        assert costate_residual(example, traj, sol.multiplier) <= 1e-8

    def test_infeasible_target_refused(self, example):
        B0 = [np.zeros((2, 1))] * 3
        inst = make_instance(example.A, B0, example.Q, example.R, example.H,
                             example.x0, example.xi)
        with pytest.raises(InfeasibleConstraint):
            kkt_oracle(inst)

    def test_zero_constraint_row_space(self, example):
        # xi equal to the pure drift with B = 0: feasible with u = 0
        B0 = [np.zeros((2, 1))] * 3
        xi = example.A[2] @ example.A[1] @ example.A[0] @ example.x0
        inst = make_instance(example.A, B0, example.Q, example.R, example.H,
                             example.x0, xi)
        sol = kkt_oracle(inst)
        npt.assert_allclose(sol.u_stacked, 0.0, atol=1e-12)
        npt.assert_array_equal(sol.multiplier, np.zeros(2))

    def test_agreement_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            inst = draw_reachable_instance(rng, (1, 3), (1, 2), (0, 5))
            sched = solve_schedule(inst)
            lamsol = solve_lambda(sched, inst)
            traj = rollout(inst, optimal_policy(sched, lamsol.lambda_star))
            sol = kkt_oracle(inst)
            assert abs(traj.cost - sol.cost) / max(1.0, abs(sol.cost)) <= 1e-8
            npt.assert_allclose(np.concatenate(traj.inputs), sol.u_stacked,
                                atol=1e-6)
            assert costate_residual(inst, traj, sol.multiplier) <= 1e-8


class TestLongHorizonOracle:
    # unscaled standard-normal A: open-loop drift products grow like
    # rho(A)^N, which a condensed oracle turns into false infeasibility
    @pytest.mark.parametrize("dims", [(3, 1, 32), (3, 2, 32), (3, 1, 64), (3, 2, 64)])
    def test_native_instances_agree_with_riccati(self, dims):
        for seed in range(10):
            inst = random_instance(np.random.default_rng(seed), *dims)
            sched = solve_schedule(inst)
            report = verify_solution(inst, sched, solve_lambda(sched, inst))
            assert report.cost_gap <= 1e-8, seed
            assert report.input_gap <= 1e-8, seed
            assert report.costate_gap <= 1e-8, seed


class TestBlockTridiagonalSolve:
    @staticmethod
    def dense(diag, sub):
        K, s, _ = diag.shape
        T = np.zeros((K * s, K * s))
        for k in range(K):
            T[k * s:(k + 1) * s, k * s:(k + 1) * s] = diag[k]
        for k in range(K - 1):
            T[(k + 1) * s:(k + 2) * s, k * s:(k + 1) * s] = sub[k]
            T[k * s:(k + 1) * s, (k + 1) * s:(k + 2) * s] = sub[k].T
        return T

    @pytest.mark.parametrize("K", [1, 2, 7])
    def test_matches_dense_solve(self, K):
        rng = np.random.default_rng(K)
        s, r = 4, 3
        diag = rng.standard_normal((K, s, s)) + 8.0 * np.eye(s)
        sub = rng.standard_normal((K - 1, s, s))
        rhs = rng.standard_normal((K, s, r))
        z = block_tridiagonal_solve(diag, sub, rhs)
        assert z.shape == rhs.shape
        expected = np.linalg.solve(self.dense(diag, sub), rhs.reshape(K * s, r))
        npt.assert_allclose(z.reshape(K * s, r), expected, rtol=1e-12, atol=1e-12)

    def test_singular_stage_raises(self):
        diag = np.stack([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(np.linalg.LinAlgError):
            block_tridiagonal_solve(diag, np.zeros((1, 2, 2)), np.ones((2, 2, 1)))


class TestVerifySolution:
    def test_model_only_report(self, example, example_schedule, example_lambda):
        report = verify_solution(example, example_schedule, example_lambda)
        assert report.max_gain_error == 0.0
        assert report.lambda_error == 0.0
        assert report.cost_gap <= 1e-8
        assert report.input_gap <= 1e-8
        assert report.costate_gap <= 1e-8
        assert report.terminal_errors[0] == report.terminal_errors[1]
        assert report.per_stage_condition.shape == (0,)

    def test_model_vs_learned(self, example, example_schedule, example_lambda):
        ls = learn(SimulatedPlant(example), (2, 1, 2),
                   (example.Q, example.R, example.H), example.x0, example.xi, 30,
                   GaussianSpec(), seed=7)
        report = verify_solution(example, example_schedule, example_lambda, ls)
        assert report.max_gain_error <= 1e-8
        assert report.lambda_error <= 1e-8
        assert max(report.terminal_errors) <= 1e-6
        assert len(report.per_stage_condition) == 3
        assert all(np.isfinite(c) for c in report.per_stage_condition)


class TestMonteCarlo:
    def test_empty_campaign(self):
        summary = monte_carlo(CampaignSpec(count=0, seed=1))
        assert summary.trials == 0
        assert summary.completed == 0
        assert summary.failures == 0
        assert summary.gain_error.max == 0.0

    def test_same_seed_identical_summaries(self):
        spec = CampaignSpec(count=6, seed=11, n_range=(1, 3), m_range=(1, 2),
                            N_range=(0, 4))
        assert monte_carlo(spec) == monte_carlo(spec)

    def test_threshold_samples_stay_tight(self):
        spec = CampaignSpec(count=12, seed=5, n_range=(1, 3), m_range=(1, 2),
                            N_range=(0, 4))
        summary = monte_carlo(spec)
        assert summary.completed == 12
        assert summary.failures == 0
        assert summary.gain_error.max <= 1e-6
        assert summary.terminal_error.max <= 1e-6
        assert summary.gain_error.p95 >= summary.gain_error.median

    def test_malformed_range_rejected(self):
        with pytest.raises(ValidationError):
            monte_carlo(CampaignSpec(count=1, seed=1, n_range=(3, 1)))
        with pytest.raises(ValidationError):
            monte_carlo(CampaignSpec(count=1, seed=1, N_range=(-1, 2)))

    def test_toolkit_error_counts_as_failure(self, monkeypatch):
        def failing_learn(*args, **kwargs):
            raise RankDeficient("stage 0 regressor rank 0 < 6", rank=0, cond=float("inf"))
        monkeypatch.setattr(harness, "learn", failing_learn)
        summary = monte_carlo(CampaignSpec(count=3, seed=5, n_range=(1, 2),
                                           m_range=(1, 1), N_range=(0, 2)))
        assert summary.failures == 3
        assert summary.completed == 0

    def test_program_fault_propagates(self, monkeypatch):
        def broken_learn(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")
        monkeypatch.setattr(harness, "learn", broken_learn)
        with pytest.raises(ValueError, match="broadcast"):
            monte_carlo(CampaignSpec(count=3, seed=5, n_range=(1, 2),
                                     m_range=(1, 1), N_range=(0, 2)))
