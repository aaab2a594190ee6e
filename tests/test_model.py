"""Model-based solver tests.

The backward pass is cross-checked against an evaluate-and-fit dynamic
programming oracle that never touches the recursion formulas: every stage
value is evaluated pointwise and refit as a generic quadratic, and the
minimization over u is done on the fitted coefficients.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from termlq import (
    NonFiniteState,
    NotReachable,
    SingularGamma,
    StageOutOfRange,
    ValidationError,
    check_reachability,
    kkt_oracle,
    make_instance,
    optimal_policy,
    rollout,
    solve_lambda,
    solve_schedule,
)
from termlq.harness import CampaignSpec, draw_reachable_instance, random_instance
from termlq.linalg import range_tol
from termlq.model import ProblemInstance, require_valid, riccati_backward

from golden import (
    EXACT_COST,
    EXACT_G2,
    EXACT_LAMBDA,
    EXACT_P0,
    PRINTED_K,
    PRINTED_K1,
    PRINTED_LAMBDA,
    PRINTED_P,
)
from property_checks import stationarity_residual
from reference_reachability import drift_product, reference_reachability
from reference_schedule import reference_riccati, reference_schedule


def scalar_instance(x0=2.0, xi=5.0):
    """n = m = 1, N = 0, A = B = 1, Q = H = 0, R = 1."""
    one = np.eye(1)
    zero = np.zeros((1, 1))
    return make_instance([one], [one], zero, one, zero,
                         np.array([x0]), np.array([xi]))


class CountingStack(np.ndarray):
    """A stage stack that counts the reads of each stage, iteration
    included; build one with counting_stack."""

    def __getitem__(self, k):
        if isinstance(k, (int, np.integer)):
            self.reads[k] += 1
        return np.asarray(super().__getitem__(k))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def counting_stack(stack):
    view = stack.view(CountingStack)
    view.reads = [0] * len(stack)
    return view


class TestValidation:
    def test_example_instance_passes(self, example):
        require_valid(example)

    def test_zero_r_reports_eigenvalue(self):
        inst = make_instance([np.eye(1)], [np.eye(1)], np.eye(1),
                             np.zeros((1, 1)), np.eye(1),
                             np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValidationError, match="instance check 'R_pd' failed") as err:
            require_valid(inst)
        assert float(str(err.value).split()[-1]) == pytest.approx(0.0, abs=1e-15)

    def test_huge_definite_weights_pass(self):
        # finite entries near the float limit: tested as given, never
        # symmetrized into an overflow
        big = np.diag([1e308, 1.0])
        require_valid(make_instance([np.eye(2)], [np.eye(2)], big, np.eye(2), big,
                                    np.zeros(2), np.zeros(2)))

    def test_short_a_sequence_fails_dimension(self, example):
        inst = ProblemInstance(N=2, n=2, m=1, A=example.A[:2], B=example.B,
                               Q=example.Q, R=example.R, H=example.H,
                               x0=example.x0, xi=example.xi)
        with pytest.raises(ValidationError, match="instance check 'A_length' failed"):
            require_valid(inst)

    @pytest.mark.parametrize("A,B,message", [
        ([np.eye(2), np.eye(3), np.eye(2)], [np.ones((2, 1))] * 3,
         r"'A_shape' failed: A\[1\] has shape \(3, 3\)"),
        ([np.eye(2)] * 3, [np.ones((2, 1)), np.ones((2, 2)), np.ones((2, 1))],
         r"'B_shape' failed: B\[1\] has shape \(2, 2\)"),
        ([np.eye(2), np.eye(3), np.eye(2)], [np.ones((2, 1))] * 2,
         r"'B_length' failed: len\(B\)=2, expected 3"),
        ([np.eye(2)] * 3, [], r"'input_dim' failed: m=0"),
    ])
    def test_unequal_stage_shapes_fail_their_check(self, A, B, message):
        # stage matrices that cannot stack fail the same check, with the
        # same text, as every other instance
        with pytest.raises(ValidationError, match=message):
            require_valid(make_instance(A, B, np.eye(2), np.eye(1), np.eye(2),
                                        np.ones(2), np.ones(2)))

    def test_stage_quantities_are_read_only_stacks(self, example, example_schedule,
                                                   example_lambda):
        traj = rollout(example, optimal_policy(example_schedule,
                                             example_lambda.lambda_star))
        sched = example_schedule
        shapes = {"A": (example.A, (3, 2, 2)), "B": (example.B, (3, 2, 1)),
                  "P": (sched.P, (4, 2, 2)), "Gamma": (sched.Gamma, (3, 1, 1)),
                  "K": (sched.K, (3, 1, 2)), "K1": (sched.K1, (3, 1, 2)),
                  "Phi": (sched.Phi, (4, 2, 2)), "G": (sched.G, (4, 2, 2)),
                  "states": (traj.states, (4, 2)), "inputs": (traj.inputs, (3, 1))}
        for name, (stack, shape) in shapes.items():
            assert isinstance(stack, np.ndarray) and stack.shape == shape, name
            assert not stack.flags.writeable, name


class TestRiccatiBackward:
    def test_example_kernels_to_four_decimals(self, example):
        P, _, _ = riccati_backward(example)
        npt.assert_array_equal(P[3], np.eye(2))
        for k in (0, 1, 2):
            npt.assert_allclose(P[k], PRINTED_P[k], atol=1e-3)

    def test_full_precision_anchor(self, example):
        P, _, _ = riccati_backward(example)
        npt.assert_allclose(P[0], EXACT_P0, rtol=1e-13)

    def test_zero_weights_force_zero_kernel(self):
        rng = np.random.default_rng(3)
        n, m, N = 2, 1, 3
        inst = make_instance([rng.standard_normal((n, n)) for _ in range(N + 1)],
                             [rng.standard_normal((n, m)) for _ in range(N + 1)],
                             np.zeros((n, n)), np.eye(m), np.zeros((n, n)),
                             rng.standard_normal(n), rng.standard_normal(n))
        P, _, K = riccati_backward(inst)
        for k in range(N + 1):
            npt.assert_allclose(P[k], 0.0, atol=1e-14)
            npt.assert_allclose(K[k], 0.0, atol=1e-14)

    def test_indefinite_gamma_rejected(self):
        # R = -1 slips past nothing: construct the raw instance directly
        inst = ProblemInstance(N=0, n=1, m=1, A=np.ones((1, 1, 1)), B=np.ones((1, 1, 1)),
                               Q=np.zeros((1, 1)), R=-np.eye(1),
                               H=np.zeros((1, 1)), x0=np.zeros(1), xi=np.zeros(1))
        with pytest.raises(SingularGamma):
            riccati_backward(inst)


def fit_quadratic(points, values):
    """Least-squares quadratic c + b'w + w'Mw from point evaluations, on the
    plain monomial basis (1, w_i, w_i w_j for i <= j)."""
    pts = np.asarray(points, dtype=float)
    _, d = pts.shape
    cols = [np.ones(len(pts))]
    cols += [pts[:, i] for i in range(d)]
    cols += [pts[:, i] * pts[:, j] for i in range(d) for j in range(i, d)]
    coef, _, _, _ = np.linalg.lstsq(np.column_stack(cols), np.asarray(values),
                                    rcond=None)
    c, b = coef[0], coef[1:1 + d]
    M = np.zeros((d, d))
    idx = 1 + d
    for i in range(d):
        for j in range(i, d):
            # monomial coefficient of w_i w_j is M_ii on the diagonal and
            # 2 M_ij off it
            M[i, j] = coef[idx] if i == j else coef[idx] / 2.0
            M[j, i] = M[i, j]
            idx += 1
    return c, b, M


def dp_oracle(inst, seed):
    """Evaluate-and-fit dynamic programming over the joint (x, lambda)
    argument. Returns per-stage gains and value kernels (P, Phi, G)."""
    rng = np.random.default_rng(seed)
    n, m = inst.n, inst.m

    def terminal(x, lam):
        return x @ inst.H @ x + 2.0 * lam @ x

    value = terminal
    gains, kernels = {}, {}
    for k in range(inst.N, -1, -1):
        A, B = inst.A[k], inst.B[k]

        def stage(x, u, lam, A=A, B=B, value=value):
            return x @ inst.Q @ x + u @ inst.R @ u + value(A @ x + B @ u, lam)

        d = 2 * n + m
        pts = rng.standard_normal((3 * (d + 1) * (d + 2) // 2, d))
        _, b, M = fit_quadratic(pts, [stage(p[:n], p[n:n + m], p[n + m:])
                                      for p in pts])
        Muu = M[n:n + m, n:n + m]
        Kk = -np.linalg.solve(Muu, M[n:n + m, :n])
        K1k = -np.linalg.solve(Muu, M[n:n + m, n + m:])
        u0 = -np.linalg.solve(Muu, b[n:n + m]) / 2.0
        gains[k] = (Kk, K1k)

        def value(x, lam, stage=stage, Kk=Kk, K1k=K1k, u0=u0):
            return stage(x, Kk @ x + K1k @ lam + u0, lam)

        w = rng.standard_normal((3 * (2 * n + 1) * (n + 1), 2 * n))
        _, _, Mv = fit_quadratic(w, [value(p[:n], p[n:]) for p in w])
        kernels[k] = {"P": Mv[:n, :n], "Phi": Mv[:n, n:].T, "G": -Mv[n:, n:]}
    return gains, kernels


class TestDynamicProgrammingOracle:
    def test_backward_pass_matches_dp_fit(self):
        rng = np.random.default_rng(11)
        for trial in range(3):
            n, m, N = 2, 1, 3
            inst = make_instance([rng.standard_normal((n, n)) for _ in range(N + 1)],
                                 [rng.standard_normal((n, m)) for _ in range(N + 1)],
                                 np.eye(n), np.eye(m), np.eye(n),
                                 rng.standard_normal(n), rng.standard_normal(n))
            sched = solve_schedule(inst)
            gains, kernels = dp_oracle(inst, seed=100 + trial)
            scale = max(1.0, float(np.abs(sched.P[0]).max()))
            npt.assert_allclose(kernels[0]["P"], sched.P[0],
                                atol=1e-10 * scale)
            for k in range(N + 1):
                npt.assert_allclose(gains[k][0], sched.K[k],
                                    rtol=1e-8, atol=1e-9)
                npt.assert_allclose(gains[k][1], sched.K1[k],
                                    rtol=1e-8, atol=1e-9)
                npt.assert_allclose(kernels[k]["Phi"], sched.Phi[k],
                                    rtol=1e-8, atol=1e-8)
                npt.assert_allclose(kernels[k]["G"], sched.G[k],
                                    rtol=1e-8, atol=1e-8)


class TestSchedule:
    def test_phi_re_multiplication(self, example, example_schedule):
        sched = example_schedule
        for k in range(example.N + 2):
            M = np.eye(example.n)
            for j in range(example.N, k - 1, -1):
                M = M @ (example.A[j] + example.B[j] @ sched.K[j])
            npt.assert_allclose(sched.Phi[k], M, rtol=1e-13, atol=1e-13)

    def test_gramian_recursion(self, example, example_schedule):
        sched = example_schedule
        for s in range(example.N, -1, -1):
            Bs = example.B[s]
            Bbar = Bs @ np.linalg.solve(sched.Gamma[s], Bs.T)
            step = sched.Phi[s + 1] @ Bbar @ sched.Phi[s + 1].T
            npt.assert_allclose(sched.G[s], sched.G[s + 1] + step,
                                rtol=1e-12, atol=1e-14)

    def test_example_gains_to_four_decimals(self, example_schedule):
        for k in (0, 1, 2):
            npt.assert_allclose(example_schedule.K[k], PRINTED_K[k], atol=1e-3)
            npt.assert_allclose(example_schedule.K1[k], PRINTED_K1[k], atol=1e-3)

    def test_stage_two_gramian(self, example_schedule):
        npt.assert_allclose(example_schedule.G[2], EXACT_G2, rtol=1e-13)

    def test_matches_per_stage_loops_bit_for_bit(self):
        # 100 campaign draws, then native wide and long instances
        rng = np.random.default_rng(2424)
        insts = [draw_reachable_instance(rng, (1, 4), (1, 2), (0, 8)) for _ in range(100)]
        insts += [random_instance(rng, *dims) for dims in ((8, 4, 16), (3, 2, 64), (8, 4, 256))]
        for inst in insts:
            sched = solve_schedule(inst)
            for got, ref in zip((sched.P, sched.Gamma, sched.K), reference_riccati(inst)):
                npt.assert_array_equal(got, ref)
            for got, ref in zip((sched.K1, sched.Phi, sched.G),
                                reference_schedule(inst, sched.Gamma, sched.K)):
                npt.assert_array_equal(got, ref)

    def test_scalar_boundary_values(self):
        sched = solve_schedule(scalar_instance())
        assert sched.Phi[0][0, 0] == pytest.approx(1.0)
        assert sched.G[0][0, 0] == pytest.approx(1.0)
        assert sched.K1[0][0, 0] == pytest.approx(-1.0)


class TestReachability:
    def test_example_instance_reachable(self, example):
        res = check_reachability(example)
        assert res.reachable
        assert res.rank == 2

    def test_zero_b_off_drift_unreachable(self, example):
        B0 = [np.zeros((2, 1))] * 3
        inst = make_instance(example.A, B0, example.Q, example.R, example.H,
                             example.x0, example.xi)
        res = check_reachability(inst)
        assert not res.reachable
        assert res.rank == 0
        assert res.zeta is None
        npt.assert_array_equal(res.G1, np.zeros((2, 2)))

    def test_zero_b_exact_drift_reachable(self, example):
        B0 = [np.zeros((2, 1))] * 3
        xi = drift_product(example, 0, 3) @ example.x0
        inst = make_instance(example.A, B0, example.Q, example.R, example.H,
                             example.x0, xi)
        res = check_reachability(inst)
        assert res.reachable
        npt.assert_allclose(res.zeta, 0.0, atol=1e-12)

    def test_sweep_reads_each_stage_a_bounded_number_of_times(self):
        # cost linear in N without timing: the sweep reads every A(k) and
        # B(k) a fixed number of times, where per-stage products read A(N)
        # once for each k
        inst = random_instance(np.random.default_rng(0), 2, 1, 64)
        A, B = counting_stack(inst.A), counting_stack(inst.B)
        check_reachability(dataclasses.replace(inst, A=A, B=B))
        assert max(A.reads) <= 2
        assert max(B.reads) <= 2

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("N", [0, 3, 16, 128])
    def test_matches_reference_gramian(self, n, m, N):
        inst = random_instance(np.random.default_rng([n, m, N]), n, m, N)
        inst = dataclasses.replace(inst, A=inst.A / (2 * np.sqrt(n)))
        res = check_reachability(inst)
        reachable, G1, zeta = reference_reachability(inst)
        assert res.reachable == reachable
        npt.assert_allclose(res.G1, G1, rtol=0, atol=1e-12 * np.abs(G1).max())
        if reachable:
            npt.assert_allclose(res.zeta, zeta, rtol=0, atol=1e-12 * np.abs(zeta).max())
        else:
            assert res.zeta is None

    def test_verdicts_match_reference_on_campaign_draws(self, monkeypatch):
        # every draw the campaign screen makes for seeds 0-49, 20 trials each
        draws = []

        def both(inst):
            res = check_reachability(inst)
            draws.append((res.reachable, reference_reachability(inst)[0]))
            return res

        monkeypatch.setattr("termlq.harness.check_reachability", both)
        spec = CampaignSpec(count=20, seed=0)
        for seed in range(50):
            for t in range(spec.count):
                rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
                draw_reachable_instance(rng, spec.n_range, spec.m_range, spec.N_range)
        assert len(draws) > 50 * spec.count
        assert all(new == ref for new, ref in draws)


class TestLambda:
    def test_example_multiplier(self, example, example_lambda):
        npt.assert_allclose(example_lambda.lambda_star, PRINTED_LAMBDA, atol=1e-3)
        npt.assert_allclose(example_lambda.lambda_star, EXACT_LAMBDA, rtol=1e-12)
        assert example_lambda.residual <= range_tol(example.xi)
        assert not example_lambda.min_norm

    def test_target_on_closed_loop_drift_gives_zero(self, example):
        sched = solve_schedule(example)
        xi = sched.Phi[0] @ example.x0
        inst = make_instance(example.A, example.B, example.Q, example.R, example.H,
                             example.x0, xi)
        lamsol = solve_lambda(solve_schedule(inst), inst)
        npt.assert_allclose(lamsol.lambda_star, 0.0, atol=1e-12)

    def test_scalar_closed_form(self):
        inst = scalar_instance(x0=2.0, xi=5.0)
        lamsol = solve_lambda(solve_schedule(inst), inst)
        assert lamsol.lambda_star[0] == pytest.approx(2.0 - 5.0)

    def test_unreachable_raises(self, example):
        B0 = [np.zeros((2, 1))] * 3
        inst = make_instance(example.A, B0, example.Q, example.R, example.H,
                             example.x0, example.xi)
        with pytest.raises(NotReachable):
            solve_lambda(solve_schedule(inst), inst)


class TestControlAndRollout:
    def test_scalar_control_reaches_target(self):
        inst = scalar_instance(x0=2.0, xi=5.0)
        sched = solve_schedule(inst)
        lamsol = solve_lambda(sched, inst)
        u0 = optimal_policy(sched, lamsol.lambda_star)(0, inst.x0)
        assert u0[0] == pytest.approx(5.0 - 2.0)
        traj = rollout(inst, optimal_policy(sched, lamsol.lambda_star))
        assert traj.states[1][0] == pytest.approx(5.0)

    def test_zero_lambda_is_plain_feedback(self, example, example_schedule):
        x = np.array([0.3, -1.2])
        u = optimal_policy(example_schedule, np.zeros(2))(1, x)
        npt.assert_allclose(u, example_schedule.K[1] @ x, rtol=1e-15)

    def test_stage_two_printed_arithmetic(self, example_schedule, example_lambda):
        u = optimal_policy(example_schedule, example_lambda.lambda_star)(
            2, np.array([1.0, 0.0]))
        assert u[0] == pytest.approx(2.5912, abs=5e-4)

    def test_stage_out_of_range(self, example_schedule):
        with pytest.raises(StageOutOfRange):
            optimal_policy(example_schedule, np.zeros(2))(3, np.zeros(2))

    def test_example_terminal_exactness(self, example, example_schedule, example_lambda):
        traj = rollout(example, optimal_policy(example_schedule,
                                             example_lambda.lambda_star))
        assert traj.terminal_error <= 1e-6
        assert traj.cost == pytest.approx(EXACT_COST, rel=1e-12)

    def test_zero_policy_is_pure_drift(self, example):
        traj = rollout(example, lambda k, x: np.zeros(1))
        for k in range(example.N + 2):
            npt.assert_allclose(traj.states[k], drift_product(example, 0, k) @ example.x0,
                                rtol=1e-13, atol=1e-13)

    def test_replay_identity(self, example, example_schedule, example_lambda):
        traj = rollout(example, optimal_policy(example_schedule,
                                             example_lambda.lambda_star))
        for k in range(example.N + 1):
            npt.assert_array_equal(
                traj.states[k + 1],
                example.A[k] @ traj.states[k] + example.B[k] @ traj.inputs[k])

    def test_non_finite_state_detected(self, example):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                rollout(example, lambda k, x: np.array([1e308]))


class TestCostate:
    """The model controller against the oracle's costates p(k), and the
    constraint part Phi(k+1,N)' lambda of the closed-loop costates."""

    def test_example_stationarity(self, example, example_schedule, example_lambda):
        traj = rollout(example, optimal_policy(example_schedule,
                                             example_lambda.lambda_star))
        p = kkt_oracle(example).costates
        assert stationarity_residual(example, traj.inputs, p) <= 1e-8

    def test_scalar_residual_is_zero(self):
        inst = scalar_instance(x0=2.0, xi=5.0)
        sched = solve_schedule(inst)
        lamsol = solve_lambda(sched, inst)
        traj = rollout(inst, optimal_policy(sched, lamsol.lambda_star))
        p = kkt_oracle(inst).costates
        assert stationarity_residual(inst, traj.inputs, p) == pytest.approx(0.0, abs=1e-14)

    def test_perturbed_input_residual_is_linear(self):
        # R = 1: the defect is the input perturbation itself
        inst = scalar_instance(x0=2.0, xi=5.0)
        sched = solve_schedule(inst)
        lamsol = solve_lambda(sched, inst)
        policy = optimal_policy(sched, lamsol.lambda_star)
        traj = rollout(inst, lambda k, x: policy(k, x) + 0.1)
        p = kkt_oracle(inst).costates
        assert stationarity_residual(inst, traj.inputs, p) == pytest.approx(0.1)

    def test_sequence_boundary_and_recursion(self, example, example_schedule, example_lambda):
        # p(N) = H x(N+1) + lambda; eta(k) = Phi(k,N)' lambda starts from
        # eta(N+1) = lambda and steps back through the closed loop Ac(k)'
        lam, N = example_lambda.lambda_star, example.N
        traj = rollout(example, optimal_policy(example_schedule, lam))
        p = kkt_oracle(example).costates
        npt.assert_allclose(p[N], example.H @ traj.states[N + 1] + lam, rtol=1e-12)
        eta = np.einsum("kji,j->ki", example_schedule.Phi, lam)
        npt.assert_array_equal(eta[N + 1], lam)
        for k in range(N, -1, -1):
            Ac = example.A[k] + example.B[k] @ example_schedule.K[k]
            npt.assert_allclose(eta[k], Ac.T @ eta[k + 1], rtol=1e-12, atol=1e-12)
