"""Model-free pipeline tests: probe sampling, the packed regressor, stage
fitting and extraction, and the full backward learning loop against the
model-based solution."""

from __future__ import annotations

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from termlq import (
    GaussianSpec,
    InsufficientSamples,
    OracleMiss,
    RankDeficient,
    SimulatedPlant,
    SingularBlock,
    StageOutOfRange,
    learn,
    learned_policy,
    make_instance,
    rollout,
    sample_threshold,
    solve_lambda,
    solve_schedule,
)
from termlq import qlearn
from termlq.harness import draw_reachable_instance, random_instance, verify_solution
from termlq.errors import TermLqError
from termlq.linalg import RANK_RTOL
from termlq.qlearn import (
    BLOCK_BYTES,
    RESIDUAL_WARN_RTOL,
    LearnedSchedule,
    ReplayLog,
    StageDataset,
    extract_stage,
    pack_symmetric,
    regressor_matrix,
    stage_targets,
    unpack_symmetric,
)

from golden import (
    GOLDEN_LEARN_SAMPLES,
    GOLDEN_LEARN_SEED,
    PRINTED_K,
    PRINTED_K1,
    PRINTED_LAMBDA,
    PRINTED_NU,
    PRINTED_P,
)
from qkernels import fit, model_kernel, regressor_row, stage_dataset, terminal_targets
from reference_fit import lstsq_fit, outer_product_regressor
from reference_learn import reference_learn
from replay_logs import episodic_log

DIST = GaussianSpec()


def rows(ds, idx):
    """The probes of ds at the given row indices, in that order."""
    return StageDataset(ds.k, ds.X[idx], ds.U[idx], ds.L[idx], ds.Xn[idx])


def repeated(k, x, u, lam, x_next, l=15):
    """A stage dataset of l copies of one probe."""
    return StageDataset(k, *(np.tile(v, (l, 1)) for v in (x, u, lam, x_next)))


def replay_of(datasets):
    """One replay log holding the probes of several stage datasets."""
    return ReplayLog(np.concatenate([np.full(len(ds.X), ds.k) for ds in datasets]),
                     *(np.concatenate([getattr(ds, f) for ds in datasets])
                       for f in ("X", "U", "L", "Xn")))


def count_calls(monkeypatch, name):
    """Record the stage k of every call of the qlearn function name."""
    calls = []
    original = getattr(qlearn, name)

    def counted(ds, *args, **kwargs):
        calls.append(ds.k)
        return original(ds, *args, **kwargs)
    monkeypatch.setattr(qlearn, name, counted)
    return calls


def example_learned(example, l=GOLDEN_LEARN_SAMPLES, seed=GOLDEN_LEARN_SEED,
                  dist=None):
    return learn(SimulatedPlant(example), (example.n, example.m, example.N),
                 (example.Q, example.R, example.H), example.x0, example.xi, l,
                 dist if dist is not None else DIST, seed)


class TestSampling:
    def test_threshold_count(self):
        assert sample_threshold(2, 1) == 15
        assert sample_threshold(1, 1) == 6
        assert sample_threshold(3, 2) == 36

    def test_below_threshold_refused(self, example):
        class Counting(SimulatedPlant):
            steps = 0

            def step(self, k, X, U):
                Counting.steps += 1
                return super().step(k, X, U)

        with pytest.raises(InsufficientSamples):
            learn(Counting(example), (example.n, example.m, example.N),
                  (example.Q, example.R, example.H), example.x0, example.xi, 14, DIST, seed=0)
        assert Counting.steps == 0

    def test_probe_spec_refuses_non_finite_values(self):
        for kwargs in ({"mean": np.nan}, {"mean": np.inf}, {"covariance_scale": np.inf},
                       {"covariance_scale": np.nan}):
            with pytest.raises(ValueError, match="finite"):
                GaussianSpec(**kwargs)

    def test_same_seed_same_dataset(self, example):
        a = stage_dataset(example, 1, 20, DIST, seed=42)
        b = stage_dataset(example, 1, 20, DIST, seed=42)
        npt.assert_array_equal(a.X, b.X)
        npt.assert_array_equal(a.U, b.U)
        npt.assert_array_equal(a.L, b.L)
        npt.assert_array_equal(a.Xn, b.Xn)

    def test_stages_use_distinct_substreams(self, example):
        a = stage_dataset(example, 0, 20, DIST, seed=42)
        b = stage_dataset(example, 1, 20, DIST, seed=42)
        assert not np.array_equal(a.X[0], b.X[0])

    def test_plant_answers_are_exact(self, example):
        # every row of the batched answer equals the per-row product bit for
        # bit, also at (n, m) = (8, 4), where a GEMM over the batch does not
        rng = np.random.default_rng(84)
        wide = make_instance([rng.standard_normal((8, 8)) for _ in range(3)],
                             [rng.standard_normal((8, 4)) for _ in range(3)],
                             np.eye(8), np.eye(4), np.eye(8),
                             rng.standard_normal(8), rng.standard_normal(8))
        for inst, l in ((example, 15), (wide, sample_threshold(8, 4))):
            dist = GaussianSpec()
            ds = stage_dataset(inst, 2, l, dist, seed=3)
            assert ds.Xn.shape == (l, inst.n)
            for x, u, x_next in zip(ds.X, ds.U, ds.Xn):
                npt.assert_array_equal(x_next, inst.A[2] @ x + inst.B[2] @ u)

    def test_full_rank_at_example_count(self, example):
        ds = stage_dataset(example, 0, 30, DIST, seed=GOLDEN_LEARN_SEED)
        Z = np.hstack([ds.X, ds.U, ds.L])
        assert np.linalg.matrix_rank(regressor_matrix(Z)) == 15


class TestRegressor:
    def test_unit_vector_isolates_diagonal(self):
        z = np.zeros(5)
        z[0] = 1.0
        row = regressor_row(z)
        expected = np.zeros(15)
        expected[0] = 1.0
        npt.assert_array_equal(row, expected)

    def test_three_vector_expansion(self):
        npt.assert_array_equal(regressor_row(np.array([1.0, 2.0, 3.0])),
                               np.array([1.0, 4.0, 6.0, 4.0, 12.0, 9.0]))

    def test_first_packed_entry_is_stage_two_kernel_corner(self):
        z = np.zeros(5)
        z[0] = 1.0
        assert regressor_row(z) @ PRINTED_NU[2] == 21.0


class TestPacking:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(8)
        for d in range(1, 7):
            S = rng.standard_normal((d, d))
            M = (S + S.T) / 2.0
            npt.assert_array_equal(unpack_symmetric(pack_symmetric(M), d), M)

    def test_row_dot_nu_equals_quadratic_form(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((5, 5))
        M = (M + M.T) / 2.0
        z = rng.standard_normal(5)
        assert regressor_row(z) @ pack_symmetric(M) == pytest.approx(z @ M @ z, rel=1e-13)


class TestTargets:
    def test_terminal_hand_value(self, example):
        # x=(1,0), u=0, lam=0: x+ = A(2)x = (-4,2), gamma = 1 + 0 + 20 + 0
        ds = repeated(2, np.array([1.0, 0.0]), np.zeros(1), np.zeros(2),
                      example.A[2] @ np.array([1.0, 0.0]))
        gamma = terminal_targets(ds, example)
        assert gamma[0] == pytest.approx(21.0)

    def test_zero_sample_gives_zero(self, example):
        ds = repeated(2, np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(2))
        gamma = terminal_targets(ds, example)
        npt.assert_array_equal(gamma, np.zeros(15))

    def test_zero_lambda_interior_reduces_to_lq_target(self, example, example_schedule):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2)
        u = rng.standard_normal(1)
        x_next = example.A[1] @ x + example.B[1] @ u
        ds = repeated(1, x, u, np.zeros(2), x_next)
        gamma = stage_targets(ds, example.Q, example.R, example_schedule.P[2],
                              example_schedule.Phi[2], example_schedule.G[2])
        expected = (x @ example.Q @ x + u @ example.R @ u
                    + x_next @ example_schedule.P[2] @ x_next)
        assert gamma[0] == pytest.approx(expected, rel=1e-13)


class TestFitStage:
    def test_example_terminal_kernel(self, example):
        ds = stage_dataset(example, 2, GOLDEN_LEARN_SAMPLES,
                           DIST, seed=GOLDEN_LEARN_SEED)
        gamma = terminal_targets(ds, example)
        Lam, residual, _ = fit(ds, gamma)
        npt.assert_allclose(pack_symmetric(Lam), PRINTED_NU[2], atol=1e-6)
        assert residual <= 1e-8
        assert residual <= RESIDUAL_WARN_RTOL * np.linalg.norm(gamma)

    def test_zero_targets_give_zero_kernel(self, example):
        ds = stage_dataset(example, 2, 15, DIST, seed=1)
        Lam, _, _ = fit(ds, np.zeros(15))
        npt.assert_allclose(Lam, 0.0, atol=1e-14)

    def test_synthetic_kernel_round_trip(self, example):
        rng = np.random.default_rng(12)
        S = rng.standard_normal((5, 5))
        target = (S + S.T) / 2.0
        ds = stage_dataset(example, 1, 15, DIST, seed=2)
        gamma = np.array([z @ target @ z for z in np.hstack([ds.X, ds.U, ds.L])])
        Lam, _, _ = fit(ds, gamma)
        npt.assert_allclose(Lam, target, atol=1e-9)

    def test_duplicate_rows_lose_rank(self, example):
        ds = stage_dataset(example, 0, 15, DIST, seed=4)
        dup = rows(ds, list(range(14)) + [0])
        gamma = terminal_targets(dup, example)
        with pytest.raises(RankDeficient) as err:
            fit(dup, gamma)
        assert err.value.rank == 14

    def test_order_invariance(self, example):
        ds = stage_dataset(example, 2, 25, DIST, seed=6)
        gamma = terminal_targets(ds, example)
        Lam, _, _ = fit(ds, gamma)
        perm = np.random.default_rng(7).permutation(25)
        shuffled = rows(ds, perm)
        Lam2, _, _ = fit(shuffled, gamma[perm])
        npt.assert_allclose(pack_symmetric(Lam2), pack_symmetric(Lam), atol=1e-10)


class TestReferenceFit:
    """fit_stage against the lstsq fit it replaced, on campaign-style draws:
    reachable instances from the default campaign ranges, a random stage,
    and targets from the model schedule. Each draw fits l = p (Ups square),
    l = p + 10 (the QR path), l = p - 1, and p - 1 distinct rows padded by
    duplicates to l = p and to l = p + 10."""

    DRAWS = 200
    # |Lambda - Lambda_ref|max <= LAMBDA_FACTOR eps cond max(1, |Lambda_ref|max);
    # the largest factor measured over 4,400 such draws, in both full-rank
    # cases and under the auto-detected and the Nehalem OpenBLAS kernels,
    # was 10.2 (1.3e-12 relative at cond 8.5e4)
    LAMBDA_FACTOR = 64.0

    @staticmethod
    def outcome(fit, ds, gamma):
        try:
            return fit(ds, gamma)
        except RankDeficient as err:
            return err

    def draws(self):
        for t in range(self.DRAWS):
            rng = np.random.default_rng(np.random.SeedSequence((1313, t)))
            inst = draw_reachable_instance(rng, (1, 4), (1, 2), (0, 8))
            sched = solve_schedule(inst)
            k = int(rng.integers(0, inst.N + 1))
            p = sample_threshold(inst.n, inst.m)
            ds = stage_dataset(inst, k, p + 10,
                               GaussianSpec(), seed=t)
            cases = {"square": list(range(p)), "over": list(range(p + 10)),
                     "short": list(range(p - 1)),
                     "duplicate-square": list(range(p - 1)) + [0],
                     "duplicate-over": list(range(p - 1)) + [0] * 11}
            for case, idx in cases.items():
                sub = rows(ds, idx)
                yield case, sub, stage_targets(sub, inst.Q, inst.R, sched.P[k + 1],
                                               sched.Phi[k + 1], sched.G[k + 1])

    def test_verdicts_cond_and_kernel_match_lstsq(self):
        eps = np.finfo(float).eps
        seen = set()
        for case, ds, gamma in self.draws():
            got, ref = self.outcome(fit, ds, gamma), self.outcome(lstsq_fit, ds, gamma)
            assert type(got) is type(ref), case
            full_rank = case in ("square", "over")
            assert isinstance(got, tuple) == full_rank, case
            if full_rank:
                (Lam, residual, cond), (Lam_ref, _, cond_ref) = got, ref
                bound = self.LAMBDA_FACTOR * eps * cond_ref * max(1.0, np.abs(Lam_ref).max())
                assert np.abs(Lam - Lam_ref).max() <= bound, case
                assert residual == np.linalg.norm(
                    regressor_matrix(np.hstack([ds.X, ds.U, ds.L]))
                    @ pack_symmetric(Lam) - gamma)
            else:
                assert got.rank == ref.rank, case
                cond, cond_ref = got.cond, ref.cond
            if case.startswith("duplicate"):
                # sigma_min sits at roundoff level, so cond is noise past the cutoff
                floor = 1.0 / (len(ds.X) * RANK_RTOL)
                assert cond >= floor and cond_ref >= floor, case
            else:
                assert cond == pytest.approx(cond_ref, rel=1e-12), case
            seen.add(case)
        assert len(seen) == 5

    def test_regressor_matches_outer_product_form(self):
        rng = np.random.default_rng(13)
        for d in (1, 3, 5, 8, 20):
            Z = rng.standard_normal((sample_threshold(d, 0) + 3, d))
            npt.assert_array_equal(regressor_matrix(Z), outer_product_regressor(Z))


class TestExtractStage:
    def test_example_terminal_extraction(self, example):
        K, K1, P, _, _ = extract_stage(2, unpack_symmetric(PRINTED_NU[2], 5),
                                       G_next=np.zeros((2, 2)))
        npt.assert_allclose(K, PRINTED_K[2], atol=1e-3)
        npt.assert_allclose(K1, PRINTED_K1[2], atol=1e-3)
        npt.assert_allclose(P, PRINTED_P[2], atol=1e-3)

    def test_decoupled_blocks(self):
        Lam = np.zeros((5, 5))
        Lam[:2, :2] = np.array([[2.0, 1.0], [1.0, 3.0]])
        Lam[2, 2] = 4.0
        Lam[3:, 3:] = -np.eye(2)
        K, K1, P, _, G = extract_stage(0, Lam, G_next=np.eye(2))
        npt.assert_array_equal(K, np.zeros((1, 2)))
        npt.assert_array_equal(K1, np.zeros((1, 2)))
        npt.assert_array_equal(P, Lam[:2, :2])
        npt.assert_array_equal(G, np.eye(2))

    def test_model_assembled_round_trip(self, example, example_schedule):
        for k in range(example.N + 1):
            Lam = model_kernel(example, example_schedule, k)
            K, K1, P, Phi_row, G = extract_stage(k, Lam, G_next=example_schedule.G[k + 1])
            npt.assert_allclose(K, example_schedule.K[k], atol=1e-10)
            npt.assert_allclose(K1, example_schedule.K1[k], atol=1e-10)
            npt.assert_allclose(P, example_schedule.P[k], atol=1e-10)
            npt.assert_allclose(Phi_row, example_schedule.Phi[k], atol=1e-10)
            npt.assert_allclose(G, example_schedule.G[k], atol=1e-10)

    def test_indefinite_input_block_refused(self):
        with pytest.raises(SingularBlock):
            extract_stage(0, np.zeros((5, 5)), G_next=np.zeros((2, 2)))


class TestLearn:
    def test_example_pipeline(self, example, example_schedule, example_lambda):
        ls = example_learned(example)
        npt.assert_allclose(ls.lambda_star, PRINTED_LAMBDA, atol=1e-3)
        for k in (0, 1, 2):
            npt.assert_allclose(ls.K[k], PRINTED_K[k], atol=1e-3)
            npt.assert_allclose(ls.K1[k], PRINTED_K1[k], atol=1e-3)
            npt.assert_allclose(pack_symmetric(ls.Lambda[k]), PRINTED_NU[k], atol=1e-3)
        npt.assert_allclose(ls.lambda_star, example_lambda.lambda_star, atol=1e-9)

    def test_exact_recovery_of_model_kernels(self, example, example_schedule):
        ls = example_learned(example)
        for k in range(example.N + 1):
            expected = model_kernel(example, example_schedule, k)
            npt.assert_allclose(ls.Lambda[k], expected, atol=1e-8)

    def test_learned_controller_reaches_target(self, example):
        ls = example_learned(example)
        traj = rollout(example, learned_policy(ls))
        assert traj.terminal_error <= 1e-6

    def test_learned_policy_rejects_out_of_range_stage(self, example):
        policy = learned_policy(example_learned(example))
        for k in (-1, example.N + 1):
            with pytest.raises(StageOutOfRange, match=f"stage {k} outside 0..2"):
                policy(k, example.x0)

    def test_schedule_is_read_only_stacks(self, example):
        ls = example_learned(example)
        fit = ls.fit_diagnostics
        shapes = {"Lambda": (ls.Lambda, (3, 5, 5)), "K": (ls.K, (3, 1, 2)),
                  "K1": (ls.K1, (3, 1, 2)), "P": (ls.P, (4, 2, 2)),
                  "Phi": (ls.Phi, (4, 2, 2)), "G": (ls.G, (4, 2, 2)),
                  "residual": (fit.residual, (3,)), "cond": (fit.cond, (3,)),
                  "high_residual": (fit.high_residual, (3,))}
        for name, (stack, shape) in shapes.items():
            assert isinstance(stack, np.ndarray) and stack.shape == shape, name
            assert not stack.flags.writeable, name
        assert not fit.high_residual.any()

    def test_matches_model_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            inst = draw_reachable_instance(rng, (1, 3), (1, 2), (0, 4))
            sched = solve_schedule(inst)
            lamsol = solve_lambda(sched, inst)
            l = sample_threshold(inst.n, inst.m)
            ls = learn(SimulatedPlant(inst), (inst.n, inst.m, inst.N),
                       (inst.Q, inst.R, inst.H), inst.x0, inst.xi, l,
                       GaussianSpec(),
                       seed=int(rng.integers(2 ** 63)))
            for k in range(inst.N + 1):
                npt.assert_allclose(ls.K[k], sched.K[k], atol=1e-8)
                npt.assert_allclose(ls.K1[k], sched.K1[k], atol=1e-8)
            npt.assert_allclose(ls.P[0], sched.P[0], atol=1e-8)

    def test_lambda_probe_mean_shift_leaves_k_and_p(self, example):
        base = example_learned(example)
        shifted = example_learned(example, dist=GaussianSpec(mean=2.5))
        for k in range(example.N + 1):
            npt.assert_allclose(shifted.K[k], base.K[k], atol=1e-8)
            npt.assert_allclose(shifted.P[k], base.P[k], atol=1e-8)

    def test_terminal_stage_uses_h_as_given(self, example):
        # H asymmetric within the validation tolerance: the terminal fit
        # takes H itself, not its symmetric part P(N+1), bit for bit
        H = example.H.copy()
        H[0, 1] += 1e-13
        inst = make_instance(example.A, example.B, example.Q, example.R, H,
                             example.x0, example.xi)
        ls = example_learned(inst)
        ds = stage_dataset(inst, inst.N, GOLDEN_LEARN_SAMPLES,
                           DIST, seed=GOLDEN_LEARN_SEED)
        Lam, residual, _ = fit(ds, terminal_targets(ds, inst))
        npt.assert_array_equal(ls.Lambda[inst.N], Lam)
        assert ls.fit_diagnostics.residual[inst.N] == residual
        npt.assert_array_equal(ls.P[inst.N + 1], (H + H.T) / 2.0)

    def test_unreachable_target_raises(self, example):
        from termlq import NotReachable
        B0 = [np.zeros((2, 1))] * 3
        inst = make_instance(example.A, B0, example.Q, example.R, example.H,
                             example.x0, example.xi)
        with pytest.raises(NotReachable):
            learn(SimulatedPlant(inst), (2, 1, 2), (inst.Q, inst.R, inst.H),
                  inst.x0, inst.xi, 15, DIST, seed=0)


class TestReferenceLearn:
    """learn against the per-stage loop it replaced (reference_learn): the
    same schedule, multiplier and fit diagnostics bit for bit, or the same
    exception class, message (which names the stage) and payload. A replay
    log with a short stage departs from the loop on purpose: learn refuses
    it before any fit, where the loop failed at that stage."""

    DRAWS = 100

    @staticmethod
    def outcome(run, inst, l, seed, oracle=None, dist=None):
        try:
            return run(oracle if oracle is not None else SimulatedPlant(inst),
                       (inst.n, inst.m, inst.N), (inst.Q, inst.R, inst.H),
                       inst.x0, inst.xi, l, dist, seed)
        except TermLqError as err:
            return err

    def assert_same(self, inst, l, seed, oracle=None, dist=None):
        got = self.outcome(learn, inst, l, seed, oracle, dist)
        ref = self.outcome(reference_learn, inst, l, seed, oracle, dist)
        assert type(got) is type(ref)
        if isinstance(ref, TermLqError):
            assert (str(got), vars(got)) == (str(ref), vars(ref))
            return got
        for name in ("Lambda", "K", "K1", "P", "Phi", "G", "lambda_star"):
            npt.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)
        for name in ("residual", "cond", "high_residual"):
            npt.assert_array_equal(getattr(got.fit_diagnostics, name),
                                   getattr(ref.fit_diagnostics, name), err_msg=name)
        return got

    @staticmethod
    def native_instance(dims, seed=0):
        n, m, N = dims
        rng = np.random.default_rng(seed)
        return make_instance(rng.standard_normal((N + 1, n, n)),
                             rng.standard_normal((N + 1, n, m)),
                             np.eye(n), np.eye(m), np.eye(n),
                             rng.standard_normal(n), rng.standard_normal(n))

    @staticmethod
    def blocks(dims):
        n, m, N = dims
        p = sample_threshold(n, m)
        width = max(1, BLOCK_BYTES // (8 * p * p))
        return -(-(N + 1) // width)

    def test_campaign_draws_at_and_above_threshold(self):
        for t in range(self.DRAWS):
            rng = np.random.default_rng(np.random.SeedSequence((1515, t)))
            inst = draw_reachable_instance(rng, (1, 4), (1, 2), (0, 8))
            p = sample_threshold(inst.n, inst.m)
            for l in (p, p + 10):
                self.assert_same(inst, l, seed=t)

    @pytest.mark.parametrize("dims, blocks", [((8, 4, 16), 17), ((3, 2, 64), 3)])
    def test_wide_and_long_horizons(self, dims, blocks):
        # (8, 4, 16) fits one stage per block, (3, 2, 64) spans three blocks
        assert self.blocks(dims) == blocks
        inst = self.native_instance(dims)
        ls = self.assert_same(inst, sample_threshold(dims[0], dims[1]), seed=7)
        assert isinstance(ls, LearnedSchedule)

    def test_replay_missing_interior_stage(self, monkeypatch):
        dims = (3, 2, 64)
        inst = self.native_instance(dims)
        l = sample_threshold(3, 2)
        dist = GaussianSpec()
        # stage 30 sits inside the second block of stages 39..15; the log is
        # refused before the first block is fitted
        log = replay_of([stage_dataset(inst, k, l, dist, seed=7)
                         for k in range(inst.N + 1) if k != 30])
        fits = count_calls(monkeypatch, "fit_stage")
        err = self.outcome(learn, inst, l, seed=7, oracle=log)
        assert isinstance(err, OracleMiss)
        assert str(err) == ("replay log has 0 records for stage 30, "
                            "fewer than the 36 samples per stage")
        assert fits == []

    def test_below_threshold(self):
        inst = self.native_instance((3, 2, 64))
        err = self.assert_same(inst, sample_threshold(3, 2) - 1, seed=7)
        assert isinstance(err, InsufficientSamples)

    def test_oracle_miss_precedes_rank_verdict_of_its_stage(self, example):
        # probes 1 + 1e-20 z round to 1.0: every regressor has rank 1, and
        # the log's short stage 0 is refused before stage 2's rank verdict
        flat = GaussianSpec(mean=1.0, covariance_scale=1e-40)
        assert isinstance(self.assert_same(example, 15, seed=3, dist=flat), RankDeficient)
        datasets = [stage_dataset(example, k, 15, flat, seed=3) for k in range(example.N + 1)]
        partial = replay_of([datasets[2], datasets[1], rows(datasets[0], list(range(14)))])
        err = self.outcome(learn, example, 15, seed=3, oracle=partial, dist=flat)
        assert isinstance(err, OracleMiss) and "14 records for stage 0," in str(err)

    def test_traced_peak_of_a_wide_learn(self):
        inst = self.native_instance((8, 4, 16))
        tracemalloc.start()
        try:
            learn(SimulatedPlant(inst), (8, 4, 16), (inst.Q, inst.R, inst.H),
                  inst.x0, inst.xi, sample_threshold(8, 4), None, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


class TestReplayLog:
    """A replay log is data: learn fits the first l records of each stage in
    file order, whatever inputs produced them, and reads the multiplier
    column."""

    @staticmethod
    def learn_from(inst, source, l, seed=GOLDEN_LEARN_SEED, dist=DIST):
        return learn(source, (inst.n, inst.m, inst.N), (inst.Q, inst.R, inst.H),
                     inst.x0, inst.xi, l, dist, seed)

    def test_serves_recorded_transitions(self, example):
        # stages interleaved, stage 5 outside 0..N, and records beyond l
        a, b = (stage_dataset(example, k, 4, DIST, seed=5) for k in (1, 2))
        log = replay_of([rows(a, [0, 1]), rows(b, [0]), StageDataset(5, a.X, a.U, a.L, a.Xn),
                         rows(a, [2, 3]), rows(b, [1, 2, 3]),
                         stage_dataset(example, 0, 4, DIST, seed=5)])
        idx = log.stage_rows(example.N, 3)
        npt.assert_array_equal(idx, [[12, 13, 14], [0, 1, 7], [2, 9, 10]])
        npt.assert_array_equal(log.X[idx[1]], a.X[:3])
        npt.assert_array_equal(log.L[idx[2]], b.L[:3])

    def test_miss_raises(self, example):
        ds = stage_dataset(example, 1, 15, DIST, seed=5)
        log = ReplayLog(ds.k, ds.X, ds.U, ds.L, ds.Xn)
        with pytest.raises(OracleMiss, match="^replay log has 0 records for stage 2,"):
            log.stage_rows(example.N, 15)
        full = replay_of([rows(stage_dataset(example, k, 15, DIST, seed=5), list(range(14)))
                          if k == 1 else stage_dataset(example, k, 15, DIST, seed=5)
                          for k in range(example.N + 1)])
        with pytest.raises(OracleMiss, match="^replay log has 14 records for stage 1, "
                                             "fewer than the 15 samples per stage$"):
            self.learn_from(example, full, 15)

    def test_permuted_rows_fitted_in_file_order(self, example):
        datasets = [stage_dataset(example, k, GOLDEN_LEARN_SAMPLES, DIST,
                                  seed=GOLDEN_LEARN_SEED) for k in range(example.N + 1)]
        perm = np.random.default_rng(3).permutation(GOLDEN_LEARN_SAMPLES)
        shuffled = self.learn_from(example, replay_of([rows(ds, perm) for ds in datasets]),
                                   GOLDEN_LEARN_SAMPLES)
        from_plant = example_learned(example)
        for name in ("K", "K1", "P", "lambda_star"):
            npt.assert_allclose(getattr(shuffled, name), getattr(from_plant, name),
                                atol=1e-8, err_msg=name)

    def test_seed_and_distribution_do_not_matter(self, example):
        datasets = [stage_dataset(example, k, 15, DIST, seed=5) for k in range(example.N + 1)]
        log = replay_of(datasets)
        base = self.learn_from(example, log, 15, seed=5)
        other = self.learn_from(example, log, 15, seed=6, dist=GaussianSpec(2.0, 3.0))
        npt.assert_array_equal(other.Lambda, base.Lambda)
        npt.assert_array_equal(other.lambda_star, base.lambda_star)

    def test_recorded_multiplier_column_is_fitted(self, example, example_schedule):
        # the same (x, u, x_next) with another lambda column: the fit moves,
        # the recovered schedule does not
        datasets = [stage_dataset(example, k, 15, DIST, seed=5) for k in range(example.N + 1)]
        rng = np.random.default_rng(11)
        relabelled = [StageDataset(ds.k, ds.X, ds.U, rng.standard_normal(ds.L.shape), ds.Xn)
                      for ds in datasets]
        base = self.learn_from(example, replay_of(datasets), 15)
        other = self.learn_from(example, replay_of(relabelled), 15)
        assert not np.array_equal(other.fit_diagnostics.cond, base.fit_diagnostics.cond)
        npt.assert_allclose(other.K1, example_schedule.K1, atol=1e-8)
        npt.assert_allclose(other.Lambda, base.Lambda, atol=1e-8)

    def test_replay_reproduces_plant_learning(self, example):
        datasets = [stage_dataset(example, k,
                                  GOLDEN_LEARN_SAMPLES, DIST,
                                  seed=GOLDEN_LEARN_SEED)
                    for k in range(example.N + 1)]
        from_log = learn(replay_of(datasets), (example.n, example.m, example.N),
                         (example.Q, example.R, example.H), example.x0, example.xi,
                         GOLDEN_LEARN_SAMPLES, DIST, seed=GOLDEN_LEARN_SEED)
        from_plant = example_learned(example)
        npt.assert_array_equal(from_log.lambda_star, from_plant.lambda_star)
        npt.assert_array_equal(from_log.Lambda, from_plant.Lambda)

    def test_episodic_logs_learn_contractive_plants(self):
        # plant runs from random initial states, never the learner's probes:
        # 20 contractive (3, 2, 16) instances at 4x the threshold
        n, m, N = 3, 2, 16
        l = 4 * sample_threshold(n, m)
        worst = 0.0
        for t in range(20):
            rng = np.random.default_rng(np.random.SeedSequence((2211, t)))
            drawn = random_instance(rng, n, m, N)
            inst = make_instance(drawn.A / (2.0 * np.sqrt(n)), drawn.B, drawn.Q, drawn.R,
                                 drawn.H, drawn.x0, drawn.xi)
            sched = solve_schedule(inst)
            ls = self.learn_from(inst, episodic_log(inst, l, rng), l)
            worst = max(worst, np.abs(ls.K - sched.K).max(), np.abs(ls.K1 - sched.K1).max())
        assert worst <= 1e-8


class TestLongHorizonGains:
    """Native (3, 2, 64) verify instances whose threshold fits once missed
    the 1e-8 learned-gain bound: (pool seed, op) pairs, the instance being
    draw op mod 64 of default_rng(SeedSequence((seed, 1))) and the learn
    seed the op index. The lstsq fit gave max_gain_error 1.0e-8, 1.4e-8 and
    5.7e-8 on them."""

    DIMS = (3, 2, 64)
    POOL = 64

    def pool_instance(self, seed, index):
        n, m, N = self.DIMS
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        for _ in range(index + 1):
            A = rng.standard_normal((N + 1, n, n))
            B = rng.standard_normal((N + 1, n, m))
            x0, xi = rng.standard_normal(n), rng.standard_normal(n)
        return make_instance(A, B, np.eye(n), np.eye(m), np.eye(n), x0, xi)

    @pytest.mark.parametrize("seed, op", [(8, 226), (9, 182), (13, 198)])
    def test_learned_gains_within_bound(self, seed, op):
        inst = self.pool_instance(seed, op % self.POOL)
        sched = solve_schedule(inst)
        lamsol = solve_lambda(sched, inst)
        learned = learn(SimulatedPlant(inst), self.DIMS, (inst.Q, inst.R, inst.H),
                        inst.x0, inst.xi, sample_threshold(3, 2), None, seed=op)
        assert verify_solution(inst, sched, lamsol, learned).max_gain_error <= 1e-8
