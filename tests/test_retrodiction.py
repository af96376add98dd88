"""Bayes recovery maps, round trips, and the curvature equivalence check."""

import os
import warnings

import numpy as np
import pytest

import fisherflow as ff
import oracles
from helpers import random_interior, random_markovian

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


class TestBayesInverse:
    def test_two_state_fixture(self):
        t_hat = ff.bayes_inverse([[0.9, 0.2], [0.1, 0.8]], [0.5, 0.5])
        want = np.array([[9 / 11, 1 / 9], [2 / 11, 8 / 9]])
        assert np.allclose(t_hat, want, atol=1e-12)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(13)
        from scipy.linalg import expm

        for _ in range(20):
            n = int(rng.integers(2, 6))
            t_mat = expm(0.5 * random_markovian(rng, n))
            pi = random_interior(rng, n)
            got = ff.bayes_inverse(t_mat, pi)
            assert np.allclose(got, oracles.bayes_direct(t_mat, pi), atol=1e-12)

    def test_columns_are_posteriors(self):
        t_hat = ff.bayes_inverse([[0.9, 0.2], [0.1, 0.8]], [0.5, 0.5])
        assert np.allclose(t_hat.sum(axis=0), 1.0, atol=1e-12)

    def test_recovers_prior_from_pushforward(self):
        t_mat = np.array([[0.9, 0.2], [0.1, 0.8]])
        pi = np.array([0.3, 0.7])
        t_hat = ff.bayes_inverse(t_mat, pi)
        assert np.allclose(t_hat @ (t_mat @ pi), pi, atol=1e-12)

    def test_dead_output_rejected(self):
        with pytest.raises(ff.UndefinedPosteriorError):
            ff.bayes_inverse([[1.0, 1.0], [0.0, 0.0]], [0.5, 0.5])


class TestPiTangentBasis:
    @pytest.mark.parametrize("pi", [[0.5, 0.5], [0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]])
    def test_orthonormal_in_prior_metric(self, pi):
        b = ff.pi_tangent_basis(pi)
        n = len(pi)
        assert b.shape == (n, n - 1)
        assert np.allclose(b.sum(axis=0), 0.0, atol=1e-12)
        gram = np.array(
            [[ff.fisher_inner(b[:, a], b[:, c], pi) for c in range(n - 1)] for a in range(n - 1)]
        )
        assert np.allclose(gram, np.eye(n - 1), atol=1e-12)

    def test_boundary_prior_rejected(self):
        with pytest.raises(ff.SingularBaseError):
            ff.pi_tangent_basis([1.0, 0.0])


class TestRetrodictionContext:
    def _relaxation(self, grid=None):
        if grid is None:
            grid = np.linspace(0.0, 1.0, 21)
        return ff.retrodiction_context([0.5, 0.5], ff.GeneratorDynamics(SYM), grid)

    def test_prior_is_fixed_point(self):
        ctx = self._relaxation()
        assert ctx.prior_recovery_defect() <= 1e-12

    def test_self_adjoint_in_prior_metric(self):
        ctx = self._relaxation()
        assert ctx.self_adjoint_defect() <= 1e-12

    def test_spectrum_in_unit_interval(self):
        ctx = self._relaxation()
        for t in (0.0, 0.25, 0.5, 1.0):
            vals = ctx.recovery_spectrum(t)
            assert vals.min() >= -1e-12
            assert vals.max() <= 1.0 + 1e-12

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ff.DomainError):
            ff.retrodiction_context([0.5, 0.5], ff.GeneratorDynamics(SYM), [0.5, 1.0])

    def test_boundary_prior_rejected(self):
        with pytest.raises(ff.SingularBaseError):
            ff.retrodiction_context([1.0, 0.0], ff.GeneratorDynamics(SYM), [0.0, 1.0])


class TestRetrodictionDistance:
    def test_relaxation_closed_form(self):
        # symmetric two-state relaxation: residual is (1 - e^{-4t}) d exactly
        ctx = ff.retrodiction_context(
            [0.5, 0.5], ff.GeneratorDynamics(SYM), np.linspace(0.0, 1.0, 21)
        )
        delta = 0.01
        p0 = np.array([0.5 + delta, 0.5 - delta])
        for t in (0.0, 0.25, 0.5, 1.0):
            want = oracles.relaxation_retro_sq(delta, t)
            assert ff.retrodiction_distance_sq(p0, ctx, t) == pytest.approx(want, abs=1e-15)
        assert oracles.relaxation_retro_sq(0.01, 0.5) == pytest.approx(0.00014952901448310178)

    def test_monotone_and_bounded_for_markovian(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            r = random_markovian(rng, n)
            pi = random_interior(rng, n)
            grid = np.linspace(0.0, 1.0, 17)
            ctx = ff.retrodiction_context(pi, ff.GeneratorDynamics(r), grid)
            p0 = pi + 1e-3 * np.min(pi) * ff.zero_sum_basis(n)[:, 0]
            d = p0 / p0.sum() - pi
            cap = ff.fisher_inner(d, d, pi)
            curve = [ff.retrodiction_distance_sq(p0, ctx, float(t)) for t in grid]
            assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
            assert all(v <= cap * (1.0 + 1e-9) + 1e-15 for v in curve)

    def test_large_displacement_warns(self):
        ctx = ff.retrodiction_context(
            [0.5, 0.5], ff.GeneratorDynamics(SYM), np.linspace(0.0, 1.0, 5)
        )
        with pytest.warns(UserWarning, match="displacement"):
            ff.retrodiction_distance_sq([0.9, 0.1], ctx, 0.5)


class TestAdjointIdentity:
    def test_exact_for_relaxation(self):
        ctx = ff.retrodiction_context(
            [0.35, 0.65], ff.GeneratorDynamics(SYM), np.linspace(0.0, 1.5, 31)
        )
        for t in (0.0, 0.75, 1.5):
            assert ff.adjoint_identity_check(ctx, t, trials=100, seed=0) <= 1e-10

    def test_exact_for_random_markovian(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            ctx = ff.retrodiction_context(
                random_interior(rng, n),
                ff.GeneratorDynamics(random_markovian(rng, n)),
                np.linspace(0.0, 1.0, 9),
            )
            assert ff.adjoint_identity_check(ctx, 0.5, trials=100, seed=1) <= 1e-10

    def test_holds_even_for_nonmarkovian(self):
        # the identity is algebraic; divisibility plays no role
        ctx = ff.retrodiction_context(
            [0.2, 0.4, 0.4], ff.case_study_dynamics(), np.linspace(0.0, np.pi, 65)
        )
        t = float(ctx.grid[20])
        assert ff.adjoint_identity_check(ctx, t, trials=100, seed=2) <= 1e-10


    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_batched_trials_equal_per_trial_loop(self, seed):
        scn = ff.load_scenario(os.path.join(SCENARIO_DIR, "relaxation_retro.json"))
        block = scn.analyses.retrodiction
        grid = scn.grid.times()
        ctx = ff.retrodiction_context(block.prior, ff.build_dynamics(scn.dynamics), grid)
        for k in np.unique(np.linspace(0, grid.size - 1, 9).astype(int)):
            want = oracles.adjoint_defect_loop(
                ctx.forward_maps[k], ctx.round_trips[k], ctx.prior, block.trials, seed
            )
            assert ff.adjoint_identity_check(ctx, float(grid[k]), trials=block.trials, seed=seed) == want


class TestEquivalenceCheck:
    def test_markovian_time_is_consistent(self):
        ctx = ff.retrodiction_context(
            [0.35, 0.65], ff.GeneratorDynamics(SYM), np.linspace(0.0, 1.0, 11)
        )
        report = ff.retrodiction_equivalence_check(ctx, 0.5)
        assert report.verdict == "consistent"
        assert report.lambda_max < 0.0
        assert report.curvature_min > 0.0
        assert report.consistent is True
        assert report.retro_rates_along_negative == ()

    def test_case_study_never_inconsistent(self):
        ctx = ff.retrodiction_context(
            [0.2, 0.4, 0.4], ff.case_study_dynamics(), np.linspace(0.0, np.pi, 65)
        )
        lams = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t in np.linspace(0.05, np.pi - 0.05, 40):
                report = ff.retrodiction_equivalence_check(ctx, float(t))
                assert report.verdict != "inconsistent"
                lams.append((float(t), report.lambda_max, report.verdict))
        dilating = [x for x in lams if x[1] > 1e-6]
        contracting = [x for x in lams if x[1] < -1e-6]
        assert dilating, "sweep must hit a backflow window"
        assert contracting, "sweep must hit contracting stretches"
        assert any(v == "consistent" for _, _, v in dilating)

    def test_backflow_time_reports_improving_recovery(self):
        ctx = ff.retrodiction_context(
            [0.2, 0.4, 0.4], ff.case_study_dynamics(), np.linspace(0.0, np.pi, 65)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t in np.linspace(0.05, np.pi - 0.05, 60):
                report = ff.retrodiction_equivalence_check(ctx, float(t))
                if report.verdict == "consistent" and report.lambda_max > 0.0:
                    assert report.retro_rates_along_negative
                    assert all(rate < 0.0 for rate in report.retro_rates_along_negative)
                    return
        pytest.fail("no consistent backflow time found in the sweep")
