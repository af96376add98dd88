"""Bayes recovery maps, round trips, and the curvature equivalence check."""

import dataclasses
import glob
import importlib.util
import json
import os
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import fisherflow as ff
import fisherflow.cli
import fisherflow.propagation
import oracles
from fisherflow.cli import main
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

    def test_stack_is_bitwise_the_per_map_results(self):
        rng = np.random.default_rng(17)
        from scipy.linalg import expm

        for n in (2, 3, 5):
            maps = expm(np.multiply.outer(np.linspace(0.0, 2.0, 9), random_markovian(rng, n)))
            pi = random_interior(rng, n)
            want = np.stack([ff.bayes_inverse(m, pi) for m in maps])
            assert np.array_equal(ff.bayes_inverse(maps, pi), want)

    def test_stack_names_first_dead_output(self):
        live = [[0.5, 0.5], [0.5, 0.5]]
        maps = [live, [[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [0.0, 0.0]]]
        with pytest.raises(ff.UndefinedPosteriorError, match="^output 0 has zero probability"):
            ff.bayes_inverse(maps, [0.5, 0.5])


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

    @pytest.mark.parametrize(
        "dyn, prior",
        [
            (ff.GeneratorDynamics(np.array([[-1.0, 0.2, 0.5], [0.6, -0.7, 0.5], [0.4, 0.5, -1.0]])), [0.2, 0.3, 0.5]),
            (ff.case_study_dynamics(), [0.2, 0.4, 0.4]),
            (
                ff.GeneratorDynamics(lambda t: SYM * (1.0 + 0.5 * np.sin(5.0 * t)), dimension=2),
                [0.35, 0.65],
            ),
        ],
        ids=["constant", "mixing", "callable"],
    )
    def test_recovery_maps_are_bitwise_the_per_time_maps(self, dyn, prior):
        ctx = ff.retrodiction_context(prior, dyn, np.linspace(0.0, 1.0, 33))
        want = np.stack([ff.bayes_inverse(m, prior) for m in ctx.forward_maps])
        assert np.array_equal(ctx.recovery_maps, want)

    def test_recovery_maps_use_the_context_prior(self):
        # normalizing this prior a second time moves it by an ulp
        prior = random_interior(np.random.default_rng(3), 6)
        assert not np.array_equal(ff.prob_vec(ff.prob_vec(prior)), ff.prob_vec(prior))
        dyn = ff.GeneratorDynamics(random_markovian(np.random.default_rng(5), 6))
        ctx = ff.retrodiction_context(prior, dyn, np.linspace(0.0, 1.0, 9))
        want = np.stack([oracles.bayes_direct(m, ctx.prior) for m in ctx.forward_maps])
        assert np.array_equal(ctx.recovery_maps, want)

    @pytest.mark.parametrize("t, want, snap", [(1e20, 1, "1.5"), (2.0, 1, "1.5"), (-1e20, 0, "0")])
    def test_off_grid_time_snaps_to_nearest_point(self, t, want, snap):
        ctx = ff.retrodiction_context([0.5, 0.5], ff.GeneratorDynamics(SYM), [0.0, 1.5])
        with pytest.warns(UserWarning, match=f"off the retrodiction grid; snapping to {snap}$"):
            assert ctx.index_of(t) == want
        with pytest.warns(UserWarning, match=f"off the retrodiction grid; snapping to {snap}$"):
            assert ctx.indices_of([0.0, t]).tolist() == [0, want]

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
            assert ff.adjoint_identity_check(ctx, t) <= 1e-10

    def test_exact_for_random_markovian(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            ctx = ff.retrodiction_context(
                random_interior(rng, n),
                ff.GeneratorDynamics(random_markovian(rng, n)),
                np.linspace(0.0, 1.0, 9),
            )
            assert ff.adjoint_identity_check(ctx, 0.5) <= 1e-10

    def test_holds_even_for_nonmarkovian(self):
        # the identity is algebraic; divisibility plays no role
        ctx = ff.retrodiction_context(
            [0.2, 0.4, 0.4], ff.case_study_dynamics(), np.linspace(0.0, np.pi, 65)
        )
        t = float(ctx.grid[20])
        assert ff.adjoint_identity_check(ctx, t) <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_supremum_bounds_every_sampled_defect(self, seed):
        # round trips broken by a perturbation that stays self-adjoint in the
        # prior inner product, so only the pull-back identity fails: by
        # c^T G c on the prior-orthonormal basis, G = B^T diag(1/(2 pi)) E B
        ctx = ff.retrodiction_context(
            [0.2, 0.3, 0.5], ff.case_study_dynamics(), np.linspace(0.0, np.pi, 17)
        )
        rng = np.random.default_rng(seed)
        half = np.sqrt(2.0 * ctx.prior)
        sym = rng.standard_normal((ctx.grid.size, 3, 3))
        e = 1e-3 * half[:, None] * (sym + sym.swapaxes(-1, -2)) / half[None, :]
        broken = dataclasses.replace(ctx, round_trips=ctx.round_trips + e)
        for k in range(0, ctx.grid.size, 4):
            t = float(ctx.grid[k])
            assert ff.adjoint_identity_check(ctx, t) <= 1e-14
            got = ff.adjoint_identity_check(broken, t)
            gram = ctx.basis.T @ (e[k] / (2.0 * ctx.prior)[:, None]) @ ctx.basis
            want = np.max(np.abs(np.linalg.eigvalsh(0.5 * (gram + gram.T))))
            assert got == pytest.approx(want, rel=1e-9)
            sampled = oracles.adjoint_defect_loop(
                broken.forward_maps[k], broken.round_trips[k], ctx.prior, 200, seed
            )
            assert 0.0 < sampled <= got * (1.0 + 1e-9)


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


def _constant(n):
    rng = np.random.default_rng(100 + n)
    r = random_markovian(rng, n)
    return ff.GeneratorDynamics(r), random_interior(rng, n), lambda t: expm(t * r)


def _mixing(dyn, prior):
    return dyn, prior, lambda t: oracles.mixing_propagator_point(dyn.s, dyn.m, t)


#: (dynamics, prior, exact propagator at one time or None) for each family the stacked checks serve.
STACK_CASES = {
    **{f"constant-{n}": lambda n=n: _constant(n) for n in range(2, 7)},
    "case_study": lambda: _mixing(ff.case_study_dynamics(), np.array([0.2, 0.4, 0.4])),
    "contraction": lambda: _mixing(
        ff.contraction_to_target([0.1, 0.3, 0.6], decay_rate=2.0), np.array([0.3, 0.3, 0.4])
    ),
    "callable": lambda: (
        ff.GeneratorDynamics(lambda t: SYM * (1.0 + 0.5 * np.sin(5.0 * t)), dimension=2),
        np.array([0.35, 0.65]),
        None,
    ),
}


@pytest.fixture(params=sorted(STACK_CASES), scope="module")
def stack_case(request):
    dyn, prior, exact = STACK_CASES[request.param]()
    ctx = ff.retrodiction_context(prior, dyn, np.linspace(0.0, np.pi / 2.0, 33))
    return ctx, exact


class TestStackedChecks:
    """Each check on an array of times is bitwise the per-time loop it replaced."""

    def test_distance_over_the_grid(self, stack_case):
        ctx, _ = stack_case
        p0 = ctx.prior + 1e-3 * float(ctx.prior.min()) * ff.zero_sum_basis(ctx.dimension)[:, 0]
        want = oracles.retro_distance_loop(p0, ctx.prior, ctx.round_trips)
        got = ff.retrodiction_distance_sq(p0, ctx, ctx.grid)
        assert np.array_equal(got, want)
        assert ff.retrodiction_distance_sq(p0, ctx, float(ctx.grid[7])) == want[7]

    @pytest.mark.parametrize("pick", [slice(None, None, 4), slice(None, None, -3), [5, 5, 0, 31]])
    def test_adjoint_defects_over_the_grid(self, stack_case, pick):
        ctx, _ = stack_case
        times = ctx.grid[pick]
        want = [ff.adjoint_identity_check(ctx, float(t)) for t in times]
        assert np.array_equal(ff.adjoint_identity_check(ctx, times), want)
        assert max(want) <= 1e-14

    def test_recovery_spectrum(self, stack_case):
        ctx, _ = stack_case
        times = ctx.grid[::4]
        want = oracles.recovery_spectrum_loop(ctx.round_trips[::4], ctx.prior, ctx.basis)
        assert np.array_equal(ctx.recovery_spectrum(times), want)
        assert np.array_equal(ctx.recovery_spectrum(float(times[3])), want[3])

    def test_off_grid_times_snap_as_index_of_does(self, stack_case):
        ctx, _ = stack_case
        times = np.array([ctx.grid[3], 0.5 * (ctx.grid[4] + ctx.grid[5]), -1.0, 1e20, ctx.grid[-1]])
        with pytest.warns(UserWarning, match="off the retrodiction grid") as caught:
            want = [ctx.index_of(float(t)) for t in times]
        with pytest.warns(UserWarning, match="off the retrodiction grid") as again:
            assert ctx.indices_of(times).tolist() == want
        assert [str(w.message) for w in again] == [str(w.message) for w in caught]


class TestEquivalenceClosedForm:
    """The recovery curvature read off the contraction form, against a finite-difference stencil."""

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.94])
    def test_curvature_and_rates_match_the_extrapolated_stencil(self, stack_case, fraction, request):
        ctx, exact = stack_case
        t = float(ctx.grid[int(fraction * (ctx.grid.size - 1))])
        if exact is None:
            # the callable has only the grid's round trips, so its stencil steps along the grid
            h = float(ctx.grid[1] - ctx.grid[0])

            def round_trip_at(s):
                return ctx.round_trips[int(np.argmin(np.abs(ctx.grid - s)))]
        else:
            h = 1e-3

            def round_trip_at(s):
                return oracles.round_trip_direct(exact(s), ctx.prior)

        report = ff.retrodiction_equivalence_check(ctx, t)
        eigvals, estimate, rates = oracles.curvature_loop(
            round_trip_at, ctx.prior, ctx.basis, t, h, ff.retrodiction.INDETERMINATE_BAND
        )
        assert report.time == t
        assert np.max(np.abs(report.recovery_curvature - eigvals)) <= estimate
        assert len(report.retro_rates_along_negative) == len(rates)
        for got, (want, rate_estimate) in zip(report.retro_rates_along_negative, rates):
            assert abs(got - want) <= rate_estimate
        if request.node.callspec.params["stack_case"] == "case_study" and fraction > 0.2:
            assert rates, "the case study's backflow windows must give negative curvature"

    def test_curvature_signs_are_the_negated_form_signs(self, stack_case):
        # Sylvester's law of inertia: the pulled-back form keeps the form's signs;
        # at t = 0 for every family, and on the callable's coarse grid at every time
        ctx, exact = stack_case
        times = ctx.grid if exact is None else ctx.grid[:1]
        for t in times.tolist():
            report = ff.retrodiction_equivalence_check(ctx, t)
            evolved = ctx.forward_maps[ctx.index_of(t)] @ ctx.prior
            form = ff.contraction_form(evolved, ff.generator_of(ctx.dynamics, t))
            assert sorted(np.sign(report.recovery_curvature)) == sorted(-np.sign(form.eigenvalues))
            assert report.lambda_max == form.lambda_max
            assert report.verdict != "inconsistent"


def test_retro_calls_expm_once_for_the_grid(tmp_path, monkeypatch):
    # the equivalence times read the context's propagators and exponentiate nothing more
    shapes = []
    real = fisherflow.propagation.expm

    def counted(a):
        shapes.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(fisherflow.propagation, "expm", counted)
    scenario = os.path.join(SCENARIO_DIR, "relaxation_retro.json")
    assert main(["retro", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    equivalence = json.loads((tmp_path / "retro.json").read_text())["results"]["equivalence"]
    assert len(equivalence) == 3
    assert shapes == [(61, 2, 2)]


def _gen_module():
    spec = importlib.util.spec_from_file_location("equivalence_gen", os.path.join(SCENARIO_DIR, "..", "bench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _retro_inputs():
    """Paths of the bundled and edge scenarios whose retrodiction context builds."""
    paths = []
    for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json")) + glob.glob(os.path.join(SCENARIO_DIR, "edge", "*.json"))):
        try:
            scn = ff.load_scenario(path)
            if scn.analyses.retrodiction is not None:
                ff.retrodiction_context(scn.analyses.retrodiction.prior, ff.build_dynamics(scn.dynamics), scn.grid.times())
                paths.append(os.path.relpath(path, SCENARIO_DIR))
        except ff.FisherflowError:
            pass
    return paths


@pytest.fixture(scope="module")
def generated_retro_inputs(tmp_path_factory):
    """The generated retro scenarios of the benchmark's dynamics inputs, seeds 1 and 2."""
    root = str(tmp_path_factory.mktemp("generated"))
    gen = _gen_module()
    paths = []
    for seed in (1, 2):
        manifest = gen.generate("dynamics", seed, root, f"seed{seed}")
        paths += [os.path.join(root, path) for command, path, _ in manifest["cli"] if command == "retro" and "seed" in path]
    return paths


class TestStackedEquivalence:
    """The stacked check over every grid time against the per-time route it replaced."""

    @staticmethod
    def _compare(prior, dyn, grid, band=ff.retrodiction.INDETERMINATE_BAND):
        ctx = ff.retrodiction_context(prior, dyn, grid)
        gens = ff.generator_grid(dyn, grid)
        report = ff.retrodiction_equivalence_check(ctx, grid, band=band, generators=gens)
        lams, lows, verdicts, rates = oracles.equivalence_loop(
            ctx.forward_maps, ctx.round_trips, ctx.prior, ctx.basis,
            lambda t: ff.generator_of(dyn, t), grid, band, ff.FisherflowError,
        )
        assert report.verdict.tolist() == [v or "failed" for v in verdicts]
        assert report.consistent.tolist() == [None if v == "inconclusive" else v and v == "consistent" for v in verdicts]
        failed = np.isnan(lams)
        assert np.array_equal(np.isnan(report.lambda_max), failed)
        assert np.allclose(report.lambda_max[~failed], lams[~failed], rtol=1e-12, atol=0.0)
        assert np.allclose(report.curvature_min[~failed], lows[~failed], rtol=1e-12, atol=0.0)
        for got, want in zip(report.retro_rates_along_negative, rates):
            assert np.allclose(got[~np.isnan(got)], want, rtol=1e-9, atol=0.0)
        return report

    @pytest.mark.parametrize("name", _retro_inputs())
    def test_bundled_and_edge_scenarios(self, name):
        scn = ff.load_scenario(os.path.join(SCENARIO_DIR, name))
        report = self._compare(scn.analyses.retrodiction.prior, ff.build_dynamics(scn.dynamics), scn.grid.times())
        assert "inconsistent" not in report.verdict

    def test_generated_scenarios(self, generated_retro_inputs):
        assert len(generated_retro_inputs) == 8
        for path in generated_retro_inputs:
            scn = ff.load_scenario(path)
            report = self._compare(scn.analyses.retrodiction.prior, ff.build_dynamics(scn.dynamics), scn.grid.times())
            assert "inconsistent" not in report.verdict

    @pytest.mark.parametrize("prior", [[0.2, 0.4, 0.4], [0.2, 0.3, 0.5], [0.7, 0.2, 0.1]])
    def test_case_study_at_1024_points(self, prior):
        report = self._compare(prior, ff.case_study_dynamics(), np.linspace(0.0, np.pi, 1024))
        verdicts = set(report.verdict.tolist())
        assert "consistent" in verdicts and "inconsistent" not in verdicts

    def test_a_float_time_is_its_row_of_the_stack(self, stack_case):
        ctx, _ = stack_case
        stacked = ff.retrodiction_equivalence_check(ctx, ctx.grid)
        for k in (0, 9, 32):
            one = ff.retrodiction_equivalence_check(ctx, float(ctx.grid[k]))
            assert (one.time, one.lambda_max, one.verdict) == (ctx.grid[k], stacked.lambda_max[k], stacked.verdict[k])
            assert np.array_equal(one.recovery_curvature, stacked.recovery_curvature[k])
            assert one.curvature_min == stacked.curvature_min[k]
            rates = stacked.retro_rates_along_negative[k]
            assert one.retro_rates_along_negative == tuple(rates[~np.isnan(rates)].tolist())

    def test_a_failed_generator_raises_at_a_float_time_and_has_no_verdict_in_a_stack(self):
        dyn = ff.contraction_to_target([0.2, 0.3, 0.5], decay_rate=50.0)
        ctx = ff.retrodiction_context([0.3, 0.3, 0.4], dyn, np.linspace(0.0, 1.0, 17))
        with pytest.raises(ff.DomainError, match="mixing weight 1.0 leaves no invertible part at t = 0.75"):
            ff.retrodiction_equivalence_check(ctx, 0.75)
        report = ff.retrodiction_equivalence_check(ctx, ctx.grid.reshape(1, 17))
        assert report.verdict.shape == report.lambda_max.shape == (1, 17)
        assert report.recovery_curvature.shape == (1, 17, 2)
        assert (report.verdict[0] == "failed").sum() == 8
        assert np.array_equal(np.isnan(report.lambda_max[0]), report.verdict[0] == "failed")


def test_retro_evaluates_a_constant_generator_once(tmp_path, monkeypatch):
    # the scan and the equivalence check share one generator grid
    calls = []
    real = ff.GeneratorDynamics._generator_grid

    def counted(self, times):
        calls.append(times.shape)
        return real(self, times)

    monkeypatch.setattr(ff.GeneratorDynamics, "_generator_grid", counted)
    scenario = os.path.join(SCENARIO_DIR, "relaxation_retro.json")
    assert main(["retro", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    assert calls == [(61,)]


def test_an_inconsistent_verdict_at_an_unreported_time_fails_the_run(tmp_path, monkeypatch, capsys):
    # every grid time counts toward no_inconsistent_verdicts, not only the reported ones
    real = fisherflow.cli.retrodiction_equivalence_check

    def flipped(ctx, t, *args, **kwargs):
        report = real(ctx, t, *args, **kwargs)
        if isinstance(report.verdict, str):
            return report
        verdict = report.verdict.copy()
        verdict[1] = "inconsistent"
        return dataclasses.replace(report, verdict=verdict)

    monkeypatch.setattr(fisherflow.cli, "retrodiction_equivalence_check", flipped)
    scenario = os.path.join(SCENARIO_DIR, "relaxation_retro.json")
    assert main(["retro", "--scenario", scenario, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "fisherflow: numerical accuracy: retro: failed checks: no_inconsistent_verdicts\n"
    report = json.loads((tmp_path / "retro.json").read_text())
    assert [entry["t"] for entry in report["results"]["equivalence"]] == [0.375, 0.75, 1.125]
    assert {entry["verdict"] for entry in report["results"]["equivalence"]} == {"consistent"}


def test_a_generator_failure_at_an_unrequested_time_leaves_that_time_without_a_verdict(tmp_path, capsys):
    # saturated_mixing_weight's generator fails from t = 0.5625 on; the first requested times lie before
    with open(os.path.join(SCENARIO_DIR, "edge", "saturated_mixing_weight.json"), encoding="utf-8") as fh:
        scenario = json.load(fh)
    scenario["analyses"]["retrodiction"]["equivalence_times"] = [0.25, 0.5]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["retro", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "retro.json").read_text())
    assert [entry["t"] for entry in report["results"]["equivalence"]] == [0.25, 0.5]
    assert report["checks"]["no_inconsistent_verdicts"]["ok"] is True
    scenario["analyses"]["retrodiction"]["equivalence_times"] = [0.5, 0.75, 0.875]
    path.write_text(json.dumps(scenario))
    assert main(["retro", "--scenario", str(path), "--out", str(tmp_path / "failed")]) == 1
    assert capsys.readouterr().err == (
        "fisherflow: invalid input: mixing weight 1.0 leaves no invertible part at t = 0.75\n"
    )
