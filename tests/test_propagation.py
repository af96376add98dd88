"""Time evolution: integrator, closed forms, intermediate maps, rate scans."""

import dataclasses
import functools
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

import fisherflow as ff
from fisherflow import propagation
from fisherflow.propagation import refinement_stable
from helpers import random_markovian
import oracles

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


def _oscillating(n: int, amplitude: float):
    """Generator ``S + amplitude sin(6 t) O`` on ``n`` states, with fixed random ``S`` and ``O``."""
    rng = np.random.default_rng(n)
    parts = []
    for scale in (1.0, amplitude):
        r = rng.uniform(0.0, scale, size=(n, n))
        np.fill_diagonal(r, 0.0)
        np.fill_diagonal(r, -r.sum(axis=0))
        parts.append(r)
    steady, oscillating = parts
    return lambda t: steady + np.sin(6.0 * t) * oscillating


def _rk4_rate(n: int, kind: str):
    """``_oscillating(n, 0.3)``, or its value at t = 0 as a constant callable (integrated with RK4 all the same)."""
    rate = _oscillating(n, amplitude=0.3)
    if kind == "constant":
        steady = rate(0.0)
        return lambda t: steady
    return rate


GRID_FAMILIES = {
    "case_study": ff.case_study_dynamics,
    "contraction": lambda: ff.contraction_to_target([0.2, 0.3, 0.5], decay_rate=1.7),
}

SCALAR_FAMILIES = {
    **GRID_FAMILIES,
    "constant": lambda: ff.GeneratorDynamics(SYM),
    "callable": lambda: ff.GeneratorDynamics(lambda t: (1.0 + 0.5 * np.sin(3.0 * t)) * SYM, dimension=2),
}


class TestPropagate:
    def test_relaxation_matches_closed_form(self):
        # exp(t R) for the symmetric two-state generator has entries (1 +- exp(-2t)) / 2;
        # a callable, even a constant one, is integrated with RK4
        dyn = ff.GeneratorDynamics(lambda t: SYM, dimension=2)
        traj = ff.propagate(dyn, 0.0, 1.0, steps=256)
        got = traj.propagators[-1]
        e = np.exp(-2.0)
        want = 0.5 * np.array([[1.0 + e, 1.0 - e], [1.0 - e, 1.0 + e]])
        assert np.allclose(got, want, atol=1e-8)

    def test_integrator_agrees_with_exponential(self):
        rng = np.random.default_rng(2)
        r = rng.uniform(0.0, 1.5, size=(3, 3))
        np.fill_diagonal(r, 0.0)
        np.fill_diagonal(r, -r.sum(axis=0))
        traj = ff.propagate(ff.GeneratorDynamics(lambda t: r, dimension=3), 0.0, 1.0, steps=256)
        assert np.allclose(traj.propagators[-1], expm(r), atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_constant_generator_is_its_exponential(self, n):
        # bitwise the library's matrix exponential at every grid time, with no RK4 sweep,
        # and scipy's to 1e-13
        r = _oscillating(n, amplitude=0.0)(0.0)
        traj = ff.propagate(ff.GeneratorDynamics(r), 0.0, 2.0, steps=16)
        assert _bitwise_equal(traj.propagators, np.stack([propagation.expm(float(t) * r) for t in traj.times]))
        want = np.stack([expm(float(t) * r) for t in traj.times])
        assert np.allclose(traj.propagators, want, rtol=0.0, atol=1e-13)
        assert traj.max_column_drift == float(np.max(np.abs(traj.propagators.sum(axis=1) - 1.0)))

    def test_constant_generator_from_t0_divides_out_the_start(self):
        r = _oscillating(3, amplitude=0.0)(0.0)
        traj = ff.propagate(ff.GeneratorDynamics(r), 0.5, 1.5, steps=8)
        want = np.stack([expm(float(t - 0.5) * r) for t in traj.times])
        assert np.allclose(traj.propagators, want, rtol=0.0, atol=1e-13)

    def test_constant_generator_from_t0_needs_an_invertible_start(self):
        # exp(200 SYM) has eigenvalues 1 and exp(-400): no inverse to divide out
        with pytest.raises(ff.NearSingularError, match="beyond 1e\\+12"):
            ff.propagate(ff.GeneratorDynamics(400.0 * SYM), 0.5, 1.0, steps=4)

    def test_zero_generator_is_identity(self):
        traj = ff.propagate(ff.GeneratorDynamics(np.zeros((3, 3))), 0.0, 1.0, steps=8)
        assert np.allclose(traj.propagators, np.eye(3))

    def test_case_study_closed_form_used(self):
        dyn = ff.case_study_dynamics()
        traj = ff.propagate(dyn, 0.0, np.pi, steps=64)
        for k, t in enumerate(traj.times):
            want = oracles.mixing_propagator_point(dyn.s, dyn.m, float(t))
            assert np.allclose(traj.propagators[k], want, atol=1e-14)

    def test_case_study_matches_integrator(self):
        # mixing closed form against RK4 on the generator, two independent routes
        dyn = ff.case_study_dynamics()
        rk = ff.propagate(
            ff.GeneratorDynamics(functools.partial(ff.generator_of, dyn), dimension=3), 0.0, 0.3, steps=512
        )
        assert np.allclose(rk.propagators[-1], dyn.propagators_at([0.3])[0], atol=1e-8)

    def test_rejects_bad_interval(self):
        with pytest.raises(ff.DomainError):
            ff.propagate(ff.GeneratorDynamics(SYM), 1.0, 0.5)

    def test_step_halving_guard_trips(self):
        stiff = 400.0 * SYM
        with pytest.raises(ff.IntegrationAccuracyError):
            ff.propagate(ff.GeneratorDynamics(lambda t: stiff, dimension=2), 0.0, 1.0, steps=4)

    def test_one_generator_call_per_rk4_grid_point(self):
        # RK4 needs R at each grid point and each midpoint; the 16-step Richardson
        # check runs on the 8-step run's nodes, so 2 * 16 + 1 calls serve both
        times = []

        def rate(t):
            times.append(t)
            return SYM * (1.0 + 0.5 * np.sin(3.0 * t))

        traj = ff.propagate(ff.GeneratorDynamics(rate, dimension=2), 0.0, 1.0, steps=8)
        assert len(times) == 2 * 16 + 1
        assert times == sorted(times)
        assert np.allclose(traj.propagators, oracles.rk4_loop(rate, traj.times), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("kind", ["constant", "callable"])
    @pytest.mark.parametrize("t0, t1, steps", [(0.0, 1.0, 64), (0.3, 1.7, 128)])
    def test_step_matrix_product_matches_per_step_loop(self, n, kind, t0, t1, steps):
        rate = _rk4_rate(n, kind)
        traj = ff.propagate(ff.GeneratorDynamics(rate, dimension=n), t0, t1, steps=steps)
        assert np.allclose(traj.propagators, oracles.rk4_loop(rate, traj.times), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("kind", ["constant", "callable"])
    @pytest.mark.parametrize("t0, t1, steps", [(0.0, 1.0, 64), (0.3, 1.7, 128)])
    def test_pairwise_endpoint_matches_running_product(self, n, kind, t0, t1, steps):
        # the step-halving check's endpoint: the half-step sweep's step matrices multiplied
        # pairwise, against the last row of their drift-corrected running product
        fine = propagation._with_midpoints(np.linspace(t0, t1, steps + 1))
        dyn = ff.GeneratorDynamics(_rk4_rate(n, kind), dimension=n)
        gens = ff.generator_grid(dyn, propagation._with_midpoints(fine))
        running, _ = propagation._rk4_sweep(gens.generators, fine, n)
        pairwise = propagation._pairwise_product(propagation._rk4_steps(gens.generators, fine, n))
        assert np.allclose(pairwise, running[-1], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
    def test_pairwise_product_keeps_the_order(self, count):
        # non-commuting factors: the product is mats[-1] @ ... @ mats[0], odd levels included
        mats = np.random.default_rng(count).standard_normal((count, 3, 3))
        want = np.eye(3)
        for m in mats:
            want = m @ want
        assert np.allclose(propagation._pairwise_product(mats), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_column_drift_is_that_of_the_uncorrected_product(self, n):
        # the same step matrices applied one step at a time give the same bits
        rate = _oscillating(n, amplitude=0.3)
        traj = ff.propagate(ff.GeneratorDynamics(rate, dimension=n), 0.3, 1.7, steps=128)
        assert traj.max_column_drift > 0.0
        assert traj.max_column_drift == oracles.rk4_product_drift(rate, traj.times)
        assert np.abs(traj.propagators.sum(axis=1) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("t0, t1", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)])
    def test_rejects_non_finite_interval(self, t0, t1):
        with pytest.raises(ff.DomainError, match="finite"):
            ff.propagate(ff.GeneratorDynamics(SYM), t0, t1, steps=4)

    def test_overflowing_sweep_raises_without_warnings(self):
        # a step of 2.5e307 overflows the step matrices; the NaN gap must not pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ff.IntegrationAccuracyError, match="nan"):
                ff.propagate(ff.GeneratorDynamics(lambda t: SYM, dimension=2), 0.0, 1e308, steps=4)

    def test_overflowing_exponential_raises_without_warnings(self):
        # expm gives NaN for 2.5e307 SYM without a warning; no propagator may be NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ff.NumericalAccuracyError, match="non-finite"):
                ff.propagate(ff.GeneratorDynamics(SYM), 0.0, 1e308, steps=4)

    @pytest.mark.parametrize(
        "bump, error, message",
        [
            (lambda t: t, ff.InvalidGeneratorError, "off by 5.000e-01"),
            (lambda t: np.nan, ff.InvalidStateError, "non-finite"),
        ],
        ids=["column-sum", "non-finite"],
    )
    def test_first_bad_generator_node_raises_its_own_error(self, bump, error, message):
        # every node from t = 0.5 on is bad; the first of them in time order
        # (t = 0.5, bumped by 0.5) gives the error
        def rate(t):
            r = SYM * (1.0 + 0.5 * np.sin(3.0 * t))
            if t >= 0.5:
                r[0, 0] += bump(t)
            return r

        with pytest.raises(error, match=message):
            ff.propagate(ff.GeneratorDynamics(rate, dimension=2), 0.0, 1.0, steps=8)

    @pytest.mark.parametrize(
        "late, error, message",
        [
            # an exception that is not a library error propagates, as from generator_grid;
            # a library error at a later node loses to the bad node before it
            (RuntimeError("late"), RuntimeError, "^late$"),
            (np.zeros(2), ff.InvalidGeneratorError, "off by 2.500e-01"),
        ],
        ids=["raises", "wrong-shape"],
    )
    def test_earlier_invalid_node_wins_over_a_later_failing_call(self, late, error, message):
        def rate(t):
            if t >= 0.75:
                if isinstance(late, Exception):
                    raise late
                return late
            r = SYM * (1.0 + 0.5 * np.sin(3.0 * t))
            if t >= 0.25:
                r[0, 0] += t
            return r

        with pytest.raises(error, match=message):
            ff.propagate(ff.GeneratorDynamics(rate, dimension=2), 0.0, 1.0, steps=8)

    @pytest.mark.parametrize(
        "late, error, message",
        [
            (RuntimeError("late"), RuntimeError, "^late$"),
            (np.zeros(2), ff.DimensionMismatchError, "must be square"),
            (np.zeros((3, 3)), ff.DimensionMismatchError, r"at t = 0.75 has shape \(3, 3\), expected \(2, 2\)"),
        ],
        ids=["raises", "vector", "wrong-size"],
    )
    def test_failing_call_after_valid_nodes_raises_its_own_error(self, late, error, message):
        def rate(t):
            if t >= 0.75:
                if isinstance(late, Exception):
                    raise late
                return late
            return SYM * (1.0 + 0.5 * np.sin(3.0 * t))

        with pytest.raises(error, match=message):
            ff.propagate(ff.GeneratorDynamics(rate, dimension=2), 0.0, 1.0, steps=8)

    def test_generator_that_reuses_its_buffer(self):
        # a callable may fill and return one array on every call; each node's
        # generator must be copied before the next call overwrites it
        buffer = np.empty((2, 2))

        def reused(t):
            np.multiply(SYM, 1.0 + 0.5 * np.sin(3.0 * t), out=buffer)
            return buffer

        def fresh(t):
            return SYM * (1.0 + 0.5 * np.sin(3.0 * t))

        got = ff.propagate(ff.GeneratorDynamics(reused, dimension=2), 0.0, 1.0, steps=8)
        want = ff.propagate(ff.GeneratorDynamics(fresh, dimension=2), 0.0, 1.0, steps=8)
        assert np.array_equal(got.propagators, want.propagators)

    def test_endpoint_exact_when_available(self):
        dyn = ff.case_study_dynamics()
        assert _bitwise_equal(ff.propagate(dyn, 0.0, 0.7).propagators[-1], dyn.propagators_at([0.7])[0])


class TestExpm:
    @given(st.integers(0, 2**32 - 1))
    def test_matches_scipy_at_every_squaring_count(self, seed):
        # one time per squaring count s = 0..16, its 1-norm well inside (theta 2^(s-1), theta 2^s]
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        r = rng.uniform(0.0, 1.0, size=(n, n)) * np.exp(rng.uniform(-3.0, 3.0, size=(n, n)))
        np.fill_diagonal(r, 0.0)
        np.fill_diagonal(r, -r.sum(axis=0))
        squarings = np.arange(17)
        norm = np.abs(r).sum(axis=0).max()
        times = propagation._THETA13 * 2.0**squarings * rng.uniform(0.51, 0.99, size=17) / norm
        a = np.multiply.outer(times, r)
        norms = np.abs(a).sum(axis=1).max(axis=1)
        assert np.array_equal(np.ceil(np.log2(norms / propagation._THETA13)).clip(0), squarings)
        err = np.abs(propagation.expm(a) - expm(a)).max(axis=(1, 2))
        assert err[squarings <= 6].max() <= 1e-13
        assert err.max() <= 1e-10

    def test_zero_rows_are_the_identity_bitwise(self):
        # t = 0 rows hold -0.0 where the generator is negative
        a = np.multiply.outer([0.0, 0.5, 0.0, 3.0], random_markovian(np.random.default_rng(3), 3))
        stack = propagation.expm(a)
        assert _bitwise_equal(stack[[0, 2]], np.stack([np.eye(3)] * 2))
        assert _bitwise_equal(propagation.expm(np.zeros((4, 3, 3))), np.stack([np.eye(3)] * 4))

    def test_rows_past_sixteen_squarings_are_scipys_bitwise(self):
        with open(os.path.join(SCENARIO_DIR, "edge", "retro_stiff_block.json"), encoding="utf-8") as fh:
            scenario = json.load(fh)
        grid = scenario["grid"]
        times = np.linspace(grid["t0"], grid["t1"], grid["points"])
        a = np.multiply.outer(times, np.array(scenario["dynamics"]["matrix"]))
        got = propagation.expm(a)
        past = np.abs(a).sum(axis=1).max(axis=1) > propagation._THETA13 * 2.0**16
        assert past.tolist() == [False] + [True] * (grid["points"] - 1)
        assert _bitwise_equal(got[0], np.eye(4))
        assert _bitwise_equal(got[past], np.stack([expm(m) for m in a[past]]))

    def test_overflow_is_non_finite_where_scipys_is(self):
        a = np.multiply.outer(10.0 ** np.arange(309), SYM)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = propagation.expm(a)
        with np.errstate(all="ignore"):
            want = np.stack([expm(m) for m in a])
        finite = np.isfinite(want).all(axis=(1, 2))
        assert finite.any() and not finite.all()
        assert np.array_equal(np.isfinite(got).all(axis=(1, 2)), finite)

    def test_a_nan_row_leaves_the_others_unchanged(self):
        # the rows need 0 to 7 squarings, so the squarings' masks differ between them
        a = np.multiply.outer(np.linspace(0.0, 40.0, 9), random_markovian(np.random.default_rng(5), 4))
        clean = propagation.expm(a)
        a[3] = np.nan
        got = propagation.expm(a)
        assert np.isnan(got[3]).all()
        rest = np.arange(9) != 3
        assert _bitwise_equal(got[rest], clean[rest])


class TestTrajectoryIndex:
    @pytest.mark.parametrize(
        "t, want, snap", [(1e20, 1, "1.5"), (2.0, 1, "1.5"), (-1e20, 0, "0"), (0.75, 0, "0")]
    )
    def test_off_grid_time_snaps_to_nearest_point(self, t, want, snap):
        # every distance to a time far past the grid rounds to the same float
        traj = ff.Trajectory(
            times=np.array([0.0, 1.5]), propagators=np.stack([np.eye(2)] * 2), max_column_drift=0.0
        )
        with pytest.warns(UserWarning, match=f"off the grid; snapping to {snap}$"):
            assert traj.index_of(t) == want


class TestGeneratorOf:
    def test_constant_returned_exactly(self):
        dyn = ff.GeneratorDynamics(SYM)
        assert np.allclose(ff.generator_of(dyn, 0.3), SYM)

    @pytest.mark.parametrize("family", sorted(GRID_FAMILIES))
    def test_finite_difference_matches_closed_form(self, family):
        # the closed-form generators against dT/dt T^-1 by central differences of the propagators
        dyn = GRID_FAMILIES[family]()
        grid = np.linspace(0.0, np.pi, 257)
        closed = ff.generator_grid(dyn, grid).generators
        fd = np.stack(
            [
                oracles.fd_generator_point(lambda t: oracles.mixing_propagator_point(dyn.s, dyn.m, t), float(t))
                for t in grid
            ]
        )
        assert np.allclose(fd, closed, rtol=0.0, atol=1e-5)

    def test_case_study_rates_match_oracle(self):
        dyn = ff.case_study_dynamics()
        t = np.pi / 20.0
        got = ff.generator_of(dyn, t)
        want = oracles.case_study_rates(t)
        # every off-diagonal entry of column j is the target rate a_i
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert got[i, j] == pytest.approx(want[i], abs=1e-12)
        assert min(got[i, j] for i in range(3) for j in range(3) if i != j) == pytest.approx(
            -0.0756066680779443, abs=1e-12
        )


class TestDivisibilityScan:
    def test_constant_markovian_is_clean(self):
        result = ff.divisibility_scan(ff.GeneratorDynamics(SYM), np.linspace(0.0, 1.0, 65))
        assert result.markovian_on_grid
        assert result.windows() == []
        assert result.failures == ()

    def test_case_study_windows(self):
        dyn = ff.case_study_dynamics()
        grid = np.linspace(0.0, np.pi, 1024)
        result = ff.divisibility_scan(dyn, grid)
        windows = result.windows()
        assert windows, "oscillating target must produce negative-rate windows"
        assert any(lo <= np.pi / 20.0 <= hi for lo, hi in windows)
        assert result.failures == ()

    def test_constant_target_mixing_is_clean(self):
        dyn = ff.contraction_to_target([0.2, 0.3, 0.5])
        result = ff.divisibility_scan(dyn, np.linspace(0.0, 2.0, 65))
        assert result.markovian_on_grid

    def test_refinement_keeps_windows(self):
        dyn = ff.case_study_dynamics()
        assert refinement_stable(dyn, ff.divisibility_scan(dyn, np.linspace(0.0, np.pi, 257)))

    @pytest.mark.parametrize(
        "make, t1, points",
        [
            (ff.case_study_dynamics, np.pi, 9),
            (ff.case_study_dynamics, np.pi, 17),
            (ff.case_study_dynamics, np.pi, 257),
            (ff.case_study_dynamics, 40.0, 65),
            (ff.case_study_dynamics, 40.0, 257),
        ],
    )
    def test_refinement_matches_per_point_rescan(self, make, t1, points):
        # stable exactly when every window of the step-halved rescan meets a window of the scan
        dyn = make()
        coarse = ff.divisibility_scan(dyn, np.linspace(0.0, t1, points))
        fine = np.linspace(0.0, t1, 2 * points - 1)
        _, _, _, fine_windows = oracles.scan_loop(functools.partial(ff.generator_of, dyn), fine, 1e-9, ff.FisherflowError)
        want = all(any(flo <= hi and lo <= fhi for lo, hi in coarse.windows()) for flo, fhi in fine_windows)
        assert refinement_stable(dyn, coarse) == want

    def test_refinement_flags_a_window_the_grid_steps_over(self):
        # on 9 points over [0, pi] the midpoint pi/16 dips to -0.172, inside the window
        # (0.135, 0.307) of a 257-point scan, while both ends of its step are clean
        dyn = ff.case_study_dynamics()
        coarse = ff.divisibility_scan(dyn, np.linspace(0.0, np.pi, 9))
        assert not any(lo <= np.pi / 16.0 <= hi for lo, hi in coarse.windows())
        assert ff.divisibility_scan(dyn, [np.pi / 16.0]).min_rates[0] == pytest.approx(-0.172, abs=1e-3)
        assert not refinement_stable(dyn, coarse)

    def test_refinement_leaves_a_step_with_a_failed_end_to_the_scan(self):
        # the midpoint 0.5 is negative, but its step starts at a failed point, which scan_clean reports
        negative = np.array([[-1.0, -0.5], [1.0, 0.5]])

        def rate(t):
            return np.eye(3) if t == 0.0 else negative if t == 0.5 else SYM

        dyn = ff.GeneratorDynamics(rate, dimension=2)
        coarse = ff.divisibility_scan(dyn, [0.0, 1.0, 2.0])
        assert [t for t, _ in coarse.failures] == [0.0] and coarse.windows() == []
        assert refinement_stable(dyn, coarse)
        assert not refinement_stable(dyn, dataclasses.replace(coarse, min_rates=np.ones(3)))

    def test_scan_and_refinement_evaluate_each_node_once(self):
        calls = []

        def rate(t):
            calls.append(t)
            return SYM

        dyn = ff.GeneratorDynamics(rate, dimension=2)
        grid = np.linspace(0.0, 1.0, 9)
        assert refinement_stable(dyn, ff.divisibility_scan(dyn, grid))
        assert len(calls) == 17
        assert sorted(calls) == pytest.approx(np.linspace(0.0, 1.0, 17).tolist())

    def test_failures_collected_not_raised(self):
        # contraction_to_target has closed-form derivatives, but at decay rate 50
        # its mixing weight is within rounding of 1 from t = 0.625 on, which
        # leaves no invertible part to extract a generator from
        dyn = ff.contraction_to_target([0.5, 0.5], decay_rate=50.0)
        result = ff.divisibility_scan(dyn, np.linspace(0.0, 1.0, 9))
        assert result.failures, "saturated mixing weight must be reported, not raised"
        assert all(np.isfinite(t) for t, _ in result.failures)

    def test_wrong_shaped_callable_return_fails_its_point(self):
        dyn = ff.GeneratorDynamics(lambda t: SYM if t < 0.5 else np.zeros((3, 3)), dimension=2)
        result = ff.divisibility_scan(dyn, np.linspace(0.0, 1.0, 5))
        message = "DimensionMismatchError: generator at t = {} has shape (3, 3), expected (2, 2)"
        want = [(0.5, "0.5"), (0.75, "0.75"), (1.0, "1")]
        assert result.failures == tuple((t, message.format(text)) for t, text in want)
        assert np.array_equal(np.isnan(result.min_rates), [False, False, True, True, True])
        # the integrator names the same node with the same message
        with pytest.raises(ff.DimensionMismatchError, match=r"^generator at t = 0.5 has shape \(3, 3\)"):
            ff.propagate(dyn, 0.0, 1.0, steps=8)

    def test_programming_errors_propagate(self):
        def broken(t):
            raise TypeError("bad generator")

        dyn = ff.GeneratorDynamics(broken, dimension=2)
        with pytest.raises(TypeError, match="bad generator"):
            ff.divisibility_scan(dyn, np.linspace(0.0, 1.0, 5))


def _violations_of(result):
    """``(t, [((i, j), rate), ...])`` per grid time of a scan's negative-rate arrays, in their order."""
    out = {}
    for k, i, j, rate in zip(
        result.negative_index.tolist(),
        result.negative_row.tolist(),
        result.negative_col.tolist(),
        result.negative_rate.tolist(),
    ):
        out.setdefault(k, []).append(((i, j), rate))
    return [(float(result.grid[k]), entries) for k, entries in out.items()]


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGridEvaluation:
    @pytest.mark.parametrize("points", [257, 1024, 4097])
    @pytest.mark.parametrize("family", sorted(GRID_FAMILIES))
    def test_stacks_bitwise_equal_per_point_formulas(self, family, points):
        dyn = GRID_FAMILIES[family]()
        grid = np.linspace(0.0, np.pi, points)
        gens = ff.generator_grid(dyn, grid)
        props = dyn.propagators_at(grid)
        assert not gens.errors
        assert gens.generators.shape == props.shape == (points, 3, 3)
        want_gens = np.stack(
            [oracles.mixing_generator_point(dyn.s, dyn.sdot, dyn.m, dyn.mdot, float(t)) for t in grid]
        )
        want_props = np.stack([oracles.mixing_propagator_point(dyn.s, dyn.m, float(t)) for t in grid])
        assert _bitwise_equal(gens.generators, want_gens)
        assert _bitwise_equal(props, want_props)
        # a scalar call is the length-1 case of the grid
        for k in (0, points // 3, points - 1):
            assert _bitwise_equal(ff.generator_of(dyn, float(grid[k])), want_gens[k])
            assert _bitwise_equal(dyn.propagators_at([float(grid[k])])[0], want_props[k])

    @pytest.mark.parametrize("family", sorted(SCALAR_FAMILIES))
    def test_generator_of_is_the_one_point_grid(self, family):
        dyn = SCALAR_FAMILIES[family]()
        grid = ff.generator_grid(dyn, np.linspace(0.0, np.pi, 257))
        assert not grid.errors
        for k in (0, 1, 85, 256):
            t = float(grid.times[k])
            got = ff.generator_of(dyn, t)
            assert _bitwise_equal(got, ff.generator_grid(dyn, [t]).generators[0])
            assert _bitwise_equal(got, grid.generators[k])

    def test_constant_generator_broadcasts(self):
        dyn = ff.GeneratorDynamics(SYM)
        stack = ff.generator_grid(dyn, np.linspace(0.0, 1.0, 5)).generators
        assert stack.shape == (5, 2, 2)
        assert np.array_equal(stack, np.broadcast_to(SYM, (5, 2, 2)))

    def test_exact_propagators_of_constant_generator(self):
        r = np.array([[-1.0, 0.4], [1.0, -0.4]])
        grid = np.linspace(0.0, 2.0, 9)
        stack = ff.GeneratorDynamics(r).propagators_at(grid)
        assert _bitwise_equal(stack, np.stack([propagation.expm(float(t) * r) for t in grid]))
        assert np.allclose(stack, np.stack([expm(float(t) * r) for t in grid]), rtol=0.0, atol=1e-13)
        assert ff.GeneratorDynamics(lambda t: r, dimension=2).propagators_at(grid) is None

    def test_callable_generator_called_per_point(self):
        dyn = ff.GeneratorDynamics(lambda t: (1.0 + t) * SYM, dimension=2)
        grid = ff.generator_grid(dyn, np.linspace(0.0, 1.0, 5))
        assert not grid.errors
        assert np.array_equal(grid.generators[4], 2.0 * SYM)

    def test_one_point_grid_raises_its_failure(self):
        dyn = ff.contraction_to_target([0.5, 0.5], decay_rate=50.0)
        assert min(ff.generator_grid(dyn, np.linspace(0.0, 1.0, 9)).errors) == 5
        with pytest.raises(ff.DomainError, match="at t = 0.625$"):
            ff.generator_of(dyn, 0.625)

    def test_non_broadcasting_callable_rejected(self):
        with pytest.raises(ff.DimensionMismatchError, match="broadcast"):
            ff.MixingDynamics(
                s=lambda t: 1.0 - np.exp(-t),
                m=lambda t: np.array([0.5, 0.5]),
                sdot=lambda t: np.exp(-t),
                mdot=lambda t: np.zeros(np.shape(t) + (2,)),
                dimension=2,
            )

    @pytest.mark.parametrize(
        "make, t1, points",
        [
            (lambda: ff.contraction_to_target([0.5, 0.5], decay_rate=50.0), 1.0, 9),
            (lambda: ff.contraction_to_target([0.2, 0.8], decay_rate=30.0), 1.5, 301),
            # column sums off by rounding at rate 1e9 before the weight saturates
            (lambda: ff.contraction_to_target([0.1, 0.2, 0.7], decay_rate=1e9), 4e-8, 9),
            (ff.case_study_dynamics, 40.0, 513),
        ],
    )
    def test_scan_matches_per_point_loop(self, make, t1, points):
        dyn = make()
        grid = np.linspace(0.0, t1, points)
        result = ff.divisibility_scan(dyn, grid)
        min_rates, violations, failures, windows = oracles.scan_loop(
            functools.partial(ff.generator_of, dyn), grid, 1e-9, (ff.FisherflowError, np.linalg.LinAlgError)
        )
        assert failures, "the mixing weight must cross the ceiling on this grid"
        assert list(result.failures) == failures
        assert np.array_equal(np.isnan(result.min_rates), np.isnan(min_rates))
        assert _bitwise_equal(result.min_rates, min_rates)
        assert _violations_of(result) == [(t, list(neg.items())) for t, neg in violations]
        assert result.windows() == windows

    def test_negative_rates_of_eleven_states_match_per_point_loop(self):
        # negative rates at (1, 0), (10, 0) and, from t = 0.5 on, (5, 3)
        base = np.full((11, 11), 0.05)
        base[1, 0], base[10, 0] = -0.01, -0.02
        bump = np.zeros((11, 11))
        bump[5, 3] = -0.6
        for r in (base, bump):
            np.fill_diagonal(r, 0.0)
            np.fill_diagonal(r, -r.sum(axis=0))
        dyn = ff.GeneratorDynamics(lambda t: base + (t >= 0.5) * bump, dimension=11)
        grid = np.linspace(0.0, 1.0, 9)
        result = ff.divisibility_scan(dyn, grid)
        min_rates, violations, failures, windows = oracles.scan_loop(
            functools.partial(ff.generator_of, dyn), grid, 1e-9, ff.FisherflowError
        )
        assert not failures and not result.markovian_on_grid
        assert _bitwise_equal(result.min_rates, min_rates)
        assert _violations_of(result) == [(t, list(neg.items())) for t, neg in violations]
        assert [len(neg) for _, neg in violations] == [2] * 4 + [3] * 5
        assert result.windows() == windows == [(0.0, 1.0)]

    def test_case_study_windows_match_per_point_loop(self):
        dyn = ff.case_study_dynamics()
        for points in (257, 1024, 4097):
            grid = np.linspace(0.0, np.pi, points)
            _, _, _, windows = oracles.scan_loop(functools.partial(ff.generator_of, dyn), grid, 1e-9, ff.FisherflowError)
            assert windows and ff.divisibility_scan(dyn, grid).windows() == windows



#: Grid of the planted families: every planted time lies past [0, 1], where a
#: MixingDynamics checks its weight and target when it is built.
PLANTED_GRID = np.linspace(0.0, 4.0, 17)
_STEADY = _oscillating(3, amplitude=0.3)
_TARGET = np.array([0.2, 0.3, 0.5])


def _planted_callable():
    """A callable on 3 states with a NaN, an inf, a column-sum and a wrong-shaped return planted."""

    def rate(t):
        r = _STEADY(t)
        if t == 1.25:
            r[0, 1] = np.nan
        elif t == 2.0:
            r[2, 2] = np.inf
        elif t == 2.75:
            r[0, 0] += 0.5
        elif t == 3.5:
            return np.zeros((2, 2))
        return r

    dyn = ff.GeneratorDynamics(rate, dimension=3)
    want = {
        k: (ff.DimensionMismatchError, "generator at t = 3.5 has shape (2, 2), expected (3, 3)")
        if t == 3.5
        else _rate_matrix_error(rate(t))
        for k, t in enumerate(PLANTED_GRID.tolist())
        if t in (1.25, 2.0, 2.75, 3.5)
    }
    return dyn, want, rate


def _planted_mixing():
    """A mixing family with a NaN row, an inf row, a column-sum row and a saturated weight planted.

    The inf row must fail as non-finite without a warning: its column
    would meet -inf on the diagonal.
    """

    def s(t):
        return np.where(t == 3.5, 1.0, 1.0 - np.exp(-t))

    def sdot(t):
        return np.where(t == 1.25, np.nan, np.where(t == 2.0, np.inf, np.exp(-t)))

    def m(t):
        return np.broadcast_to(_TARGET, np.shape(t) + _TARGET.shape)

    def mdot(t):
        # a target that moves at 1e9 per unit time: the diagonal's column sums round off
        fast = np.array([1e9 / 3.0, -1e9 / 7.0, 0.0])
        return np.where(np.asarray(t)[..., None] == 2.75, fast, 0.0)

    dyn = ff.MixingDynamics(s, m, sdot, mdot, dimension=3)

    def point(t):
        return oracles.mixing_generator_point(s, sdot, m, mdot, t)

    want = {
        k: (ff.DomainError, "mixing weight 1.0 leaves no invertible part at t = 3.5")
        if t == 3.5
        else (ff.InvalidStateError, "rate matrix contains non-finite entries")
        if t == 2.0
        else _rate_matrix_error(point(t))
        for k, t in enumerate(PLANTED_GRID.tolist())
        if t in (1.25, 2.0, 2.75, 3.5)
    }
    return dyn, want, point


def _rate_matrix_error(value):
    """Type and message of the error ``rate_matrix(value)`` raises, or None."""
    try:
        ff.rate_matrix(value)
    except ff.FisherflowError as exc:
        return type(exc), str(exc)
    return None


class TestPlantedGridErrors:
    @pytest.mark.parametrize("make", [_planted_callable, _planted_mixing], ids=["callable", "mixing"])
    def test_grid_errors_are_the_per_row_errors(self, make):
        dyn, want, point = make()
        assert None not in want.values(), "every planted row must fail on its own"
        grid = ff.generator_grid(dyn, PLANTED_GRID)
        assert {k: (type(exc), str(exc)) for k, exc in grid.errors.items()} == want
        assert not grid.generators.flags.writeable
        for k, t in enumerate(PLANTED_GRID.tolist()):
            if k in want:
                assert np.isnan(grid.generators[k]).all()
            else:
                assert _bitwise_equal(grid.generators[k], point(t))
        # the scan reports the same failures, in time order
        failures = ff.divisibility_scan(dyn, PLANTED_GRID, generators=grid).failures
        assert failures == tuple((float(PLANTED_GRID[k]), f"{kind.__name__}: {msg}") for k, (kind, msg) in sorted(want.items()))

    def test_propagate_raises_the_earliest_planted_error(self):
        # steps = 4 on [0, 4] puts the RK4 nodes on PLANTED_GRID
        dyn, want, _ = _planted_callable()
        kind, message = want[min(want)]
        with pytest.raises(kind) as caught:
            ff.propagate(dyn, 0.0, 4.0, steps=4)
        assert str(caught.value) == message


class TestIntermediateMap:
    """The map between two grid times, from the propagators alone: a second route to the divisibility scan."""

    def test_composition_recovers_endpoint(self):
        dyn = ff.GeneratorDynamics(SYM)
        traj = ff.propagate(dyn, 0.0, 1.0, steps=64)
        x = oracles.intermediate_map(traj, 0.5, 1.0)
        t_half = traj.propagators[traj.index_of(0.5)]
        assert np.allclose(x @ t_half, traj.propagators[-1], atol=1e-8)
        assert oracles.validate_stochastic(x).passed

    def test_markovian_pieces_are_stochastic(self):
        dyn = ff.GeneratorDynamics(SYM)
        traj = ff.propagate(dyn, 0.0, 1.0, steps=64)
        assert oracles.validate_stochastic(oracles.intermediate_map(traj, 0.25, 0.75)).passed

    def test_nonmarkovian_piece_fails_validation(self):
        dyn = ff.case_study_dynamics()
        traj = ff.propagate(dyn, 0.0, np.pi, steps=1024)
        # pi/20 sits inside the first negative-rate window
        with pytest.warns(UserWarning, match="snapping"):
            lo = traj.times[traj.index_of(np.pi / 20.0)]
            hi = traj.times[traj.index_of(np.pi / 20.0) + 2]
        report = oracles.validate_stochastic(oracles.intermediate_map(traj, float(lo), float(hi)))
        assert not report.passed
        assert report.most_negative_entry < 0.0

    def test_backward_request_rejected(self):
        traj = ff.propagate(ff.GeneratorDynamics(SYM), 0.0, 1.0, steps=8)
        with pytest.raises(ValueError, match="need t >= s"):
            oracles.intermediate_map(traj, 0.5, 0.25)

    @pytest.mark.parametrize("family", sorted(SCALAR_FAMILIES))
    def test_step_maps_agree_with_the_scan(self, family):
        # a step whose two ends have rates of one sign is stochastic exactly when that sign is positive
        dyn = SCALAR_FAMILIES[family]()
        traj = ff.propagate(dyn, 0.0, np.pi, steps=256)
        scan = ff.divisibility_scan(dyn, traj.times)
        rates = scan.min_rates
        signed = 0
        for k in range(256):
            lo, hi = sorted((rates[k], rates[k + 1]))
            if lo > 0.0 or hi < 0.0:
                x = oracles.intermediate_map(traj, float(traj.times[k]), float(traj.times[k + 1]))
                assert oracles.validate_stochastic(x).passed == (lo > 0.0), k
                signed += 1
        assert signed >= 200
        assert bool(scan.windows()) == bool(np.any(rates < 0.0))


class TestTraceScaling:
    """The trace-distance law of a mixing family, one propagator per time."""

    def test_case_study_scaling_exact(self):
        dyn = ff.case_study_dynamics()
        dev = oracles.trace_scaling_check(dyn, [0.2, 0.4, 0.4], [0.4, 0.3, 0.3], np.linspace(0.0, np.pi, 33))
        assert dev <= 1e-8

    def test_contraction_scaling_exact(self):
        dyn = ff.contraction_to_target([0.25, 0.75], decay_rate=2.0)
        dev = oracles.trace_scaling_check(dyn, [0.9, 0.1], [0.1, 0.9], np.linspace(0.0, 1.0, 17))
        assert dev <= 1e-8

    def test_rejects_generator_dynamics(self):
        with pytest.raises(ValueError, match="only for mixing families"):
            oracles.trace_scaling_check(ff.GeneratorDynamics(SYM), [0.5, 0.5], [0.9, 0.1], [0.0, 1.0])
