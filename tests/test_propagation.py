"""Time evolution: integrator, closed forms, intermediate maps, rate scans."""

import numpy as np
import pytest

import fisherflow as ff
import oracles

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


class TestPropagate:
    def test_relaxation_matches_closed_form(self):
        # exp(t R) for the symmetric two-state generator has entries (1 +- exp(-2t)) / 2
        dyn = ff.GeneratorDynamics(SYM)
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
        dyn = ff.GeneratorDynamics(r)
        traj = ff.propagate(dyn, 0.0, 1.0, steps=256)
        exact = dyn.closed_form_propagator(1.0)
        assert np.allclose(traj.propagators[-1], exact, atol=1e-8)

    def test_zero_generator_is_identity(self):
        traj = ff.propagate(ff.GeneratorDynamics(np.zeros((3, 3))), 0.0, 1.0, steps=8)
        assert np.allclose(traj.propagators, np.eye(3))

    def test_case_study_closed_form_used(self):
        dyn = ff.case_study_dynamics()
        traj = ff.propagate(dyn, 0.0, np.pi, steps=64)
        for k, t in enumerate(traj.times):
            assert np.allclose(traj.propagators[k], dyn.propagator_at(float(t)), atol=1e-14)

    def test_case_study_matches_integrator(self):
        # mixing closed form against RK4 on the generator, two independent routes
        dyn = ff.case_study_dynamics()
        rk = ff.propagate(
            ff.GeneratorDynamics(dyn.generator_at, dimension=3), 0.0, 0.3, steps=512
        )
        assert np.allclose(rk.propagators[-1], dyn.propagator_at(0.3), atol=1e-8)

    def test_states_carried_along(self):
        dyn = ff.GeneratorDynamics(SYM)
        traj = ff.propagate(dyn, 0.0, 1.0, steps=32, initial_state=[0.9, 0.1])
        assert traj.states is not None
        assert np.allclose(traj.states[0], [0.9, 0.1])
        assert np.allclose(traj.states.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_bad_interval(self):
        with pytest.raises(ff.DomainError):
            ff.propagate(ff.GeneratorDynamics(SYM), 1.0, 0.5)

    def test_step_halving_guard_trips(self):
        stiff = 400.0 * SYM
        with pytest.raises(ff.IntegrationAccuracyError):
            ff.propagate(ff.GeneratorDynamics(stiff), 0.0, 1.0, steps=4)

    def test_one_generator_call_per_rk4_grid_point(self):
        # RK4 needs R at each grid point and each midpoint: 2 steps + 1 calls per
        # sweep, for the 8-step run and its 16-step Richardson check
        times = []

        def rate(t):
            times.append(t)
            return SYM * (1.0 + 0.5 * np.sin(3.0 * t))

        traj = ff.propagate(ff.GeneratorDynamics(rate, dimension=2), 0.0, 1.0, steps=8)
        assert len(times) == (2 * 8 + 1) + (2 * 16 + 1)

        # same arithmetic as four evaluations per step, so bitwise equal
        grid = np.linspace(0.0, 1.0, 9)
        t_mat = np.eye(2)
        for t0, t1 in zip(grid[:-1], grid[1:]):
            h = t1 - t0
            k1 = rate(t0) @ t_mat
            k2 = rate(t0 + 0.5 * h) @ (t_mat + 0.5 * h * k1)
            k3 = rate(t0 + 0.5 * h) @ (t_mat + 0.5 * h * k2)
            k4 = rate(t1) @ (t_mat + h * k3)
            t_mat = t_mat + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_mat = t_mat - (t_mat.sum(axis=0) - 1.0)[None, :] / 2
        assert np.array_equal(traj.propagators[-1], t_mat)

    def test_propagator_at_exact_when_available(self):
        dyn = ff.case_study_dynamics()
        assert np.allclose(ff.propagator_at(dyn, 0.7), dyn.propagator_at(0.7), atol=1e-14)


class TestIntermediateMap:
    def test_composition_recovers_endpoint(self):
        dyn = ff.GeneratorDynamics(SYM)
        traj = ff.propagate(dyn, 0.0, 1.0, steps=64)
        x, report = ff.intermediate_map(traj, 0.5, 1.0)
        t_half = traj.propagators[traj.index_of(0.5)]
        assert np.allclose(x @ t_half, traj.propagators[-1], atol=1e-8)
        assert report.passed

    def test_markovian_pieces_are_stochastic(self):
        dyn = ff.GeneratorDynamics(SYM)
        traj = ff.propagate(dyn, 0.0, 1.0, steps=64)
        _, report = ff.intermediate_map(traj, 0.25, 0.75)
        assert report.passed

    def test_nonmarkovian_piece_fails_validation(self):
        dyn = ff.case_study_dynamics()
        traj = ff.propagate(dyn, 0.0, np.pi, steps=1024)
        # pi/20 sits inside the first negative-rate window
        with pytest.warns(UserWarning, match="snapping"):
            lo = traj.times[traj.index_of(np.pi / 20.0)]
            hi = traj.times[traj.index_of(np.pi / 20.0) + 2]
        x, report = ff.intermediate_map(traj, float(lo), float(hi))
        assert not report.passed
        assert report.most_negative_entry < 0.0

    def test_backward_request_rejected(self):
        traj = ff.propagate(ff.GeneratorDynamics(SYM), 0.0, 1.0, steps=8)
        with pytest.raises(ff.DomainError):
            ff.intermediate_map(traj, 0.5, 0.25)


class TestGeneratorOf:
    def test_constant_returned_exactly(self):
        dyn = ff.GeneratorDynamics(SYM)
        assert np.allclose(ff.generator_of(dyn, 0.3), SYM)

    def test_finite_difference_matches_closed_form(self):
        dyn = ff.case_study_dynamics()
        t = 0.37
        closed = ff.generator_of(dyn, t)
        fd = ff.generator_of(dyn, t, force_finite_difference=True)
        assert np.allclose(fd, closed, atol=1e-5)

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
        assert ff.scan_refinement_check(dyn, np.linspace(0.0, np.pi, 257))

    def test_failures_collected_not_raised(self):
        # generator of a pure-mixing family without derivatives is unavailable;
        # finite differences still work, so force a failure with a dead horizon
        dyn = ff.contraction_to_target([0.5, 0.5], decay_rate=50.0, horizon=1.0)
        result = ff.divisibility_scan(dyn, np.linspace(0.0, 1.0, 9))
        assert result.failures, "saturated mixing weight must be reported, not raised"
        assert all(np.isfinite(t) for t, _ in result.failures)

    def test_programming_errors_propagate(self):
        def broken(t):
            raise TypeError("bad generator")

        dyn = ff.GeneratorDynamics(broken, dimension=2)
        with pytest.raises(TypeError, match="bad generator"):
            ff.divisibility_scan(dyn, np.linspace(0.0, 1.0, 5))


class TestTraceScaling:
    def test_case_study_scaling_exact(self):
        dyn = ff.case_study_dynamics()
        dev = ff.trace_scaling_check(
            dyn, [0.2, 0.4, 0.4], [0.4, 0.3, 0.3], np.linspace(0.0, np.pi, 33)
        )
        assert dev <= 1e-8

    def test_contraction_scaling_exact(self):
        dyn = ff.contraction_to_target([0.25, 0.75], decay_rate=2.0)
        dev = ff.trace_scaling_check(dyn, [0.9, 0.1], [0.1, 0.9], np.linspace(0.0, 1.0, 17))
        assert dev <= 1e-8

    def test_rejects_generator_dynamics(self):
        with pytest.raises(ff.DomainError):
            ff.trace_scaling_check(ff.GeneratorDynamics(SYM), [0.5, 0.5], [0.9, 0.1], [0.0, 1.0])
