"""Tests of the benchmark's reference routines, from properties and known values.

Run with ``python3 -m pytest bench/test_reference.py``. Nothing here imports
fisherflow: the routines are checked against their definitions.
"""

import numpy as np
import pytest

import reference as ref


def _random_markov(rng, n):
    r = rng.uniform(0.1, 1.5, size=(n, n))
    np.fill_diagonal(r, 0.0)
    np.fill_diagonal(r, -r.sum(axis=0))
    return r


def _interior(rng, n):
    return 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n


def test_case_study_base_point_solves_the_generator_flow():
    p0 = np.array([0.2, 0.4, 0.4])
    t, h = 0.83, 1e-6
    base = ref.case_study_base([t - h, t, t + h], p0)
    velocity = (base[2] - base[0]) / (2.0 * h)
    gen = ref.case_study_generators([t])[0]
    assert np.allclose(ref.case_study_base([0.0], p0)[0], p0)
    assert np.allclose(velocity, gen @ base[1], atol=1e-8)
    assert np.allclose(gen.sum(axis=0), 0.0, atol=1e-15)


def test_case_study_pinned_minimum_rate():
    # the case study's minimal rate at t = pi / 20 is -0.0757 (to 1e-3)
    assert ref.case_study_columns([np.pi / 20.0]).min() == pytest.approx(-0.0757, abs=1e-3)


def test_case_study_trace_law_matches_explicit_propagator():
    t = 1.3
    s = float(ref.case_study_weight(t))
    m = ref.case_study_target([t])[0]
    prop = (1.0 - s) * np.eye(3) + s * np.outer(m, np.ones(3))
    d0 = np.array([[0.0, 1e-3, -1e-3], [2e-3, -1e-3, -1e-3]])
    assert np.allclose(np.abs(d0 @ prop.T).sum(axis=1), ref.case_study_trace_law([t], d0)[0])


def test_negative_windows_groups_contiguous_runs():
    times = np.arange(7.0)
    lows = [1.0, -1.0, -2.0, 0.5, -1.0, 1.0, -3.0]
    assert ref.negative_windows(times, lows, 1e-9) == [[1.0, 2.0], [4.0, 4.0], [6.0, 6.0]]


def test_fisher_rate_direct_matches_finite_difference():
    rng = np.random.default_rng(0)
    p, r = _interior(rng, 4), _random_markov(rng, 4)
    r[0, 1] -= 2.0
    r[1, 1] += 2.0
    d = rng.standard_normal(4)
    d -= d.mean()
    h = 1e-6

    def sq(step):
        return 0.5 * np.sum((d + step * r @ d) ** 2 / (p + step * r @ p))

    assert ref.fisher_rate_direct(p, d, r)[0] == pytest.approx((sq(h) - sq(-h)) / (2 * h), rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_laplacian_form_reproduces_the_direct_rate(n):
    rng = np.random.default_rng(n)
    p, r = _interior(rng, n), _random_markov(rng, n)
    r[0, 1] = -0.3
    r[1, 1] = 0.0
    r[1, 1] = -r[:, 1].sum()
    basis = ref.zero_sum_space(n)
    form = ref.laplacian_form(p, r, basis)
    for _ in range(5):
        c = rng.standard_normal(n - 1)
        assert c @ form @ c == pytest.approx(ref.fisher_rate_direct(p, basis @ c, r)[0], rel=1e-10)


def test_markovian_laplacian_form_is_negative_definite():
    rng = np.random.default_rng(5)
    vals = ref.laplacian_spectrum(_interior(rng, 6), _random_markov(rng, 6))
    assert vals.max() < 0.0


def test_image_sector_has_vanishing_ancilla_marginal():
    basis = ref.vanishing_ancilla_marginal_space(4, 3)
    assert basis.shape == (12, 9)
    assert np.allclose(basis.T @ basis, np.eye(9))
    assert np.allclose(basis.reshape(4, 3, 9).sum(axis=0), 0.0)


def test_replicated_generator_acts_on_each_copy():
    rng = np.random.default_rng(2)
    r = _random_markov(rng, 2)
    ext = ref.replicate_generator(r, copies=2, ancilla_dim=2)
    assert ext.shape == (8, 8)
    assert np.allclose(ext.sum(axis=0), 0.0)
    p, q, w = _interior(rng, 2), _interior(rng, 2), np.array([0.3, 0.7])
    state = np.kron(np.kron(p, q), w)
    expected = np.kron(np.kron(r @ p, q), w) + np.kron(np.kron(p, r @ q), w)
    assert np.allclose(ext @ state, expected)


def test_eig_propagator_is_a_semigroup_solving_the_generator():
    rng = np.random.default_rng(3)
    r = _random_markov(rng, 4)
    a, b = ref.eig_propagator(r, 0.3), ref.eig_propagator(r, 0.5)
    assert np.allclose(a @ b, ref.eig_propagator(r, 0.8))
    assert np.allclose(a.sum(axis=0), 1.0)
    h = 1e-6
    deriv = (ref.eig_propagator(r, 0.3 + h) - ref.eig_propagator(r, 0.3 - h)) / (2 * h)
    assert np.allclose(deriv, r @ a, atol=1e-8)


def test_two_state_propagator_closed_form():
    a, b, t = 0.7, 0.2, 1.1
    r = np.array([[-a, b], [a, -b]])
    stat = np.array([b, a]) / (a + b)
    expected = np.outer(stat, np.ones(2)) + np.exp(-(a + b) * t) * (
        np.eye(2) - np.outer(stat, np.ones(2))
    )
    assert np.allclose(ref.eig_propagator(r, t), expected)


def test_bayes_round_trip_fixes_the_prior_and_spectrum_is_in_unit_interval():
    rng = np.random.default_rng(4)
    pi = _interior(rng, 5)
    t_mat = ref.eig_propagator(_random_markov(rng, 5), 0.4)
    rec = ref.bayes_inverse(t_mat, pi)
    assert np.allclose(rec.sum(axis=0), 1.0)
    assert np.allclose(rec @ t_mat @ pi, pi)
    vals = ref.recovery_spectrum(t_mat, pi)
    assert vals.shape == (4,)
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_recovery_spectrum_of_identity_is_one():
    assert np.allclose(ref.recovery_spectrum(np.eye(3), [0.2, 0.3, 0.5]), 1.0)


def test_ode_propagators_match_eig_propagator_for_constant_rates():
    rng = np.random.default_rng(6)
    r = _random_markov(rng, 3)
    times = np.linspace(0.0, 1.0, 5)
    mats = ref.ode_propagators(lambda t: r, 3, times)
    for t, m in zip(times, mats):
        assert np.allclose(m, ref.eig_propagator(r, t), atol=1e-11)


def test_choi_by_reshape_matches_the_matrix_unit_sum():
    d = 3
    rng = np.random.default_rng(7)
    s = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    explicit = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            unit = np.zeros(d * d, dtype=complex)
            unit[k * d + l] = 1.0
            explicit += np.kron((s @ unit).reshape(d, d), unit.reshape(d, d))
    explicit /= d
    assert np.allclose(ref.choi_by_reshape(s, d), 0.5 * (explicit + explicit.conj().T))


def test_choi_of_identity_is_the_maximally_entangled_projector():
    d = 2
    vals = np.linalg.eigvalsh(ref.choi_by_reshape(np.eye(d * d), d))
    assert np.allclose(vals, [0.0, 0.0, 0.0, 1.0])


def test_semiclassical_superoperator_induces_the_classical_generator():
    rates = [(0, 1, -0.5), (1, 0, 1.0), (2, 0, 0.25)]
    s = ref.semiclassical_superoperator(rates, 3)
    classical = np.zeros((3, 3))
    for i, j, a in rates:
        classical[i, j] += a
        classical[j, j] -= a
    p = np.array([0.2, 0.3, 0.5])
    out = (s @ np.diag(p).astype(complex).reshape(-1)).reshape(3, 3)
    assert np.allclose(np.diag(out).real, classical @ p)
    assert np.allclose(np.trace(out), 0.0)


def test_taylor_exp_matches_eigendecomposition():
    rng = np.random.default_rng(8)
    r = _random_markov(rng, 4)
    assert np.allclose(ref.taylor_exp(2.5 * r), ref.eig_propagator(r, 2.5), atol=1e-12)
