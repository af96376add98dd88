"""Dilation witnesses, the single-offender no-go, and the filter construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import fisherflow as ff
import oracles
from fisherflow.simplex import INTERIOR_FLOOR
from helpers import random_forced_negative, random_interior, random_markovian, random_zero_sum

COUNTEREXAMPLE = np.array([[-1.0, -0.5], [1.0, 0.5]])


@st.composite
def non_markovian_generators(draw):
    """n = 2..9, 1..3 negative rates log-uniform in (1e-9, 10], the rest 0.05..1.5 times 10^U(-1, 1).

    Offenses start just past 1e-9, the rate tolerance below which a generator counts as Markovian.
    """
    n = draw(st.integers(2, 9))
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    r = np.zeros((n, n))
    for cell in cells:
        r[cell] = draw(st.floats(0.05, 1.5)) * 10.0 ** draw(st.floats(-1.0, 1.0))
    for cell in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True)):
        r[cell] = -(10.0 ** draw(st.floats(-9.0, 1.0, exclude_min=True)))
    np.fill_diagonal(r, -r.sum(axis=0))
    return r


def _witness_epsilon(r, i0, j0):
    """min(0.1, 1/(2n), |r_i0j0| / (4 S)), S summed term by term over the rates that touch the witness."""
    n = r.shape[0]
    ks = [k for k in range(n) if k not in (i0, j0)]
    s = abs(r[i0, j0]) + abs(r[j0, i0])
    s += sum(abs(r[i0, k]) + abs(r[k, i0]) + abs(r[k, j0]) + abs(r[j0, k]) for k in ks)
    return min(0.1, 1.0 / (2 * n), abs(r[i0, j0]) / (4.0 * s))


#: Rates set over a 3-state generator with rate(0 <- 1) = -1 and every other rate 0.3: two whose
#: witness fails unless each rate next to the offender bounds epsilon, and one whose offense is small
#: beside its reverse rate. The 0.3 rates make every term of the polynomial show in the recomputed rate.
LOPSIDED = {
    "into-state-2-from-source": {(2, 1): 1e3},
    "into-source-from-state-2": {(1, 2): 1e5},
    "small-offense": {(0, 1): -1e-3, (1, 0): 1.0},
}


class TestDilationDirectionSearch:
    def test_counterexample_found_in_closed_form(self):
        # S = |-0.5| + |1.0|, so eps = 0.5 / (4 * 1.5) = 1/12
        report = ff.dilation_direction_search(COUNTEREXAMPLE)
        assert report.found
        assert report.method == "closed-form"
        assert report.rate_value > 0.0
        assert report.offender == (0, 1)
        assert report.offender_rate == pytest.approx(-0.5)
        assert report.epsilon_used == pytest.approx(1.0 / 12.0, rel=1e-15)
        assert np.allclose(report.base, [1.0 / 12.0, 11.0 / 12.0], rtol=1e-15, atol=0.0)
        assert np.allclose(report.direction, [1.0 / 144.0, -1.0 / 144.0], rtol=1e-15, atol=0.0)

    @settings(max_examples=200)
    @given(non_markovian_generators())
    def test_every_non_markovian_generator_witnessed(self, r):
        (i0, j0), _ = ff.is_markovian_generator(r).offender
        eps = _witness_epsilon(r, i0, j0)
        if eps < INTERIOR_FLOOR:
            with pytest.raises(ff.WitnessNotFoundError, match="closed-form epsilon"):
                ff.dilation_direction_search(r)
            return
        report = ff.dilation_direction_search(r)
        assert report.found
        assert report.epsilon_used == pytest.approx(eps, rel=1e-12)
        assert report.rate_value > 0.0
        assert report.recompute_rate() == pytest.approx(report.rate_value, rel=1e-12)
        assert oracles.fisher_rate_direct(report.base, report.direction, r) > 0.0

    @pytest.mark.parametrize("name", sorted(LOPSIDED))
    def test_lopsided_rates_still_witnessed(self, name):
        r = np.full((3, 3), 0.3)
        r[0, 1] = -1.0
        for cell, value in LOPSIDED[name].items():
            r[cell] = value
        np.fill_diagonal(r, 0.0)
        np.fill_diagonal(r, -r.sum(axis=0))
        report = ff.dilation_direction_search(r)
        assert report.offender == (0, 1)
        assert report.epsilon_used == pytest.approx(_witness_epsilon(r, 0, 1), rel=1e-12)
        assert report.rate_value > 0.0
        assert report.recompute_rate() == pytest.approx(report.rate_value, rel=1e-12)

    def test_report_reproducible(self):
        report = ff.dilation_direction_search(COUNTEREXAMPLE)
        assert report.recompute_rate() == pytest.approx(report.rate_value, rel=1e-12)

    def test_base_concentrates_on_source(self):
        report = ff.dilation_direction_search(COUNTEREXAMPLE)
        j0 = report.offender[1]
        assert np.argmax(report.base) == j0
        assert report.direction[report.offender[0]] > 0.0

    def test_markovian_reports_nothing(self):
        report = ff.dilation_direction_search([[-1.0, 0.5], [1.0, -0.5]])
        assert not report.found
        with pytest.raises(ff.WitnessNotApplicableError):
            report.recompute_rate()

    def test_case_study_window_generator(self):
        r = ff.generator_of(ff.case_study_dynamics(), np.pi / 20.0)
        report = ff.dilation_direction_search(r)
        assert report.found
        assert report.rate_value > 0.0

    @given(st.integers(0, 2**32 - 1))
    def test_forced_negative_always_witnessed(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        report = ff.dilation_direction_search(random_forced_negative(rng, n), seed=seed)
        assert report.found
        assert report.rate_value > 0.0


class TestNoGo:
    def test_bundled_example_satisfies_condition(self):
        pi, r = ff.single_negative_rate_example()
        assert np.allclose(pi, [0.5, 0.5])
        assert np.allclose(r, COUNTEREXAMPLE)
        report = ff.no_go_verify(pi, r)
        assert report.nonmarkovian
        assert report.condition_met
        assert report.offender == (0, 1)

    def test_sector_eigenvalues_match_oracle(self):
        # contraction certified with margin over copies and idle ancillas;
        # the extension is rebuilt with plain numpy for the oracle route
        pi, r = ff.single_negative_rate_example()
        u = np.array([1.0, -1.0]) / np.sqrt(2.0)
        for m_dim, want in [(0, [-1.0]), (2, [-2.0, -2.0]), (4, [-4.0] * 4)]:
            report = ff.no_go_verify(pi, r, copies=1, ancilla_dim=m_dim)
            assert report.passed
            assert report.lambda_max_on_image == pytest.approx(max(want), abs=1e-9)
            if m_dim == 0:
                base, r_ext, sector = pi, np.asarray(r), u[:, None]
            else:
                base = np.kron(pi, np.full(m_dim, 1.0 / m_dim))
                r_ext = np.kron(np.asarray(r), np.eye(m_dim))
                sector = np.kron(u[:, None], np.eye(m_dim))
            direct = oracles.form_eigen_direct(base, r_ext, sector=sector)
            assert np.allclose(np.sort(direct), np.sort(want), atol=1e-9)

    @pytest.mark.parametrize("copies", [1, 2, 3])
    @pytest.mark.parametrize("m_dim", [0, 2, 3, 5])
    @pytest.mark.parametrize("fold", [(2.0, 4.0), (0.2, 0.4)])
    def test_closed_form_matches_extended_oracle(self, copies, m_dim, fold):
        # a bench-style single offender whose reverse rate is two- to fourfold dominant, or too
        # weak, so that the system dilates; the replicas and the ancilla are built with plain
        # numpy and polarized on the whole extended space
        rng = np.random.default_rng(10 * copies + m_dim)
        p0, neg = rng.uniform(0.3, 0.7), rng.uniform(0.1, 1.0)
        rev = neg * (1.0 - p0) / p0 * rng.uniform(*fold)
        pi, r = np.array([p0, 1.0 - p0]), np.array([[-rev, -neg], [rev, neg]])
        base, gen = pi, r
        for _ in range(copies - 1):
            base, gen = np.kron(base, pi), np.kron(gen, np.eye(2)) + np.kron(np.eye(gen.shape[0]), r)
        sector = None
        if m_dim:
            u = np.linalg.qr(np.eye(2**copies) - 1.0 / 2**copies)[0][:, : 2**copies - 1]
            sector = np.kron(u, np.eye(m_dim))
            base, gen = np.kron(base, np.full(m_dim, 1.0 / m_dim)), np.kron(gen, np.eye(m_dim))
        report = ff.no_go_verify(pi, r, copies=copies, ancilla_dim=m_dim)
        image = oracles.form_eigen_direct(base, gen, sector=sector).max()
        assert report.lambda_max_on_image == pytest.approx(image, rel=1e-9)
        full = oracles.form_eigen_direct(base, gen).max()
        assert report.lambda_max_full == pytest.approx(full, rel=1e-9, abs=1e-12)
        assert report.passed == (fold[0] > 1.0)

    @pytest.mark.parametrize("ancilla_dim", [0, 2, 3])
    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_bitwise_the_two_form_route(self, copies, ancilla_dim):
        # one Laplacian serves both forms; the figures equal two public contraction_form calls
        rng = np.random.default_rng(10 * copies + ancilla_dim)
        for n in range(2, 10):
            pi, r = random_interior(rng, n), random_forced_negative(rng, n)
            report = ff.no_go_verify(pi, r, copies=copies, ancilla_dim=ancilla_dim)
            want = oracles.no_go_two_forms(ff.contraction_form, pi, r, copies, ancilla_dim)
            assert (report.lambda_max_on_image, report.lambda_max_full) == want, n

    def test_replica_generator_is_checked_on_its_own(self):
        # each copy adds r's column-sum drift, so the replicas' sums are off by 1.8e-9; only r is checked
        r = [[-1.0, -0.5], [1.0 + 6e-10, 0.5]]
        assert ff.no_go_verify([0.5, 0.5], r).offender == (0, 1)
        assert ff.no_go_verify([0.5, 0.5], r, copies=3).offender == (0, 1)

    def test_two_copies_still_contract(self):
        pi, r = ff.single_negative_rate_example()
        for m_dim in (0, 2, 4):
            report = ff.no_go_verify(pi, r, copies=2, ancilla_dim=m_dim)
            assert report.passed
            assert report.lambda_max_on_image < -1e-3

    def test_ancilla_null_modes_live_off_image(self):
        pi, r = ff.single_negative_rate_example()
        report = ff.no_go_verify(pi, r, copies=1, ancilla_dim=2)
        assert report.lambda_max_full == pytest.approx(0.0, abs=1e-10)
        assert report.lambda_max_on_image < -1.0 + 1e-9

    def test_dominance_condition_checked(self):
        # reverse rate too weak: report the failure instead of certifying
        weak = ff.rate_matrix_from_rates({(0, 1): -0.5, (1, 0): 0.25}, 2)
        report = ff.no_go_verify([0.5, 0.5], weak)
        assert not report.condition_met
        assert "reverse rate" in report.condition_detail
        assert not report.passed

    def test_two_offenders_rejected_by_condition(self):
        r = ff.rate_matrix_from_rates({(0, 1): -0.1, (1, 0): 1.0, (1, 2): -0.1, (2, 1): 1.0, (0, 2): 0.5, (2, 0): 0.5}, 3)
        report = ff.no_go_verify(np.full(3, 1 / 3), r)
        assert not report.condition_met

    def test_ancilla_dim_one_rejected(self):
        pi, r = ff.single_negative_rate_example()
        with pytest.raises(ff.DimensionMismatchError):
            ff.no_go_verify(pi, r, ancilla_dim=1)


class TestSpecialBasePoint:
    def test_fixture_value(self):
        base = ff.special_base_point([0.3, -0.2, -0.1])
        assert np.allclose(base, [0.5, 1 / 3, 1 / 6])

    def test_identity_on_fixture(self):
        d = np.array([0.3, -0.2, -0.1])
        base = ff.special_base_point(d)
        assert 2.0 * ff.fisher_inner(d, d, base) == pytest.approx(np.sum(np.abs(d)) ** 2)

    @given(st.integers(0, 2**32 - 1))
    def test_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        d = random_zero_sum(rng, n, scale=1.0)
        if np.min(np.abs(d)) < 1e-8:
            d = d + 0.0  # hypothesis seeds rarely produce exact zeros; keep as is
        base = ff.special_base_point(d)
        if np.min(base) <= 0.0:
            return
        assert 2.0 * ff.fisher_inner(d, d, base) == pytest.approx(
            np.sum(np.abs(d)) ** 2, rel=1e-12
        )

    def test_zero_rejected(self):
        with pytest.raises(ff.InvalidTangentError):
            ff.special_base_point([0.0, 0.0])


class TestFilterMap:
    """The filter as a stochastic map, a second route to ``filter_witness_rate``."""

    def test_unit_strength_is_identity(self):
        assert np.allclose(oracles.filter_map([0.3, 0.7], 1.0), np.eye(2))

    def test_contracts_differences_linearly(self):
        pi = np.array([0.25, 0.35, 0.4])
        f = oracles.filter_map(pi, 0.2)
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.5, 0.3])
        assert np.allclose(f @ p - f @ q, 0.2 * (p - q), atol=1e-15)

    def test_target_is_fixed_point(self):
        pi = np.array([0.25, 0.35, 0.4])
        assert np.allclose(oracles.filter_map(pi, 0.3) @ pi, pi, atol=1e-15)

    def test_strength_domain(self):
        with pytest.raises(ValueError):
            oracles.filter_map([0.5, 0.5], 0.0)
        with pytest.raises(ValueError):
            oracles.filter_map([0.5, 0.5], 1.5)

    @pytest.mark.parametrize("eps", [0.3, 1e-2])
    def test_witness_rate_is_the_derivative_through_the_filter(self, eps):
        # twice d/dt of the Fisher square of the filtered pair, the filter
        # target frozen, by a central difference of exp(h r) on p and d
        rng = np.random.default_rng(5)
        r = random_forced_negative(rng, 4)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        d = np.array([0.2, -0.05, 0.1, -0.25])
        f = oracles.filter_map(np.abs(d) / np.abs(d).sum(), eps)

        def doubled_square(h):
            step = expm(h * r)
            return float(np.sum((f @ step @ d) ** 2 / (f @ step @ p)))

        h = 1e-5
        fd = (doubled_square(h) - doubled_square(-h)) / (2.0 * h)
        assert ff.filter_witness_rate(p, d, r, eps) == pytest.approx(fd, rel=1e-8)


class TestRegularizeDirection:
    def test_untouched_when_interior(self):
        d = np.array([0.1, -0.1])
        out, touched = ff.regularize_direction(d, COUNTEREXAMPLE)
        assert touched == ()
        assert np.allclose(out, d)

    def test_zeros_aligned_with_velocity(self):
        r = ff.extend_generator(COUNTEREXAMPLE, ancilla_dim=2)
        d = np.kron(np.array([0.0, 1.0]), np.array([0.1, -0.1]))
        out, touched = ff.regularize_direction(d, r)
        assert touched == (0, 1)
        velocity = r @ d
        for k in touched:
            assert np.sign(out[k]) == np.sign(velocity[k]) or velocity[k] == 0.0
        assert abs(out.sum()) <= 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(ff.InvalidTangentError):
            ff.regularize_direction([0.0, 0.0], COUNTEREXAMPLE)


class TestFilterWitness:
    def _fixture(self):
        r_ext = ff.extend_generator(COUNTEREXAMPLE, ancilla_dim=2)
        d = np.kron(np.array([0.0, 1.0]), np.array([0.1, -0.1]))
        return r_ext, d

    def test_rate_matches_expansion_oracle(self):
        # The oracle expands on the exact support of d, the implementation
        # regularizes the zeros first. Both carry the same eps^2 head term,
        # so they may differ by O(eps) after dividing by eps^2.
        r_ext, d = self._fixture()
        for eps, want in [(1e-2, 0.0798), (1e-3, 0.07998), (1e-4, 0.079998)]:
            got = ff.filter_witness_rate(ff.special_base_point(
                ff.regularize_direction(d, r_ext)[0]), d, r_ext, eps)
            direct = oracles.filter_rate_direct(d, r_ext, eps)
            assert direct / eps**2 == pytest.approx(want, rel=1e-9)
            assert abs(got - direct) / eps**2 <= 0.03 * eps + 1e-6

    def test_ratio_converges_to_trace_growth(self):
        # value / eps^2 approaches d/dt of the squared trace size
        r_ext, d = self._fixture()
        target = 2.0 * np.sum(np.abs(d)) * ff.forward_trace_rate(d, r_ext)
        assert target == pytest.approx(0.08)
        base = ff.special_base_point(ff.regularize_direction(d, r_ext)[0])
        for eps in (1e-2, 1e-3):
            ratio = ff.filter_witness_rate(base, d, r_ext, eps) / eps**2
            assert ratio == pytest.approx(target, rel=0.05)

    def test_markovian_rate_nonpositive(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            r = random_markovian(rng, n)
            d = random_zero_sum(rng, n, scale=0.1)
            base = ff.special_base_point(ff.regularize_direction(d, r)[0])
            assert ff.filter_witness_rate(base, d, r, 1e-3) <= 1e-12

    def test_eps_domain(self):
        r_ext, d = self._fixture()
        with pytest.raises(ff.DomainError):
            ff.filter_witness_rate([0.25] * 4, d, r_ext, 0.0)


class TestTraceAncillaWitness:
    @staticmethod
    def _witness(r, mode="ancilla-M2"):
        return ff.trace_ancilla_witness(r, ff.is_markovian_generator(r), mode=mode)

    def test_ancilla_mode_rate(self):
        report = self._witness(COUNTEREXAMPLE, mode="ancilla-M2")
        assert report.found
        assert report.rate_value == pytest.approx(1.0)
        assert report.offender == (0, 1)
        assert report.recompute_rate() == pytest.approx(1.0)

    def test_extra_state_mode_rate(self):
        report = self._witness(COUNTEREXAMPLE, mode="extra-state")
        assert report.found
        assert report.rate_value == pytest.approx(1.0)

    def test_markovian_yields_nothing(self):
        report = self._witness([[-1.0, 0.5], [1.0, -0.5]])
        assert not report.found

    def test_unknown_mode(self):
        with pytest.raises(ff.DomainError):
            self._witness(COUNTEREXAMPLE, mode="diagonal")
        # the mode is checked before the generator, so a Markovian one cannot hide it
        with pytest.raises(ff.DomainError):
            self._witness([[-1.0, 0.5], [1.0, -0.5]], mode="bogus")
