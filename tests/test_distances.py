"""Distances, the local Fisher quadratic form, and its rate under generators.

Rate values are checked along two independent routes: the edge-Laplacian
closed form inside the package and the direct differentiation oracle in
tests/oracles.py, plus a plain finite difference.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fisherflow as ff
import fisherflow.distances
import oracles
from helpers import random_forced_negative, random_interior, random_markovian, random_zero_sum

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])
COUNTEREXAMPLE = np.array([[-1.0, -0.5], [1.0, 0.5]])


class TestFisherInner:
    def test_two_state_value(self):
        val = ff.fisher_inner([0.01, -0.01], [0.01, -0.01], [0.5, 0.5])
        assert val == pytest.approx(2e-4)

    def test_bilinear(self):
        p = [0.5, 1 / 3, 1 / 6]
        a = np.array([0.3, -0.2, -0.1])
        b = np.array([-0.1, 0.2, -0.1])
        lhs = ff.fisher_inner(2.0 * a + b, b, p)
        rhs = 2.0 * ff.fisher_inner(a, b, p) + ff.fisher_inner(b, b, p)
        assert lhs == pytest.approx(rhs)

    def test_boundary_rejected(self):
        with pytest.raises(ff.SingularBaseError):
            ff.fisher_inner([0.1, -0.1], [0.1, -0.1], [1.0, 0.0])


class TestFisherLocalSq:
    """The local squared Fisher distance between ``p`` and ``p + d`` is ``fisher_inner(d, d, p)``."""

    def test_two_state_value(self):
        d = [0.01, -0.01]
        assert ff.fisher_inner(d, d, [0.5, 0.5]) == pytest.approx(2e-4)

    def test_three_state_value(self):
        d = [0.3, -0.2, -0.1]
        val = ff.fisher_inner(d, d, [0.5, 1 / 3, 1 / 6])
        assert val == pytest.approx(0.18)

    def test_special_point_identity(self):
        # at p_i = |d_i| / sum|d| the doubled value is the squared trace size
        d = np.array([0.3, -0.2, -0.1])
        val = ff.fisher_inner(d, d, [0.5, 1 / 3, 1 / 6])
        assert 2.0 * val == pytest.approx(np.sum(np.abs(d)) ** 2)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        p = random_interior(rng, 4)
        d = random_zero_sum(rng, 4)
        assert ff.fisher_inner(d, d, p) == pytest.approx(sum(x * x / (2.0 * q) for x, q in zip(d, p)))


class TestFisherRate:
    def test_symmetric_two_state_value(self):
        val = ff.fisher_rate([0.5, 0.5], [0.01, -0.01], SYM)
        assert val == pytest.approx(-8e-4)

    def test_zero_generator(self):
        assert ff.fisher_rate([0.5, 0.5], [0.01, -0.01], np.zeros((2, 2))) == 0.0

    def test_against_direct_differentiation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = random_interior(rng, n)
            d = random_zero_sum(rng, n)
            r = rng.standard_normal((n, n))
            np.fill_diagonal(r, 0.0)
            np.fill_diagonal(r, -r.sum(axis=0))
            lhs = ff.fisher_rate(p, d, r)
            rhs = oracles.fisher_rate_direct(p, d, r)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_against_finite_difference(self):
        val = ff.fisher_rate([0.5, 0.5], [0.01, -0.01], SYM)
        fd = oracles.fisher_rate_fd(np.array([0.5, 0.5]), np.array([0.01, -0.01]), SYM)
        assert val == pytest.approx(fd, abs=1e-9)
        assert fd == pytest.approx(-0.0008000000003270148)

    def test_quadratic_in_displacement(self):
        p = np.array([0.5, 0.3, 0.2])
        d = np.array([0.02, -0.01, -0.01])
        r = ff.rate_matrix_from_rates({(0, 1): 1.0, (1, 2): 0.5, (2, 0): 0.25}, 3)
        base = ff.fisher_rate(p, d, r)
        assert ff.fisher_rate(p, 3.0 * d, r) == pytest.approx(9.0 * base)

    @given(st.integers(0, 2**32 - 1))
    def test_markovian_never_dilates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        assert ff.fisher_rate(
            random_interior(rng, n), random_zero_sum(rng, n), random_markovian(rng, n)
        ) <= 1e-10

    def test_batched_rates_match_loop(self):
        rng = np.random.default_rng(7)
        p = random_interior(rng, 4)
        r = random_markovian(rng, 4)
        dirs = np.stack([random_zero_sum(rng, 4) for _ in range(16)])
        batched = ff.fisher_rates(p, dirs, r)
        looped = np.array([ff.fisher_rate(p, d, r) for d in dirs])
        assert np.allclose(batched, looped, atol=1e-15)

    def test_batch_axes_match_unbatched_calls(self):
        rng = np.random.default_rng(11)
        bases = np.stack([random_interior(rng, 3) for _ in range(5)])
        gens = np.stack([random_markovian(rng, 3) for _ in range(5)])
        dirs = np.stack([[random_zero_sum(rng, 3) for _ in range(7)] for _ in range(5)])
        batched = ff.fisher_rates(bases, dirs, gens)
        assert batched.shape == (5, 7)
        for k in range(5):
            assert batched[k].tobytes() == ff.fisher_rates(bases[k], dirs[k], gens[k]).tobytes()

    def test_batch_names_first_boundary_base(self):
        bases = np.array([[0.5, 0.5], [1e-14, 1.0 - 1e-14], [0.0, 1.0]])
        with pytest.raises(ff.SingularBaseError, match="entry 1.000e-14"):
            ff.fisher_rates(bases, np.zeros((3, 1, 2)), np.broadcast_to(SYM, (3, 2, 2)))

    def test_batched_rejects_bad_rows(self):
        with pytest.raises(ff.DimensionMismatchError):
            ff.fisher_rates([0.5, 0.5], np.zeros((3, 3)), SYM)


class TestTraceRate:
    def test_counterexample_contracts(self):
        out = ff.trace_rate([0.1, -0.1], COUNTEREXAMPLE)
        assert out.value == pytest.approx(-0.1)
        assert out.smooth

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            d = random_zero_sum(rng, n, scale=0.1)
            r = random_markovian(rng, n)
            assert ff.forward_trace_rate(d, r) == pytest.approx(
                oracles.forward_trace_rate_direct(d, r), abs=1e-12
            )

    def test_zero_component_flagged(self):
        r = ff.extend_generator(COUNTEREXAMPLE, ancilla_dim=2)
        d = np.array([0.0, 0.0, 0.5, -0.5])
        out = ff.trace_rate(d, r)
        assert not out.smooth

    def test_forward_rate_counts_departing_mass(self):
        # the ancilla witness direction grows at the full offending rate
        r = ff.extend_generator(COUNTEREXAMPLE, ancilla_dim=2)
        d = np.kron(np.array([0.0, 1.0]), np.array([0.5, -0.5]))
        assert ff.forward_trace_rate(d, r) == pytest.approx(1.0)

    @pytest.mark.parametrize("rate", [ff.trace_rate, ff.forward_trace_rate])
    @pytest.mark.parametrize(
        "d, r, error",
        [
            ([np.nan, 1.0], COUNTEREXAMPLE, ff.InvalidStateError),
            ([0.1, 0.2], COUNTEREXAMPLE, ff.InvalidTangentError),
            ([0.1, -0.1], [[-1.0, 0.5], [1.0, 0.5]], ff.InvalidGeneratorError),
            ([0.1, -0.1], [[np.inf, 0.0], [0.0, 0.0]], ff.InvalidStateError),
            ([0.1, -0.1, 0.0], COUNTEREXAMPLE, ff.DimensionMismatchError),
        ],
        ids=["nan-entry", "not-zero-sum", "column-sums", "non-finite-generator", "dimensions"],
    )
    def test_inputs_are_validated(self, rate, d, r, error):
        with pytest.raises(error):
            rate(d, r)

    @given(st.integers(0, 2**32 - 1))
    def test_markovian_never_grows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d = random_zero_sum(rng, n, scale=0.1)
        assert ff.forward_trace_rate(d, random_markovian(rng, n)) <= 1e-12


class TestEdgeLaplacian:
    def test_bitwise_the_entrywise_loop(self):
        # batch axes broadcast, and zero rates of either sign give +0.0 off the diagonal
        rng = np.random.default_rng(43)
        for n in range(2, 10):
            bases = np.stack([random_interior(rng, n) for _ in range(4)])
            gens = np.stack([random_forced_negative(rng, n) for _ in range(4)])
            gens[:, 0, 1] = 0.0
            gens[:, 1, 0] = -0.0
            got = fisherflow.distances._edge_laplacian(bases, gens)
            want = np.stack([oracles.edge_laplacian_loop(p, r) for p, r in zip(bases, gens)])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), n
            one = fisherflow.distances._edge_laplacian(bases[0], gens)
            want = np.stack([oracles.edge_laplacian_loop(bases[0], r) for r in gens])
            assert one.tobytes() == want.tobytes(), n


class TestContractionForm:
    def test_symmetric_spectrum(self):
        form = ff.contraction_form([0.5, 0.5], SYM)
        assert form.eigenvalues == pytest.approx([-4.0])

    def test_counterexample_spectrum(self):
        form = ff.contraction_form([0.5, 0.5], COUNTEREXAMPLE)
        assert form.eigenvalues == pytest.approx([-1.0])

    def test_spectrum_matches_polarization_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            p = random_interior(rng, n)
            for r in (random_markovian(rng, n), random_forced_negative(rng, n)):
                got = np.sort(ff.contraction_form(p, r).eigenvalues)
                want = np.sort(oracles.form_eigen_direct(p, r))
                assert np.allclose(got, want, atol=1e-9)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            p = random_interior(rng, k * m)
            r = random_forced_negative(rng, k * m)
            sector = np.kron(ff.zero_sum_basis(k), np.eye(m))
            got = np.sort(ff.contraction_form(p, r, basis=sector).eigenvalues)
            want = np.sort(oracles.form_eigen_direct(p, r, sector=sector))
            assert np.allclose(got, want, atol=1e-9)

    def test_matrix_agrees_with_rate(self):
        rng = np.random.default_rng(29)
        p = random_interior(rng, 4)
        r = random_markovian(rng, 4)
        form = ff.contraction_form(p, r)
        for _ in range(10):
            d = random_zero_sum(rng, 4)
            c = form.basis.T @ d
            assert c @ form.matrix @ c == pytest.approx(ff.fisher_rate(p, d, r), abs=1e-12)

    def test_matrix_agrees_with_rate_on_a_non_orthonormal_basis(self):
        # coordinates c of the basis give the rate of basis @ c on any basis
        rng = np.random.default_rng(31)
        p = random_interior(rng, 4)
        r = random_forced_negative(rng, 4)
        form = ff.contraction_form(p, r, basis=ff.pi_tangent_basis(p))
        for _ in range(10):
            c = rng.standard_normal(3)
            want = ff.fisher_rate(p, form.basis @ c, r)
            assert c @ form.matrix @ c == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_markovian_lambda_max_nonpositive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        form = ff.contraction_form(random_interior(rng, n), random_markovian(rng, n))
        assert form.lambda_max <= 1e-10

    def test_sector_restriction(self):
        r = ff.extend_generator(COUNTEREXAMPLE, ancilla_dim=2)
        base = np.full(4, 0.25)
        sector = np.kron(ff.zero_sum_basis(2), np.eye(2))
        full = ff.contraction_form(base, r)
        image = ff.contraction_form(base, r, basis=sector)
        assert full.lambda_max == pytest.approx(0.0, abs=1e-12)
        assert image.lambda_max < -0.5

