"""States, tangent vectors, stochastic maps, generators, tensor tools."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

import fisherflow as ff
import fisherflow.simplex
import oracles
from helpers import random_markovian

COUNTEREXAMPLE = np.array([[-1.0, -0.5], [1.0, 0.5]])

#: Matrices of every outcome of the stochastic-matrix check, one rule broken at a time.
STOCHASTIC_KINDS = {
    "good": [[0.9, 0.2], [0.1, 0.8]],
    "clamped": [[1.0, 1e-13], [-1e-13, 1.0 - 1e-13]],
    "negative": [[1.2, 0.0], [-0.2, 1.0]],
    "column-sum": [[0.9, 0.0], [0.2, 1.0]],
    "nan": [[np.nan, 0.0], [1.0, 1.0]],
    "inf": [[np.inf, 0.0], [-np.inf, 1.0]],
}

#: The same for the generator check.
GENERATOR_KINDS = {
    "good": [[-1.0, 0.5], [1.0, -0.5]],
    "column-sum": [[-1.0, 0.5], [1.0, 0.5]],
    "nan": [[np.nan, 0.5], [1.0, -0.5]],
    "inf": [[-np.inf, 0.5], [np.inf, -0.5]],
}


def _assert_first_failures(check, kinds):
    """Every stack of three of ``kinds`` fails with its first failing matrix's error, or passes when all do."""
    for order in itertools.product(sorted(kinds), repeat=3):
        stack = np.array([kinds[kind] for kind in order])
        want = oracles.first_failure_loop(check, stack)
        if want is None:
            check(stack, stack=True)
            continue
        _, kind, message = want
        with pytest.raises(kind) as caught:
            check(stack, stack=True)
        assert (type(caught.value), str(caught.value)) == (kind, message), order


class TestProbVec:
    def test_normalizes(self):
        p = ff.prob_vec([2.0, 2.0])
        assert np.allclose(p, [0.5, 0.5])

    def test_clamps_float_noise(self):
        p = ff.prob_vec([1.0, -1e-13])
        assert p[1] == 0.0

    def test_rejects_real_negative(self):
        with pytest.raises(ff.InvalidStateError):
            ff.prob_vec([1.1, -0.1])

    def test_rejects_nan(self):
        with pytest.raises(ff.InvalidStateError):
            ff.prob_vec([np.nan, 1.0])

    def test_result_is_read_only(self):
        p = ff.prob_vec([0.5, 0.5])
        with pytest.raises(ValueError):
            p[0] = 1.0

    def test_interior_flag(self):
        assert ff.is_interior(ff.prob_vec([0.5, 0.5]))
        assert not ff.is_interior(ff.prob_vec([1.0, 0.0]))


class TestTangentVec:
    def test_accepts_zero_sum(self):
        d = ff.tangent_vec([0.1, -0.1])
        assert d.sum() == 0.0

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ff.InvalidTangentError):
            ff.tangent_vec([0.1, 0.1])


class TestStochasticValidation:
    def test_identity_passes(self):
        report = oracles.validate_stochastic(np.eye(3))
        assert report.passed
        assert report.max_column_deviation == 0.0

    def test_example_passes(self):
        assert oracles.validate_stochastic([[0.9, 0.2], [0.1, 0.8]]).passed

    def test_bad_column_reported(self):
        report = oracles.validate_stochastic([[1.1, 0.2], [0.1, 0.8]])
        assert not report.passed
        assert report.max_column_deviation == pytest.approx(0.2)
        assert report.column_sum_deviations[0] == pytest.approx(0.2)

    def test_negative_entry_reported(self):
        report = oracles.validate_stochastic([[1.1, 0.2], [-0.1, 0.8]])
        assert not report.passed
        assert report.most_negative_entry == pytest.approx(-0.1)

    def test_constructor_rejects_what_report_flags(self):
        with pytest.raises(ff.InvalidStochasticMatrixError):
            ff.stochastic_matrix([[1.1, 0.2], [0.1, 0.8]])

    def test_constructor_clamps_tiny_negative(self):
        t = ff.stochastic_matrix([[1.0, 1e-13], [-1e-13, 1.0 - 1e-13]])
        assert np.min(t) == 0.0

    def test_stack_validated_matrix_by_matrix(self):
        good = np.array([[0.9, 0.2], [0.1, 0.8]])
        tiny = np.array([[1.0, 1e-13], [-1e-13, 1.0 - 1e-13]])
        stack = ff.stochastic_matrix(np.stack([good, tiny, good]), stack=True)
        assert stack.shape == (3, 2, 2) and not stack.flags.writeable
        for got, single in zip(stack, (good, tiny, good)):
            assert np.array_equal(got, ff.stochastic_matrix(single))

    @pytest.mark.parametrize(
        "bad, message",
        [
            # the most negative entry of the stack (-0.5) is in a later matrix
            ([[[1.0, 0.0], [0.0, 1.0]], [[1.2, 0.0], [-0.2, 1.0]], [[1.5, 0.0], [-0.5, 1.0]]], "entry -2.000e-01"),
            ([[[1.0, 0.0], [0.0, 1.0]], [[0.9, 0.0], [0.2, 1.0]], [[1.5, 0.0], [-0.5, 1.0]]], "column sums off by 1.000e-01"),
        ],
    )
    def test_stack_fails_with_first_failing_matrix(self, bad, message):
        with pytest.raises(ff.InvalidStochasticMatrixError, match=message):
            ff.stochastic_matrix(bad, stack=True)
        first = next(m for m in bad if not oracles.validate_stochastic(m, tol=1e-12).passed)
        with pytest.raises(ff.InvalidStochasticMatrixError, match=message):
            ff.stochastic_matrix(first)

    def test_stack_needs_the_flag(self):
        with pytest.raises(ff.DimensionMismatchError):
            ff.stochastic_matrix(np.stack([np.eye(2), np.eye(2)]))

    def test_column_sum_failure_before_a_non_finite_matrix(self):
        # the non-finite matrix comes second, so the first matrix's own error wins
        bad = [[[0.9, 0.0], [0.2, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]]
        with pytest.raises(ff.InvalidStochasticMatrixError, match="column sums off by 1.000e-01"):
            ff.stochastic_matrix(bad, stack=True)

    def test_stack_fails_as_the_per_matrix_loop(self):
        _assert_first_failures(ff.stochastic_matrix, STOCHASTIC_KINDS)


class TestRateMatrix:
    def test_stack_fails_as_the_per_matrix_loop(self):
        _assert_first_failures(ff.rate_matrix, GENERATOR_KINDS)

    def test_failures_are_the_per_matrix_errors(self):
        # every failing matrix of a stack gets the error rate_matrix raises on it alone
        for order in itertools.product(sorted(GENERATOR_KINDS), repeat=3):
            stack = np.array([GENERATOR_KINDS[kind] for kind in order], dtype=float)
            want = {}
            for k, mat in enumerate(stack):
                try:
                    ff.rate_matrix(mat)
                except ff.FisherflowError as exc:
                    want[k] = (type(exc), str(exc))
            got = fisherflow.simplex.rate_matrix_failures(stack)
            assert {k: (type(exc), str(exc)) for k, exc in got.items()} == want, order

    def test_stack_is_bitwise_the_per_matrix_results(self):
        rng = np.random.default_rng(5)
        stack = np.array([random_markovian(rng, 4) for _ in range(6)])
        got = ff.rate_matrix(stack, stack=True)
        assert not got.flags.writeable
        assert np.array_equal(got, np.stack([ff.rate_matrix(m) for m in stack]))

    def test_accepts_zero_column_sums(self):
        r = ff.rate_matrix(COUNTEREXAMPLE)
        assert np.allclose(r.sum(axis=0), 0.0)

    def test_rejects_unbalanced_columns(self):
        with pytest.raises(ff.InvalidGeneratorError):
            ff.rate_matrix([[-1.0, 0.5], [1.0, 0.5]])

    def test_rates_of_reads_off_diagonal(self):
        rates = ff.rates_of([[-1.0, 0.5], [1.0, -0.5]])
        assert rates == {(1, 0): 1.0, (0, 1): 0.5}

    def test_rates_of_counterexample(self):
        rates = ff.rates_of(COUNTEREXAMPLE)
        assert rates == {(1, 0): 1.0, (0, 1): -0.5}

    def test_from_rates_round_trip(self):
        rates = {(1, 0): 1.0, (0, 1): -0.5}
        r = ff.rate_matrix_from_rates(rates, 2)
        assert np.allclose(r, COUNTEREXAMPLE)
        assert ff.rates_of(r) == rates

    def test_from_rates_rejects_diagonal_pair(self):
        with pytest.raises(ff.InvalidGeneratorError):
            ff.rate_matrix_from_rates({(0, 0): 1.0}, 2)

    @given(st.integers(0, 2**32 - 1))
    def test_from_rates_always_balances_columns(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        rates = {
            (i, j): float(rng.normal())
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.7
        }
        r = ff.rate_matrix_from_rates(rates, n)
        assert np.allclose(r.sum(axis=0), 0.0, atol=1e-14)


class TestMarkovianCheck:
    def test_markovian_example(self):
        check = ff.is_markovian_generator([[-1.0, 0.5], [1.0, -0.5]])
        assert check.markovian
        assert check.negative_rates == {}
        assert check.offender is None

    def test_counterexample_offender(self):
        check = ff.is_markovian_generator(COUNTEREXAMPLE)
        assert not check.markovian
        assert check.negative_rates == {(0, 1): -0.5}

    @given(st.integers(0, 2**32 - 1))
    def test_offender_is_smallest_offdiagonal_entry(self, seed):
        # several negative rates, two or more of them tied at the minimum
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        r = random_markovian(rng, n)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        chosen = rng.choice(len(pairs), size=int(rng.integers(2, len(pairs) + 1)), replace=False)
        worst = -float(rng.uniform(0.1, 1.0))
        for rank, k in enumerate(chosen):
            tied = rank < 2 or rng.random() < 0.3
            r[pairs[k]] = worst if tied else worst * float(rng.uniform(0.1, 0.9))
        np.fill_diagonal(r, 0.0)
        np.fill_diagonal(r, -r.sum(axis=0))
        assert ff.is_markovian_generator(r).offender == oracles.min_offdiag(r)

    def test_tolerance_absorbs_noise(self):
        r = ff.rate_matrix_from_rates({(0, 1): -1e-12, (1, 0): 1.0}, 2)
        assert ff.is_markovian_generator(r).markovian

    @given(st.integers(0, 2**32 - 1))
    def test_markovian_step_is_stochastic(self, seed):
        # short-time exponential of a Markovian generator must pass validation
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        r = random_markovian(rng, n)
        step = expm(0.01 * r)
        assert oracles.validate_stochastic(step, tol=1e-9).passed


class TestExtendGenerator:
    def test_one_copy_is_identity_operation(self):
        assert np.allclose(ff.extend_generator(COUNTEREXAMPLE), COUNTEREXAMPLE)

    def test_two_copies_sum_of_liftings(self):
        r = ff.rate_matrix(COUNTEREXAMPLE)
        out = ff.extend_generator(r, copies=2)
        expected = np.kron(r, np.eye(2)) + np.kron(np.eye(2), r)
        assert np.allclose(out, expected)
        assert np.allclose(out.sum(axis=0), 0.0, atol=1e-14)

    def test_ancilla_is_idle(self):
        r = ff.rate_matrix(COUNTEREXAMPLE)
        out = ff.extend_generator(r, ancilla_dim=3)
        assert np.allclose(out, np.kron(r, np.eye(3)))

    def test_extension_commutes_with_step(self):
        # exp(t(R x I + I x R)) = exp(tR) x exp(tR)
        r = ff.rate_matrix(COUNTEREXAMPLE)
        lhs = expm(0.4 * ff.extend_generator(r, copies=2))
        step = expm(0.4 * r)
        assert np.allclose(lhs, np.kron(step, step), atol=1e-12)

    def test_rejects_bad_counts(self):
        with pytest.raises(ff.DimensionMismatchError):
            ff.extend_generator(COUNTEREXAMPLE, copies=0)
        with pytest.raises(ff.DimensionMismatchError):
            ff.extend_generator(COUNTEREXAMPLE, ancilla_dim=-1)

    def test_dimension_cap(self):
        with pytest.raises(ff.ResourceLimitError):
            ff.extend_generator(COUNTEREXAMPLE, copies=4, max_dim=8)


class TestZeroSumBasis:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_orthonormal_zero_sum(self, n):
        b = ff.zero_sum_basis(n)
        assert b.shape == (n, n - 1)
        assert np.allclose(b.T @ b, np.eye(n - 1), atol=1e-12)
        assert np.allclose(b.sum(axis=0), 0.0, atol=1e-12)

    def test_spans_tangent_space(self):
        b = ff.zero_sum_basis(4)
        d = ff.tangent_vec([0.3, -0.1, -0.1, -0.1])
        assert np.allclose(b @ (b.T @ d), d, atol=1e-12)
