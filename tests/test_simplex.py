"""States, tangent vectors, stochastic maps, generators, tensor tools."""

import itertools
import warnings

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


def _assert_first_failures(check, stacked, kinds):
    """``stacked`` fails every stack of three of ``kinds`` with the error ``check`` raises on its first failing matrix.

    A stack whose matrices all pass ``check`` passes ``stacked``.
    """
    for order in itertools.product(sorted(kinds), repeat=3):
        stack = np.array([kinds[kind] for kind in order], dtype=float)
        want = oracles.first_failure_loop(check, stack)
        if want is None:
            stacked(stack)
            continue
        _, kind, message = want
        with pytest.raises(kind) as caught:
            stacked(stack)
        assert (type(caught.value), str(caught.value)) == (kind, message), order


def _first_rate_failure(stack):
    """Raise the earliest error ``rate_matrix_failures`` finds in ``stack``, as ``propagate`` does."""
    errors = fisherflow.simplex.rate_matrix_failures(stack)
    if errors:
        raise errors[min(errors)]


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
        _assert_first_failures(ff.stochastic_matrix, lambda s: ff.stochastic_matrix(s, stack=True), STOCHASTIC_KINDS)


class TestRateMatrix:
    def test_stack_fails_as_the_per_matrix_loop(self):
        _assert_first_failures(ff.rate_matrix, _first_rate_failure, GENERATOR_KINDS)

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
        # a stack that passes is used as it stands, and so is each of its matrices
        rng = np.random.default_rng(5)
        stack = np.array([random_markovian(rng, 4) for _ in range(6)])
        assert fisherflow.simplex.rate_matrix_failures(stack) == {}
        assert np.array_equal(np.stack([ff.rate_matrix(m) for m in stack]), stack)

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

    @pytest.mark.parametrize("rate_tol", [1e-9, 0.0, 0.3])
    def test_negative_rates_are_the_loop_s(self, rate_tol):
        # same entries, same values, same order as walking the matrix, zero rates of either sign included
        rng = np.random.default_rng(41)
        for n in range(2, 10):
            for _ in range(5):
                r = rng.uniform(-1.0, 1.0, size=(n, n))
                r[rng.random((n, n)) < 0.2] = 0.0
                r[rng.random((n, n)) < 0.1] = -0.0
                np.fill_diagonal(r, 0.0)
                np.fill_diagonal(r, -r.sum(axis=0))
                check = ff.is_markovian_generator(r, rate_tol)
                want = oracles.negative_rates_loop(r, rate_tol)
                assert list(check.negative_rates.items()) == list(want.items())
                assert check.markovian == (not want)

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

    @pytest.mark.parametrize("ancilla_dim", [0, 2, 3])
    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_bitwise_the_kron_loop(self, copies, ancilla_dim):
        # zeros of either sign in r included; every entry and its sign bit agree
        rng = np.random.default_rng(10 * copies + ancilla_dim)
        for n in range(2, 10):
            r = random_markovian(rng, n)
            r[0, 1] = -r[0, 1]
            r[1, 0] = -0.0
            np.fill_diagonal(r, 0.0)
            np.fill_diagonal(r, -r.sum(axis=0))
            got = ff.extend_generator(r, copies=copies, ancilla_dim=ancilla_dim)
            want = oracles.kron_sum_loop(r, copies, ancilla_dim)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), n

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


GOOD_GENERATOR = [[-1.0, 0.5], [1.0, -0.5]]

#: Bad inputs with the exception type and message each validator raises on them.
BAD_STATES = [
    ([np.nan, 1.0], ff.InvalidStateError, "state contains non-finite entries"),
    ([np.inf, 1.0], ff.InvalidStateError, "state contains non-finite entries"),
    ([-np.inf, 0.5, 0.6], ff.InvalidStateError, "state contains non-finite entries"),
    # a non-finite entry is named before a negative one
    ([-np.inf, -0.5, 2.0], ff.InvalidStateError, "state contains non-finite entries"),
    ([np.nan, -1.0], ff.InvalidStateError, "state contains non-finite entries"),
    # and a wrong shape before a non-finite entry
    ([np.nan], ff.DimensionMismatchError, "state must be a 1-d vector of length >= 2, got shape (1,)"),
    ([[0.5, np.inf]], ff.DimensionMismatchError, "state must be a 1-d vector of length >= 2, got shape (1, 2)"),
    ([1.1, -0.1], ff.InvalidStateError, "state has a negative entry -1.000e-01"),
    ([0.0, 0.0], ff.InvalidStateError, "state has zero total mass"),
    # finite entries whose sum overflows, named after a negative entry
    ([1e308, 1e308], ff.InvalidStateError, "state's total mass overflows"),
    ([1e308, 1e308, -1.0], ff.InvalidStateError, "state has a negative entry -1.000e+00"),
]
BAD_GENERATORS = [
    ([[np.nan, 0.5], [1.0, -0.5]], ff.InvalidStateError, "rate matrix contains non-finite entries"),
    ([[-np.inf, 0.5], [np.inf, -0.5]], ff.InvalidStateError, "rate matrix contains non-finite entries"),
    # non-finite before negative entries and unbalanced columns
    ([[np.inf, -1.0], [-np.inf, 2.0]], ff.InvalidStateError, "rate matrix contains non-finite entries"),
    ([[np.nan, 0.5], [1.0, 0.5]], ff.InvalidStateError, "rate matrix contains non-finite entries"),
    ([[-1.0, 0.5], [1.0, 0.5]], ff.InvalidGeneratorError, "column sums off by 1.000e+00 (tolerance 1e-09)"),
    # finite entries whose column sum overflows, named after a non-finite entry
    ([[1e308, 0.0], [1e308, 0.0]], ff.InvalidGeneratorError, "column sums off by inf (tolerance 1e-09)"),
    ([[1e308, 0.0], [1e308, np.nan]], ff.InvalidStateError, "rate matrix contains non-finite entries"),
    ([[-1.0, 0.5, 0.0], [1.0, -0.5, np.nan]], ff.DimensionMismatchError, "rate matrix must be square with size >= 2, got shape (2, 3)"),
    ([[np.nan]], ff.DimensionMismatchError, "rate matrix must be square with size >= 2, got shape (1, 1)"),
    ([GOOD_GENERATOR], ff.DimensionMismatchError, "rate matrix must be square with size >= 2, got shape (1, 2, 2)"),
]


def _raised(call):
    """Type and message of the error ``call()`` raises, with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ff.FisherflowError) as caught:
            call()
    return type(caught.value), str(caught.value)


class TestErrorPrecedence:
    @pytest.mark.parametrize("entries, kind, message", BAD_STATES)
    def test_prob_vec(self, entries, kind, message):
        assert _raised(lambda: ff.prob_vec(entries)) == (kind, message)

    @pytest.mark.parametrize("entries, kind, message", BAD_GENERATORS)
    def test_rate_matrix(self, entries, kind, message):
        assert _raised(lambda: ff.rate_matrix(entries)) == (kind, message)

    @pytest.mark.parametrize("entries, kind, message", BAD_STATES)
    def test_contraction_form_names_the_base_first(self, entries, kind, message):
        assert _raised(lambda: ff.contraction_form(entries, GOOD_GENERATOR)) == (kind, message)
        assert _raised(lambda: ff.contraction_form(entries, [[np.nan, 0.5], [1.0, 0.5]])) == (kind, message)

    @pytest.mark.parametrize("entries, kind, message", BAD_GENERATORS)
    def test_contraction_form_names_a_bad_generator(self, entries, kind, message):
        assert _raised(lambda: ff.contraction_form([0.5, 0.5], entries)) == (kind, message)

    @pytest.mark.parametrize(
        "base, kind, message",
        [
            ([0.2, 0.3, 0.5], ff.DimensionMismatchError, "operands of length 3 and 2"),
            ([1e-13, 1.0], ff.SingularBaseError, "base distribution has an entry 1.000e-13 below the interior floor 1e-12"),
            ([1.0, -1e-13], ff.SingularBaseError, "base distribution has an entry 0.000e+00 below the interior floor 1e-12"),
        ],
    )
    def test_contraction_form_checks_its_valid_inputs_together(self, base, kind, message):
        assert _raised(lambda: ff.contraction_form(base, GOOD_GENERATOR)) == (kind, message)


class TestSumsPastTheFloatRange:
    """Entries too large to sum without overflow raise the validator's own error, never a warning."""

    def test_stack_names_the_overflowing_matrix(self):
        stack = np.array([GOOD_GENERATOR, [[1e308, 0.0], [1e308, 0.0]], GOOD_GENERATOR])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failures = ff.simplex.rate_matrix_failures(stack)
            with pytest.raises(ff.InvalidStochasticMatrixError, match=r"^column sums off by inf"):
                ff.stochastic_matrix([[1e308, 0.0], [1e308, 1.0]])
        assert list(failures) == [1]
        assert str(failures[1]) == "column sums off by inf (tolerance 1e-09)"

    def test_large_entries_that_sum_in_range_pass(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = ff.rate_matrix([[1e308, 0.0], [-1e308, 0.0]])
            p = ff.prob_vec([1e308, 1.0])
            d = ff.tangent_vec([1e308, -1e308])
        assert r.tolist() == [[1e308, 0.0], [-1e308, 0.0]]
        assert p.tolist() == [1.0, 1e-308]
        assert d.tolist() == [1e308, -1e308]

    def test_tangent_vec_names_an_overflowing_sum(self):
        assert _raised(lambda: ff.tangent_vec([1e308, 1e308])) == (
            ff.InvalidTangentError,
            "entries sum to inf, expected 0 within 1e-12",
        )
