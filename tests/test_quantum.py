"""Monotone metrics, Choi tests, and the entangled-state dilation witness."""

import numpy as np
import pytest

import fisherflow as ff
import oracles
from fisherflow import MonotoneKind
from helpers import (
    random_density,
    random_interior,
    random_markovian,
    random_traceless_hermitian,
    random_zero_sum,
)

COUNTEREXAMPLE = np.array([[-1.0, -0.5], [1.0, 0.5]])
ALL_KINDS = (MonotoneKind.SLD, MonotoneKind.KMB, MonotoneKind.WY)


def _dephasing(d: int, keep: float) -> np.ndarray:
    """Superoperator that shrinks every off-diagonal element by ``keep`` and fixes the diagonal."""
    s = keep * np.eye(d * d, dtype=complex)
    diagonal = np.arange(d) * (d + 1)  # row-major position of E_ii
    s[diagonal, diagonal] += 1.0 - keep
    return s


class TestChannelsAndChoi:
    def test_identity_choi_is_entangled_projector(self):
        c = ff.choi(ff.QuantumChannel(matrix=np.eye(4), dim=2))
        psi = np.eye(2).reshape(-1) / np.sqrt(2.0)
        assert np.allclose(c, np.outer(psi, psi.conj()), atol=1e-14)
        assert np.linalg.eigvalsh(c)[0] == pytest.approx(0.0, abs=1e-14)

    def test_depolarizing_choi_is_maximally_mixed(self):
        # the channel that erases its input: X -> tr(X) Id / d
        d = 3
        eye_vec = np.eye(d).reshape(-1)
        erase = ff.QuantumChannel(matrix=np.outer(eye_vec / d, eye_vec), dim=d)
        assert np.allclose(ff.choi(erase), np.eye(d * d) / d**2, atol=1e-14)
        assert ff.cp_check(erase).min_eigenvalue == pytest.approx(1.0 / d**2)

    def test_choi_matches_basis_sum_oracle(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            op = ff.SuperOperator(matrix=np.kron(k, k.conj()), dim=d)
            got = ff.choi(op)
            want = oracles.choi_by_basis_sum(np.asarray(op.matrix), d)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_euler_step_fails_cp_at_second_order(self):
        # asymmetric rates: the Choi matrix of Id + dt L picks up a -O(dt^2)
        # eigenvalue, so only the exact exponential step is safe to classify
        lind = ff.semiclassical_lindbladian({(0, 1): 0.5, (1, 0): 1.0}, 2)
        dt = 1e-3
        euler = ff.QuantumChannel(matrix=np.eye(4) + dt * lind.matrix, dim=2)
        assert not ff.cp_check(euler, tol=1e-10).cp
        assert ff.cp_check(ff.channel_step(lind, dt), tol=1e-10).cp

    def test_negative_rate_shows_in_choi(self):
        # min Choi eigenvalue of Id + dt L tracks dt * a / d for one negative rate
        d = 2
        a = -0.5
        lind = ff.semiclassical_lindbladian({(0, 1): a, (1, 0): 1.0}, d)
        dt = 1e-5
        euler = ff.QuantumChannel(matrix=np.eye(4) + dt * lind.matrix, dim=d)
        report = ff.cp_check(euler)
        assert not report.cp
        assert report.min_eigenvalue == pytest.approx(dt * a / d, rel=1e-3)

    def test_overflowing_step_is_an_accuracy_error(self):
        # exp(dt L) overflows for this rate; no numpy warning may escape either
        lind = ff.semiclassical_lindbladian({(0, 1): -709784.0, (1, 0): 1.0}, 2)
        with pytest.raises(ff.NumericalAccuracyError, match="^exact step over dt = 0.001 overflows"):
            ff.channel_step(lind, 1e-3)

    def test_failed_choi_eigensolve_is_an_accuracy_error(self):
        op = ff.SuperOperator(matrix=np.full((4, 4), np.nan), dim=2)
        with pytest.raises(ff.NumericalAccuracyError, match="^Choi spectrum: Eigenvalues did not converge"):
            ff.cp_check(op)

    def test_kraus_channel_is_cp(self):
        # amplitude damping, X -> sum K X K^dagger, is kron(K, conj(K)) summed in row-major order
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.5)]])
        k1 = np.array([[0.0, np.sqrt(0.5)], [0.0, 0.0]])
        ch = ff.QuantumChannel(matrix=sum(np.kron(k, k.conj()) for k in (k0, k1)), dim=2)
        assert ff.cp_check(ch).cp

    def test_oracle_lift_acts_on_the_system_factor(self):
        # the lift the column oracle extends maps by: T (x) Id on a product operator is T[X] (x) Y
        d = 2
        ch = ff.QuantumChannel(matrix=_dephasing(d, keep=0.5), dim=d)
        lifted = oracles.lift_with_identity(ch.matrix, d)
        rng = np.random.default_rng(2)
        x, y = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2))
        moved = (lifted @ np.kron(x, y).reshape(-1)).reshape(d * d, d * d)
        assert np.allclose(moved, np.kron(ch.apply(x), y), atol=1e-14)

    def test_choi_rejects_a_map_that_breaks_hermiticity(self):
        # X -> A X with A not Hermitian has a non-Hermitian Choi matrix
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        op = ff.SuperOperator(matrix=np.kron(a, np.eye(2)), dim=2)
        with pytest.raises(ff.ChannelRepresentationError, match="^Choi matrix Hermiticity defect"):
            ff.choi(op)


class TestPetzMetric:
    def test_diagonal_two_state_value(self):
        rho = np.diag([0.5, 0.5])
        drho = np.diag([0.01, -0.01])
        for kind in ALL_KINDS:
            assert ff.petz_metric(rho, drho, drho, kind) == pytest.approx(2e-4)

    def test_commuting_case_is_f_independent(self):
        rng = np.random.default_rng(7)
        p = random_interior(rng, 3)
        d = random_zero_sum(rng, 3, scale=1e-2)
        vals = [ff.petz_metric(np.diag(p), np.diag(d), np.diag(d), kind) for kind in ALL_KINDS]
        assert max(vals) - min(vals) <= 1e-12
        assert vals[0] == pytest.approx(ff.fisher_inner(d, d, p), abs=1e-14)

    def test_matches_kernel_oracle(self):
        rng = np.random.default_rng(11)
        for kind in ALL_KINDS:
            rho = random_density(rng, 3)
            a = random_traceless_hermitian(rng, 3)
            b = random_traceless_hermitian(rng, 3)
            vals, vecs = np.linalg.eigh(rho)
            at = vecs.conj().T @ a @ vecs
            bt = vecs.conj().T @ b @ vecs
            if kind is MonotoneKind.SLD:
                kernel = lambda x, y: 2.0 / (x + y)
            elif kind is MonotoneKind.WY:
                kernel = lambda x, y: 4.0 / (np.sqrt(x) + np.sqrt(y)) ** 2
            else:
                kernel = oracles.kmb_kernel
            want = oracles.petz_direct(vals, at, bt, kernel)
            assert ff.petz_metric(rho, a, b, kind) == pytest.approx(want, rel=1e-12)

    def test_kind_ordering_sld_smallest(self):
        # SLD is the minimal monotone metric, KMB dominates it
        rng = np.random.default_rng(13)
        rho = random_density(rng, 3)
        a = random_traceless_hermitian(rng, 3)
        sld = ff.petz_metric(rho, a, a, MonotoneKind.SLD)
        wy = ff.petz_metric(rho, a, a, MonotoneKind.WY)
        kmb = ff.petz_metric(rho, a, a, MonotoneKind.KMB)
        assert sld <= wy + 1e-15
        assert wy <= kmb + 1e-15

    def test_negative_state_rejected_from_its_own_spectrum(self, monkeypatch):
        # the positivity check reads the metric's eigh spectrum; no eigvalsh runs
        def unused(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", unused)
        rho = np.diag([1.0 + 2e-10, -2e-10])
        with pytest.raises(ff.InvalidStateError, match=r"^state has eigenvalue -2.000e-10 below -1e-10$"):
            ff.petz_metric(rho, np.diag([0.1, -0.1]), np.diag([0.1, -0.1]))
        drho = np.diag([0.01, -0.01])
        assert ff.petz_metric(np.diag([0.5, 0.5]), drho, drho) == pytest.approx(2e-4)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ff.SingularBaseError):
            ff.petz_metric(np.diag([1.0, 0.0]), np.diag([0.1, -0.1]), np.diag([0.1, -0.1]))

    def test_kernel_positive_and_symmetric(self):
        xs = np.array([0.3, 0.7, 1.0])
        for kind in ALL_KINDS:
            k = ff.metric_kernel(kind, xs[:, None], xs[None, :])
            assert np.all(k > 0.0)
            assert np.allclose(k, k.T)
            # normalization at equal arguments: c_f(x, x) = 1 / x
            assert np.allclose(np.diag(k), 1.0 / xs)


class TestDiagCoherentSplit:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_cross_terms_vanish(self, kind):
        rng = np.random.default_rng(17)
        for d in (2, 3, 4):
            for _ in range(10):
                rho = random_density(rng, d)
                drho = random_traceless_hermitian(rng, d)
                assert ff.diag_decomposition_check(rho, drho, kind) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_metric_is_additive_over_split(self, kind):
        rng = np.random.default_rng(19)
        for d in (2, 3, 4):
            rho = random_density(rng, d)
            drho = random_traceless_hermitian(rng, d)
            delta, coh = ff.diag_decomposition(rho, drho)
            total = ff.petz_metric(rho, drho, drho, kind)
            split = ff.petz_metric(rho, delta, delta, kind) + ff.petz_metric(rho, coh, coh, kind)
            assert abs(total - split) <= 1e-12

    def test_parts_recombine(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, 3)
        drho = random_traceless_hermitian(rng, 3)
        delta, coh = ff.diag_decomposition(rho, drho)
        assert np.allclose(delta + coh, drho, atol=1e-14)
        assert np.allclose(rho @ delta - delta @ rho, 0.0, atol=1e-12)


class TestSemiclassicalGenerator:
    def test_diagonal_action_is_classical_generator(self):
        lind = ff.semiclassical_lindbladian(COUNTEREXAMPLE, 2)
        assert np.allclose(ff.classical_action(lind), COUNTEREXAMPLE, atol=1e-14)

    def test_dephasing_channel_scales_coherences(self):
        rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
        out = ff.QuantumChannel(matrix=_dephasing(2, keep=0.25), dim=2).apply(rho)
        assert np.allclose(out, [[0.6, 0.05 - 0.025j], [0.05 + 0.025j, 0.4]], atol=1e-15)

    def test_rate_map_input(self):
        lind = ff.semiclassical_lindbladian({(0, 1): -0.5, (1, 0): 1.0}, 2)
        assert np.allclose(ff.classical_action(lind), COUNTEREXAMPLE, atol=1e-14)

    def test_random_rate_matrices_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            r = random_markovian(rng, d)
            lind = ff.semiclassical_lindbladian(r, d)
            assert np.allclose(ff.classical_action(lind), r, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_superoperator_is_the_kron_sum_bitwise(self, d):
        # random subsets of the rates, negative ones included, in shuffled order
        rng = np.random.default_rng(37 + d)
        pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
        for _ in range(20):
            chosen = [pairs[k] for k in rng.permutation(len(pairs)) if rng.random() < 0.8]
            rates = {pair: float(rng.uniform(-2.0, 2.0)) for pair in chosen}
            got = ff.semiclassical_lindbladian(rates, d).matrix
            assert got.tobytes() == oracles.semiclassical_lindbladian_kron(rates, d).tobytes()

    def test_reduction_rate_matches_classical(self):
        lind = ff.semiclassical_lindbladian(np.array([[-1.0, 1.0], [1.0, -1.0]]), 2)
        dev = ff.commuting_reduction_rate_check(
            np.diag([0.5, 0.5]), np.diag([0.01, -0.01]), lind
        )
        assert dev <= 1e-8
        # the classical side of that comparison is the frozen -8e-4 fixture
        assert ff.fisher_rate([0.5, 0.5], [0.01, -0.01], [[-1.0, 1.0], [1.0, -1.0]]) == pytest.approx(-8e-4)

    def test_reduction_rate_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            r = random_markovian(rng, d)
            lind = ff.semiclassical_lindbladian(r, d)
            p = random_interior(rng, d)
            dvec = random_zero_sum(rng, d, scale=1e-2)
            dev = ff.commuting_reduction_rate_check(np.diag(p), np.diag(dvec), lind)
            assert dev <= 1e-6

    def test_zero_generator_zero_rate(self):
        lind = ff.semiclassical_lindbladian({}, 2)
        dev = ff.commuting_reduction_rate_check(np.diag([0.6, 0.4]), np.diag([0.01, -0.01]), lind)
        assert dev <= 1e-14

    def test_kind_agreement_on_diagonal_instances(self):
        lind = ff.semiclassical_lindbladian(COUNTEREXAMPLE, 2)
        devs = [
            ff.commuting_reduction_rate_check(
                np.diag([0.5, 0.5]), np.diag([0.01, -0.01]), lind, kind=kind
            )
            for kind in ALL_KINDS
        ]
        assert max(devs) <= 1e-8

    def test_off_diagonal_inputs_rejected(self):
        lind = ff.semiclassical_lindbladian(COUNTEREXAMPLE, 2)
        coherent = np.array([[0.5, 0.1], [0.1, 0.5]])
        with pytest.raises(ff.InvalidStateError):
            ff.commuting_reduction_rate_check(coherent, np.diag([0.01, -0.01]), lind)


class TestSpecialPoint:
    def test_classical_fixture(self):
        report = ff.special_point_check(np.diag([0.3, -0.2, -0.1]))
        assert report.target == pytest.approx(0.18)
        assert report.max_deviation <= 1e-10
        assert np.allclose(np.diag(report.base), [0.5, 1 / 3, 1 / 6])

    def test_coherent_fixture(self):
        drho = 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
        report = ff.special_point_check(drho)
        assert report.target == pytest.approx(0.02)
        assert report.max_deviation <= 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(37)
        drho = random_traceless_hermitian(rng, 3, scale=0.1)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        rotated = q @ drho @ q.conj().T
        a = ff.special_point_check(drho)
        b = ff.special_point_check(rotated)
        assert a.target == pytest.approx(b.target, rel=1e-12)
        assert a.max_deviation <= 1e-10 and b.max_deviation <= 1e-10

    def test_random_perturbations(self):
        rng = np.random.default_rng(41)
        for d in (2, 3, 4):
            for _ in range(5):
                report = ff.special_point_check(random_traceless_hermitian(rng, d, scale=0.2))
                assert report.max_deviation <= 1e-10

    def test_zero_rejected(self):
        with pytest.raises(ff.InvalidTangentError):
            ff.special_point_check(np.zeros((2, 2)))


class TestQuantumWitness:
    def _noncp_step(self, dt=1e-3):
        lind = ff.semiclassical_lindbladian({(0, 1): -0.5, (1, 0): 1.0}, 2)
        return ff.channel_step(lind, dt)

    def test_witness_found_on_noncp_step(self):
        step = self._noncp_step()
        report = ff.quantum_dilation_witness(step, ff.cp_check(step))
        assert report.found
        assert report.rate_value > 0.0
        assert report.stable
        assert report.choi_min_eigenvalue < 0.0

    def test_cp_step_not_applicable(self):
        lind = ff.semiclassical_lindbladian({(0, 1): 0.5, (1, 0): 1.0}, 2)
        step = ff.channel_step(lind, 1e-3)
        with pytest.raises(ff.WitnessNotApplicableError):
            ff.quantum_dilation_witness(step, ff.cp_check(step))

    def test_fd_estimate_agrees(self):
        step = self._noncp_step()
        report = ff.quantum_dilation_witness(step, ff.cp_check(step))
        fd = ff.quantum_witness_fd_rate(report)
        assert abs(fd - report.rate_value) / abs(report.rate_value) <= 1e-5

    def test_fd_rate_matches_lifted_oracle(self):
        # the same extrapolated secant, with the state pair moved by the oracle's d^4 x d^4 lift
        for d in (2, 3, 4):
            rates = {(i, (i + 1) % d): 0.7 for i in range(d)}
            rates[(1, 0)] = -0.4
            step = ff.channel_step(ff.semiclassical_lindbladian(rates, d), 1e-3)
            report = ff.quantum_dilation_witness(step, ff.cp_check(step))
            lifted = oracles.lift_with_identity(step.matrix, d)
            alpha = min(0.25, 0.02 * report.eta / (d * d * abs(report.choi_min_eigenvalue)))
            rho, drho = report.rho, report.drho
            k0 = ff.petz_metric(rho, drho, drho)

            def secant(a):
                rho_a = (1.0 - a) * rho + a * (lifted @ rho.reshape(-1)).reshape(d * d, d * d)
                drho_a = (1.0 - a) * drho + a * (lifted @ drho.reshape(-1)).reshape(d * d, d * d)
                return (ff.petz_metric(rho_a, drho_a, drho_a) - k0) / a

            want = (8.0 * secant(alpha / 4.0) - 6.0 * secant(alpha / 2.0) + secant(alpha)) / 3.0
            assert ff.quantum_witness_fd_rate(report) == pytest.approx(want, rel=1e-12)

    def test_classical_generator_in_frame_has_negative_rate(self):
        step = self._noncp_step()
        report = ff.quantum_dilation_witness(step, ff.cp_check(step))
        gen = report.classical_generator
        assert gen[1, 0] < 0.0
        assert np.allclose(np.asarray(gen).sum(axis=0), 0.0, atol=1e-8)

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    @pytest.mark.parametrize("coupling", [0.0, 0.3 + 0.4j])
    def test_classical_generator_matches_column_oracle(self, dt, coupling):
        # a Hamiltonian part -i[H, .] with complex H makes the step and its Choi matrix complex
        for d in (2, 3, 4):
            rates = {(i, (i + 1) % d): 0.7 for i in range(d)}
            rates[(1, 0)] = -0.4
            h = np.zeros((d, d), dtype=complex)
            h[0, 1] = coupling
            h += h.conj().T
            hamiltonian = -1j * (np.kron(h, np.eye(d)) - np.kron(np.eye(d), h.T))
            lind = ff.semiclassical_lindbladian(rates, d)
            step = ff.channel_step(ff.SuperOperator(matrix=lind.matrix + hamiltonian, dim=d), dt)
            report = ff.quantum_dilation_witness(step, ff.cp_check(step))
            want = oracles.transition_generator_by_column(np.asarray(step.matrix), report.frame)
            got = np.asarray(report.classical_generator)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            if coupling == 0.0:
                # the offending Choi eigenvector is orthogonal to the entangled state, so
                # the offending entry is the Choi minimum itself
                assert got[1, 0] == pytest.approx(report.choi_min_eigenvalue, rel=1e-12)

    def test_eta_domain(self):
        step = self._noncp_step()
        with pytest.raises(ff.DomainError):
            ff.quantum_dilation_witness(step, ff.cp_check(step), eta=0.7)

    def test_scaled_rate_stability(self):
        step = self._noncp_step()
        report = ff.quantum_dilation_witness(step, ff.cp_check(step))
        assert report.scaled_rate_half_eta == pytest.approx(report.scaled_rate, rel=0.2)


class TestCpClassification:
    def test_rate_sign_decides_cp(self):
        rng = np.random.default_rng(43)
        for trial in range(20):
            d = int(rng.integers(2, 4))
            if trial % 2 == 0:
                r = random_markovian(rng, d)
                markovian = True
            else:
                r = random_markovian(rng, d)
                i = int(rng.integers(d))
                j = int((i + 1) % d)
                r = r.copy()
                r[i, j] = -float(rng.uniform(0.05, 0.5))
                np.fill_diagonal(r, 0.0)
                np.fill_diagonal(r, -r.sum(axis=0))
                markovian = False
            lind = ff.semiclassical_lindbladian(r, d)
            step = ff.channel_step(lind, 1e-3)
            assert ff.cp_check(step, tol=1e-10).cp == markovian

