"""Finite-dimensional quantum layer: channels, Choi tests, monotone metrics.

Everything here targets small dimensions (d <= 16) where dense eigensolves
are exact enough to act as ground truth. Operators are vectorized row-major,
so a map rho -> A rho B has superoperator kron(A, B.T) and a Kraus set
{K_m} sums to kron(K_m, conj(K_m)).

The metric family is indexed by three standard operator monotone
functions (SLD, KMB, WY). In the eigenbasis of the state the metric is a
weighted sum of squared matrix elements with kernel c_f(x, y) =
1 / (y f(x/y)); on commuting inputs every kernel collapses to 1/x and the
value equals the classical local Fisher square of the diagonals. That
collapse is what the reduction checks in this module exercise, and what
the dilation witness exploits: a non-completely-positive intermediate map
shows up as a negative diagonal transition rate in a basis built from the
offending Choi eigenvector, and the classical rate machinery takes over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .distances import fisher_rate
from .errors import (
    ChannelRepresentationError,
    DimensionMismatchError,
    DomainError,
    InvalidGeneratorError,
    InvalidStateError,
    InvalidTangentError,
    NumericalAccuracyError,
    ResourceLimitError,
    SingularBaseError,
    WitnessNotApplicableError,
)
from .propagation import expm
from .simplex import _SUM_SAFE, rate_matrix, rates_of

__all__ = [
    "MAX_QUANTUM_DIM",
    "MonotoneKind",
    "density_matrix",
    "hermitian_perturbation",
    "SuperOperator",
    "QuantumChannel",
    "channel_step",
    "choi",
    "CpReport",
    "cp_check",
    "metric_kernel",
    "petz_metric",
    "diag_decomposition",
    "diag_decomposition_check",
    "commuting_reduction_rate_check",
    "SpecialPointReport",
    "special_point_check",
    "semiclassical_lindbladian",
    "classical_action",
    "QuantumWitnessReport",
    "quantum_dilation_witness",
    "quantum_witness_fd_rate",
]

MAX_QUANTUM_DIM = 16

#: Hermiticity and trace tolerances for states and perturbations.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12

#: Eigenvalues of a state may undershoot zero by at most this.
PSD_TOL = 1e-10

#: Trace preservation tolerance for channels.
TP_TOL = 1e-10

#: The metric needs state eigenvalues at least this large.
FULL_RANK_FLOOR = 1e-10


def _as_square_complex(entries, name: str) -> np.ndarray:
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be a square matrix")
    if a.shape[0] > MAX_QUANTUM_DIM:
        raise ResourceLimitError(f"{name} dimension {a.shape[0]} exceeds {MAX_QUANTUM_DIM}")
    return a


def _unit_trace_hermitian(entries) -> np.ndarray:
    """A state's entries checked Hermitian with unit trace, then symmetrized; its spectrum is not checked."""
    a = _as_square_complex(entries, "state")
    if np.max(np.abs(a - a.conj().T)) > HERMITIAN_TOL:
        raise InvalidStateError("state is not Hermitian")
    if abs(np.trace(a).real - 1.0) > TRACE_TOL or abs(np.trace(a).imag) > TRACE_TOL:
        raise InvalidStateError(f"state trace {np.trace(a):.6g} != 1")
    return 0.5 * (a + a.conj().T)


def _check_psd(low: float) -> None:
    if low < -PSD_TOL:
        raise InvalidStateError(f"state has eigenvalue {low:.3e} below -{PSD_TOL:.0e}")


def density_matrix(entries) -> np.ndarray:
    """Validated density matrix: Hermitian, unit trace, eigenvalues >= -1e-10."""
    a = _unit_trace_hermitian(entries)
    _check_psd(float(np.linalg.eigvalsh(a).min()))
    a.flags.writeable = False
    return a


def hermitian_perturbation(entries) -> np.ndarray:
    """Validated traceless Hermitian perturbation."""
    a = _as_square_complex(entries, "perturbation")
    if np.max(np.abs(a - a.conj().T)) > HERMITIAN_TOL:
        raise InvalidTangentError("perturbation is not Hermitian")
    if abs(np.trace(a)) > TRACE_TOL:
        raise InvalidTangentError(f"perturbation trace {np.trace(a):.3e} != 0")
    a = 0.5 * (a + a.conj().T)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SuperOperator:
    """Linear map on operators, stored as a matrix on row-major vectorizations."""

    matrix: np.ndarray = field(repr=False)
    dim: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim**2, self.dim**2):
            raise DimensionMismatchError(
                f"superoperator shape {m.shape} incompatible with dimension {self.dim}"
            )
        if self.dim > MAX_QUANTUM_DIM:
            raise ResourceLimitError(f"dimension {self.dim} exceeds {MAX_QUANTUM_DIM}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, x) -> np.ndarray:
        op = np.asarray(x, dtype=complex)
        if op.shape != (self.dim, self.dim):
            raise DimensionMismatchError("operand shape mismatch")
        return (self.matrix @ op.reshape(-1)).reshape(self.dim, self.dim)

    def trace_annihilation_defect(self) -> float:
        probe = np.eye(self.dim).reshape(-1)
        return float(np.max(np.abs(self.matrix.T @ probe)))


@dataclass(frozen=True)
class QuantumChannel(SuperOperator):
    """Trace-preserving superoperator."""

    def __post_init__(self) -> None:
        super().__post_init__()
        probe = np.eye(self.dim).reshape(-1)
        defect = float(np.max(np.abs(self.matrix.T @ probe - probe)))
        if defect > TP_TOL:
            raise ChannelRepresentationError(f"trace preservation defect {defect:.3e}")


def channel_step(lind: SuperOperator, dt: float) -> QuantumChannel:
    """One exact time step exp(dt L) of the semigroup generated by ``lind``.

    The exponential keeps complete positivity for valid generators, which
    Id + dt L loses at order dt^2, so classification needs the exact step.
    A step that overflows raises a numerical-accuracy error.
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        s = expm(dt * lind.matrix)
    if not np.all(np.isfinite(s)):
        raise NumericalAccuracyError(f"exact step over dt = {dt:g} overflows to non-finite entries")
    return QuantumChannel(matrix=s, dim=lind.dim)


def choi(op: SuperOperator) -> np.ndarray:
    """Choi matrix (1/d) sum_jl T[E_jl] (x) E_jl, validated Hermitian.

    Entry ((a, j), (b, l)) is T[E_jl][a, b] / d, the superoperator entry
    ((a, b), (j, l)) / d, so the matrix is a reshuffle of the superoperator.
    """
    d = op.dim
    c = op.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d) / d
    defect = float(np.max(np.abs(c - c.conj().T)))
    if defect > 1e-10:
        raise ChannelRepresentationError(f"Choi matrix Hermiticity defect {defect:.3e}")
    c = 0.5 * (c + c.conj().T)
    c.flags.writeable = False
    return c


@dataclass(frozen=True)
class CpReport:
    min_eigenvalue: float
    tol: float
    cp: bool
    min_eigenvector: np.ndarray = field(repr=False)


def cp_check(op: SuperOperator, tol: float = 1e-10) -> CpReport:
    """Complete positivity verdict from the bottom of the Choi spectrum."""
    c = choi(op)
    try:
        vals, vecs = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise NumericalAccuracyError(f"Choi spectrum: {exc}") from exc
    return CpReport(
        min_eigenvalue=float(vals[0]),
        tol=float(tol),
        cp=bool(vals[0] >= -tol),
        min_eigenvector=vecs[:, 0],
    )


class MonotoneKind(Enum):
    """Standard operator monotone functions indexing the metric family."""

    SLD = "sld"
    KMB = "kmb"
    WY = "wy"


def metric_kernel(kind: MonotoneKind, x, y) -> np.ndarray:
    """Kernel c_f(x, y) = 1 / (y f(x/y)) on positive spectra, stable at x = y."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if np.any(xv <= 0.0) or np.any(yv <= 0.0):
        raise SingularBaseError("metric kernel needs strictly positive eigenvalues")
    if kind is MonotoneKind.SLD:
        return 2.0 / (xv + yv)
    if kind is MonotoneKind.WY:
        return 4.0 / (np.sqrt(xv) + np.sqrt(yv)) ** 2
    close = np.abs(xv - yv) <= 1e-8 * (xv + yv)
    diff = np.where(close, 1.0, xv - yv)
    return np.where(close, 2.0 / (xv + yv), (np.log(xv) - np.log(yv)) / diff)


def _eigensystem(rho) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of a validated full-rank state; one ``eigh`` serves the positivity check too."""
    vals, vecs = np.linalg.eigh(_unit_trace_hermitian(rho))
    low = float(vals.min())
    _check_psd(low)
    if low < FULL_RANK_FLOOR:
        raise SingularBaseError(
            f"state eigenvalue {vals.min():.3e} below floor {FULL_RANK_FLOOR:.0e}"
        )
    return vals, vecs


def petz_metric(rho, a, b, kind: MonotoneKind = MonotoneKind.SLD) -> float:
    """Monotone metric (1/2) sum conj(A_ij) B_ij c_f(rho_i, rho_j) in the state eigenbasis.

    Real for Hermitian arguments; collapses to the classical Fisher inner
    product when both arguments commute with the state.
    """
    vals, vecs = _eigensystem(rho)
    at = vecs.conj().T @ hermitian_perturbation(a) @ vecs
    bt = vecs.conj().T @ hermitian_perturbation(b) @ vecs
    c = metric_kernel(kind, vals[:, None], vals[None, :])
    val = 0.5 * complex(np.sum(np.conj(at) * bt * c))
    if abs(val.imag) > 1e-10 * max(abs(val.real), 1.0):
        raise ChannelRepresentationError(f"metric value has imaginary part {val.imag:.3e}")
    return float(val.real)


def diag_decomposition(rho, drho) -> tuple[np.ndarray, np.ndarray]:
    """Split a perturbation into its diagonal and coherent parts in the state eigenbasis."""
    vals, vecs = _eigensystem(rho)
    dt = vecs.conj().T @ hermitian_perturbation(drho) @ vecs
    diag_part = np.diag(np.diag(dt))
    coh_part = dt - diag_part
    back = lambda m: vecs @ m @ vecs.conj().T
    return back(diag_part), back(coh_part)


def diag_decomposition_check(rho, drho, kind: MonotoneKind = MonotoneKind.SLD) -> float:
    """Magnitude of the metric cross term between diagonal and coherent parts."""
    delta, coh = diag_decomposition(rho, drho)
    return abs(petz_metric(rho, delta, coh, kind))


def classical_action(op: SuperOperator) -> np.ndarray:
    """Action induced on diagonal matrices: column j is diag(T[E_jj]).

    Entry (i, j) is the superoperator entry ((i, i), (j, j)).
    """
    d = op.dim
    return np.einsum("iijj->ij", op.matrix.reshape(d, d, d, d)).real.copy()


def semiclassical_lindbladian(rates, d: int) -> SuperOperator:
    """Generator sum a_ij (E_ij rho E_ji - (1/2){E_jj, rho}) on dimension ``d``.

    ``rates`` is a mapping (i, j) -> a(i <- j) or a full classical rate
    matrix. The induced action on diagonal matrices is exactly the
    classical generator, negative entries included. Every rate must be
    finite.
    """
    if isinstance(rates, Mapping):
        pairs = dict(rates)
    else:
        pairs = rates_of(rates)
    values = np.array(list(pairs.values()), dtype=float)
    # one pass passes every usual rate set; a NaN fails the comparison
    if not np.abs(values).max(initial=0.0) <= _SUM_SAFE and not np.isfinite(values).all():
        raise InvalidGeneratorError("rates contain non-finite entries")
    # entry ((a, b), (c, e)) of the superoperator is s[a, b, c, e]: E_ij rho E_ji moves
    # rho[j, j] to [i, i], and -(1/2){E_jj, rho} scales row j and column j of rho
    s = np.zeros((d, d, d, d), dtype=complex)
    for (i, j), a in pairs.items():
        if not (0 <= i < d and 0 <= j < d) or i == j:
            raise DimensionMismatchError(f"rate index {(i, j)} invalid for dimension {d}")
        rest = np.flatnonzero(np.arange(d) != j)
        s[i, i, j, j] += a
        s[j, rest, j, rest] -= 0.5 * a
        s[rest, j, rest, j] -= 0.5 * a
        s[j, j, j, j] -= a  # row j meets column j: both halves in one subtraction
    op = SuperOperator(matrix=s.reshape(d * d, d * d), dim=d)
    defect = op.trace_annihilation_defect()
    if defect > 1e-10:
        raise ChannelRepresentationError(f"generator trace defect {defect:.3e}")
    return op


def commuting_reduction_rate_check(
    rho,
    drho,
    lind: SuperOperator,
    kind: MonotoneKind = MonotoneKind.SLD,
    h: float = 1e-6,
) -> float:
    """Deviation between the quantum metric rate and the classical Fisher rate.

    Both the state and the perturbation must be diagonal in the basis the
    generator is written in; the quantum side is then a matched central
    difference of the metric along the generator flow and must agree with
    the classical rate of the diagonals up to discretization error.
    """
    state = density_matrix(rho)
    pert = hermitian_perturbation(drho)
    if np.max(np.abs(state - np.diag(np.diag(state)))) > 1e-12:
        raise InvalidStateError("state must be diagonal in the generator basis")
    if np.max(np.abs(pert - np.diag(np.diag(pert)))) > 1e-12:
        raise InvalidTangentError("perturbation must be diagonal in the generator basis")
    if state.shape[0] != lind.dim:
        raise DimensionMismatchError("generator dimension mismatch")

    rho_dot = lind.apply(state)
    drho_dot = lind.apply(pert)
    k_hi = petz_metric(state + h * rho_dot, pert + h * drho_dot, pert + h * drho_dot, kind)
    k_lo = petz_metric(state - h * rho_dot, pert - h * drho_dot, pert - h * drho_dot, kind)
    quantum_rate = (k_hi - k_lo) / (2.0 * h)

    classical = fisher_rate(
        np.diag(state).real, np.diag(pert).real, rate_matrix(classical_action(lind))
    )
    return abs(quantum_rate - classical)


@dataclass(frozen=True)
class SpecialPointReport:
    """Metric values at the base built from the perturbation itself.

    At base |drho| / tr|drho| every monotone metric of (drho, drho) equals
    half the squared trace norm, exactly as in the classical special-point
    identity; the computation runs on the support of the perturbation.
    """

    base: np.ndarray = field(repr=False)
    trace_size: float
    target: float
    values: dict[MonotoneKind, float]
    support_dim: int

    @property
    def max_deviation(self) -> float:
        return max(abs(v - self.target) for v in self.values.values())


def special_point_check(drho) -> SpecialPointReport:
    pert = hermitian_perturbation(drho)
    vals, vecs = np.linalg.eigh(pert)
    size = float(np.sum(np.abs(vals)))
    if size == 0.0:
        raise InvalidTangentError("zero perturbation has no special base point")
    support = np.abs(vals) > 1e-14 * float(np.max(np.abs(vals)))
    lam = vals[support]
    base_support = np.diag(np.abs(lam) / size)
    pert_support = np.diag(lam)
    values = {
        kind: petz_metric(base_support, pert_support, pert_support, kind) for kind in MonotoneKind
    }
    base_full = vecs @ np.diag(np.abs(vals) / size) @ vecs.conj().T
    base_full.flags.writeable = False
    return SpecialPointReport(
        base=base_full,
        trace_size=size,
        target=0.5 * size**2,
        values=values,
        support_dim=int(support.sum()),
    )


@dataclass(frozen=True)
class QuantumWitnessReport:
    """Fisher dilation witness extracted from a negative Choi eigenvalue.

    The state is the maximally entangled projector regularized by ``eta``
    of the maximally mixed state; the perturbation moves weight from the
    entangled direction to the offending Choi eigendirection. In the
    orthonormal frame containing both, the map extended by the identity on
    a copy of the system induces a classical transition generator whose
    (offender <- entangled) rate is negative (the Choi minimum itself on a
    semiclassical step), and the classical Fisher rate at the concentrated
    base is positive. ``scaled_rate`` is rate times eta squared, the
    regularization-free figure used for stability comparison at halved
    eta. ``step`` is the map on the system.
    """

    found: bool
    rate_value: float
    scaled_rate: float
    scaled_rate_half_eta: float
    stable: bool
    eta: float
    eps: float
    choi_min_eigenvalue: float
    rho: np.ndarray = field(repr=False)
    drho: np.ndarray = field(repr=False)
    base_probs: np.ndarray = field(repr=False)
    direction: np.ndarray = field(repr=False)
    classical_generator: np.ndarray = field(repr=False)
    frame: np.ndarray = field(repr=False)
    step: QuantumChannel = field(repr=False)


def _witness_frame(d: int, choi_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    total = d * d
    psi = np.eye(d).reshape(-1).astype(complex) / np.sqrt(d)
    overlap = np.vdot(psi, choi_vec)
    v_perp = choi_vec - overlap * psi
    norm = float(np.linalg.norm(v_perp))
    if norm < 1e-12:
        raise WitnessNotApplicableError(
            "offending Choi eigenvector has no component away from the entangled state"
        )
    v_perp = v_perp / norm
    seed = np.concatenate([psi[:, None], v_perp[:, None], np.eye(total, dtype=complex)], axis=1)
    frame, _ = np.linalg.qr(seed)
    return psi, v_perp, frame


def _diagonal_transition_generator(step: SuperOperator, frame: np.ndarray) -> np.ndarray:
    """Entry (a, b) is <f_a| ((T - Id) (x) Id)[|f_b><f_b|] |f_a> for the frame columns f_b.

    With f_b reshaped to F_b (system, copy), the entry is d v^H C v for the
    Choi matrix C of T - Id and v = vec(F_a F_b^H), so the map is never
    extended to the copy. The identity is subtracted before the form: the
    difference of the two forms loses digits to cancellation.
    """
    d = step.dim
    f = frame.T.reshape(d * d, d, d)
    c = choi(SuperOperator(matrix=step.matrix - np.eye(d * d), dim=d))
    v = (f[:, None] @ f.conj().transpose(0, 2, 1)[None, :]).reshape(d * d, d * d, d * d)
    return d * np.einsum("abi,abi->ab", v.conj(), v @ c.T).real


def _witness_rate(gen: np.ndarray, eta: float, eps: float) -> tuple[float, np.ndarray, np.ndarray]:
    total = gen.shape[0]
    probs = np.full(total, eta / total)
    probs[0] += 1.0 - eta
    direction = np.zeros(total)
    direction[0] = -eps
    direction[1] = eps
    return fisher_rate(probs, direction, gen), probs, direction


def quantum_dilation_witness(
    intermediate: QuantumChannel,
    report: CpReport,
    eta: float = 1e-6,
    eps: float = 1e-3,
) -> QuantumWitnessReport:
    """Dilation witness for a non-completely-positive intermediate map.

    ``report`` is the caller's :func:`cp_check` of ``intermediate``; a
    witness-not-applicable error is raised when the map passed it.
    Otherwise builds the regularized entangled state and the perturbation
    toward the offending direction, reads the classical transition
    generator of the map in that frame off its Choi matrix, and reports
    the classical Fisher rate (positive exactly because the offending rate
    is negative and the base is concentrated). One application of the map
    counts as one unit of time. The state lives on the system and a copy,
    so d^2 may not exceed ``MAX_QUANTUM_DIM``.
    """
    if report.cp:
        raise WitnessNotApplicableError(
            f"map is completely positive (Choi minimum {report.min_eigenvalue:.3e})"
        )
    d = intermediate.dim
    total = d * d
    if not 0.0 < eta < 0.5 or not 0.0 < eps < 0.5:
        raise DomainError("eta and eps must sit in (0, 0.5)")
    if total > MAX_QUANTUM_DIM:
        raise ResourceLimitError(f"extended dimension {total} exceeds {MAX_QUANTUM_DIM}")
    psi, v_perp, frame = _witness_frame(d, report.min_eigenvector)

    # the generator in the frame does not depend on eta
    gen = rate_matrix(_diagonal_transition_generator(intermediate, frame), col_tol=1e-8)
    rate, probs, direction = _witness_rate(gen, eta, eps)
    rate_half, _, _ = _witness_rate(gen, eta / 2.0, eps)
    scaled = rate * eta**2
    scaled_half = rate_half * (eta / 2.0) ** 2
    stable = abs(scaled_half - scaled) <= 0.2 * abs(scaled)

    rho = (1.0 - eta) * np.outer(psi, psi.conj()) + eta * np.eye(total) / total
    drho = eps * (np.outer(v_perp, v_perp.conj()) - np.outer(psi, psi.conj()))
    return QuantumWitnessReport(
        found=rate > 0.0,
        rate_value=rate,
        scaled_rate=scaled,
        scaled_rate_half_eta=scaled_half,
        stable=stable,
        eta=eta,
        eps=eps,
        choi_min_eigenvalue=report.min_eigenvalue,
        rho=rho,
        drho=drho,
        base_probs=probs,
        direction=direction,
        classical_generator=gen,
        frame=frame,
        step=intermediate,
    )


def quantum_witness_fd_rate(report: QuantumWitnessReport) -> float:
    """Independent rate estimate: finite difference of the SLD metric along the map.

    The state pair is pushed a fraction alpha of the way through the map
    extended by the identity on the copy (a convex combination, so
    positivity is safe) and the metric of the displacement is differenced.
    alpha is 0.02 eta / (d^2 |Choi minimum|), at most 0.25. The secant
    s(alpha) differs from the derivative by a series in alpha, whose linear
    and quadratic terms the Richardson combination
    (8 s(alpha / 4) - 6 s(alpha / 2) + s(alpha)) / 3 cancels. Units match
    the witness: one full application is one unit of time.
    """
    d = report.step.dim
    alpha = min(0.25, 0.02 * report.eta / (d * d * abs(report.choi_min_eigenvalue)))
    s4 = report.step.matrix.reshape(d, d, d, d)
    rho, drho = report.rho, report.drho
    # (T (x) Id)[X] with X indexed ((system, copy), (system, copy))
    rho_moved, drho_moved = (
        np.einsum("apcq,cbqB->abpB", s4, x.reshape(d, d, d, d)).reshape(d * d, d * d) for x in (rho, drho)
    )
    k0 = petz_metric(rho, drho, drho)

    def secant(a: float) -> float:
        rho_a = (1.0 - a) * rho + a * rho_moved
        drho_a = (1.0 - a) * drho + a * drho_moved
        return (petz_metric(rho_a, drho_a, drho_a) - k0) / a

    return (8.0 * secant(alpha / 4.0) - 6.0 * secant(alpha / 2.0) + secant(alpha)) / 3.0
