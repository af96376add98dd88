"""Bayesian recovery maps and the retrodiction side of Fisher contraction.

Given a prior ``pi`` and a forward map ``T``, the Bayes recovery map
``bayes_inverse(T, pi)`` runs the conditional probabilities backwards:
T_hat[i, j] = pi_i T[j, i] / (T pi)_j. The round trip A = T_hat T fixes
the prior exactly and is self-adjoint in the inner product weighted by
1 / (2 pi_i), so its action on zero-sum directions is a symmetric matrix
in a pi-orthonormal basis.

The central quantitative fact checked here: the quadratic form
<d, A d>_pi equals <T d, T d>_{T pi} identically, which ties the decay of
recovery quality to the contraction of the Fisher metric under ``T``.
``retrodiction_equivalence_check`` tests the differential version on a
trajectory: the symmetrized -dA/dt is positive semidefinite exactly when
the Fisher contraction form at the evolved prior has no positive
direction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distances import _require_interior, contraction_form, fisher_inner
from .errors import (
    DimensionMismatchError,
    DomainError,
    IntegrationAccuracyError,
    SingularBaseError,
    UndefinedPosteriorError,
)
from .propagation import Dynamics, Trajectory, exact_propagators, generator_of, propagate
from .simplex import is_interior, prob_vec, stochastic_matrix, tangent_vec

__all__ = [
    "bayes_inverse",
    "pi_tangent_basis",
    "RetrodictionContext",
    "retrodiction_context",
    "retrodiction_distance_sq",
    "adjoint_identity_check",
    "EquivalenceReport",
    "retrodiction_equivalence_check",
]

#: Magnitude below which a sign is not trusted in the equivalence check.
INDETERMINATE_BAND = 1e-8

#: Finite-difference step used when exact propagators are available.
CLOSED_FORM_STEP = 3e-6


def bayes_inverse(t, pi) -> np.ndarray:
    """Bayes recovery map of ``t`` with respect to the prior ``pi``.

    Column j is the posterior over inputs given output j, so the result is
    column-stochastic whenever every output has positive probability. A
    ``(T, n, n)`` stack of maps gives the stack of their recovery maps; it
    fails with the error of its first invalid map or, when every map is
    valid, of the first map with an output of zero probability.
    """
    mat = stochastic_matrix(t, stack=True)
    prior = prob_vec(pi)
    if prior.shape[0] != mat.shape[-1]:
        raise DimensionMismatchError("prior and map dimensions differ")
    pushed = mat @ prior
    dead = np.flatnonzero(np.any(pushed <= 0.0, axis=-1))
    if dead.size:
        first = pushed.reshape(-1, prior.shape[0])[dead[0]]
        raise UndefinedPosteriorError(
            f"output {int(np.argmin(first))} has zero probability under the prior; posterior undefined"
        )
    return stochastic_matrix(
        prior[:, None] * mat.swapaxes(-1, -2) / pushed[..., None, :], stack=True
    )


def pi_tangent_basis(pi) -> np.ndarray:
    """Zero-sum basis orthonormal in the 1/(2 pi) weighted inner product.

    Columns v_k satisfy sum(v_k) = 0 and <v_k, v_l>_pi = delta_kl. Built
    from a Householder frame orthogonal to sqrt(pi), rescaled by
    sqrt(2 pi) componentwise.
    """
    prior = prob_vec(pi)
    if not is_interior(prior):
        raise SingularBaseError("basis needs an interior prior")
    n = prior.shape[0]
    root = np.sqrt(prior)
    v = root + np.eye(n)[0]
    house = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    frame = house[:, 1:]
    return np.sqrt(2.0 * prior)[:, None] * frame


@dataclass(frozen=True)
class RetrodictionContext:
    """Forward, recovery, and round-trip maps of one dynamics on a grid.

    ``round_trips[k]`` is A at ``grid[k]``; it fixes the prior and is
    self-adjoint in the prior-weighted inner product, which the defect
    methods quantify.
    """

    prior: np.ndarray
    dynamics: Dynamics = field(repr=False)
    grid: np.ndarray
    forward_maps: np.ndarray = field(repr=False)
    recovery_maps: np.ndarray = field(repr=False)
    round_trips: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.prior.shape[0]

    def index_of(self, t: float, snap_tol: float = 1e-9) -> int:
        idx = int(np.argmin(np.abs(self.grid - t)))
        if abs(float(self.grid[idx]) - t) > snap_tol:
            warnings.warn(
                f"time {t:.6g} off the retrodiction grid; snapping to {self.grid[idx]:.6g}",
                stacklevel=2,
            )
        return idx

    def round_trip_matrix(self, t: float) -> np.ndarray:
        """Round trip at grid time ``t`` projected on the prior-orthonormal basis."""
        a = self.round_trips[self.index_of(t)]
        return self._project(a)

    def _project(self, a: np.ndarray) -> np.ndarray:
        weighted = self.basis / (2.0 * self.prior)[:, None]
        return weighted.T @ a @ self.basis

    def prior_recovery_defect(self) -> float:
        return float(np.max(np.abs(self.round_trips @ self.prior - self.prior[None, :])))

    def self_adjoint_defect(self) -> float:
        d = 1.0 / np.sqrt(2.0 * self.prior)
        sym = d[:, None] * self.round_trips * (1.0 / d)[None, :]
        return float(np.max(np.abs(sym - np.transpose(sym, (0, 2, 1)))))

    def recovery_spectrum(self, t: float) -> np.ndarray:
        """Eigenvalues of the round trip on zero-sum directions (real by symmetry)."""
        m = self.round_trip_matrix(t)
        return np.linalg.eigvalsh(0.5 * (m + m.T))


def retrodiction_context(prior, dyn: Dynamics, grid) -> RetrodictionContext:
    """Build the cached context for ``dyn`` over an increasing grid from 0.

    Exact propagators are used when the family provides them; otherwise a
    single integrator sweep over the (then necessarily uniform) grid.
    """
    pi = prob_vec(prior)
    if not is_interior(pi):
        raise SingularBaseError("retrodiction needs an interior prior")
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 2 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise DomainError("grid must be increasing and start at 0")

    mats = exact_propagators(dyn, times)
    if mats is None:
        gaps = np.diff(times)
        if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
            raise DomainError("integrator path needs a uniform grid")
        traj: Trajectory = propagate(dyn, float(times[0]), float(times[-1]), steps=times.size - 1)
        mats = traj.propagators

    recoveries = bayes_inverse(mats, pi)
    round_trips = np.einsum("kij,kjl->kil", recoveries, mats)
    return RetrodictionContext(
        prior=pi,
        dynamics=dyn,
        grid=times,
        forward_maps=mats,
        recovery_maps=recoveries,
        round_trips=round_trips,
        basis=pi_tangent_basis(pi),
    )


def retrodiction_distance_sq(p0, ctx: RetrodictionContext, t: float) -> float:
    """Squared prior-weighted distance between p0 - pi and its recovery at ``t``.

    The displacement should be small for this to approximate the Fisher
    distance between the initial state and the recovered one; larger
    displacements are allowed but flagged.
    """
    state = prob_vec(p0)
    if state.shape[0] != ctx.dimension:
        raise DimensionMismatchError("state dimension differs from context")
    d = state - ctx.prior
    size = fisher_inner(d, d, ctx.prior)
    if size > 0.01:
        warnings.warn(
            f"displacement size {size:.3e} is large for a local comparison",
            stacklevel=2,
        )
    a = ctx.round_trips[ctx.index_of(t)]
    residual = d - a @ d
    return fisher_inner(residual, residual, ctx.prior)


def adjoint_identity_check(ctx: RetrodictionContext, t: float, trials: int = 100, seed: int = 0) -> float:
    """Max defect of the pull-back identity and of self-adjointness at ``t``.

    For random zero-sum d, <d, A d>_pi must equal <T d, T d>_{T pi}; both
    are exact algebraic consequences of the recovery construction, so the
    return value is pure floating-point noise.
    """
    idx = ctx.index_of(t)
    fwd = ctx.forward_maps[idx]
    a = ctx.round_trips[idx]
    pushed = prob_vec(fwd @ ctx.prior)
    worst = 0.0
    if trials > 0:
        _require_interior(pushed)
        d = np.random.default_rng(seed).standard_normal((trials, ctx.dimension))
        d -= d.mean(axis=1, keepdims=True)
        # one mat-vec per trial, as stacked (n, n) @ (n, 1) products
        ad = (a @ d[:, :, None])[..., 0]
        fd = (fwd @ d[:, :, None])[..., 0]
        lhs = np.sum(d * ad / (2.0 * ctx.prior), axis=1)
        rhs = np.sum(fd * fd / (2.0 * pushed), axis=1)
        worst = float(np.max(np.abs(lhs - rhs)))
    dvec = 1.0 / np.sqrt(2.0 * ctx.prior)
    sym = dvec[:, None] * a * (1.0 / dvec)[None, :]
    worst = max(worst, float(np.max(np.abs(sym - sym.T))))
    return worst


@dataclass(frozen=True)
class EquivalenceReport:
    """Two independent readings of local Fisher expansivity at one time.

    ``recovery_curvature`` holds the eigenvalues of the symmetrized
    -dA/dt on zero-sum directions; ``lambda_max`` is the top of the
    contraction form at the evolved prior. The verdict compares their
    signs outside the indeterminate band.
    """

    time: float
    recovery_curvature: np.ndarray
    lambda_max: float
    band: float
    fd_step: float
    richardson_estimate: float
    retro_rates_along_negative: tuple[float, ...]
    verdict: str

    @property
    def curvature_min(self) -> float:
        return float(self.recovery_curvature.min())

    @property
    def consistent(self) -> bool | None:
        if self.verdict == "inconclusive":
            return None
        return self.verdict == "consistent"


def _round_trip_at(ctx: RetrodictionContext, t: float) -> np.ndarray:
    exact = exact_propagators(ctx.dynamics, [t])
    if exact is None:
        return ctx.round_trips[ctx.index_of(t)]
    return bayes_inverse(exact[0], ctx.prior) @ exact[0]


def _curvature_matrix(ctx: RetrodictionContext, t: float, h: float) -> np.ndarray:
    lo = _round_trip_at(ctx, max(t - h, 0.0))
    hi = _round_trip_at(ctx, t + h)
    span = (t + h) - max(t - h, 0.0)
    a_dot = ctx._project((hi - lo) / span)
    return -0.5 * (a_dot + a_dot.T)


def retrodiction_equivalence_check(
    ctx: RetrodictionContext,
    t: float,
    h: float | None = None,
    band: float = INDETERMINATE_BAND,
    accuracy_tol: float = 1e-4,
) -> EquivalenceReport:
    """Compare recovery-quality decay against the Fisher contraction form.

    The first reading differentiates the round trip A by central
    differences (step ``h``, defaulting to a tiny step when exact
    propagators exist and to one grid step otherwise) and symmetrizes in
    the prior inner product. The second evaluates the contraction form at
    the evolved prior under the instantaneous generator. Outside the
    indeterminate ``band`` the two must agree in sign: some negative
    curvature exactly when some direction dilates. For every negative
    curvature direction the finite-difference rate of the retrodiction
    distance is reported as well (expected negative: recovery improving).
    """
    closed = exact_propagators(ctx.dynamics, [0.0]) is not None
    if h is None:
        h = CLOSED_FORM_STEP if closed else float(ctx.grid[1] - ctx.grid[0])
    if t - h < 0.0 and not closed:
        raise DomainError("t must sit at least one step inside the grid")

    curv = _curvature_matrix(ctx, t, h)
    curv_2h = _curvature_matrix(ctx, t, 2.0 * h)
    richardson = float(np.max(np.abs(curv - curv_2h))) / 3.0
    if richardson > accuracy_tol:
        raise IntegrationAccuracyError(
            f"curvature differentiation unstable: step-halving estimate {richardson:.3e}"
        )
    band = max(band, 3.0 * richardson)

    eigvals, eigvecs = np.linalg.eigh(curv)
    evolved = prob_vec(ctx.forward_maps[ctx.index_of(t)] @ ctx.prior)
    gen = generator_of(ctx.dynamics, t)
    lam = contraction_form(evolved, gen).lambda_max

    retro_rates = []
    for k in np.flatnonzero(eigvals < -band):
        direction = tangent_vec(ctx.basis @ eigvecs[:, k])
        q_lo = _quadratic_residual(ctx, max(t - h, 0.0), direction)
        q_hi = _quadratic_residual(ctx, t + h, direction)
        retro_rates.append((q_hi - q_lo) / ((t + h) - max(t - h, 0.0)))

    neg_curv = float(eigvals.min()) < -band
    pos_curv_only = float(eigvals.min()) > band
    if lam > band and neg_curv:
        verdict = "consistent"
    elif lam < -band and pos_curv_only:
        verdict = "consistent"
    elif abs(lam) <= band or (not neg_curv and not pos_curv_only):
        verdict = "inconclusive"
    else:
        verdict = "inconsistent"
    return EquivalenceReport(
        time=float(t),
        recovery_curvature=eigvals,
        lambda_max=lam,
        band=band,
        fd_step=float(h),
        richardson_estimate=richardson,
        retro_rates_along_negative=tuple(retro_rates),
        verdict=verdict,
    )


def _quadratic_residual(ctx: RetrodictionContext, t: float, d: np.ndarray) -> float:
    a = _round_trip_at(ctx, t)
    residual = d - a @ d
    return fisher_inner(residual, residual, ctx.prior)
