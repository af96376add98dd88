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
Differentiating it with dT/dt = L T gives <d, dA/dt d>_pi as the rate of
the squared Fisher distance of T d at T pi under L: the symmetrized
-dA/dt on the pi-orthonormal basis is the contraction form at the evolved
prior, pulled back by ``T`` and negated. ``retrodiction_equivalence_check``
reads it off that form in closed form, at one time or in one stacked pass
over an array of times; by Sylvester's law of inertia its signs are the
negated signs of the form's eigenvalues wherever ``T`` is invertible on
zero-sum vectors, so recovery quality improves along some direction
exactly when some direction dilates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .distances import _edge_laplacian, _form_matrix, _require_interior, fisher_inner
from .errors import (
    DimensionMismatchError,
    DomainError,
    SingularBaseError,
    UndefinedPosteriorError,
)
from .propagation import (
    Dynamics,
    GeneratorGrid,
    Trajectory,
    generator_grid,
    nearest_index,
    propagate,
    snap_index,
)
from .simplex import is_interior, prob_vec, stochastic_matrix, zero_sum_basis

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


def bayes_inverse(t, pi) -> np.ndarray:
    """Bayes recovery map of ``t`` with respect to the prior ``pi``.

    Column j is the posterior over inputs given output j, so the result is
    column-stochastic whenever every output has positive probability. A
    ``(T, n, n)`` stack of maps gives the stack of their recovery maps; it
    fails with the error of its first invalid map or, when every map is
    valid, of the first map with an output of zero probability.
    """
    return _recovery_maps(stochastic_matrix(t, stack=True), prob_vec(pi))


def _recovery_maps(mat: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """:func:`bayes_inverse` of a validated map or stack ``mat`` and a normalized ``prior``."""
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

    def index_of(self, t: float) -> int:
        return snap_index(self.grid, t, "the retrodiction grid")

    def indices_of(self, times) -> np.ndarray:
        """Grid indices of an array of times, each as :meth:`index_of` gives it.

        All times are looked up at once; those off the grid then go through
        :meth:`index_of` one at a time, in order, for its snap warning.
        """
        t = np.asarray(times, dtype=float)
        idx = nearest_index(self.grid, t)
        for k in np.flatnonzero(self.grid[idx] != t).tolist():
            self.index_of(float(t[k]))
        return idx

    def _project(self, a: np.ndarray) -> np.ndarray:
        """Round trip ``a``, or a stack of them, on the prior-orthonormal basis."""
        weighted = self.basis / (2.0 * self.prior)[:, None]
        return weighted.T @ a @ self.basis

    def prior_recovery_defect(self) -> float:
        return float(np.max(np.abs(self.round_trips @ self.prior - self.prior[None, :])))

    def self_adjoint_defect(self) -> float:
        return float(np.max(_self_adjoint_defects(self.prior, self.round_trips)))

    def recovery_spectrum(self, t) -> np.ndarray:
        """Eigenvalues of the round trip on zero-sum directions (real by symmetry).

        An array of times gives one row of eigenvalues per time, from one
        stacked eigensolve.
        """
        times = np.asarray(t, dtype=float)
        m = self._project(self.round_trips[self.indices_of(times.ravel())])
        vals = np.linalg.eigvalsh(0.5 * (m + m.swapaxes(-1, -2)))
        return vals.reshape(times.shape + vals.shape[-1:])


def _self_adjoint_defects(prior: np.ndarray, round_trips: np.ndarray) -> np.ndarray:
    """Largest entry of ``|D A D^-1 - (D A D^-1)^T|``, ``D = diag(1 / sqrt(2 prior))``, for each ``A`` of a stack."""
    d = 1.0 / np.sqrt(2.0 * prior)
    sym = d[:, None] * round_trips * (1.0 / d)[None, :]
    return np.max(np.abs(sym - sym.swapaxes(-1, -2)), axis=(-2, -1))


def retrodiction_context(prior, dyn: Dynamics, grid) -> RetrodictionContext:
    """Build the cached context for ``dyn`` over an increasing grid from 0.

    Exact propagators are used when the family provides them, a constant
    generator's matrix exponential among them; otherwise a single integrator
    sweep over the (then necessarily uniform) grid.
    """
    pi = prob_vec(prior)
    if not is_interior(pi):
        raise SingularBaseError("retrodiction needs an interior prior")
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 2 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise DomainError("grid must be increasing and start at 0")

    mats = dyn.propagators_at(times)
    if mats is None:
        gaps = np.diff(times)
        if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
            raise DomainError("integrator path needs a uniform grid")
        traj: Trajectory = propagate(dyn, float(times[0]), float(times[-1]), steps=times.size - 1)
        mats = traj.propagators

    recoveries = _recovery_maps(stochastic_matrix(mats, stack=True), pi)
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


def retrodiction_distance_sq(p0, ctx: RetrodictionContext, t):
    """Squared prior-weighted distance between p0 - pi and its recovery at ``t``.

    The displacement should be small for this to approximate the Fisher
    distance between the initial state and the recovered one; larger
    displacements are allowed but flagged. An array of times gives an
    array of distances, from one stacked product.
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
    times = np.asarray(t, dtype=float)
    residual = d - ctx.round_trips[ctx.indices_of(times.ravel())] @ d
    # fisher_inner of each residual with itself
    values = np.sum(residual * residual / (2.0 * ctx.prior), axis=-1).reshape(times.shape)
    return float(values) if times.ndim == 0 else values


def adjoint_identity_check(ctx: RetrodictionContext, t):
    """Largest defect of the pull-back identity and of self-adjointness at ``t``.

    <d, A d>_pi must equal <T d, T d>_{T pi} for every zero-sum d. On the
    pi-orthonormal basis B, d = B c, the difference is c^T D c with
    D = 1/2 [B^T diag(1/pi) A B - (T B)^T diag(1/T pi) (T B)], so the
    largest |eigenvalue| of the symmetrized D is its supremum over
    directions with <d, d>_pi = 1. Both identities are exact algebraic
    consequences of the recovery construction, so the return value is
    pure floating-point noise. An array of times gives an array of defects.
    """
    times = np.asarray(t, dtype=float)
    idx = ctx.indices_of(times.ravel())
    fwd = ctx.forward_maps[idx]
    a = ctx.round_trips[idx]
    pushed = fwd @ ctx.prior
    pushed /= pushed.sum(axis=-1, keepdims=True)
    _require_interior(pushed)
    tb = fwd @ ctx.basis
    gram = ctx._project(a) - tb.swapaxes(-1, -2) @ (tb / (2.0 * pushed[:, :, None]))
    worst = np.max(np.abs(np.linalg.eigvalsh(0.5 * (gram + gram.swapaxes(-1, -2)))), axis=-1)
    worst = np.maximum(worst, _self_adjoint_defects(ctx.prior, a))
    return float(worst[0]) if times.ndim == 0 else worst.reshape(times.shape)


@dataclass(frozen=True)
class EquivalenceReport:
    """Two readings of local Fisher expansivity at one grid time, or stacked over many.

    ``recovery_curvature`` holds the eigenvalues of the symmetrized
    -dA/dt on zero-sum directions; ``lambda_max`` is the top of the
    contraction form at the evolved prior. The verdict compares their
    signs outside the indeterminate band. Stacked, every field has one entry
    per time, ``retro_rates_along_negative`` is NaN off the curvatures below
    ``-band``, and a failed generator reads NaN with the verdict ``"failed"``.
    """

    time: float | np.ndarray
    recovery_curvature: np.ndarray
    lambda_max: float | np.ndarray
    retro_rates_along_negative: tuple[float, ...] | np.ndarray
    verdict: str | np.ndarray

    @property
    def curvature_min(self) -> float | np.ndarray:
        low = self.recovery_curvature.min(axis=-1)
        return float(low) if low.ndim == 0 else low

    @property
    def consistent(self) -> bool | None | np.ndarray:
        flags = np.where(np.isin(self.verdict, ("consistent", "inconsistent")), self.verdict == "consistent", None)
        return flags.item() if flags.ndim == 0 else flags


def retrodiction_equivalence_check(
    ctx: RetrodictionContext, t, band: float = INDETERMINATE_BAND, generators: GeneratorGrid | None = None
) -> EquivalenceReport:
    """Compare recovery-quality decay against the Fisher contraction form.

    ``t`` snaps to the context grid. The contraction form at the evolved
    prior under the generator there gives ``lambda_max``; pulled back by
    the forward map onto the prior-orthonormal basis and negated, it is
    the symmetrized -dA/dt, whose eigenvalues are the recovery curvature.
    Outside the indeterminate ``band`` the two must agree in sign: some
    negative curvature exactly when some direction dilates. Along each
    curvature ``mu`` below ``-band``, with unit eigenvector ``e`` on that
    basis, the rate of the squared retrodiction residual is reported too:
    ``-2 <(I - A) d, dA/dt d> = 2 mu (1 - e^T A e)``, as dA/dt is
    self-adjoint in the prior inner product; it is expected negative.

    An array of times gives a stacked report from one batched form and two
    stacked eigensolves. ``generators`` is the :func:`generator_grid` of
    ``ctx.dynamics`` on ``ctx.grid`` if the caller has it. A float ``t``
    raises its generator's failure; every evolved prior must be interior.
    """
    times = np.asarray(t, dtype=float)
    idx = ctx.indices_of(times.ravel())
    gens = generator_grid(ctx.dynamics, ctx.grid[idx]) if generators is None else generators
    rows = np.arange(idx.size) if generators is None else idx
    live = ~np.isin(rows, list(gens.errors))
    if times.ndim == 0 and not live[0]:
        raise gens.errors[int(rows[0])]
    fwd = ctx.forward_maps[idx[live]]
    base = fwd @ ctx.prior
    base /= base.sum(axis=-1, keepdims=True)
    _require_interior(base)
    basis = zero_sum_basis(ctx.dimension)
    form = _form_matrix(base, _edge_laplacian(base, gens.generators[rows[live]]), basis)
    lam = np.full(idx.size, np.nan)
    lam[live] = np.linalg.eigh(form)[0][:, -1]
    pull = basis.T @ fwd @ ctx.basis
    curv = np.full(idx.shape + basis.shape[1:], np.nan)
    curv[live], vecs = np.linalg.eigh(-(pull.swapaxes(-1, -2) @ form @ pull))
    trip = ctx._project(ctx.round_trips[idx[live]])
    rates = np.full_like(curv, np.nan)
    quad = np.sum(vecs * (trip @ vecs), axis=-2)  # e^T A e of each eigenvector
    rates[live] = np.where(curv[live] < -band, 2.0 * curv[live] * (1.0 - quad), np.nan)
    neg_curv, pos_curv_only = curv[:, 0] < -band, curv[:, 0] > band
    agree = (lam > band) & neg_curv | (lam < -band) & pos_curv_only
    inconclusive = (np.abs(lam) <= band) | ~(neg_curv | pos_curv_only)
    verdict = np.select([agree, inconclusive], ["consistent", "inconclusive"], "inconsistent")
    verdict[~live] = "failed"
    if times.ndim:
        fields = (ctx.grid[idx], curv, lam, rates, verdict)
        return EquivalenceReport(*(a.reshape(times.shape + a.shape[1:]) for a in fields))
    along = tuple(rates[0][curv[0] < -band].tolist())
    return EquivalenceReport(float(ctx.grid[idx[0]]), curv[0], float(lam[0]), along, str(verdict[0]))
