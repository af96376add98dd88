"""Constructive witnesses of rate-matrix negativity.

A generator with any negative transition rate admits a base point and a
displacement whose local Fisher distance grows, and this module builds
them:

* ``dilation_direction_search`` - concentrates probability on the source
  state of the most negative rate and perturbs toward its target, at one
  epsilon given in closed form by the rates next to the offender.
* ``no_go_verify`` - the opposite phenomenon: a generator with a single
  negative rate that is dominated by its reverse rate shows no Fisher
  dilation at a chosen base, even after adding replicas and an idle
  ancilla. The verifier reads the contraction form on the detectable
  sector (directions with vanishing ancilla marginal) off the replica
  system's form in closed form, because directions that only reshuffle
  the ancilla are exact null modes of any extension.
* ``filter_witness_rate`` - post-processing through a heavy contraction
  toward the special base point of the displacement turns trace-distance
  growth into Fisher-distance growth of order epsilon squared.
* ``trace_ancilla_witness`` - a two-level ancilla (or one extra inert
  state) makes the trace distance itself grow at a rate set by the
  negative column mass of the offender.

Rates reported here are derivatives of squared Fisher distances except
for the trace witnesses, which report the derivative of the plain trace
distance (that derivative is base-independent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distances import _edge_laplacian, _form_matrix, _require_interior, fisher_rate, forward_trace_rate
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidTangentError,
    ResourceLimitError,
    WitnessNotApplicableError,
    WitnessNotFoundError,
)
from .simplex import (
    INTERIOR_FLOOR,
    MAX_TENSOR_DIM,
    GeneratorCheck,
    _extended,
    _generator_check,
    extend_generator,
    prob_vec,
    rate_matrix,
    tangent_vec,
    zero_sum_basis,
)

__all__ = [
    "WitnessReport",
    "dilation_direction_search",
    "NoGoReport",
    "no_go_verify",
    "single_negative_rate_example",
    "special_base_point",
    "regularize_direction",
    "filter_witness_rate",
    "trace_ancilla_witness",
]

#: Epsilon schedule for filter-witness ratio checks.
FILTER_EPSILONS: tuple[float, ...] = (1e-2, 1e-3, 1e-4)

#: Relative floor used when regularizing zero displacement components.
REGULARIZE_SCALE = 1e-6


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a witness construction.

    When ``found``, ``recompute_rate`` evaluates the rate named by
    ``method`` at (``base``, ``direction``) again: the closed-form witness
    by its polynomial in ``epsilon_used``, a second route to its Fisher
    rate, and the trace witness by its forward trace rate.
    """

    found: bool
    method: str
    base: np.ndarray | None = None
    direction: np.ndarray | None = None
    rate_value: float | None = None
    epsilon_used: float | None = None
    offender: tuple[int, int] | None = None
    offender_rate: float | None = None
    generator: np.ndarray | None = field(default=None, repr=False, compare=False)

    def recompute_rate(self) -> float:
        if not self.found:
            raise WitnessNotApplicableError("no witness to re-evaluate")
        if self.method == "closed-form":
            return _closed_form_rate(self.generator, self.offender, self.epsilon_used)
        if self.method == "trace-ancilla":
            return forward_trace_rate(self.direction, self.generator)
        raise WitnessNotApplicableError(f"unknown method {self.method!r}")


def _closed_form_rate(m: np.ndarray, offender: tuple[int, int], eps: float) -> float:
    """Fisher rate of the closed-form witness, summed edge by edge.

    With P = 1 - (n-1) eps on the source j0, eps on every other state and
    the direction eps^2 (e_i0 - e_j0), the rate is
    -1/2 eps^2 [(r_i0j0 P + r_j0i0 eps)(1 + eps/P)^2 + eps sum_k (r_i0k + r_ki0)
    + (eps/P)^2 sum_k (r_j0k eps + r_kj0 P)] over the states k other than i0 and j0.
    """
    i0, j0 = offender
    n = m.shape[0]
    p = 1.0 - (n - 1) * eps
    x = eps / p
    k = np.ones(n, dtype=bool)
    k[[i0, j0]] = False
    bracket = (
        (m[i0, j0] * p + m[j0, i0] * eps) * (1.0 + x) ** 2
        + eps * float(np.sum(m[i0, k] + m[k, i0]))
        + x * x * float(np.sum(m[j0, k] * eps + m[k, j0] * p))
    )
    return -0.5 * eps**2 * bracket


def dilation_direction_search(r, seed: int = 0) -> WitnessReport:
    """Base point and direction with a positive Fisher rate, if one exists.

    For the offender a = -rate(i0 <- j0) > 0 the base puts eps on every
    state and P = 1 - (n-1) eps on the source j0, and the direction is
    eps^2 (e_i0 - e_j0), with

        eps = min(0.1, 1/(2n), a / (4 S)),

    where S sums the off-diagonal |rates| in rows and columns i0 and j0,
    each once. Dividing the bracket of :func:`_closed_form_rate`
    by P, the offending edge gives at most -a, and with x = eps/P <= 2 eps
    <= 0.2 every other term together at most 1.44 x S <= 0.72 a; so the
    rate is positive for every non-Markovian generator. Only an eps below
    ``INTERIOR_FLOOR`` raises ``WitnessNotFoundError``. Nothing is
    sampled; ``seed`` is accepted and ignored.
    """
    m = rate_matrix(r)
    n = m.shape[0]
    check = _generator_check(m)
    if check.markovian:
        return WitnessReport(found=False, method="closed-form", generator=m)
    offender, offender_rate = check.offender
    i0, j0 = offender

    off = np.abs(m)
    np.fill_diagonal(off, 0.0)
    # every off-diagonal |rate| in rows and columns i0 and j0, each once
    s = float(off[[i0, j0]].sum() + off[:, [i0, j0]].sum() - off[i0, j0] - off[j0, i0])
    eps = min(0.1, 1.0 / (2 * n), -offender_rate / (4.0 * s))
    if eps < INTERIOR_FLOOR:
        raise WitnessNotFoundError(
            f"the closed-form epsilon {eps:.3e} for rate{offender} = {offender_rate:.3e} "
            f"is below the interior floor {INTERIOR_FLOOR:.0e}"
        )
    base = np.full(n, eps)
    base[j0] = 1.0 - (n - 1) * eps
    direction = eps**2 * (np.eye(n)[i0] - np.eye(n)[j0])
    return WitnessReport(
        found=True,
        method="closed-form",
        base=prob_vec(base),
        direction=tangent_vec(direction),
        rate_value=fisher_rate(base, direction, m),
        epsilon_used=eps,
        offender=offender,
        offender_rate=offender_rate,
        generator=m,
    )


@dataclass(frozen=True)
class NoGoReport:
    """Contraction evidence for an extension of a single-offender generator.

    An idle ancilla of dimension m >= 2 in its uniform state makes the
    extended form block-diagonal: m M_c on directions whose ancilla
    marginal vanishes, plus m - 1 blocks m F_c, where M_c is the replica
    system's form on zero-sum directions and F_c = -1/2 P^-1 L P^-1 is the
    same form on every direction of the replica system. So
    ``lambda_max_on_image`` is m lambda_max(M_c), the meaningful figure,
    and ``lambda_max_full``, the top on the whole zero-sum space, is
    m lambda_max(F_c). F_c annihilates the base itself, so by interlacing
    ``lambda_max_full`` is zero whenever M_c is negative definite: ancilla
    reshuffles are conserved. Without an ancilla both read
    lambda_max(M_c).
    """

    nonmarkovian: bool
    condition_met: bool
    offender: tuple[int, int] | None
    offender_rate: float | None
    copies: int
    ancilla_dim: int
    lambda_max_on_image: float
    lambda_max_full: float
    margin: float
    condition_detail: str = ""

    @property
    def passed(self) -> bool:
        return self.nonmarkovian and self.condition_met and self.lambda_max_on_image <= -self.margin


def _lambda_max(matrix: np.ndarray) -> float:
    # eigh, as ContractionForm.eigenvalues, so the figure is bitwise the public form's
    return float(np.linalg.eigh(matrix)[0][-1])


def _single_offender_condition(pi: np.ndarray, m: np.ndarray, check: GeneratorCheck) -> tuple[bool, str]:
    """Whether ``m`` has one negative rate, outweighed at ``pi`` by its reverse rate; if not, why not."""
    if len(check.negative_rates) != 1:
        return False, f"need exactly one negative rate, found {len(check.negative_rates)}"
    (i0, j0), a_neg = check.offender
    reverse = float(m[j0, i0])
    if reverse * pi[i0] > abs(a_neg) * pi[j0]:
        return True, ""
    return False, (
        f"reverse rate too weak: rate({j0}<-{i0})*pi[{i0}] = {reverse * pi[i0]:.6g} "
        f"must exceed |rate({i0}<-{j0})|*pi[{j0}] = {abs(a_neg) * pi[j0]:.6g}"
    )


def no_go_verify(
    pi,
    r,
    copies: int = 1,
    ancilla_dim: int = 0,
    margin: float | None = None,
) -> NoGoReport:
    """Certify absence of Fisher dilation for replicas plus an idle ancilla.

    The base point is the tensor power of ``pi`` with the ancilla in the
    uniform state; the extended spectrum is read off the replica system's
    forms as :class:`NoGoReport` describes. A failed precondition is
    reported through ``condition_met``, not raised: it means the instance
    is outside the certified family, not that the check broke.
    """
    base_pi = prob_vec(pi)
    m = rate_matrix(r)
    n = m.shape[0]
    if base_pi.shape[0] != n:
        raise DimensionMismatchError("base point and generator dimensions differ")
    if copies < 1 or ancilla_dim < 0 or ancilla_dim == 1:
        raise DimensionMismatchError("need copies >= 1 and ancilla_dim 0 or >= 2")
    total = n**copies * max(ancilla_dim, 1)
    if total > MAX_TENSOR_DIM:
        raise ResourceLimitError(f"tensor dimension {total} exceeds the limit {MAX_TENSOR_DIM}")

    check = _generator_check(m)
    condition_met, detail = _single_offender_condition(base_pi, m, check)
    offender, offender_rate = check.offender if len(check.negative_rates) == 1 else (None, None)

    # every copy adds entries of the accepted m, and the Laplacian never reads the diagonal
    r_sys = _extended(m, copies)
    replicas = base_pi
    for _ in range(copies - 1):
        replicas = np.multiply.outer(replicas, base_pi).ravel()
    base = prob_vec(replicas)
    _require_interior(base)
    lap = _edge_laplacian(base, r_sys)
    lam_image = lam_full = _lambda_max(_form_matrix(base, lap, zero_sum_basis(n**copies)))
    if ancilla_dim >= 2:
        lam_full = ancilla_dim * _lambda_max(_form_matrix(base, lap, np.eye(n**copies)))
        lam_image *= ancilla_dim

    if margin is None:
        margin = 1e-6 * float(np.max(np.abs(m)))
    return NoGoReport(
        nonmarkovian=not check.markovian,
        condition_met=condition_met,
        offender=offender,
        offender_rate=offender_rate,
        copies=copies,
        ancilla_dim=ancilla_dim,
        lambda_max_on_image=lam_image,
        lambda_max_full=lam_full,
        margin=float(margin),
        condition_detail=detail,
    )


def single_negative_rate_example() -> tuple[np.ndarray, np.ndarray]:
    """Two-state generator with one dominated negative rate, and its base point.

    rate(0<-1) = -0.5 against rate(1<-0) = 1 at the uniform base: negative,
    yet every Fisher direction contracts, here and in all extensions.
    """
    pi = np.array([0.5, 0.5])
    return pi, rate_matrix(np.array([[-1.0, -0.5], [1.0, 0.5]]))


def special_base_point(d) -> np.ndarray:
    """Base at which the doubled local Fisher square equals the squared trace size.

    p_i = |d_i| / sum|d|; then sum d_i^2 / p_i = (sum|d|)^2 exactly. Zero
    components of d produce boundary zeros in p; callers needing an
    interior base must regularize d first.
    """
    vec = np.asarray(d, dtype=float)
    if vec.ndim != 1 or vec.shape[0] < 2:
        raise InvalidTangentError("need a 1-d displacement with at least two entries")
    total = float(np.sum(np.abs(vec)))
    if total == 0.0:
        raise InvalidTangentError("zero displacement has no special base point")
    return np.abs(vec) / total


def regularize_direction(d, r) -> tuple[np.ndarray, tuple[int, ...]]:
    """Replace zero components of ``d`` by tiny values aligned with their velocity.

    The floor is ``REGULARIZE_SCALE`` times the trace size of ``d`` and the
    sign matches (r d)_i, so the forward growth carried by components that are
    zero now but moving is preserved. Mass is rebalanced across the
    nonzero components to keep the total at zero. Returns the new vector
    and the indices touched.
    """
    return _regularized(tangent_vec(d), rate_matrix(r))


def _regularized(vec: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """:func:`regularize_direction` of an accepted tangent vector ``vec`` and generator ``m``."""
    total = float(np.sum(np.abs(vec)))
    if total == 0.0:
        raise InvalidTangentError("zero displacement cannot be regularized")
    zero_mask = np.abs(vec) <= 1e-14 * total
    if not zero_mask.any():
        return vec, ()
    velocity = m @ vec
    floor = REGULARIZE_SCALE * total
    signs = np.sign(velocity[zero_mask])
    signs[signs == 0.0] = 1.0
    out = vec.copy()
    out[zero_mask] = floor * signs
    added = floor * float(signs.sum())
    weights = np.abs(vec[~zero_mask])
    out[~zero_mask] -= added * weights / weights.sum()
    return tangent_vec(out), tuple(int(k) for k in np.flatnonzero(zero_mask))


def filter_witness_rate(p, d, r, eps: float) -> float:
    """Growth rate of the filtered displacement, in trace-square calibration.

    The filter contracts toward the special base point of ``d`` with
    strength 1 - eps, then the state and displacement evolve under ``r``
    while the filter target stays frozen. Returned is twice the derivative
    of the local Fisher square of the filtered pair; at the special base
    the doubled Fisher square is the squared trace size, so value / eps^2
    converges to d/dt of (sum|d_i|)^2 as eps shrinks. Zero components of
    ``d`` are regularized toward their velocity sign first.
    """
    base = prob_vec(p)
    m = rate_matrix(r)
    vec = tangent_vec(d)
    if base.shape[0] != m.shape[0] or vec.shape[0] != m.shape[0]:
        raise DimensionMismatchError("state, displacement and generator dimensions differ")
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"filter strength must be in (0, 1], got {eps}")
    vec, _ = _regularized(vec, m)
    anchor = special_base_point(vec)
    filtered = (1.0 - eps) * anchor + eps * base
    p_dot = m @ base
    d_dot = m @ vec
    growth = 2.0 * eps**2 * float(np.sum(vec * d_dot / filtered))
    return growth - eps**3 * float(np.sum(vec**2 * p_dot / filtered**2))


def trace_ancilla_witness(r, check: GeneratorCheck, mode: str = "ancilla-M2") -> WitnessReport:
    """Trace-distance growth from a two-level ancilla or one extra inert state.

    ``check`` is the caller's :func:`is_markovian_generator` of ``r``. Both
    modes target the source column j0 of its most negative rate and yield
    the forward rate 2 * sum of |rate(i <- j0)| over the negative entries
    of that column.
    """
    if mode not in ("ancilla-M2", "extra-state"):
        raise DomainError(f"unknown mode {mode!r}; use 'ancilla-M2' or 'extra-state'")
    m = rate_matrix(r)
    n = m.shape[0]
    if check.markovian:
        return WitnessReport(found=False, method="trace-ancilla", generator=m)
    offender, offender_rate = check.offender
    _, j0 = offender

    if mode == "ancilla-M2":
        r_ext = extend_generator(m, copies=1, ancilla_dim=2)
        direction = np.kron(np.eye(n)[j0], np.array([0.5, -0.5]))
    else:
        r_ext = np.zeros((n + 1, n + 1))
        r_ext[:n, :n] = m
        direction = np.zeros(n + 1)
        direction[j0] = 1.0
        direction[n] = -1.0

    rate = forward_trace_rate(direction, r_ext)
    dim = r_ext.shape[0]
    return WitnessReport(
        found=rate > 0.0,
        method="trace-ancilla",
        base=np.full(dim, 1.0 / dim),
        direction=tangent_vec(direction),
        rate_value=rate,
        offender=offender,
        offender_rate=offender_rate,
        generator=r_ext,
    )
