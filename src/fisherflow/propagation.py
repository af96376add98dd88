"""Time evolution of column-stochastic maps and their generators.

Supported dynamics:

* ``GeneratorDynamics`` - a constant or time-dependent generator. A
  constant ``R`` has the closed-form propagators ``exp(t R)``, from one
  stacked :func:`expm` call. For a callable one the propagator solves
  ``dT/dt = R(t) T`` with fixed-step RK4, as a running product of stacked
  step matrices with its column drift removed once at the end, plus a
  Richardson step-halving check against the half-step endpoint, a
  pairwise product of its step matrices (fixed steps keep outputs
  reproducible).
* ``MixingDynamics`` - the closed family ``T(t) = (1 - s(t)) Id +
  s(t) m(t) 1^T`` that sends every state toward the moving target
  ``m(t)`` with weight ``s(t)``. Propagators and, from the derivatives
  ``sdot`` and ``mdot``, generators are evaluated in closed form:
  ``rate(i <- j) = sdot/(1-s) * m_i + s * mdot_i``. Both are evaluated on
  a whole array of times at once.
* ``case_study_dynamics()`` - a fixed three-state mixing family with an
  oscillating target, bundled because several commands and tests drive it.

Each family defines ``propagators_at``, its exact propagators from time 0
(None when only the integrator gives them), and ``_generator_grid``, its
generators in closed form on a time grid with per-point failures;
``generator_of`` is the one-point grid. ``divisibility_scan`` classifies
the grid and reports every transition whose rate dips below
``-rate_tol``, as arrays; none certifies divisibility into stochastic
pieces on that grid resolution. ``refinement_stable`` reads the
generator once more, at the step midpoints only, and fails when a
midpoint has a rate below ``-rate_tol`` while both ends of its step are
clean: a window the grid stepped over.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    DomainError,
    FisherflowError,
    IntegrationAccuracyError,
    InvalidStateError,
    NearSingularError,
    NumericalAccuracyError,
)
from .simplex import prob_vec, rate_matrix, rate_matrix_failures

__all__ = [
    "Dynamics",
    "GeneratorDynamics",
    "MixingDynamics",
    "case_study_dynamics",
    "contraction_to_target",
    "Trajectory",
    "propagate",
    "generator_of",
    "GeneratorGrid",
    "generator_grid",
    "ScanResult",
    "divisibility_scan",
    "refinement_stable",
]

#: Condition numbers beyond this make a propagator too near singular to divide out.
COND_LIMIT = 1e12

#: Richardson disagreement beyond this aborts an integration.
RICHARDSON_TOL = 1e-6

#: Mixing weights this close to 1 leave no invertible part to divide out.
MIXING_CEILING = 1.0 - 1e-12

#: Degree-13 Pade coefficients of exp (Higham 2005), divided by the first so that exp(0) is I bitwise.
_PADE13 = tuple(
    b / 64764752532480000.0
    for b in (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
        129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
        40840800.0, 960960.0, 16380.0, 182.0, 1.0,
    )
)

#: Largest 1-norm at which the degree-13 Pade approximant is exact to double precision.
_THETA13 = 5.371920351148152

#: Past this many squarings 1-norm scaling loses column-sum accuracy; scipy takes those matrices.
_MAX_SQUARINGS = 16


def expm(a) -> np.ndarray:
    """Matrix exponential of each matrix of a real ``(..., n, n)`` stack.

    Pade-13 scaling and squaring over the whole stack (Higham 2005, SIAM J.
    Matrix Anal. Appl. 26(4):1179-1193): each matrix is scaled by its own
    ``2^-s``, the smallest that brings its 1-norm within ``_THETA13``, one
    batched solve gives every approximant, and each is squared ``s`` times.
    A matrix that would need more than ``_MAX_SQUARINGS`` squarings, or
    whose norm is not finite, goes to ``scipy.linalg.expm``, whose sharper
    scaling keeps a stiff generator's column sums and which gives NaN
    where the exponential overflows. Every matrix is computed on its own,
    so no row of the stack changes another, and no numpy floating-point
    error warns or raises.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    out = np.empty_like(stack)
    with np.errstate(all="ignore"):
        norm = np.abs(stack).sum(axis=-2).max(axis=-1)
        s = np.maximum(np.ceil(np.log2(norm / _THETA13)), 0.0)
        pade = s <= _MAX_SQUARINGS
        if not pade.all():
            out[~pade] = scipy.linalg.expm(stack[~pade])
        s = s[pade].astype(int)
        x = np.ldexp(stack[pade], -s[:, None, None])
        b = _PADE13
        eye = np.eye(n)
        x2 = x @ x
        x4 = x2 @ x2
        x6 = x4 @ x2
        u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
        v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
        r = np.linalg.solve(v - u, v + u)
        for k in range(int(s.max(initial=0))):
            rows = s > k
            square = r[rows]
            r[rows] = square @ square
        out[pade] = r
    return out.reshape(a.shape)


class GeneratorGrid(NamedTuple):
    """Generators of one dynamics on a time grid.

    ``generators`` is a ``(T, n, n)`` stack; a row whose extraction failed
    is NaN and ``errors`` maps its index to the exception.
    """

    times: np.ndarray
    generators: np.ndarray
    errors: dict[int, Exception]


class Dynamics:
    """Base class: a time-dependent family of column-stochastic maps.

    Subclasses define ``_generator_grid(times)``, their generators on an
    array of times as a :class:`GeneratorGrid`.
    """

    def __init__(self, dimension: int):
        if dimension < 2:
            raise DimensionMismatchError("dynamics need dimension >= 2")
        self.dimension = int(dimension)

    def propagators_at(self, times) -> np.ndarray | None:
        """Closed-form propagators from time 0 on an array of times as one stack, else None."""
        return None


def _called(rate: Callable[[float], np.ndarray], t: float, n: int) -> np.ndarray:
    """``rate(t)`` as a float array, failing unless it has shape ``(n, n)``."""
    value = np.asarray(rate(t), dtype=float)
    if value.shape != (n, n):
        rate_matrix(value)  # a malformed return gets the per-matrix check's own error
        raise DimensionMismatchError(f"generator at t = {t:.6g} has shape {value.shape}, expected ({n}, {n})")
    return value


class GeneratorDynamics(Dynamics):
    """Dynamics specified by a generator, constant or as a callable of time."""

    def __init__(self, rate, dimension: int | None = None):
        if callable(rate):
            if dimension is None:
                raise DimensionMismatchError("callable generators need an explicit dimension")
            self._rate_fn = rate
            self._constant = None
            n = dimension
        else:
            self._constant = rate_matrix(rate)
            self._rate_fn = None
            n = self._constant.shape[0]
        super().__init__(n)

    def propagators_at(self, times) -> np.ndarray | None:
        """``exp(t R)`` at each time for a constant generator ``R``; None for a callable one."""
        if self._constant is None:
            return None
        return expm(np.multiply.outer(np.asarray(times, dtype=float), self._constant))

    def _generator_grid(self, times: np.ndarray) -> GeneratorGrid:
        """A constant broadcast over ``times``, or the callable's returns validated as one stack.

        The callable is called once per time, in order, and each return is
        copied before the next call. A library error at a time becomes an
        entry of ``errors``; any other exception, such as a bug in the
        callable, propagates.
        """
        if self._constant is not None:
            return GeneratorGrid(times, np.broadcast_to(self._constant, times.shape + self._constant.shape), {})
        n = self.dimension
        stack = np.full(times.shape + (n, n), np.nan)
        errors: dict[int, Exception] = {}
        for k, t in enumerate(times.tolist()):
            try:
                stack[k] = _called(self._rate_fn, t, n)
            except FisherflowError as exc:
                errors[k] = exc
        return _validated(times, stack, errors)


def _validated(times: np.ndarray, stack: np.ndarray, errors: dict[int, Exception]) -> GeneratorGrid:
    """``stack`` checked at once under :func:`rate_matrix`'s rules, as a read-only grid.

    A row that already has an error in ``errors`` keeps it; every other
    row that ``rate_matrix`` rejects gets the error it raises on that row.
    Every failed row is NaN.
    """
    for k, exc in rate_matrix_failures(stack).items():
        errors.setdefault(k, exc)
    stack[list(errors)] = np.nan
    stack.flags.writeable = False
    return GeneratorGrid(times, stack, errors)


class MixingDynamics(Dynamics):
    """Family ``T(t) = (1 - s(t)) Id + s(t) m(t) 1^T`` with target ``m`` and weight ``s``.

    ``s, sdot, m, mdot`` must accept an array of times and broadcast over
    it: ``s`` and ``sdot`` return shape ``(T,)``, ``m`` and ``mdot`` shape
    ``(T, n)`` (and a scalar time gives a scalar or an ``(n,)`` vector).
    Propagators and generators on a grid come from one evaluation of each.
    ``s`` must start at zero and stay in [0, 1); ``m(t)`` must be a state.
    These are checked on 65 points of ``[0, 1]`` at construction time.
    """

    def __init__(
        self,
        s: Callable[[np.ndarray], np.ndarray],
        m: Callable[[np.ndarray], np.ndarray],
        sdot: Callable[[np.ndarray], np.ndarray],
        mdot: Callable[[np.ndarray], np.ndarray],
        dimension: int | None = None,
    ):
        m0 = np.asarray(m(0.0), dtype=float)
        n = m0.shape[0] if dimension is None else dimension
        super().__init__(n)
        self.s = s
        self.m = m
        self.sdot = sdot
        self.mdot = mdot
        if abs(self.s(0.0)) > 1e-12:
            raise InvalidStateError(f"mixing weight must start at 0, got s(0) = {self.s(0.0):.3e}")
        grid = np.linspace(0.0, 1.0, 65)
        values = {}
        for name in ("s", "sdot", "m", "mdot"):
            values[name] = np.asarray(getattr(self, name)(grid), dtype=float)
            if values[name].shape[:1] != grid.shape:
                raise DimensionMismatchError(f"mixing {name} must broadcast over an array of times")
        for t, w, target in zip(grid.tolist(), values["s"].tolist(), values["m"]):
            if not 0.0 <= w <= 1.0 + 1e-12:
                raise InvalidStateError(f"mixing weight {w:.3e} at t = {t:.3g} outside [0, 1]")
            if prob_vec(target).shape[0] != self.dimension:
                raise DimensionMismatchError("mixing target changed dimension")

    def propagators_at(self, times) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        w = np.asarray(self.s(t), dtype=float)[:, None, None]
        target = np.asarray(self.m(t), dtype=float)[:, :, None]
        return (1.0 - w) * np.eye(self.dimension) + w * target

    def _generator_grid(self, times: np.ndarray) -> GeneratorGrid:
        n = self.dimension
        w = np.asarray(self.s(times), dtype=float)
        dead = w > MIXING_CEILING
        errors: dict[int, Exception] = {
            k: DomainError(f"mixing weight {float(w[k])} leaves no invertible part at t = {times[k]:.6g}")
            for k in np.flatnonzero(dead).tolist()
        }
        sdot = np.asarray(self.sdot(times), dtype=float)
        target = np.asarray(self.m(times), dtype=float)
        drift = np.asarray(self.mdot(times), dtype=float)
        # rows past the ceiling are left out before dividing by 1 - s, and
        # rows with a non-finite input before any arithmetic, which would
        # warn; both stay NaN, and the check names a non-finite row as such
        usable = ~dead & np.isfinite(w) & np.isfinite(sdot)
        for rows in (target, drift):
            if not np.isfinite(rows).all():  # a row-wise test only when needed: it is the slow one
                usable &= np.isfinite(rows).all(axis=-1)
        live = np.flatnonzero(usable)
        wl = w[live]
        coef = sdot[live] / (1.0 - wl)
        col = coef[:, None] * target[live] + wl[:, None] * drift[live]
        rates = np.repeat(col[:, :, None], n, axis=2)
        diag = np.arange(n)
        rates[:, diag, diag] -= col.sum(axis=1)[:, None]
        stack = np.full(times.shape + (n, n), np.nan)
        stack[live] = rates
        return _validated(times, stack, errors)


#: Fixed constants of the bundled demonstration family.
_CS_V1 = np.array([1.0, 1.0, 1.0]) / 3.0
_CS_V2 = np.array([1.0, 0.0, 0.0])
_CS_FREQ = 10.0


def case_study_dynamics() -> MixingDynamics:
    """Three-state mixing family with an oscillating target.

    Weight ``s(t) = 1 - exp(-t)`` and target
    ``m(t) = ((1 + cos(10 t)) v1 + (1 - cos(10 t)) v2) / 2`` with
    ``v1`` uniform and ``v2`` a corner state. The oscillation makes some
    rates periodically negative, so the family is divisible into
    stochastic pieces only outside those windows.
    """

    def s(t):
        return 1.0 - np.exp(-t)

    def sdot(t):
        return np.exp(-t)

    def m(t):
        c = np.cos(_CS_FREQ * t)[..., None]
        return 0.5 * ((1.0 + c) * _CS_V1 + (1.0 - c) * _CS_V2)

    def mdot(t):
        ds = -_CS_FREQ * np.sin(_CS_FREQ * t)[..., None]
        return 0.5 * ds * (_CS_V1 - _CS_V2)

    return MixingDynamics(s, m, sdot, mdot, dimension=3)


def contraction_to_target(pi, decay_rate: float = 1.0) -> MixingDynamics:
    """Pure relaxation toward a fixed state at the given exponential rate."""
    target = prob_vec(pi)
    if decay_rate <= 0.0:
        raise DomainError("decay_rate must be positive")
    zero = np.zeros_like(target)

    return MixingDynamics(
        s=lambda t: 1.0 - np.exp(-decay_rate * t),
        m=lambda t: np.broadcast_to(target, np.shape(t) + target.shape),
        sdot=lambda t: decay_rate * np.exp(-decay_rate * t),
        mdot=lambda t: np.broadcast_to(zero, np.shape(t) + zero.shape),
        dimension=target.shape[0],
    )


def nearest_index(grid: np.ndarray, times):
    """Index of the point of ``grid`` nearest to each time; the earlier one on a tie.

    ``grid`` is increasing and has at least two points. Only the two points
    around a time are compared, so a time far past either end lands on
    that end.
    """
    t = np.asarray(times, dtype=float)
    upper = np.clip(np.searchsorted(grid, t), 1, grid.size - 1)
    return upper - (t - grid[upper - 1] <= grid[upper] - t)


def snap_index(grid: np.ndarray, t: float, name: str) -> int:
    """:func:`nearest_index` of one time, warning when it lies more than 1e-9 off ``name``."""
    idx = int(nearest_index(grid, t))
    if abs(float(grid[idx]) - t) > 1e-9:
        warnings.warn(f"time {t:.6g} off {name}; snapping to {grid[idx]:.6g}", stacklevel=3)
    return idx


@dataclass(frozen=True)
class Trajectory:
    """Propagators of one dynamics on a time grid.

    ``max_column_drift`` is the largest ``|column sum - 1|`` of the propagators
    as computed: for RK4, of the running product before its one correction.
    """

    times: np.ndarray
    propagators: np.ndarray
    max_column_drift: float

    def index_of(self, t: float) -> int:
        return snap_index(self.times, t, "the grid")


def _with_midpoints(grid: np.ndarray) -> np.ndarray:
    """``grid`` with the midpoint of each step inserted: the nodes at which RK4 needs the generator."""
    nodes = np.empty(2 * grid.size - 1)
    nodes[0::2] = grid
    nodes[1::2] = grid[:-1] + 0.5 * np.diff(grid)
    return nodes


def _rk4_steps(gens: np.ndarray, times: np.ndarray, n: int) -> np.ndarray:
    """Step matrices of fixed-step RK4 on ``times``; ``gens`` holds the generators at ``_with_midpoints(times)``.

    Step ``k`` is ``M_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4)``, ``K1 = R_s``, ``K2 = R_m (I + h/2 K1)``,
    ``K3 = R_m (I + h/2 K2)``, ``K4 = R_e (I + h K3)``.
    """
    h = np.diff(times)[:, None, None]
    r_start, r_mid, r_end = gens[:-1:2], gens[1::2], gens[2::2]
    k2 = r_mid + 0.5 * h * (r_mid @ r_start)
    k3 = r_mid + 0.5 * h * (r_mid @ k2)
    k4 = r_end + h * (r_end @ k3)
    return (h / 6.0) * (r_start + 2.0 * (k2 + k3) + k4) + np.eye(n)


def _rk4_sweep(gens: np.ndarray, times: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Fixed-step RK4 on ``times``: the running product of :func:`_rk4_steps`.

    Returns the product with its column sums reset to 1 once, and the largest drift before that reset.
    """
    steps = _rk4_steps(gens, times, n)
    out = np.empty((times.size, n, n))
    out[0] = np.eye(n)
    for step, prev, nxt in zip(steps, out, out[1:]):
        np.dot(step, prev, out=nxt)
    col_drift = out.sum(axis=1) - 1.0
    out -= col_drift[:, None, :] / n
    return out, float(np.max(np.abs(col_drift)))


def _pairwise_product(mats: np.ndarray) -> np.ndarray:
    """``mats[-1] @ ... @ mats[0]``, multiplied in adjacent pairs level by level: log2(len) levels deep."""
    while len(mats) > 1:
        even = len(mats) // 2 * 2
        mats = np.concatenate([mats[1:even:2] @ mats[0:even:2], mats[even:]])
    return mats[0]


def propagate(dyn: Dynamics, t0: float, t1: float, steps: int = 256) -> Trajectory:
    """Propagators of ``dyn`` from ``t0`` on a uniform grid of ``steps`` intervals.

    Families with closed-form propagators, a constant generator's matrix
    exponential among them, are evaluated exactly: a stack that is not
    finite raises :class:`NumericalAccuracyError`, and from ``t0 > 0``
    ``T(t0)`` is divided out, which raises :class:`NearSingularError` past
    condition number ``COND_LIMIT``. Callable generators are integrated
    with fixed-step RK4 on the generator grid of its nodes, whose earliest
    failed node raises its error, and its endpoint is compared with the
    half-step endpoint: a Richardson disagreement beyond ``RICHARDSON_TOL``,
    or one that is not finite, raises :class:`IntegrationAccuracyError`.
    """
    if not (np.isfinite(t0) and np.isfinite(t1) and t1 > t0):
        raise DomainError(f"need finite t1 > t0, got [{t0}, {t1}]")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    times = np.linspace(t0, t1, steps + 1)
    n = dyn.dimension

    mats = dyn.propagators_at(times)
    if mats is not None:
        if not np.all(np.isfinite(mats)):
            raise NumericalAccuracyError(f"propagators over [{t0:.6g}, {t1:.6g}] overflow to non-finite entries")
        if t0 != 0.0:
            start = mats[0]
            _guard_condition(start)
            mats = np.linalg.solve(start.T, mats.transpose(0, 2, 1)).transpose(0, 2, 1)
        drift = float(np.max(np.abs(mats.sum(axis=1) - 1.0)))
    else:
        # one generator stack serves both sweeps: the half-step sweep runs on
        # the full sweep's nodes, so the full sweep takes every other node
        coarse = _with_midpoints(times)
        grid = dyn._generator_grid(_with_midpoints(coarse))
        if grid.errors:
            raise grid.errors[min(grid.errors)]
        gens = grid.generators
        # an overflowing sweep ends in inf or NaN, which the gap test below rejects
        with np.errstate(over="ignore", invalid="ignore"):
            mats, drift = _rk4_sweep(gens[::2], times, n)
            fine = _pairwise_product(_rk4_steps(gens, coarse, n))
            gap = float(np.max(np.abs(fine - mats[-1]))) / 15.0
        if not gap <= RICHARDSON_TOL:
            raise IntegrationAccuracyError(
                f"step-halving estimate {gap:.3e} exceeds {RICHARDSON_TOL:.0e}; increase steps"
            )
    return Trajectory(times=times, propagators=mats, max_column_drift=drift)


def _guard_condition(mat: np.ndarray, limit: float = COND_LIMIT) -> None:
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > limit:
        raise NearSingularError(f"condition number {cond:.3e} beyond {limit:.0e}")


def generator_of(dyn: Dynamics, t: float) -> np.ndarray:
    """Generator of ``dyn`` at time ``t``: the one-point :func:`generator_grid`, raising its failure."""
    grid = dyn._generator_grid(np.array([t], dtype=float))
    if grid.errors:
        raise grid.errors[0]
    return grid.generators[0]


@dataclass(frozen=True)
class ScanResult:
    """Grid points at which some transition rate dips below ``-rate_tol``.

    ``min_rates`` holds the smallest off-diagonal rate at each grid point,
    NaN where extraction failed. The rates below ``-rate_tol`` are four
    arrays in row-major order of (grid index, row, column):
    ``negative_index`` holds the grid index of each, ``negative_row`` and
    ``negative_col`` its transition ``(i <- j)``, and ``negative_rate`` the
    rate.
    """

    grid: np.ndarray
    rate_tol: float
    failures: tuple[tuple[float, str], ...]
    min_rates: np.ndarray
    negative_index: np.ndarray
    negative_row: np.ndarray
    negative_col: np.ndarray
    negative_rate: np.ndarray

    @property
    def markovian_on_grid(self) -> bool:
        return self.negative_index.size == 0

    def windows(self) -> list[tuple[float, float]]:
        """Maximal contiguous grid intervals of points whose minimal rate is below ``-rate_tol``."""
        bad = self.min_rates < -self.rate_tol
        edges = np.diff(bad.astype(np.int8), prepend=0, append=0)
        starts = np.flatnonzero(edges == 1)
        ends = np.flatnonzero(edges == -1) - 1
        return [(float(self.grid[a]), float(self.grid[b])) for a, b in zip(starts, ends)]


def _scan_rates(gens: GeneratorGrid) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal rates (+inf on the diagonal) and the smallest at each time, NaN where extraction failed."""
    stack = gens.generators
    n = stack.shape[-1]
    off = np.where(np.eye(n, dtype=bool), np.inf, stack)
    ok = np.ones(gens.times.shape, dtype=bool)
    ok[list(gens.errors)] = False
    min_rates = np.full(gens.times.shape, np.nan)
    min_rates[ok] = off[ok].min(axis=(1, 2))
    return off, min_rates


def generator_grid(dyn: Dynamics, times) -> GeneratorGrid:
    """Generators of ``dyn`` on ``times`` as one stack, with per-point failures."""
    return dyn._generator_grid(np.asarray(times, dtype=float))


def divisibility_scan(
    dyn: Dynamics, grid, rate_tol: float = 1e-9, generators: GeneratorGrid | None = None
) -> ScanResult:
    """Classify the generator at each grid time and collect negative rates.

    ``generators`` is the :func:`generator_grid` of ``dyn`` on ``grid`` when
    the caller already has it. Per-point extraction failures are reported
    in the result rather than aborting the scan.
    """
    times = np.asarray(grid, dtype=float)
    gens = generator_grid(dyn, times) if generators is None else generators
    off, min_rates = _scan_rates(gens)
    # failed rows are NaN and compare False; nonzero walks (time, i, j) in row-major order
    ks, rows, cols = np.nonzero(off < -rate_tol)
    return ScanResult(
        grid=times,
        rate_tol=float(rate_tol),
        failures=tuple(
            (float(times[k]), f"{type(exc).__name__}: {exc}") for k, exc in sorted(gens.errors.items())
        ),
        min_rates=min_rates,
        negative_index=ks,
        negative_row=rows,
        negative_col=cols,
        negative_rate=off[ks, rows, cols],
    )


def refinement_stable(dyn: Dynamics, coarse: ScanResult) -> bool:
    """False when a step's midpoint has a rate below ``-rate_tol`` and both ends of the step have none.

    Such a step holds a violation window that ``coarse.grid`` steps over
    entirely. The midpoints are RK4's, so one :func:`generator_grid` on
    them completes the scan's grid to its step-halved grid. A step whose
    end failed extraction is not judged: ``coarse.failures`` reports it.
    """
    tol = coarse.rate_tol
    mid = _scan_rates(generator_grid(dyn, _with_midpoints(coarse.grid)[1::2]))[1]
    ends_clean = coarse.min_rates >= -tol
    return not np.any((mid < -tol) & ends_clean[:-1] & ends_clean[1:])
