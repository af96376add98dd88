"""Time evolution of column-stochastic maps and generator extraction.

Supported dynamics:

* ``GeneratorDynamics`` - a constant or time-dependent generator; the
  propagator solves ``dT/dt = R(t) T`` with fixed-step RK4 plus a
  Richardson step-halving check (fixed steps keep outputs reproducible).
* ``MixingDynamics`` - the closed family ``T(t) = (1 - s(t)) Id +
  s(t) m(t) 1^T`` that sends every state toward the moving target
  ``m(t)`` with weight ``s(t)``. Propagators are evaluated exactly and,
  when the derivatives of ``s`` and ``m`` are supplied, so is the
  generator: ``rate(i <- j) = sdot/(1-s) * m_i + s * mdot_i``. Both are
  evaluated on a whole array of times at once.
* ``case_study_dynamics()`` - a fixed three-state mixing family with an
  oscillating target, bundled because several commands and tests drive it.

``generator_grid`` evaluates the generator on a time grid as one stack,
falling back to a per-point loop for families without a grid form.
``divisibility_scan`` classifies that stack and reports every transition
whose rate dips below ``-rate_tol``; an empty report certifies
divisibility into stochastic pieces on that grid resolution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import expm

from .errors import (
    DimensionMismatchError,
    DomainError,
    FisherflowError,
    IntegrationAccuracyError,
    InvalidStateError,
    NearSingularError,
)
from .simplex import COLUMN_TOL, StochasticityReport, prob_vec, rate_matrix, validate_stochastic

__all__ = [
    "Dynamics",
    "GeneratorDynamics",
    "MixingDynamics",
    "case_study_dynamics",
    "contraction_to_target",
    "Trajectory",
    "propagate",
    "propagator_at",
    "intermediate_map",
    "generator_of",
    "GeneratorGrid",
    "generator_grid",
    "exact_propagators",
    "ScanPoint",
    "ScanResult",
    "divisibility_scan",
    "refinement_stable",
    "scan_refinement_check",
    "trace_scaling_check",
]

#: Condition numbers beyond this make the intermediate map unreliable.
COND_LIMIT = 1e12

#: Richardson disagreement beyond this aborts an integration.
RICHARDSON_TOL = 1e-6

#: Mixing weights this close to 1 leave no invertible part to divide out.
MIXING_CEILING = 1.0 - 1e-12


class GeneratorGrid(NamedTuple):
    """Generators of one dynamics on a time grid.

    ``generators`` is a ``(T, n, n)`` stack; a row whose extraction failed
    is NaN and ``errors`` maps its index to the exception.
    """

    times: np.ndarray
    generators: np.ndarray
    errors: dict[int, Exception]


class Dynamics:
    """Base class: a time-dependent family of column-stochastic maps."""

    kind: str = "abstract"

    def __init__(self, dimension: int, horizon: float):
        if dimension < 2:
            raise DimensionMismatchError("dynamics need dimension >= 2")
        self.dimension = int(dimension)
        self.horizon = float(horizon)

    def generator_at(self, t: float) -> np.ndarray | None:
        """Closed-form generator when available, else None."""
        stack = self.generators_at(np.array([t], dtype=float))
        return None if stack is None else stack[0]

    def propagator_at(self, t: float) -> np.ndarray | None:
        """Closed-form propagator from time 0 when available, else None."""
        stack = self.propagators_at(np.array([t], dtype=float))
        return None if stack is None else stack[0]

    def generators_at(self, times) -> np.ndarray | None:
        """Closed-form generators on an array of times as one ``(T, n, n)`` stack, else None.

        Raises the error of the earliest time at which the generator is undefined.
        """
        grid = self._generator_grid(np.asarray(times, dtype=float))
        if grid is None:
            return None
        if grid.errors:
            raise grid.errors[min(grid.errors)]
        return grid.generators

    def propagators_at(self, times) -> np.ndarray | None:
        """Closed-form propagators from time 0 on an array of times as one stack, else None."""
        return None

    def _generator_grid(self, times: np.ndarray) -> GeneratorGrid | None:
        return None


class GeneratorDynamics(Dynamics):
    """Dynamics specified by a generator, constant or as a callable of time."""

    kind = "generator"

    def __init__(self, rate, dimension: int | None = None, horizon: float = np.inf):
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
        super().__init__(n, horizon)

    def generator_at(self, t: float) -> np.ndarray:
        if self._constant is not None:
            return self._constant
        return rate_matrix(self._rate_fn(t))

    def _generator_grid(self, times: np.ndarray) -> GeneratorGrid | None:
        if self._constant is None:
            return None
        stack = np.broadcast_to(self._constant, times.shape + self._constant.shape)
        return GeneratorGrid(times, stack, {})

    def closed_form_propagator(self, t) -> np.ndarray | None:
        """Matrix exponential for constant rates; None for time-dependent ones.

        An array of times gives a ``(T, n, n)`` stack. Deliberately not
        wired into ``propagator_at``: ``propagate`` must exercise the
        integrator, while analysis code may want the exact map.
        """
        if self._constant is None:
            return None
        return expm(np.multiply.outer(np.asarray(t, dtype=float), self._constant))


class MixingDynamics(Dynamics):
    """Family ``T(t) = (1 - s(t)) Id + s(t) m(t) 1^T`` with target ``m`` and weight ``s``.

    ``s, sdot, m, mdot`` must accept an array of times and broadcast over
    it: ``s`` and ``sdot`` return shape ``(T,)``, ``m`` and ``mdot`` shape
    ``(T, n)`` (and a scalar time gives a scalar or an ``(n,)`` vector).
    Propagators and generators on a grid come from one evaluation of each.
    ``s`` must start at zero and stay in [0, 1); ``m(t)`` must be a state.
    These are checked on a sample grid at construction time.
    """

    kind = "mixing"

    def __init__(
        self,
        s: Callable[[np.ndarray], np.ndarray],
        m: Callable[[np.ndarray], np.ndarray],
        sdot: Callable[[np.ndarray], np.ndarray] | None = None,
        mdot: Callable[[np.ndarray], np.ndarray] | None = None,
        dimension: int | None = None,
        horizon: float = np.inf,
        check_points: int = 65,
    ):
        m0 = np.asarray(m(0.0), dtype=float)
        n = m0.shape[0] if dimension is None else dimension
        super().__init__(n, horizon)
        self.s = s
        self.m = m
        self.sdot = sdot
        self.mdot = mdot
        self._validate(check_points)

    def _validate(self, check_points: int) -> None:
        if abs(self.s(0.0)) > 1e-12:
            raise InvalidStateError(f"mixing weight must start at 0, got s(0) = {self.s(0.0):.3e}")
        t_hi = self.horizon if np.isfinite(self.horizon) else 1.0
        grid = np.linspace(0.0, t_hi, check_points)
        values = {}
        for name in ("s", "sdot", "m", "mdot"):
            fn = getattr(self, name)
            if fn is not None:
                values[name] = np.asarray(fn(grid), dtype=float)
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

    def _generator_grid(self, times: np.ndarray) -> GeneratorGrid | None:
        if self.sdot is None or self.mdot is None:
            return None
        n = self.dimension
        w = np.asarray(self.s(times), dtype=float)
        dead = w > MIXING_CEILING
        errors: dict[int, Exception] = {
            k: DomainError(f"mixing weight {float(w[k])} leaves no invertible part at t = {times[k]:.6g}")
            for k in np.flatnonzero(dead).tolist()
        }
        # rows past the ceiling are left out before dividing by 1 - s
        live = np.flatnonzero(~dead)
        wl = w[live]
        coef = np.asarray(self.sdot(times), dtype=float)[live] / (1.0 - wl)
        col = (
            coef[:, None] * np.asarray(self.m(times), dtype=float)[live]
            + wl[:, None] * np.asarray(self.mdot(times), dtype=float)[live]
        )
        rates = np.repeat(col[:, :, None], n, axis=2)
        diag = np.arange(n)
        rates[:, diag, diag] -= col.sum(axis=1)[:, None]
        # rows rate_matrix could reject (non-finite or off column sums) get its own error
        with np.errstate(invalid="ignore"):
            suspect = ~(np.abs(rates.sum(axis=1)).max(axis=1) <= COLUMN_TOL)
        for k in np.flatnonzero(suspect).tolist():
            try:
                rate_matrix(rates[k])
            except FisherflowError as exc:
                errors[int(live[k])] = exc
        stack = np.full(times.shape + (n, n), np.nan)
        stack[live] = rates
        stack[list(errors)] = np.nan
        stack.flags.writeable = False
        return GeneratorGrid(times, stack, errors)


#: Fixed constants of the bundled demonstration family.
_CS_V1 = np.array([1.0, 1.0, 1.0]) / 3.0
_CS_V2 = np.array([1.0, 0.0, 0.0])
_CS_FREQ = 10.0


def case_study_dynamics(horizon: float = np.pi) -> MixingDynamics:
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

    dyn = MixingDynamics(s, m, sdot, mdot, dimension=3, horizon=horizon)
    dyn.kind = "case_study"
    return dyn


def contraction_to_target(pi, decay_rate: float = 1.0, horizon: float = np.inf) -> MixingDynamics:
    """Pure relaxation toward a fixed state at the given exponential rate."""
    target = prob_vec(pi)
    if decay_rate <= 0.0:
        raise DomainError("decay_rate must be positive")
    zero = np.zeros_like(target)

    dyn = MixingDynamics(
        s=lambda t: 1.0 - np.exp(-decay_rate * t),
        m=lambda t: np.broadcast_to(target, np.shape(t) + target.shape),
        sdot=lambda t: decay_rate * np.exp(-decay_rate * t),
        mdot=lambda t: np.broadcast_to(zero, np.shape(t) + zero.shape),
        dimension=target.shape[0],
        horizon=horizon,
    )
    dyn.kind = "contraction"
    return dyn


@dataclass(frozen=True)
class Trajectory:
    """Propagators (and optionally states) of one dynamics on a time grid."""

    times: np.ndarray
    propagators: np.ndarray
    states: np.ndarray | None
    max_column_drift: float
    dynamics: Dynamics = field(repr=False, compare=False, default=None)

    @property
    def dimension(self) -> int:
        return self.propagators.shape[1]

    def index_of(self, t: float, snap_tol: float = 1e-9) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        gap = abs(float(self.times[idx]) - t)
        if gap > snap_tol:
            warnings.warn(
                f"time {t:.6g} off the grid; snapping to {self.times[idx]:.6g}",
                stacklevel=2,
            )
        return idx


def _rk4_sweep(rate_fn, times: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    out = np.empty((times.size, n, n))
    out[0] = np.eye(n)
    t_mat = np.eye(n)
    drift = 0.0
    # each grid point's generator serves as one step's end and the next one's start
    r_end = rate_fn(float(times[0]))
    for k in range(times.size - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        h = t1 - t0
        r_start, r_mid, r_end = r_end, rate_fn(t0 + 0.5 * h), rate_fn(t1)
        k1 = r_start @ t_mat
        k2 = r_mid @ (t_mat + 0.5 * h * k1)
        k3 = r_mid @ (t_mat + 0.5 * h * k2)
        k4 = r_end @ (t_mat + h * k3)
        t_mat = t_mat + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        col_drift = t_mat.sum(axis=0) - 1.0
        drift = max(drift, float(np.max(np.abs(col_drift))))
        t_mat = t_mat - col_drift[None, :] / n
        out[k + 1] = t_mat
    return out, drift


def propagate(
    dyn: Dynamics,
    t0: float = 0.0,
    t1: float | None = None,
    steps: int = 256,
    initial_state=None,
    richardson_tol: float = RICHARDSON_TOL,
    check: bool = True,
) -> Trajectory:
    """Propagators of ``dyn`` from ``t0`` on a uniform grid of ``steps`` intervals.

    Closed-form families are evaluated exactly. Generator-driven families
    are integrated with fixed-step RK4; when ``check`` is set the run is
    repeated at half the step and a Richardson disagreement beyond
    ``richardson_tol`` raises :class:`IntegrationAccuracyError`.
    """
    if t1 is None:
        t1 = dyn.horizon if np.isfinite(dyn.horizon) else 1.0
    if not t1 > t0:
        raise DomainError(f"need t1 > t0, got [{t0}, {t1}]")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    times = np.linspace(t0, t1, steps + 1)
    n = dyn.dimension

    mats = dyn.propagators_at(times)
    if mats is not None:
        if t0 != 0.0:
            start = mats[0]
            _guard_condition(start)
            mats = np.linalg.solve(start.T, mats.transpose(0, 2, 1)).transpose(0, 2, 1)
        drift = float(np.max(np.abs(mats.sum(axis=1) - 1.0)))
    else:
        rate_fn = dyn.generator_at
        mats, drift = _rk4_sweep(rate_fn, times, n)
        if check:
            fine_times = np.linspace(t0, t1, 2 * steps + 1)
            fine, _ = _rk4_sweep(rate_fn, fine_times, n)
            gap = float(np.max(np.abs(fine[-1] - mats[-1]))) / 15.0
            if gap > richardson_tol:
                raise IntegrationAccuracyError(
                    f"step-halving estimate {gap:.3e} exceeds {richardson_tol:.0e}; increase steps"
                )

    states = None
    if initial_state is not None:
        p0 = prob_vec(initial_state)
        if p0.shape[0] != n:
            raise DimensionMismatchError("initial state dimension mismatch")
        states = mats @ p0
    return Trajectory(times=times, propagators=mats, states=states, max_column_drift=drift, dynamics=dyn)


def exact_propagators(dyn: Dynamics, times) -> np.ndarray | None:
    """Exact propagators from time 0 on an array of times as one stack, else None.

    Closed-form families evaluate their formula; constant generators take
    the matrix exponential. Families that need the integrator give None.
    """
    stack = dyn.propagators_at(times)
    if stack is None and isinstance(dyn, GeneratorDynamics):
        return dyn.closed_form_propagator(np.asarray(times, dtype=float))
    return stack


def propagator_at(dyn: Dynamics, t: float, steps: int = 256) -> np.ndarray:
    """Single propagator from time 0, exact when the family allows it."""
    closed = dyn.propagator_at(t)
    if closed is not None:
        return closed
    if t == 0.0:
        return np.eye(dyn.dimension)
    return propagate(dyn, 0.0, t, steps=steps).propagators[-1]


def _guard_condition(mat: np.ndarray, limit: float = COND_LIMIT) -> None:
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > limit:
        raise NearSingularError(f"condition number {cond:.3e} beyond {limit:.0e}")


def intermediate_map(traj: Trajectory, s: float, t: float) -> tuple[np.ndarray, StochasticityReport]:
    """Map carrying the state at grid time ``s`` to grid time ``t``.

    Solves ``X T(s) = T(t)`` by LU factorization with partial pivoting and
    returns the matrix together with a stochasticity report; the map is a
    genuine stochastic matrix only where the dynamics is divisible, so the
    report is informative, not an error.
    """
    i = traj.index_of(s)
    j = traj.index_of(t)
    if j < i:
        raise DomainError(f"need t >= s, got s = {s:.6g}, t = {t:.6g}")
    t_s = traj.propagators[i]
    t_t = traj.propagators[j]
    _guard_condition(t_s)
    x = np.linalg.solve(t_s.T, t_t.T).T
    return x, validate_stochastic(x)


def generator_of(dyn: Dynamics, t: float, h: float = 1e-6, force_finite_difference: bool = False) -> np.ndarray:
    """Generator of ``dyn`` at time ``t``.

    Uses the closed form when the family provides one; otherwise (or when
    forced) estimates ``dT/dt(t) T(t)^{-1}`` by central differences of the
    propagator.
    """
    if not force_finite_difference:
        closed = dyn.generator_at(t)
        if closed is not None:
            return closed
    lo = max(t - h, 0.0)
    hi = t + h
    t_lo = propagator_at(dyn, lo)
    t_hi = propagator_at(dyn, hi)
    t_mid = propagator_at(dyn, t)
    _guard_condition(t_mid)
    deriv = (t_hi - t_lo) / (hi - lo)
    return np.linalg.solve(t_mid.T, deriv.T).T


@dataclass(frozen=True)
class ScanPoint:
    t: float
    negative_rates: dict[tuple[int, int], float]

    @property
    def min_rate(self) -> float:
        return min(self.negative_rates.values())


@dataclass(frozen=True)
class ScanResult:
    """Grid points at which some transition rate dips below ``-rate_tol``.

    ``min_rates`` holds the smallest off-diagonal rate at each grid point,
    NaN where extraction failed.
    """

    grid: np.ndarray
    rate_tol: float
    violations: tuple[ScanPoint, ...]
    failures: tuple[tuple[float, str], ...]
    min_rates: np.ndarray

    @property
    def markovian_on_grid(self) -> bool:
        return not self.violations

    def windows(self) -> list[tuple[float, float]]:
        """Maximal contiguous grid intervals covered by violations.

        A grid point has a violation exactly when its minimal rate is below
        ``-rate_tol`` (failed points are NaN and never are).
        """
        bad = self.min_rates < -self.rate_tol
        edges = np.diff(bad.astype(np.int8), prepend=0, append=0)
        starts = np.flatnonzero(edges == 1)
        ends = np.flatnonzero(edges == -1) - 1
        return [(float(self.grid[a]), float(self.grid[b])) for a, b in zip(starts, ends)]


def generator_grid(dyn: Dynamics, times) -> GeneratorGrid:
    """Generators of ``dyn`` on ``times`` as one stack, with per-point failures.

    Families with a grid form evaluate it once; the others extract each
    point with :func:`generator_of`. Library errors and singular solves at
    a point become entries of ``errors``; any other exception, such as a
    bug in a callable generator, propagates.
    """
    times = np.asarray(times, dtype=float)
    grid = dyn._generator_grid(times)
    if grid is not None:
        return grid
    n = dyn.dimension
    stack = np.full(times.shape + (n, n), np.nan)
    errors: dict[int, Exception] = {}
    for k, t in enumerate(times.tolist()):
        try:
            stack[k] = generator_of(dyn, t)
        except (FisherflowError, np.linalg.LinAlgError) as exc:
            errors[k] = exc
    return GeneratorGrid(times, stack, errors)


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
    stack = gens.generators
    n = stack.shape[-1]
    off = np.where(np.eye(n, dtype=bool), np.inf, stack)
    ok = np.ones(times.shape, dtype=bool)
    ok[list(gens.errors)] = False
    min_rates = np.full(times.shape, np.nan)
    min_rates[ok] = off[ok].min(axis=(1, 2))
    # failed rows are NaN and compare False; nonzero walks (time, i, j) in row-major order
    negative: dict[int, dict[tuple[int, int], float]] = {}
    ks, rows, cols = np.nonzero(off < -rate_tol)
    for k, i, j, rate in zip(ks.tolist(), rows.tolist(), cols.tolist(), off[ks, rows, cols].tolist()):
        negative.setdefault(k, {})[(i, j)] = rate
    t_list = times.tolist()
    return ScanResult(
        grid=times,
        rate_tol=float(rate_tol),
        violations=tuple(ScanPoint(t=t_list[k], negative_rates=neg) for k, neg in negative.items()),
        failures=tuple(
            (t_list[k], f"{type(exc).__name__}: {exc}") for k, exc in sorted(gens.errors.items())
        ),
        min_rates=min_rates,
    )


def refinement_stable(dyn: Dynamics, coarse: ScanResult, factor: int = 2) -> bool:
    """True when rescanning ``coarse.grid`` refined by ``factor`` preserves every violation window."""
    times = coarse.grid
    fine = np.linspace(times[0], times[-1], factor * (times.size - 1) + 1)
    fine_windows = divisibility_scan(dyn, fine, coarse.rate_tol).windows()
    return all(
        any(flo <= hi and lo <= fhi for flo, fhi in fine_windows) for lo, hi in coarse.windows()
    )


def scan_refinement_check(dyn: Dynamics, grid, rate_tol: float = 1e-9, factor: int = 2) -> bool:
    """True when refining the grid by ``factor`` preserves every violation window."""
    return refinement_stable(dyn, divisibility_scan(dyn, grid, rate_tol), factor)


def trace_scaling_check(dyn: MixingDynamics, p0, q0, grid) -> float:
    """Largest deviation from the exact trace-distance scaling of a mixing family.

    For ``T(t) = (1 - s) Id + s m 1^T`` the trace distance between any two
    evolved states is ``(1 - s(t))`` times the initial one; the return value
    is the max absolute mismatch over the grid.
    """
    if not isinstance(dyn, MixingDynamics):
        raise DomainError("trace scaling holds only for mixing families")
    p = prob_vec(p0)
    q = prob_vec(q0)
    d0 = float(np.sum(np.abs(p - q)))
    times = np.asarray(grid, dtype=float)
    mats = dyn.propagators_at(times)
    d_t = np.abs(mats @ p - mats @ q).sum(axis=1)
    return float(np.max(np.abs(d_t - (1.0 - dyn.s(times)) * d0), initial=0.0))
