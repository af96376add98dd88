"""Independent reference computations used to pin expected test values.

Everything here is written directly from the defining formulas with plain
numpy, deliberately avoiding the library under test. Dual-route tests call
these alongside the package implementations; frozen literals in the test
files were produced by running this module as a script.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np


def fisher_rate_direct(p, d, r) -> float:
    """Time derivative of (1/2) sum d_i^2 / p_i by direct differentiation.

    Uses pdot = R p and ddot = R d; no flow decomposition involved.
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    r = np.asarray(r, dtype=float)
    pdot = r @ p
    ddot = r @ d
    return float(np.sum(d * ddot / p) - 0.5 * np.sum(d**2 * pdot / p**2))


def fisher_rate_fd(p, d, r, h: float = 1e-7) -> float:
    """Centered finite difference of the squared local Fisher distance."""
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    r = np.asarray(r, dtype=float)

    def d2(step):
        pp = p + step * (r @ p)
        dd = d + step * (r @ d)
        return 0.5 * np.sum(dd**2 / pp)

    return float((d2(h) - d2(-h)) / (2.0 * h))


def form_eigen_direct(p, r, sector=None):
    """Eigenvalues of the squared-distance rate form on an orthonormal basis.

    The basis spans the zero-sum subspace by default, or the columns of
    ``sector`` (assumed orthonormal, zero-sum). Built by evaluating the rate
    on basis pairs via polarization, from the direct-differentiation route.
    """
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    n = p.shape[0]
    if sector is None:
        full = np.linalg.qr(np.eye(n) - np.full((n, n), 1.0 / n))[0][:, : n - 1]
        # columns of Q may include a residual constant direction; project out
        sector = full - full.mean(axis=0, keepdims=True)
        sector, _ = np.linalg.qr(sector)
        sector = sector[:, : n - 1]
    k = sector.shape[1]
    mat = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            plus = fisher_rate_direct(p, sector[:, a] + sector[:, b], r)
            minus = fisher_rate_direct(p, sector[:, a] - sector[:, b], r)
            mat[a, b] = 0.25 * (plus - minus)
    mat = 0.5 * (mat + mat.T)
    return np.linalg.eigvalsh(mat)


def counterexample():
    """Two-state generator with rates a(1<-2) = -0.5, a(2<-1) = 1 (0-based: a(0<-1), a(1<-0))."""
    return np.array([[-1.0, -0.5], [1.0, 0.5]])


def case_study_rates(t: float) -> np.ndarray:
    """Closed-form per-row transition rates of the oscillating mixing family."""
    s = 1.0 - np.exp(-t)
    c = np.cos(10.0 * t)
    sn = np.sin(10.0 * t)
    v1 = np.array([1.0, 1.0, 1.0]) / 3.0
    v2 = np.array([1.0, 0.0, 0.0])
    m = 0.5 * ((1.0 + c) * v1 + (1.0 - c) * v2)
    mdot = 5.0 * sn * (v2 - v1)
    return m + s * mdot  # sdot/(1-s) = 1 for s = 1 - e^{-t}


def mixing_generator_point(s, sdot, m, mdot, t: float) -> np.ndarray:
    """Generator of T(t) = (1 - s) Id + s m 1^T at one time, from scalar evaluations.

    rate(i <- j) = sdot/(1 - s) m_i + s mdot_i off the diagonal; the
    diagonal makes each column sum to zero.
    """
    w = float(s(t))
    coef = float(sdot(t)) / (1.0 - w)
    col = coef * np.asarray(m(t), dtype=float) + w * np.asarray(mdot(t), dtype=float)
    r = np.tile(col[:, None], (1, col.size))
    np.fill_diagonal(r, np.diag(r) - col.sum())
    return r


def mixing_propagator_point(s, m, t: float) -> np.ndarray:
    """T(t) = (1 - s) Id + s m 1^T at one time, from scalar evaluations."""
    w = float(s(t))
    target = np.asarray(m(t), dtype=float)
    n = target.size
    return (1.0 - w) * np.eye(n) + w * np.outer(target, np.ones(n))


class StochasticityReport(NamedTuple):
    """Column-sum deviations and the most negative entry of a matrix, against ``tol``."""

    column_sum_deviations: tuple[float, ...]
    max_column_deviation: float
    most_negative_entry: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_column_deviation <= self.tol and self.most_negative_entry >= -self.tol


def validate_stochastic(t, tol: float = 1e-9) -> StochasticityReport:
    """Report how far the square matrix ``t`` is from column stochastic; nothing is repaired."""
    m = np.asarray(t, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        raise ValueError(f"need a finite square matrix, got shape {m.shape}")
    devs = m.sum(axis=0) - 1.0
    return StochasticityReport(
        column_sum_deviations=tuple(float(x) for x in devs),
        max_column_deviation=float(np.max(np.abs(devs))),
        most_negative_entry=float(np.min(m)),
        tol=float(tol),
    )


def filter_map(pi, eps: float) -> np.ndarray:
    """Stochastic map ``eps Id + (1 - eps) pi 1^T``: mixes every input toward ``pi``, scales differences by eps."""
    target = np.asarray(pi, dtype=float)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"filter strength must be in (0, 1], got {eps}")
    n = target.size
    return eps * np.eye(n) + (1.0 - eps) * np.outer(target, np.ones(n))


def intermediate_map(traj, s: float, t: float) -> np.ndarray:
    """Map X with ``X T(s) = T(t)`` between two grid times of ``traj``, by one linear solve.

    X is a stochastic matrix only where the dynamics is divisible on
    [s, t], so it reads divisibility off the propagators alone, a second
    route to the generator scan.
    """
    i = traj.index_of(s)
    j = traj.index_of(t)
    if j < i:
        raise ValueError(f"need t >= s, got s = {s:.6g}, t = {t:.6g}")
    return np.linalg.solve(traj.propagators[i].T, traj.propagators[j].T).T


def trace_scaling_check(dyn, p0, q0, grid) -> float:
    """Largest deviation from the exact trace-distance law of a mixing family, one time at a time.

    For ``T(t) = (1 - s) Id + s m 1^T`` the trace distance between two
    evolved states is ``(1 - s(t))`` times the initial one; each propagator
    comes from :func:`mixing_propagator_point`.
    """
    if not hasattr(dyn, "s"):
        raise ValueError("trace scaling holds only for mixing families")
    p = np.asarray(p0, dtype=float)
    q = np.asarray(q0, dtype=float)
    d0 = float(np.sum(np.abs(p - q)))
    worst = 0.0
    for t in grid:
        mat = mixing_propagator_point(dyn.s, dyn.m, float(t))
        d_t = float(np.sum(np.abs(mat @ p - mat @ q)))
        worst = max(worst, abs(d_t - (1.0 - float(dyn.s(float(t)))) * d0))
    return worst


def fd_generator_point(propagator, t: float, h: float = 1e-6) -> np.ndarray:
    """Generator dT/dt T^{-1} at one time by a central difference of ``propagator``, clipped at 0."""
    lo = max(t - h, 0.0)
    hi = t + h
    deriv = (propagator(hi) - propagator(lo)) / (hi - lo)
    t_mid = propagator(t)
    return np.linalg.solve(t_mid.T, deriv.T).T


def scan_loop(generator_at, grid, rate_tol: float, errors):
    """Divisibility scan one grid point at a time.

    ``generator_at(t)`` returns the generator or raises one of the exception
    classes in ``errors``. Returns the minimal off-diagonal rate per point
    (NaN where extraction failed), the violations as ``(t, {(i, j): rate})``
    in grid order, the failures as ``(t, "Type: message")`` and the maximal
    runs of violating grid points as ``(first t, last t)``.
    """
    min_rates = np.full(len(grid), np.nan)
    violations, failures, flags = [], [], []
    for k, t in enumerate(float(x) for x in grid):
        try:
            r = np.asarray(generator_at(t), dtype=float)
        except errors as exc:
            failures.append((t, f"{type(exc).__name__}: {exc}"))
            flags.append(False)
            continue
        off = [(i, j) for i in range(r.shape[0]) for j in range(r.shape[0]) if i != j]
        min_rates[k] = min(r[i, j] for i, j in off)
        neg = {(i, j): float(r[i, j]) for i, j in off if r[i, j] < -rate_tol}
        flags.append(bool(neg))
        if neg:
            violations.append((t, neg))
    windows, start = [], None
    for k, flag in enumerate(flags):
        if flag and start is None:
            start = k
        if start is not None and (not flag or k == len(flags) - 1):
            end = k if flag else k - 1
            windows.append((float(grid[start]), float(grid[end])))
            start = None
    return min_rates, violations, failures, windows


def adjoint_defect_loop(fwd, a, prior, trials: int, seed: int) -> float:
    """Pull-back identity defect per unit direction, and self-adjointness defect, one trial at a time.

    For each of ``trials`` zero-sum draws d: |<d, A d>_pi - <T d, T d>_{T pi}|
    / <d, d>_pi with <x, y>_p = sum x y / (2 p); the result is the largest
    of these and of the asymmetry of A in the sqrt(2 pi)-scaled frame.
    """
    fwd = np.asarray(fwd, dtype=float)
    a = np.asarray(a, dtype=float)
    pi = np.asarray(prior, dtype=float)
    pushed = fwd @ pi
    pushed = np.where(pushed < 0.0, 0.0, pushed)
    pushed = pushed / pushed.sum()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d = rng.standard_normal(pi.size)
        d -= d.mean()
        ad = a @ d
        fd = fwd @ d
        lhs = float(np.sum(d * ad / (2.0 * pi)))
        rhs = float(np.sum(fd * fd / (2.0 * pushed)))
        worst = max(worst, abs(lhs - rhs) / float(np.sum(d * d / (2.0 * pi))))
    scale = 1.0 / np.sqrt(2.0 * pi)
    sym = scale[:, None] * a * (1.0 / scale)[None, :]
    return max(worst, float(np.max(np.abs(sym - sym.T))))


def first_failure_loop(check, stack):
    """The error ``check`` raises for the first matrix of ``stack`` it rejects, one matrix at a time.

    Returns ``(index, exception type, message)``, or None when every matrix passes.
    """
    for k, mat in enumerate(stack):
        try:
            check(mat)
        except Exception as exc:
            return k, type(exc), str(exc)
    return None


def edge_laplacian_loop(p, r) -> np.ndarray:
    """Laplacian of S[i, j] = r[i, j] p[j] + r[j, i] p[i] (i != j), entry by entry, for one base and generator.

    Off the diagonal L[i, j] = 0 - S[i, j], so an absent edge reads +0.0;
    L[i, i] is the sum of row i of S with S[i, i] = 0.
    """
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    n = p.size
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                s[i, j] = r[i, j] * p[j] + r[j, i] * p[i]
    lap = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            lap[i, j] = s[i].sum() if i == j else 0.0 - s[i, j]
    return lap


def kron_sum_loop(r, copies: int, ancilla_dim: int = 0) -> np.ndarray:
    """Generator of ``copies`` replicas of ``r`` and an idle ancilla, one ``np.kron`` per factor.

    The sum over l of I x ... x r x ... x I (r in factor l), added in order
    of l onto zeros, then ``kron(., I_ancilla)`` when ``ancilla_dim >= 1``.
    """
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    out = np.zeros((n**copies, n**copies))
    for l in range(copies):
        out += np.kron(np.kron(np.eye(n**l), r), np.eye(n ** (copies - l - 1)))
    if ancilla_dim >= 1:
        out = np.kron(out, np.eye(ancilla_dim))
    return out


def negative_rates_loop(r, rate_tol: float = 1e-9) -> dict[tuple[int, int], float]:
    """Off-diagonal rates below ``-rate_tol`` as {(i, j): rate}, walking the matrix in row-major order."""
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    rates = {(i, j): float(r[i, j]) for i in range(n) for j in range(n) if i != j}
    return {k: v for k, v in rates.items() if v < -rate_tol}


def no_go_two_forms(form, pi, r, copies: int, ancilla_dim: int) -> tuple[float, float]:
    """``(lambda_max_on_image, lambda_max_full)`` of a no-go check through two calls of ``form``.

    ``form(p, r, basis=None)`` is a contraction-form constructor. ``pi`` is
    divided by its sum, the base is its ``np.kron`` power and the generator
    is :func:`kron_sum_loop`. The zero-sum form gives the image figure and,
    with an ancilla of dimension m >= 2, the form on the identity basis
    gives the full one, both scaled by m.
    """
    pi = np.asarray(pi, dtype=float)
    pi = pi / pi.sum()
    base = pi
    for _ in range(copies - 1):
        base = np.kron(base, pi)
    r_sys = kron_sum_loop(r, copies)
    lam_image = lam_full = form(base, r_sys).lambda_max
    if ancilla_dim >= 2:
        lam_full = ancilla_dim * form(base, r_sys, basis=np.eye(base.size)).lambda_max
        lam_image *= ancilla_dim
    return lam_image, lam_full


def round_trip_direct(t_mat, pi) -> np.ndarray:
    """Round trip A = T_hat T of one map, T_hat built from T with float-noise negatives set to 0.

    ``pi`` is used as given, so it must be normalized already (a context's
    ``prior`` is).
    """
    t_mat = np.asarray(t_mat, dtype=float)
    pi = np.asarray(pi, dtype=float)
    clamped = np.where(t_mat < 0.0, 0.0, t_mat)
    pushed = clamped @ pi
    return (pi[:, None] * clamped.T / pushed[None, :]) @ t_mat


def retro_distance_loop(p0, pi, round_trips) -> np.ndarray:
    """Squared prior-weighted residual d - A d of d = p0 - pi under each round trip, one at a time.

    ``p0`` is normalized first; <x, y>_pi = sum x y / (2 pi).
    """
    state = np.asarray(p0, dtype=float)
    pi = np.asarray(pi, dtype=float)
    d = state / state.sum() - pi
    out = []
    for a in round_trips:
        residual = d - a @ d
        out.append(float(np.sum(residual * residual / (2.0 * pi))))
    return np.array(out)


def recovery_spectrum_loop(round_trips, pi, basis) -> np.ndarray:
    """Eigenvalues of each round trip on the columns of ``basis``, symmetrized, one at a time.

    The round trip is projected as W^T A B with W = B / (2 pi) row-wise.
    """
    pi = np.asarray(pi, dtype=float)
    weighted = basis / (2.0 * pi)[:, None]
    out = []
    for a in round_trips:
        m = weighted.T @ a @ basis
        out.append(np.linalg.eigvalsh(0.5 * (m + m.T)))
    return np.array(out)


def equivalence_loop(fwd_maps, round_trips, prior, basis, generator_at, times, band: float, errors):
    """The contraction/retrodiction equivalence check one grid time at a time.

    The per-time route the stacked check replaced, written out: at time
    ``times[k]``, with forward map T, round trip A and the generator
    ``generator_at(t)`` (a time where it raises one of ``errors`` gets no
    reading), the evolved prior q = T pi is normalized, and normalized
    again as the form's base. The form on the orthonormal zero-sum basis
    U (columns proportional to (1, ..., 1, -k, 0, ...)) is
    M = -1/2 V^T Lap V with V = U / q row-wise and Lap the Laplacian of
    S = W + W^T, W[i, j] = L[i, j] q[j] off the diagonal; ``lambda_max`` is
    its top eigenvalue. With g = U^T T ``basis``, the eigenpairs (mu, e)
    of -(g^T M g) are the curvature, and 2 mu (1 - e^T A' e), with A' the
    round trip on ``basis`` (W^T A B, W = B / (2 pi) row-wise), the rate
    along each mu below -``band``. Returns ``lambda_max`` and the smallest
    curvature per time (NaN where the generator failed), the verdicts
    (None there) and the rates as a list of tuples.
    """
    pi = np.asarray(prior, dtype=float)
    n = pi.size
    frame = np.zeros((n, n - 1))
    for k in range(1, n):
        frame[:k, k - 1] = 1.0
        frame[k, k - 1] = -float(k)
        frame[:, k - 1] /= np.sqrt(k * (k + 1.0))
    weighted = basis / (2.0 * pi)[:, None]
    out = []
    for t, fwd, trip in zip(times, fwd_maps, round_trips):
        try:
            r = np.asarray(generator_at(float(t)), dtype=float)
        except errors:
            out.append((np.nan, np.nan, None, ()))
            continue
        q = fwd @ pi
        q = q / q.sum()
        q = q / q.sum()
        w = r * q[None, :]
        np.fill_diagonal(w, 0.0)
        sym = w + w.T
        lap = np.diag(sym.sum(axis=1)) - sym
        v = frame / q[:, None]
        m = -0.5 * (v.T @ lap @ v)
        m = 0.5 * (m + m.T)
        lam = float(np.linalg.eigh(m)[0][-1])
        g = frame.T @ fwd @ basis
        mu, e = np.linalg.eigh(-(g.T @ m @ g))
        projected = weighted.T @ trip @ basis
        rates = tuple(
            2.0 * float(mu[j]) * (1.0 - float(e[:, j] @ projected @ e[:, j])) for j in range(mu.size) if mu[j] < -band
        )
        neg, pos_only = float(mu.min()) < -band, float(mu.min()) > band
        if (lam > band and neg) or (lam < -band and pos_only):
            verdict = "consistent"
        elif abs(lam) <= band or (not neg and not pos_only):
            verdict = "inconclusive"
        else:
            verdict = "inconsistent"
        out.append((lam, float(mu.min()), verdict, rates))
    lams, lows, verdicts, rates = zip(*out)
    return np.array(lams), np.array(lows), list(verdicts), list(rates)


def curvature_loop(round_trip_at, pi, basis, t: float, h: float, band: float):
    """Richardson-extrapolated central differences of the recovery curvature at ``t``.

    For s = h and 2 h, the central difference of A over [t - s, t + s] (one
    round trip per ``round_trip_at`` call), projected as in
    :func:`recovery_spectrum_loop` and negated, gives the symmetrized -dA/dt
    as C_s. The result is the eigenvalues (from ``eigh``) of
    (4 C_h - C_2h) / 3 with the step-halving estimate |C_h - C_2h|_max / 3,
    and for each eigenvalue below -``band`` the central-difference rate r_s
    of the squared residual |d - A d|_pi^2 along its eigenvector, as the
    pair ((4 r_h - r_2h) / 3, |r_h - r_2h| / 3).
    """
    pi = np.asarray(pi, dtype=float)
    weighted = basis / (2.0 * pi)[:, None]

    def curvature(step):
        a_dot = weighted.T @ ((round_trip_at(t + step) - round_trip_at(t - step)) / (2.0 * step)) @ basis
        return -0.5 * (a_dot + a_dot.T)

    def rate(d, step):
        q = []
        for end in (t - step, t + step):
            residual = d - round_trip_at(end) @ d
            q.append(float(np.sum(residual * residual / (2.0 * pi))))
        return (q[1] - q[0]) / (2.0 * step)

    curv_h, curv_2h = curvature(h), curvature(2.0 * h)
    estimate = float(np.max(np.abs(curv_h - curv_2h))) / 3.0
    eigvals, eigvecs = np.linalg.eigh((4.0 * curv_h - curv_2h) / 3.0)
    rates = []
    for k in np.flatnonzero(eigvals < -band):
        d = basis @ eigvecs[:, k]
        r_h, r_2h = rate(d, h), rate(d, 2.0 * h)
        rates.append(((4.0 * r_h - r_2h) / 3.0, abs(r_h - r_2h) / 3.0))
    return eigvals, estimate, rates


def bayes_direct(t_mat, pi):
    t_mat = np.asarray(t_mat, dtype=float)
    pi = np.asarray(pi, dtype=float)
    pushed = t_mat @ pi
    return pi[:, None] * t_mat.T / pushed[None, :]


def _plain(value):
    """Recursively convert report payloads to JSON-compatible plain types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {_plain_key(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _plain_key(key) -> str:
    if isinstance(key, tuple):
        return "<-".join(str(int(k)) for k in key)
    return str(key)


def report_text_plain(report) -> str:
    """A report's file text by two passes: convert to plain types, then ``json.dumps``.

    ``json.dumps`` raises ``ValueError`` on a NaN or an infinity.
    """
    return json.dumps(_plain(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def first_nonfinite(report, where: str = "") -> str | None:
    """Path of the first NaN or infinity in a report, in insertion order; None if there is none.

    Paths read like ``results.cases[2].margin``.
    """
    value = _plain(report)
    if isinstance(value, bool) or not isinstance(value, (int, float, dict, list)):
        return None
    if isinstance(value, (int, float)):
        return None if math.isfinite(value) else where
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        if isinstance(value, list):
            path = first_nonfinite(item, f"{where}[{key}]")
        else:
            path = first_nonfinite(item, f"{where}.{key}" if where else key)
        if path is not None:
            return path
    return None


def min_offdiag(r) -> tuple[tuple[int, int], float]:
    """Smallest off-diagonal entry of ``r`` and its index, first in row-major order on ties."""
    off = np.array(r, dtype=float)
    np.fill_diagonal(off, np.inf)
    idx = divmod(int(np.argmin(off)), off.shape[0])
    return idx, float(off[idx])


def filter_rate_direct(d, r, eps: float) -> float:
    """Doubled derivative of the filtered squared Fisher distance, frozen base.

    Closed form of the epsilon expansion at the special base point
    p_i = |d_i| / S with S = sum|d|, in the limit of a vanishing
    regularization floor: zero components of d count with the sign of
    (R d)_i, so the first-order term is S times the forward trace rate;
    the cubic term only sees the support of d.
    """
    d = np.asarray(d, dtype=float)
    r = np.asarray(r, dtype=float)
    ddot = r @ d
    strength = float(np.abs(d).sum())
    sdot = forward_trace_rate_direct(d, r)
    anchor = np.abs(d) / strength
    pdot = r @ anchor
    support = d != 0.0
    return float(
        2.0 * eps**2 * strength * sdot - eps**3 * strength**2 * pdot[support].sum()
    )


def forward_trace_rate_direct(d, r) -> float:
    d = np.asarray(d, dtype=float)
    vel = np.asarray(r, dtype=float) @ d
    return float(np.sum(np.where(d == 0.0, np.abs(vel), np.sign(d) * vel)))


def relaxation_retro_sq(delta: float, t: float) -> float:
    """Two-state symmetric relaxation: recovery residual in closed form."""
    return 2.0 * delta**2 * (1.0 - np.exp(-4.0 * t)) ** 2


def _apply_superop(superop: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T[X] for a superoperator on row-major vectorizations."""
    d = x.shape[0]
    return (np.asarray(superop) @ x.reshape(-1)).reshape(d, d)


def choi_by_basis_sum(superop: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix (1/d) sum_jl T[E_jl] (x) E_jl, one matrix unit E_jl at a time."""
    c = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[j, l] = 1.0
            c += np.kron(_apply_superop(superop, e), e)
    return c / d


def semiclassical_lindbladian_kron(pairs, d: int) -> np.ndarray:
    """Superoperator sum a_ij (E_ij (x) E_ij - (1/2) a_ij (E_jj (x) I + I (x) E_jj)), three krons per rate.

    ``pairs`` maps (i, j) to a(i <- j); the rates are added in its order.
    """
    s = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for (i, j), a in pairs.items():
        e_ij = np.zeros((d, d), dtype=complex)
        e_ij[i, j] = 1.0
        e_jj = np.zeros((d, d), dtype=complex)
        e_jj[j, j] = 1.0
        s += a * np.kron(e_ij, e_ij)
        s -= 0.5 * a * (np.kron(e_jj, eye) + np.kron(eye, e_jj))
    return s


def lift_with_identity(superop: np.ndarray, d: int) -> np.ndarray:
    """Superoperator of T (x) Id on system (x) copy: a d^4 x d^4 matrix, rows ((a, b), (p, P))."""
    s4 = np.asarray(superop).reshape(d, d, d, d)
    eye = np.eye(d)
    return np.einsum("apcq,bd,PQ->abpPcdqQ", s4, eye, eye).reshape(d**4, d**4)


def transition_generator_by_column(superop: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Diagonal transition generator of T (x) Id in an orthonormal frame, one column at a time.

    ``superop`` is T on the system alone. Entry (a, b) is
    Re <f_a| L[|f_b><f_b|] |f_a> for the lift L of T - Id to the system and
    a copy, and the columns f_b of ``frame``. The identity is subtracted
    before the lift: subtracting the projector after it loses about
    1e-16 / dt relative to cancellation for a step of length dt.
    """
    total = frame.shape[0]
    d = math.isqrt(total)
    lifted = lift_with_identity(np.asarray(superop) - np.eye(d * d), d)
    gen = np.empty((total, total))
    for b in range(total):
        projector = np.outer(frame[:, b], frame[:, b].conj())
        moved = _apply_superop(lifted, projector)
        for a in range(total):
            gen[a, b] = np.vdot(frame[:, a], moved @ frame[:, a]).real
    return gen


def kmb_kernel(x: float, y: float) -> float:
    if abs(x - y) <= 1e-12 * (x + y):
        return 2.0 / (x + y)
    return (np.log(x) - np.log(y)) / (x - y)


def petz_direct(rho_eigs, a_tilde, b_tilde, kernel) -> float:
    """K^f(A, B) = (1/2) sum conj(A)_ij B_ij c_f(l_i, l_j) in the eigenbasis."""
    vals = np.asarray(rho_eigs, dtype=float)
    c = np.array([[kernel(x, y) for y in vals] for x in vals])
    return float(np.real(0.5 * np.sum(np.conj(a_tilde) * b_tilde * c)))


if __name__ == "__main__":
    r = counterexample()
    p = np.array([0.5, 0.5])

    print("== two-state fixtures ==")
    d = np.array([0.01, -0.01])
    sym = np.array([[-1.0, 1.0], [1.0, -1.0]])
    print("fisher_rate symmetric:", fisher_rate_direct(p, d, sym))
    print("  (fd check)         :", fisher_rate_fd(p, d, sym))
    print("form eigen symmetric :", form_eigen_direct(p, sym))
    print("form eigen asym      :", form_eigen_direct(p, r))
    print("trace fwd counter d=(0.1,-0.1):", forward_trace_rate_direct(np.array([0.1, -0.1]), r))

    print("== case study ==")
    t_star = np.pi / 20.0
    rates = case_study_rates(t_star)
    print("rates at pi/20:", rates, "min:", rates.min())

    print("== no-go sector eigenvalues ==")
    for m_dim in (0, 2, 4):
        if m_dim == 0:
            base = p
            gen = r
            sector = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        else:
            base = np.kron(p, np.full(m_dim, 1.0 / m_dim))
            gen = np.kron(r, np.eye(m_dim))
            u = np.array([1.0, -1.0]) / np.sqrt(2.0)
            sector = np.kron(u[:, None], np.eye(m_dim))
        eigs = form_eigen_direct(base, gen, sector)
        print(f"M={m_dim}: eigs {eigs}")

    print("== filter fixture ==")
    rbar = np.kron(r, np.eye(2))
    d4 = np.kron(np.array([0.0, 1.0]), np.array([0.1, -0.1]))
    for eps in (1e-2, 1e-3, 1e-4):
        print(f"eps={eps}: value/eps^2 =", filter_rate_direct(d4, rbar, eps) / eps**2)
    s = np.abs(d4).sum()
    print("2 * S * forward Sdot:", 2.0 * s * forward_trace_rate_direct(d4, rbar))

    print("== bayes ==")
    print(bayes_direct(np.array([[0.9, 0.2], [0.1, 0.8]]), p))
    print("fractions:", 9 / 11, 1 / 9, 2 / 11, 8 / 9)

    print("== retro relaxation ==")
    print("delta=0.01 t=0.5:", relaxation_retro_sq(0.01, 0.5))


def _rk4_nodes(rate, times):
    """``rate`` at the start, midpoint and end of each step of ``times``."""
    t_list = [float(t) for t in times]
    for t0, t1 in zip(t_list[:-1], t_list[1:]):
        h = t1 - t0
        yield h, rate(t0), rate(t0 + 0.5 * h), rate(t1)


def rk4_loop(rate, times) -> np.ndarray:
    """Fixed-step RK4 for dT/dt = R(t) T, one step at a time on the running matrix.

    The four stages act on the matrix itself, and each step spreads its
    column-sum drift evenly over the column before the next.
    """
    n = np.asarray(rate(float(times[0]))).shape[0]
    t_mat = np.eye(n)
    out = [t_mat]
    for h, r_start, r_mid, r_end in _rk4_nodes(rate, times):
        k1 = r_start @ t_mat
        k2 = r_mid @ (t_mat + 0.5 * h * k1)
        k3 = r_mid @ (t_mat + 0.5 * h * k2)
        k4 = r_end @ (t_mat + h * k3)
        t_mat = t_mat + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_mat = t_mat - (t_mat.sum(axis=0) - 1.0)[None, :] / n
        out.append(t_mat)
    return np.stack(out)


def rk4_product_drift(rate, times) -> float:
    """Largest column-sum drift of the uncorrected running product of RK4 step matrices.

    Step ``k`` is ``I + h/6 (K1 + 2 K2 + 2 K3 + K4)`` with ``K1 = R_s``,
    ``K2 = R_m + h/2 R_m K1``, ``K3 = R_m + h/2 R_m K2`` and
    ``K4 = R_e + h R_e K3``, built and applied one step at a time.
    """
    n = np.asarray(rate(float(times[0]))).shape[0]
    t_mat = np.eye(n)
    drift = 0.0
    for h, r_start, r_mid, r_end in _rk4_nodes(rate, times):
        k2 = r_mid + 0.5 * h * (r_mid @ r_start)
        k3 = r_mid + 0.5 * h * (r_mid @ k2)
        k4 = r_end + h * (r_end @ k3)
        t_mat = ((h / 6.0) * (r_start + 2.0 * (k2 + k3) + k4) + np.eye(n)) @ t_mat
        drift = max(drift, float(np.max(np.abs(t_mat.sum(axis=0) - 1.0))))
    return drift
