"""Independent reference computations used to pin expected test values.

Everything here is written directly from the defining formulas with plain
numpy, deliberately avoiding the library under test. Dual-route tests call
these alongside the package implementations; frozen literals in the test
files were produced by running this module as a script.
"""

from __future__ import annotations

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
    """Pull-back identity and self-adjointness defect of a round trip, one trial at a time.

    For each of ``trials`` zero-sum draws d: |<d, A d>_pi - <T d, T d>_{T pi}|
    with <x, y>_p = sum x y / (2 p); the result is the largest of these and
    of the asymmetry of A in the sqrt(2 pi)-scaled frame.
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
        worst = max(worst, abs(lhs - rhs))
    scale = 1.0 / np.sqrt(2.0 * pi)
    sym = scale[:, None] * a * (1.0 / scale)[None, :]
    return max(worst, float(np.max(np.abs(sym - sym.T))))


def bayes_direct(t_mat, pi):
    t_mat = np.asarray(t_mat, dtype=float)
    pi = np.asarray(pi, dtype=float)
    pushed = t_mat @ pi
    return pi[:, None] * t_mat.T / pushed[None, :]


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


def choi_by_reshape(superop: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix via pure index bookkeeping on the superoperator tensor."""
    s4 = superop.reshape(d, d, d, d)
    # C[(a,c),(b,e)] = S[(a,b),(c,e)] / d
    return s4.transpose(0, 2, 1, 3).reshape(d * d, d * d) / d


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
