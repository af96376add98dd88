"""Reference computations the benchmark checks the program against.

Every routine is written from the defining formula with numpy and scipy
alone; none of them imports fisherflow. They take another route than the
library wherever one exists:

* the case-study family is evaluated in closed form, not through
  ``MixingDynamics``;
* the Fisher rate is differentiated directly, not split into edge flows;
* the contraction form is the closed Laplacian expression, not
  polarization;
* constant-generator propagators come from an eigendecomposition, not
  ``expm``;
* the time-dependent propagator comes from an adaptive high-order solver,
  not fixed-step RK4;
* the Choi matrix is an index reshuffle of the superoperator, not a sum
  over matrix units, and the channel exponential is a Taylor series.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import null_space

_V1 = np.full(3, 1.0 / 3.0)
_V2 = np.array([1.0, 0.0, 0.0])
_FREQ = 10.0


# --------------------------------------------------------------------------
# case-study family  T(t) = (1 - s) Id + s m 1^T,  s = 1 - exp(-t)


def case_study_weight(t):
    return 1.0 - np.exp(-np.asarray(t, dtype=float))


def case_study_target(t) -> np.ndarray:
    """Target m(t) for every time in ``t``, shape (len(t), 3)."""
    c = np.cos(_FREQ * np.atleast_1d(np.asarray(t, dtype=float)))
    return 0.5 * ((1.0 + c)[:, None] * _V1 + (1.0 - c)[:, None] * _V2)


def case_study_columns(t) -> np.ndarray:
    """Off-diagonal rate column c(t): rate(i <- j) = c_i for every j != i.

    With s = 1 - exp(-t), sdot / (1 - s) = 1, so c = m + s mdot.
    """
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    mdot = 0.5 * (-_FREQ * np.sin(_FREQ * tt))[:, None] * (_V1 - _V2)
    return case_study_target(tt) + case_study_weight(tt)[:, None] * mdot


def case_study_generators(t) -> np.ndarray:
    """Generators R(t), shape (len(t), 3, 3), with zero column sums."""
    cols = case_study_columns(t)
    gens = np.repeat(cols[:, :, None], 3, axis=2)
    idx = np.arange(3)
    gens[:, idx, idx] = cols - cols.sum(axis=1, keepdims=True)
    return gens


def case_study_base(t, p0) -> np.ndarray:
    """Evolved state (1 - s) p0 + s m(t), shape (len(t), 3)."""
    s = np.atleast_1d(case_study_weight(t))[:, None]
    return (1.0 - s) * np.asarray(p0, dtype=float)[None, :] + s * case_study_target(t)


def case_study_trace_law(t, d0) -> np.ndarray:
    """Trace size of every evolved displacement: (1 - s(t)) * sum|d0|, shape (len(t), len(d0))."""
    s = np.atleast_1d(case_study_weight(t))
    return (1.0 - s)[:, None] * np.abs(np.atleast_2d(d0)).sum(axis=1)[None, :]


def negative_windows(times, min_rates, rate_tol: float) -> list[list[float]]:
    """Maximal runs of grid times whose smallest rate is below ``-rate_tol``."""
    out: list[list[float]] = []
    start = prev = None
    for t, low in zip(np.asarray(times, dtype=float), min_rates):
        if low < -rate_tol:
            start = float(t) if start is None else start
            prev = float(t)
        elif start is not None:
            out.append([start, prev])
            start = None
    if start is not None:
        out.append([start, prev])
    return out


# --------------------------------------------------------------------------
# Fisher rate and contraction form


def fisher_rate_direct(p, d, r) -> np.ndarray:
    """d/dt of sum d^2 / (2 p) along pdot = R p, ddot = R d, for each row of ``d``.

    Equals sum d (R d) / p - 1/2 sum d^2 (R p) / p^2.
    """
    p = np.asarray(p, dtype=float)
    dd = np.atleast_2d(np.asarray(d, dtype=float))
    r = np.asarray(r, dtype=float)
    pdot = r @ p
    ddot = dd @ r.T
    return (dd * ddot / p).sum(axis=1) - 0.5 * (dd**2 * pdot / p**2).sum(axis=1)


def edge_laplacian(p, r) -> np.ndarray:
    """Graph Laplacian with edge weights W_ij = R_ij p_j + R_ji p_i."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    w = r * p[None, :]
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    return np.diag(w.sum(axis=1)) - w


def laplacian_form(p, r, basis=None) -> np.ndarray:
    """Closed contraction form -1/2 (P^-1 B)^T L (P^-1 B) on an orthonormal zero-sum basis B.

    The rate is -1/2 u^T L u with u = d / p, because each edge carries
    (u_i - u_j)^2 weighted by both directed rates.
    """
    p = np.asarray(p, dtype=float)
    b = zero_sum_space(p.shape[0]) if basis is None else np.asarray(basis, dtype=float)
    u = b / p[:, None]
    form = -0.5 * u.T @ edge_laplacian(p, r) @ u
    return 0.5 * (form + form.T)


def laplacian_spectrum(p, r, basis=None) -> np.ndarray:
    return np.linalg.eigvalsh(laplacian_form(p, r, basis))


def zero_sum_space(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum subspace as the null space of 1^T."""
    return null_space(np.ones((1, n)))


def vanishing_ancilla_marginal_space(sys_dim: int, ancilla_dim: int) -> np.ndarray:
    """Orthonormal basis of the directions d[s, a] with sum_s d[s, a] = 0 for each a."""
    marginal = np.kron(np.ones((1, sys_dim)), np.eye(ancilla_dim))
    return null_space(marginal)


def replicate_generator(r, copies: int, ancilla_dim: int) -> np.ndarray:
    """Generator of ``copies`` independent replicas and an idle ancilla, row-major Kronecker order."""
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    total = np.zeros((n**copies, n**copies))
    for slot in range(copies):
        total += np.kron(np.kron(np.eye(n**slot), r), np.eye(n ** (copies - slot - 1)))
    return np.kron(total, np.eye(ancilla_dim)) if ancilla_dim >= 2 else total


def replicate_base(pi, copies: int, ancilla_dim: int) -> np.ndarray:
    base = np.asarray(pi, dtype=float)
    out = base
    for _ in range(copies - 1):
        out = np.kron(out, base)
    return np.kron(out, np.full(ancilla_dim, 1.0 / ancilla_dim)) if ancilla_dim >= 2 else out


def forward_trace_rate(d, r) -> float:
    """Forward derivative of sum|d|: zero components count with |velocity|."""
    d = np.asarray(d, dtype=float)
    vel = np.asarray(r, dtype=float) @ d
    return float(np.sum(np.where(d == 0.0, np.abs(vel), np.sign(d) * vel)))


# --------------------------------------------------------------------------
# propagators and recovery maps


def eig_propagator(r, t) -> np.ndarray:
    """exp(t R) from the eigendecomposition of R (diagonalizable R)."""
    vals, vecs = np.linalg.eig(np.asarray(r, dtype=float))
    mat = vecs @ np.diag(np.exp(vals * float(t))) @ np.linalg.inv(vecs)
    return mat.real


def bayes_inverse(t_mat, pi) -> np.ndarray:
    """Recovery map pi_i T_ji / (T pi)_j."""
    t_mat = np.asarray(t_mat, dtype=float)
    pi = np.asarray(pi, dtype=float)
    return pi[:, None] * t_mat.T / (t_mat @ pi)[None, :]


def recovery_spectrum(t_mat, pi) -> np.ndarray:
    """Eigenvalues of the round trip bayes_inverse(T) T on zero-sum directions.

    The round trip is self-adjoint in <a, b> = sum a b / (2 pi); its matrix
    is taken on a zero-sum basis made orthonormal in that inner product by
    the inverse square root of its Gram matrix.
    """
    pi = np.asarray(pi, dtype=float)
    q = zero_sum_space(pi.shape[0])
    weight = np.diag(1.0 / (2.0 * pi))
    gvals, gvecs = np.linalg.eigh(q.T @ weight @ q)
    v = q @ gvecs @ np.diag(gvals**-0.5) @ gvecs.T
    a = bayes_inverse(t_mat, pi) @ np.asarray(t_mat, dtype=float)
    m = v.T @ weight @ a @ v
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def ode_propagators(rate_fn, n: int, times) -> np.ndarray:
    """Propagators of dT/dt = R(t) T at ``times`` from an adaptive DOP853 solve."""
    times = np.asarray(times, dtype=float)

    def rhs(t, y):
        return (np.asarray(rate_fn(t), dtype=float) @ y.reshape(n, n)).ravel()

    sol = solve_ivp(
        rhs, (times[0], times[-1]), np.eye(n).ravel(), method="DOP853",
        t_eval=times, rtol=1e-12, atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"reference ODE solve failed: {sol.message}")
    return sol.y.T.reshape(times.size, n, n)


# --------------------------------------------------------------------------
# quantum channels (row-major vectorization: vec(X)[i * d + j] = X[i, j])


def superoperator_of(action, d: int) -> np.ndarray:
    """Matrix of a linear map on d x d matrices, one column per matrix unit."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[k, l] = 1.0
            s[:, k * d + l] = action(unit).reshape(-1)
    return s


def semiclassical_superoperator(rates, d: int) -> np.ndarray:
    """L(rho) = sum a_ij (E_ij rho E_ji - 1/2 {E_jj, rho}) for rate triples (i, j, a_ij)."""

    def action(rho):
        out = np.zeros_like(rho)
        for i, j, a in rates:
            out[i, i] += a * rho[j, j]
            out[j, :] -= 0.5 * a * rho[j, :]
            out[:, j] -= 0.5 * a * rho[:, j]
        return out

    return superoperator_of(action, d)


def taylor_exp(m: np.ndarray, terms: int = 30) -> np.ndarray:
    """exp(m) by scaling, a truncated Taylor series, and squaring."""
    norm = float(np.abs(m).sum(axis=0).max())
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    x = m / 2.0**squarings
    out = np.eye(m.shape[0], dtype=m.dtype)
    term = out.copy()
    for k in range(1, terms + 1):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def choi_by_reshape(s: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix (1/d) sum_kl T(E_kl) (x) E_kl as a reshuffle of the superoperator.

    C[(i, k), (j, l)] = S[(i, j), (k, l)] / d.
    """
    c = np.asarray(s).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d) / d
    return 0.5 * (c + c.conj().T)
