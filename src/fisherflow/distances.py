"""Distances and contraction rates on the probability simplex.

The central objects are the Fisher metric

    <a, b>_p = sum_i a_i b_i / (2 p_i)

its local squared distance ``D2(p, p+d) = sum_i d_i^2 / (2 p_i)``, and the
decomposition of its time derivative under a generator into per-edge flows

    flow(i <- j) = (d_i/p_i - d_j/p_j)^2 p_j / 2,
    d/dt D2 = - sum_{i != j} rate(i <- j) * flow(i <- j).

Each flow is non-negative, so a negative rate is the only way the squared
distance can grow. Squared quantities are the standard here: every rate
returned by this module is the derivative of a squared distance.

Summing the flows edge by edge gives the closed form used for every rate
here: with ``u = d / p`` and edge weights ``W[i, j] = rate(i <- j) p_j``
(``i != j``),

    d/dt D2 = -1/2 u^T L u,

where ``L`` is the graph Laplacian of ``S = W + W^T``. On an orthonormal
basis ``B`` the contraction form is therefore ``-1/2 (P^-1 B)^T L (P^-1 B)``
with ``P = diag(p)``. A Laplacian with non-negative weights is positive
semidefinite, so a Markovian generator never has a positive form.

The trace distance ``sum_i |p_i - q_i|`` and the Bhattacharyya angle and
Hellinger distance are provided for comparison; only the Fisher rate admits
the edge-flow decomposition above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidIndexError,
    SingularBaseError,
)
from .simplex import INTERIOR_FLOOR, is_interior, prob_vec, rate_matrix, tangent_vec, zero_sum_basis

__all__ = [
    "trace_distance",
    "fisher_inner",
    "fisher_local_sq",
    "bhattacharyya",
    "hellinger",
    "fisher_flow",
    "fisher_rate",
    "fisher_rates",
    "TraceRate",
    "trace_rate",
    "forward_trace_rate",
    "ContractionForm",
    "contraction_form",
    "param_fisher_information",
]


def _check_same_dim(*arrays) -> int:
    n = arrays[0].shape[0]
    for a in arrays[1:]:
        if a.shape[0] != n:
            raise DimensionMismatchError(f"operands of length {n} and {a.shape[0]}")
    return n


def _require_interior(p: np.ndarray, floor: float = INTERIOR_FLOOR) -> None:
    if not is_interior(p, floor):
        # with batch axes, name the first base that touches the boundary
        rows = p.reshape(-1, p.shape[-1])
        first = rows[int(np.argmin(rows.min(axis=1) >= floor))]
        raise SingularBaseError(
            f"base distribution has an entry {np.min(first):.3e} below the interior floor {floor:.0e}"
        )


def trace_distance(p, q) -> float:
    """Total variation style distance ``sum_i |p_i - q_i|`` (no 1/2 factor)."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    _check_same_dim(a, b)
    return float(np.sum(np.abs(a - b)))


def fisher_inner(a, b, p) -> float:
    """Fisher inner product of two tangent vectors at an interior base point."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    base = np.asarray(p, dtype=float)
    _check_same_dim(x, y, base)
    _require_interior(base)
    return float(np.sum(x * y / (2.0 * base)))


def fisher_local_sq(p, d) -> float:
    """Squared Fisher distance between ``p`` and ``p + d`` in the local quadratic form."""
    return fisher_inner(d, d, p)


def bhattacharyya(p, q) -> float:
    """Geodesic angle ``sqrt(2) * arccos(sum_i sqrt(p_i q_i))``."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    _check_same_dim(a, b)
    overlap = float(np.sum(np.sqrt(np.clip(a, 0.0, None) * np.clip(b, 0.0, None))))
    return float(np.sqrt(2.0) * np.arccos(np.clip(overlap, -1.0, 1.0)))


def hellinger(p, q) -> float:
    """Chordal companion of the Bhattacharyya angle, ``2 sqrt(1 - overlap)``."""
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    _check_same_dim(a, b)
    overlap = float(np.sum(np.sqrt(np.clip(a, 0.0, None) * np.clip(b, 0.0, None))))
    return float(2.0 * np.sqrt(max(1.0 - overlap, 0.0)))


def fisher_flow(p, d, i: int, j: int) -> float:
    """Non-negative Fisher flow carried by the edge ``j -> i`` for displacement ``d``."""
    base = np.asarray(p, dtype=float)
    disp = np.asarray(d, dtype=float)
    n = _check_same_dim(base, disp)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise InvalidIndexError(f"need distinct indices in range, got ({i}, {j}) for dimension {n}")
    _require_interior(base)
    return float(0.5 * (disp[i] / base[i] - disp[j] / base[j]) ** 2 * base[j])


def _edge_laplacian(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    # Laplacian of S = W + W^T with W[i, j] = r[i, j] p[j] off the diagonal;
    # the rate of d at p is -1/2 u^T L u with u = d / p. Leading axes of p
    # and r are batch axes.
    diag = np.arange(p.shape[-1])
    w = r * p[..., None, :]
    w[..., diag, diag] = 0.0
    s = w + np.swapaxes(w, -1, -2)
    lap = np.zeros_like(s)
    lap[..., diag, diag] = s.sum(axis=-1)
    return lap - s


def fisher_rate(p, d, r) -> float:
    """Time derivative of the squared Fisher distance between ``p`` and ``p + d``.

    Both the base point and the displacement evolve under the generator
    ``r``. Equal to ``- sum_{i != j} r[i, j] * fisher_flow(p, d, i, j)``.
    """
    base = np.asarray(p, dtype=float)
    disp = np.asarray(d, dtype=float)
    gen = np.asarray(r, dtype=float)
    _check_same_dim(base, disp, gen)
    _require_interior(base)
    u = disp / base
    return float(-0.5 * (u @ _edge_laplacian(base, gen) @ u))


class TraceRate(NamedTuple):
    value: float
    smooth: bool


def trace_rate(d, r) -> TraceRate:
    """One-sided derivative of the trace distance, using sign(0) = 0.

    ``smooth`` is False when some component of ``d`` vanishes; there the
    trace distance has a kink and the sign convention matters (see
    :func:`forward_trace_rate` for the forward derivative).
    """
    disp = np.asarray(d, dtype=float)
    gen = np.asarray(r, dtype=float)
    _check_same_dim(disp, gen)
    signs = np.sign(disp)
    value = float(signs @ (gen @ disp))
    return TraceRate(value=value, smooth=bool(np.all(disp != 0.0)))


def forward_trace_rate(d, r) -> float:
    """Forward-in-time derivative of the trace distance.

    Components of ``d`` that are exactly zero contribute ``|velocity|``:
    immediately after t the evolved component is nonzero and its absolute
    value grows at that speed.
    """
    disp = np.asarray(d, dtype=float)
    gen = np.asarray(r, dtype=float)
    _check_same_dim(disp, gen)
    vel = gen @ disp
    zero = disp == 0.0
    return float(np.sign(disp) @ vel + np.sum(np.abs(vel[zero])))


def fisher_rates(p, dirs, r) -> np.ndarray:
    """Vectorized :func:`fisher_rate` over the rows of ``dirs``.

    Useful for sweeps that evaluate many displacements at one base point;
    agrees entrywise with calling ``fisher_rate`` row by row. Leading axes
    are batch axes: bases ``(..., n)``, directions ``(..., m, n)`` and
    generators ``(..., n, n)`` give rates ``(..., m)``.
    """
    base = np.asarray(p, dtype=float)
    gen = np.asarray(r, dtype=float)
    stack = np.atleast_2d(np.asarray(dirs, dtype=float))
    n = base.shape[-1]
    if stack.shape[-1] != n:
        raise DimensionMismatchError(f"direction rows have length {stack.shape[-1]}, base has {n}")
    if gen.shape[-2:] != (n, n):
        raise DimensionMismatchError(f"generator of shape {gen.shape} for dimension {n}")
    _require_interior(base)
    u = stack / base[..., None, :]
    return -0.5 * np.einsum("...mi,...mi->...m", u @ _edge_laplacian(base, gen), u)


@dataclass(frozen=True)
class ContractionForm:
    """Quadratic form giving the squared-Fisher-distance rate at a base point.

    ``matrix`` represents the form on the orthonormal basis ``basis`` of the
    zero-sum subspace (or of a chosen subspace of it): for any displacement
    ``d`` in the span, ``evaluate(d) == fisher_rate(base, d, generator)``.
    A positive top eigenvalue certifies a direction along which the squared
    Fisher distance grows.
    """

    base: np.ndarray
    generator: np.ndarray
    basis: np.ndarray
    matrix: np.ndarray

    def evaluate(self, d) -> float:
        coeffs = self.basis.T @ np.asarray(d, dtype=float)
        return float(coeffs @ self.matrix @ coeffs)

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = np.linalg.eigh(self.matrix)
        return vals, vecs

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eig[0]

    @property
    def lambda_max(self) -> float:
        return float(self._eig[0][-1])

    @property
    def max_direction(self) -> np.ndarray:
        """Unit-norm zero-sum direction attaining ``lambda_max``."""
        vec = self.basis @ self._eig[1][:, -1]
        lead = vec[np.argmax(np.abs(vec))]
        if lead < 0.0:
            vec = -vec
        return vec


def contraction_form(p, r, basis: np.ndarray | None = None) -> ContractionForm:
    """Assemble the rate form ``-1/2 (P^-1 B)^T L (P^-1 B)`` on a basis ``B``.

    ``L`` is the edge Laplacian described in the module docstring and
    ``P = diag(p)``. ``basis`` defaults to an orthonormal basis of the full
    zero-sum subspace; passing a smaller orthonormal zero-sum basis
    restricts the form to that sector.
    """
    base = prob_vec(p)
    gen = rate_matrix(r)
    n = _check_same_dim(base, gen)
    _require_interior(base)
    b = zero_sum_basis(n) if basis is None else np.asarray(basis, dtype=float)
    if b.shape[0] != n:
        raise DimensionMismatchError(f"basis rows {b.shape[0]} != dimension {n}")
    v = b / base[:, None]
    m = -0.5 * (v.T @ _edge_laplacian(base, gen) @ v)
    # exact symmetry keeps eigh independent of which triangle it reads
    m = 0.5 * (m + m.T)
    return ContractionForm(base=base, generator=gen, basis=b, matrix=m)


def param_fisher_information(
    curve: Callable[[float], np.ndarray],
    theta: float,
    h: float = 1e-5,
    method: str = "gradient",
) -> float:
    """Fisher information of a one-parameter family of distributions.

    ``method="gradient"`` uses the central-difference derivative in
    ``sum_i (dp_i/dtheta)^2 / p_i``; ``method="distance"`` estimates the
    same quantity as ``2 * D2(p(theta), p(theta + h)) / h^2``. The two
    agree in the small-``h`` limit and serve as mutual cross-checks.
    """
    p0 = prob_vec(curve(theta))
    _require_interior(p0)
    if method == "gradient":
        plus = prob_vec(curve(theta + h))
        minus = prob_vec(curve(theta - h))
        grad = (plus - minus) / (2.0 * h)
        return float(np.sum(grad**2 / p0))
    if method == "distance":
        plus = prob_vec(curve(theta + h))
        return float(2.0 * fisher_local_sq(p0, plus - p0) / h**2)
    raise DomainError(f"unknown method {method!r}")
