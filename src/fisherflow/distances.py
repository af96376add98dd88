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

The trace-distance rates are provided for comparison; only the Fisher
rate admits the edge-flow decomposition above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, SingularBaseError
from .simplex import INTERIOR_FLOOR, prob_vec, rate_matrix, tangent_vec, zero_sum_basis

__all__ = [
    "fisher_inner",
    "fisher_rate",
    "fisher_rates",
    "TraceRate",
    "trace_rate",
    "forward_trace_rate",
    "ContractionForm",
    "contraction_form",
]


def _check_same_dim(*arrays) -> int:
    n = arrays[0].shape[0]
    for a in arrays[1:]:
        if a.shape[0] != n:
            raise DimensionMismatchError(f"operands of length {n} and {a.shape[0]}")
    return n


def _require_interior(p: np.ndarray, floor: float = INTERIOR_FLOOR) -> None:
    if not p.min(initial=np.inf) >= floor:  # a NaN entry fails too; an empty stack passes
        # with batch axes, name the first base that touches the boundary
        rows = p.reshape(-1, p.shape[-1])
        first = rows[int(np.argmin(rows.min(axis=1) >= floor))]
        raise SingularBaseError(
            f"base distribution has an entry {np.min(first):.3e} below the interior floor {floor:.0e}"
        )


def fisher_inner(a, b, p) -> float:
    """Fisher inner product of two tangent vectors at an interior base point."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    base = np.asarray(p, dtype=float)
    _check_same_dim(x, y, base)
    _require_interior(base)
    return float(np.sum(x * y / (2.0 * base)))


def _diagonal(a: np.ndarray) -> np.ndarray:
    # writable view of the diagonals of a C-contiguous stack of square matrices
    n = a.shape[-1]
    return a.reshape(a.shape[:-2] + (n * n,))[..., :: n + 1]


def _edge_laplacian(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    # Laplacian of S = W + W^T with W[i, j] = r[i, j] p[j] off the diagonal;
    # the rate of d at p is -1/2 u^T L u with u = d / p. Leading axes of p
    # and r are batch axes.
    w = np.multiply(r, p[..., None, :], order="C")
    _diagonal(w)[...] = 0.0
    s = w + np.swapaxes(w, -1, -2)
    # 0 - s rather than -s: an edge of weight +0.0 reads +0.0 in L
    lap = np.subtract(0.0, s, order="C")
    _diagonal(lap)[...] = s.sum(axis=-1)
    return lap


def fisher_rate(p, d, r) -> float:
    """Time derivative of the squared Fisher distance between ``p`` and ``p + d``.

    Both the base point and the displacement evolve under the generator
    ``r``. Equal to ``- sum_{i != j} r[i, j] * flow(i <- j)`` with the
    per-edge flows of the module docstring.
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

    ``d`` is checked as a tangent vector and ``r`` as a generator.
    ``smooth`` is False when some component of ``d`` vanishes; there the
    trace distance has a kink and the sign convention matters (see
    :func:`forward_trace_rate` for the forward derivative).
    """
    disp, gen = _trace_operands(d, r)
    value = float(np.sign(disp) @ (gen @ disp))
    return TraceRate(value=value, smooth=bool(np.all(disp != 0.0)))


def forward_trace_rate(d, r) -> float:
    """Forward-in-time derivative of the trace distance.

    ``d`` is checked as a tangent vector and ``r`` as a generator.
    Components of ``d`` that are exactly zero contribute ``|velocity|``:
    immediately after t the evolved component is nonzero and its absolute
    value grows at that speed.
    """
    return _forward_trace_rate(*_trace_operands(d, r))


def _trace_operands(d, r) -> tuple[np.ndarray, np.ndarray]:
    disp = tangent_vec(d)
    gen = rate_matrix(r)
    _check_same_dim(disp, gen)
    return disp, gen


def _forward_trace_rate(disp: np.ndarray, gen: np.ndarray) -> float:
    """:func:`forward_trace_rate` of a tangent vector and a generator that are already accepted."""
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

    ``matrix`` represents the form on the basis ``basis`` of the zero-sum
    subspace (or of a chosen subspace of it): for coordinates ``c``,
    ``c @ matrix @ c == fisher_rate(base, basis @ c, generator)``. A
    positive top eigenvalue certifies a direction along which the squared
    Fisher distance grows.
    """

    base: np.ndarray
    generator: np.ndarray
    basis: np.ndarray
    matrix: np.ndarray

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigh(self.matrix)[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def contraction_form(p, r, basis: np.ndarray | None = None) -> ContractionForm:
    """Assemble the rate form ``-1/2 (P^-1 B)^T L (P^-1 B)`` on a basis ``B``.

    ``L`` is the edge Laplacian described in the module docstring and
    ``P = diag(p)``. ``basis`` defaults to an orthonormal basis of the full
    zero-sum subspace; passing a smaller orthonormal zero-sum basis
    restricts the form to that sector. A zero-sum basis ``B`` that is not
    orthonormal gives the congruent form ``G^T M G``, where ``M`` is the
    form on an orthonormal basis ``U`` of the same span and ``G = U^T B``:
    ``c^T (G^T M G) c`` is still the rate of ``B c``, and for ``B`` of full
    rank the eigenvalues keep their signs (Sylvester's law of inertia) but
    not their values. The retrodiction check relies on this: its recovery
    curvature is the negated form at ``T pi`` on the basis ``T B_pi``,
    computed as ``G^T M G`` from the orthonormal form.
    """
    base = prob_vec(p)
    gen = rate_matrix(r)
    n = _check_same_dim(base, gen)
    _require_interior(base)
    b = zero_sum_basis(n) if basis is None else np.asarray(basis, dtype=float)
    if b.shape[0] != n:
        raise DimensionMismatchError(f"basis rows {b.shape[0]} != dimension {n}")
    m = _form_matrix(base, _edge_laplacian(base, gen), b)
    return ContractionForm(base=base, generator=gen, basis=b, matrix=m)


def _form_matrix(base: np.ndarray, lap: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The form ``-1/2 (P^-1 B)^T L (P^-1 B)`` from ``lap`` at an accepted interior ``base``; leading axes batch."""
    v = basis / base[..., :, None]
    m = -0.5 * (v.swapaxes(-1, -2) @ lap @ v)
    # exact symmetry keeps eigh independent of which triangle it reads
    return 0.5 * (m + m.swapaxes(-1, -2))

