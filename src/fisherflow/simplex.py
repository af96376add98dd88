"""Probability simplex primitives: states, tangent vectors, maps, generators.

Conventions used throughout the package:

* Transition matrices are column stochastic: ``T[i, j]`` is the
  probability of moving to ``i`` given ``j``, columns sum to one, and
  states evolve by left multiplication ``T @ p``.
* Generators have vanishing column sums; the off-diagonal entry
  ``R[i, j]`` is the instantaneous rate from ``j`` into ``i``.
* Composite spaces are flattened row-major with the system index
  outermost, exactly as produced by ``numpy.kron``.
* All indices are 0-based.

Constructors validate and return read-only arrays; operations are pure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DimensionMismatchError,
    FisherflowError,
    InvalidGeneratorError,
    InvalidStateError,
    InvalidStochasticMatrixError,
    InvalidTangentError,
    ResourceLimitError,
)

#: Entries below this are treated as touching the simplex boundary.
INTERIOR_FLOOR = 1e-12

#: Negative entries no deeper than this are clamped to zero on validation.
NEGATIVE_CLAMP = 1e-12

#: Column sums of stochastic matrices / generators must match to this.
COLUMN_TOL = 1e-9

#: Hard cap on the dimension of an extended generator.
MAX_TENSOR_DIM = 4096

#: Entries no larger than this in magnitude cannot sum past the float range
#: over any vector or column that fits in memory (fewer than 1e8 terms).
_SUM_SAFE = 1e300


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_vector(entries, name: str) -> tuple[np.ndarray, float]:
    """``entries`` as a finite float vector of length >= 2, and the sum of its entries.

    The sum is infinite, with no warning, when it overflows.
    """
    v = np.array(entries, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DimensionMismatchError(f"{name} must be a 1-d vector of length >= 2, got shape {v.shape}")
    # one pass tests finiteness and a size at which no sum overflows (a NaN fails the comparison)
    if np.abs(v).max() <= _SUM_SAFE:
        return v, v.sum()
    if not np.isfinite(v).all():
        raise InvalidStateError(f"{name} contains non-finite entries")
    with np.errstate(over="ignore"):
        return v, v.sum()


def _as_square(entries, name: str, stack: bool = False) -> np.ndarray:
    """``entries`` as a float square matrix, or with ``stack`` also as a ``(T, n, n)`` stack of them."""
    m = np.array(entries, dtype=float)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 2:
        raise DimensionMismatchError(f"{name} must be square with size >= 2, got shape {m.shape}")
    return m


def _failures(m: np.ndarray, name: str, *rules) -> dict[int, FisherflowError]:
    """The error of every matrix of ``m`` (one matrix or a stack) that breaks a rule, by index.

    Each matrix is checked for non-finite entries first and then against
    ``rules`` in order, and gets the error of the first check it fails. A
    rule maps finite matrices, one or a stack, to a flag per matrix, true
    where the matrix breaks the rule, and a function building the error of
    matrix ``k``.
    """
    # finite entries may still sum past the float range; such a sum is inf and breaks its rule
    with np.errstate(over="ignore"):
        if np.isfinite(m).all():
            broken = [rule(m) for rule in rules]
            if not any(bad.any() for bad, _ in broken):
                return {}
        stack = m.reshape((-1,) + m.shape[-2:])
        finite = np.isfinite(stack).all(axis=(1, 2))
        # zeros stand in for the non-finite matrices, which fail as such before any rule
        broken = [rule(np.where(finite[:, None, None], stack, 0.0)) for rule in rules]
    failing = ~finite
    for bad, _ in broken:
        failing = failing | bad
    return {
        k: InvalidStateError(f"{name} contains non-finite entries")
        if not finite[k]
        else next(error(k) for bad, error in broken if bad[k])
        for k in np.flatnonzero(failing).tolist()
    }


def _raise_first(errors: dict[int, FisherflowError]) -> None:
    if errors:
        raise errors[min(errors)]


def prob_vec(entries) -> np.ndarray:
    """Validate and renormalize a probability vector.

    Entries more negative than ``-NEGATIVE_CLAMP`` are rejected; tiny
    negatives are clamped to zero before renormalization.
    """
    p, total = _as_vector(entries, "state")
    low = p.min()
    if low < -NEGATIVE_CLAMP:
        raise InvalidStateError(f"state has a negative entry {low:.3e}")
    if total == np.inf:
        raise InvalidStateError("state's total mass overflows")
    if low < 0.0:
        p = np.where(p < 0.0, 0.0, p)
        total = p.sum()
    if total <= 0.0:
        raise InvalidStateError("state has zero total mass")
    return _freeze(p / total)


def is_interior(p: np.ndarray, floor: float = INTERIOR_FLOOR) -> bool:
    """True when every entry stays clear of the simplex boundary."""
    return bool(np.min(p) >= floor)


def tangent_vec(entries) -> np.ndarray:
    """Validate a displacement on the simplex: its entries sum to zero within 1e-12."""
    d, total = _as_vector(entries, "tangent vector")
    if abs(total) > 1e-12:
        raise InvalidTangentError(f"entries sum to {total:.3e}, expected 0 within 1e-12")
    return _freeze(d)


def stochastic_matrix(entries, *, stack: bool = False) -> np.ndarray:
    """Validate a column-stochastic matrix, clamping float-noise negatives.

    With ``stack`` a ``(T, n, n)`` stack is validated as well, each matrix
    under the same rules; it fails with the error of its first failing matrix.
    """
    m = _as_square(entries, "stochastic matrix", stack)

    def entries_in_window(s):
        low = s.min(axis=(-2, -1))
        return low < -NEGATIVE_CLAMP, lambda k: InvalidStochasticMatrixError(
            f"entry {low[k]:.3e} below the clamp window"
        )

    def column_sums(s):
        dev = np.abs(np.where(s < 0.0, 0.0, s).sum(axis=-2) - 1.0).max(axis=-1)
        return dev > COLUMN_TOL, lambda k: InvalidStochasticMatrixError(
            f"column sums off by {dev[k]:.3e} (tolerance {COLUMN_TOL:.0e})"
        )

    _raise_first(_failures(m, "stochastic matrix", entries_in_window, column_sums))
    return _freeze(np.where(m < 0.0, 0.0, m))


def rate_matrix(entries, col_tol: float = COLUMN_TOL) -> np.ndarray:
    """Validate a generator: column sums must vanish. Signs are not restricted.

    A stack of generators is checked by :func:`rate_matrix_failures`.
    """
    r = _as_square(entries, "rate matrix")
    # entries finite and small enough that no column sum overflows, tested
    # first in one pass (a NaN fails the comparison), so that no sum meets a
    # non-finite entry or warns; any other matrix, rejected or not, goes
    # through the stack check, which names its error
    if not (np.abs(r).max() <= _SUM_SAFE and np.abs(r.sum(axis=0)).max() <= col_tol):
        _raise_first(rate_matrix_failures(r, col_tol))
    return _freeze(r)


def rate_matrix_failures(stack: np.ndarray, col_tol: float = COLUMN_TOL) -> dict[int, FisherflowError]:
    """The error :func:`rate_matrix` raises on each matrix of a float ``(T, n, n)`` stack that it rejects.

    Keyed by index; empty when every matrix passes.
    """

    def column_sums(s):
        dev = np.abs(s.sum(axis=-2)).max(axis=-1)
        return dev > col_tol, lambda k: InvalidGeneratorError(
            f"column sums off by {dev[k]:.3e} (tolerance {col_tol:.0e})"
        )

    return _failures(stack, "rate matrix", column_sums)


def rate_matrix_from_rates(rates: Mapping[tuple[int, int], float], dim: int) -> np.ndarray:
    """Assemble a generator from off-diagonal rates; diagonal balances each column."""
    r = np.zeros((dim, dim))
    for (i, j), a in rates.items():
        if not (0 <= i < dim and 0 <= j < dim) or i == j:
            raise InvalidGeneratorError(f"rate index ({i}, {j}) invalid for dimension {dim}")
        r[i, j] = float(a)
    np.fill_diagonal(r, 0.0)
    np.fill_diagonal(r, -r.sum(axis=0))
    return _freeze(r)


def rates_of(r) -> dict[tuple[int, int], float]:
    """Return the complete off-diagonal rate map {(i, j): rate from j into i}."""
    m = rate_matrix(r)
    n = m.shape[0]
    return {(i, j): float(m[i, j]) for i in range(n) for j in range(n) if i != j}


class GeneratorCheck(NamedTuple):
    markovian: bool
    negative_rates: dict[tuple[int, int], float]

    @property
    def offender(self) -> tuple[tuple[int, int], float] | None:
        """Index and value of the most negative rate, first in row-major order on ties; None if Markovian."""
        if self.markovian:
            return None
        idx = min(self.negative_rates, key=self.negative_rates.get)
        return idx, self.negative_rates[idx]


def is_markovian_generator(r, rate_tol: float = 1e-9) -> GeneratorCheck:
    """Decide whether all off-diagonal rates are non-negative within tolerance.

    Returns the verdict together with the offending entries, so callers can
    report which transitions carry negative rates.
    """
    return _generator_check(rate_matrix(r), rate_tol)


def _generator_check(m: np.ndarray, rate_tol: float = 1e-9) -> GeneratorCheck:
    """:func:`is_markovian_generator` of a generator ``m`` that :func:`rate_matrix` has accepted."""
    negative = m < -rate_tol
    np.fill_diagonal(negative, False)
    rows, cols = np.nonzero(negative)  # row-major, as rates_of lists them
    off = dict(zip(zip(rows.tolist(), cols.tolist()), m[rows, cols].tolist()))
    return GeneratorCheck(markovian=not off, negative_rates=off)


def extend_generator(r, copies: int = 1, ancilla_dim: int = 0, max_dim: int = MAX_TENSOR_DIM) -> np.ndarray:
    """Generator of ``copies`` independent replicas plus an idle ancilla.

    Each replica evolves under ``r``; the ancilla (dimension ``ancilla_dim``,
    0 meaning absent) is untouched. The result acts on the row-major
    composite space.
    """
    m = rate_matrix(r)
    n = m.shape[0]
    if copies < 1:
        raise DimensionMismatchError("copies must be >= 1")
    if ancilla_dim < 0:
        raise DimensionMismatchError("ancilla_dim must be >= 0")
    total = n**copies * max(ancilla_dim, 1)
    if total > max_dim:
        raise ResourceLimitError(f"tensor dimension {total} exceeds the limit {max_dim}")
    return _freeze(_extended(m, copies, ancilla_dim))


def _extended(m: np.ndarray, copies: int, ancilla_dim: int = 0) -> np.ndarray:
    """:func:`extend_generator` of a generator ``m`` that :func:`rate_matrix` has accepted.

    The replicas' generator is the sum over l of I x ... x m x ... x I with
    ``m`` in factor l. Term l adds ``m[x, y]`` at row (i, x, j) and column
    (i, y, j) for every index i of the factors before l and j of those
    after it; those entries form a strided view of the output, so each
    term is one broadcast addition, made in order of l.
    """
    n = m.shape[0]
    dim = n**copies
    out = np.zeros((dim, dim))
    item = out.itemsize
    for l in range(copies):
        after = n ** (copies - l - 1)
        term = as_strided(
            out,
            shape=(n**l, after, n, n),
            strides=(item * n * after * (dim + 1), item * (dim + 1), item * after * dim, item * after),
        )
        term += m
    if ancilla_dim >= 1:
        # kron(out, I) as one broadcast product
        total = dim * ancilla_dim
        out = (out[:, None, :, None] * np.eye(ancilla_dim)[:, None, :]).reshape(total, total)
    return out


@lru_cache(maxsize=64)
def zero_sum_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum subspace, as columns of an (n, n-1) array.

    Column k is proportional to (1, ..., 1, -(k+1), 0, ..., 0) with k+1 leading
    ones; the construction is deterministic and exact up to rounding.
    """
    if n < 2:
        raise DimensionMismatchError("zero-sum subspace needs n >= 2")
    b = np.zeros((n, n - 1))
    for k in range(1, n):
        b[:k, k - 1] = 1.0
        b[k, k - 1] = -float(k)
        b[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return _freeze(b)
