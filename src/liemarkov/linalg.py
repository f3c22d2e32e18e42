"""Dense real matrix kernels.

Exponential, principal logarithm, commutators, numerical rank and
least-squares span membership for small dense matrices. All functions are
pure and operate on plain ``numpy`` arrays; nothing here knows about
Markov models or sum conventions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_MEMBERSHIP_TOL = 1e-8
DEFAULT_RANK_RTOL = 1e-10

_EXP_SCALE_TARGET = 0.5
_LOG_SQRT_TARGET = 0.25
_SERIES_CUTOFF = 1e-18
_NEG_AXIS_MARGIN = 1e-12


class PrincipalLogError(ValueError):
    """The principal matrix logarithm does not exist for the input."""


def check_square(a) -> np.ndarray:
    """Validate and return a finite real square matrix of order >= 2."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("matrix order must be at least 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = check_square(a)
    b = check_square(b)
    if a.shape != b.shape:
        raise ValueError(f"incompatible matrix orders {a.shape[0]} and {b.shape[0]}")
    return a, b


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float), "fro"))


def add(a, b) -> np.ndarray:
    a, b = _check_pair(a, b)
    return a + b


def sub(a, b) -> np.ndarray:
    a, b = _check_pair(a, b)
    return a - b


def mul(a, b) -> np.ndarray:
    a, b = _check_pair(a, b)
    return a @ b


def scale(alpha: float, a) -> np.ndarray:
    return float(alpha) * check_square(a)


def commutator(a, b) -> np.ndarray:
    """Lie bracket AB - BA."""
    a, b = _check_pair(a, b)
    return a @ b - b @ a


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    The argument is halved until its Frobenius norm is at most 0.5, the
    power series is summed until the next term falls below 1e-18, and the
    partial sum is squared back up.
    """
    a = check_square(a)
    n = a.shape[0]
    nrm = frobenius(a)
    squarings = 0
    if nrm > _EXP_SCALE_TARGET:
        squarings = int(np.ceil(np.log2(nrm / _EXP_SCALE_TARGET)))
    b = a / (2.0 ** squarings)
    total = np.eye(n)
    term = np.eye(n)
    for k in range(1, 64):
        term = term @ b / k
        total = total + term
        if frobenius(term) < _SERIES_CUTOFF:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def _require_principal_branch(m: np.ndarray) -> None:
    # Distance from each eigenvalue to the closed ray (-inf, 0].
    for lam in np.linalg.eigvals(m):
        dist = abs(lam.imag) if lam.real <= 0.0 else abs(lam)
        if dist <= _NEG_AXIS_MARGIN:
            raise PrincipalLogError(
                "principal logarithm undefined: eigenvalue "
                f"{lam:.6g} lies within {_NEG_AXIS_MARGIN:g} of the closed negative real axis"
            )


def _sqrtm_denman_beavers(m: np.ndarray, max_iter: int = 100) -> np.ndarray:
    y = m
    z = np.eye(m.shape[0])
    for _ in range(max_iter):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        delta = frobenius(y_next - y)
        y, z = y_next, z_next
        if delta <= 1e-15 * max(1.0, frobenius(y)):
            return y
    raise PrincipalLogError("square-root iteration did not converge")


def matrix_log(m) -> np.ndarray:
    """Principal matrix logarithm by inverse scaling and squaring.

    Principal square roots (Denman-Beavers) are taken until the iterate is
    within 0.25 of the identity, log(I + X) is summed as a power series,
    and the result is doubled back. Inputs with an eigenvalue within 1e-12
    of the closed negative real axis are rejected instead of silently
    choosing a branch.
    """
    m = check_square(m)
    _require_principal_branch(m)
    n = m.shape[0]
    ident = np.eye(n)
    x = m
    halvings = 0
    while frobenius(x - ident) > _LOG_SQRT_TARGET:
        if halvings >= 60:
            raise PrincipalLogError("square-root stage failed to approach the identity")
        x = _sqrtm_denman_beavers(x)
        halvings += 1
    y = x - ident
    total = np.zeros((n, n))
    power = y
    j = 1
    while frobenius(power) / j >= _SERIES_CUTOFF and j <= 256:
        total = total + ((-1.0) ** (j + 1) / j) * power
        power = power @ y
        j += 1
    return (2.0 ** halvings) * total


def _vectorize(mats) -> tuple[list[np.ndarray], int]:
    mats = [check_square(m) for m in mats]
    if mats:
        n = mats[0].shape[0]
        for m in mats[1:]:
            if m.shape[0] != n:
                raise ValueError("matrices must all have the same order")
    return mats, (mats[0].shape[0] if mats else 0)


def _svd_range(mats, rel_tol: float) -> tuple[np.ndarray, int]:
    """Rank-revealing SVD of the stacked vectorized input.

    Returns the right singular vectors whose singular values exceed
    rel_tol times the largest one (none for empty or all-zero input),
    and the matrix order.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    mats, n = _vectorize(mats)
    if not mats:
        return np.empty((0, 0)), 0
    stack = np.stack([m.reshape(-1) for m in mats])
    _, svals, vt = np.linalg.svd(stack, full_matrices=False)
    return vt[: int(np.sum(svals > rel_tol * svals[0]))], n


def numerical_rank(mats, rel_tol: float = DEFAULT_RANK_RTOL) -> int:
    """Rank of a list of matrices viewed as vectors, via SVD.

    Counts singular values above rel_tol times the largest one; an empty
    list or all-zero input has rank 0.
    """
    return len(_svd_range(mats, rel_tol)[0])


def orthonormal_basis(mats, rel_tol: float = DEFAULT_RANK_RTOL) -> list[np.ndarray]:
    """Rank-revealing orthonormal basis of span(mats) under the Frobenius inner product.

    Basis elements are the right singular vectors of the stacked
    vectorized input that numerical_rank counts, each sign-fixed so its
    largest-magnitude entry is positive; the output is therefore
    reproducible run to run. rel_tol must lie in (0, 1).
    """
    rows, n = _svd_range(mats, rel_tol)
    basis = []
    for row in rows:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0.0:
            row = -row
        basis.append(row.reshape(n, n).copy())
    return basis


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a least-squares span membership test."""

    inside: bool
    coefficients: tuple[float, ...]
    residual: float


def least_squares_membership(x, basis, tol: float = DEFAULT_MEMBERSHIP_TOL) -> MembershipResult:
    """Best Frobenius fit of x in span(basis).

    The residual is the fit error divided by max(||x||_F, 1); membership
    holds when it does not exceed tol.
    """
    x = check_square(x)
    mats, _ = _vectorize(list(basis))
    if not mats:
        raise ValueError("basis must be non-empty")
    if mats[0].shape != x.shape:
        raise ValueError(
            f"incompatible matrix orders {x.shape[0]} and {mats[0].shape[0]}"
        )
    columns = np.stack([m.reshape(-1) for m in mats], axis=1)
    coeffs, *_ = np.linalg.lstsq(columns, x.reshape(-1), rcond=None)
    resid = x - (columns @ coeffs).reshape(x.shape)
    residual = frobenius(resid) / max(frobenius(x), 1.0)
    return MembershipResult(
        inside=bool(residual <= tol),
        coefficients=tuple(float(c) for c in coeffs),
        residual=float(residual),
    )


def exact_rank(mats) -> int:
    """Rank over the rationals by exact Gaussian elimination.

    Binary floats are rationals, so the conversion is lossless. Intended
    as a cross-check oracle for numerical_rank on small integer-valued
    bases, where it is immune to floating-point thresholds.
    """
    mats, _ = _vectorize(mats)
    if not mats:
        return 0
    rows = [[Fraction(float(x)) for x in m.reshape(-1)] for m in mats]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank
