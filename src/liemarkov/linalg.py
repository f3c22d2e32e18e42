"""Dense real matrix kernels.

Exponential, principal logarithm, commutators, rank-revealing span
bases and least-squares span membership for small dense matrices. All
functions are pure and operate on plain ``numpy`` arrays; nothing here
knows about Markov models or sum conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_MEMBERSHIP_TOL = 1e-8
DEFAULT_RANK_RTOL = 1e-10

_EXP_SCALE_TARGET = 0.5
_EXP_NORM_MAX = np.finfo(float).max * _EXP_SCALE_TARGET
_EXP_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(17))
_LOG_CAYLEY_RADIUS = 0.85
_SERIES_CUTOFF = 1e-18
# Odd term j of the log's series 2 atanh(Z) is kept when 2 ||Z||_F^j / j >= 1e-18, that is when
# ||Z||_F reaches (1e-18 j / 2)^(1/j), for j = 1, 3, ..., 255; these thresholds increase with j.
# Each is lowered by 1e-12 relative, far beyond the rounding of ||Z||_F and of a power of Z, so a
# term whose computed norm reaches the cutoff is never left out.
_LOG_TERM_NORMS = np.array([(_SERIES_CUTOFF * j / 2) ** (1.0 / j) for j in range(1, 256, 2)]) * (1.0 - 1e-12)
# Row K holds the coefficients 2 / (2k + 1) of W^k = Z^(2k) in 2 atanh(Z) = Z sum_k 2 W^k / (2k + 1)
# for k < K, zero-padded to 128: the coefficient table of a row that keeps K terms.
_GREGORY = np.tril(np.broadcast_to(2.0 / np.arange(1, 256, 2), (129, 128)), -1)


class PrincipalLogError(ValueError):
    """The input lies beyond the radius inside which the principal logarithm is computed."""


def check_square(a) -> np.ndarray:
    """Validate and return a finite real square matrix of order >= 2."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return check_stack(a)


def check_stack(a) -> np.ndarray:
    """Validate a finite real square matrix, or a (B, n, n) stack of them, of order >= 2."""
    a = np.asarray(a, dtype=float)
    shape = a.shape[1:] if a.ndim == 3 else a.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if shape[0] < 2:
        raise ValueError("matrix order must be at least 2")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def commutator(a, b) -> np.ndarray:
    """Lie bracket AB - BA."""
    a, b = check_square(a), check_square(b)
    if a.shape != b.shape:
        raise ValueError(f"incompatible matrix orders {a.shape[0]} and {b.shape[0]}")
    return a @ b - b @ a


@lru_cache(maxsize=32)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per order."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _fro_rows(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (B, n, n) stack (or each row of a (B, m) array).

    Each row is summed as one dot product, as np.linalg.norm(x, "fro")
    sums a single matrix, so a batch-of-one call sees the same norm bit
    for bit. A finite row whose sum of squares overflows (norm beyond
    about 1.3e154) is summed again scaled by 2^-e, e the exponent of its
    largest entry, and its norm scaled back by 2^e; both scalings are
    exact, and no other row is touched. A norm beyond the largest double
    is inf. The first pass's overflow is expected and mended here, so it
    is silenced here, and no caller guards a norm.
    """
    count = len(x)
    flat = np.ascontiguousarray(x).reshape(count, math.prod(x.shape[1:]))
    with np.errstate(over="ignore"):
        squares = (flat[:, None, :] @ flat[:, :, None]).reshape(count)
        big = np.isinf(squares)
        if not big.any():
            return np.sqrt(squares)
        nrm = np.sqrt(squares)
        exponent = np.frexp(np.abs(flat[big]).max(axis=1))[1]
        scaled = np.ldexp(flat[big], -exponent[:, None])
        nrm[big] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", scaled, scaled)), exponent)
    return nrm


def _exp_stack(a: np.ndarray) -> np.ndarray:
    """Exponentials of a finite (B, n, n) stack by scaling and squaring.

    Row k is halved s_k times until its Frobenius norm is at most 0.5,
    the degree-16 Taylor polynomial of exp is evaluated at the scaled
    row, and the result is squared s_k times. The polynomial is
    evaluated by Paterson and Stockmeyer's scheme (Higham, Functions of
    Matrices, SIAM 2008, sec. 4.2) with blocks of four terms: B^2, B^3
    and B^4, four cubic blocks in B, and three Horner steps in B^4, six
    matrix products in all. At norm 0.5 the last term kept has norm at
    most 0.5^16 / 16! < 7.3e-19 and the terms left out sum to less than
    2.3e-20. Every row runs the same operations, so every row is
    computed exactly as a stack of one would compute it.
    """
    count, n = a.shape[0], a.shape[-1]
    nrm = _fro_rows(a)
    squarings = np.zeros(count, dtype=int)
    big = nrm > _EXP_SCALE_TARGET
    b = a
    if big.any():
        # A norm whose ratio to the target would overflow is taken of the row halved n + 1
        # times, which is below 2^1022 (||a||_F <= n max |a_ij| < n 2^1024), and the n + 1
        # halvings are counted back.
        shift = np.where(nrm > _EXP_NORM_MAX, n + 1, 0)
        if shift.any():
            nrm = np.where(shift > 0, _fro_rows(np.ldexp(a, -shift[:, None, None])), nrm)
        squarings[big] = shift[big] + np.ceil(np.log2(nrm[big] / _EXP_SCALE_TARGET))
        b = np.ldexp(a, -squarings[:, None, None])
    b2 = b @ b
    b3 = b2 @ b
    b4 = b2 @ b2
    eye = _identity(n)

    def block(j):
        # sum of B^i / (4j + i)! for i = 0..3; exp(B) ~ block(0) + B^4 (block(1) + B^4 (...)).
        c = _EXP_TAYLOR[4 * j:4 * j + 4]
        return c[1] * b + c[2] * b2 + c[3] * b3 + c[0] * eye

    total = block(3) + _EXP_TAYLOR[16] * b4
    for j in (2, 1, 0):
        total = b4 @ total + block(j)
    for level in range(int(squarings.max(initial=0))):
        rows = squarings > level
        total[rows] = total[rows] @ total[rows]
    return total


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    The argument is halved until its Frobenius norm is at most 0.5, the
    degree-16 Taylor polynomial is evaluated there by Paterson and
    Stockmeyer's scheme (six matrix products; the terms it leaves out
    sum to under 2.3e-20), and the result is squared back up. This is
    the batch-of-one case of the stack kernel that the closure audit
    runs on (B, n, n) blocks. Raises ValueError when the exponential has
    a non-finite entry, as when it overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _exp_stack(check_square(a)[None])[0]
    if not np.isfinite(out).all():
        raise ValueError("matrix exponential overflows to a non-finite entry")
    return out


def _cayley_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z = (X + I)^-1 (X - I) of each row of a (B, n, n) stack, and ||Z||_F of each row.

    X + I and X - I commute, so one batched solve gives Z. A row with a
    NaN or infinite entry solves to NaN without raising, and its norm is
    NaN. The solve fails only on a zero pivot, as X + I singular (X has
    the eigenvalue -1) gives, and then every row whose determinant is
    not positive in absolute value, NaN included, is beyond every
    radius: it is solved as X = I and its norm is inf, and the other
    rows are solved again, each as a stack of one would solve it.
    """
    eye = _identity(x.shape[-1])
    e = x - eye
    a = e + 2.0 * eye
    try:
        z = np.linalg.solve(a, e)
    except np.linalg.LinAlgError:
        with np.errstate(invalid="ignore"):
            singular = ~(np.abs(np.linalg.det(a)) > 0.0)
        z = np.linalg.solve(np.where(singular[:, None, None], 2.0 * eye, a), e)
        return z, np.where(singular, np.inf, _fro_rows(z))
    return z, _fro_rows(z)


def _series_terms(nrm: np.ndarray) -> np.ndarray:
    """How many odd terms of 2 atanh(Z) each ||Z||_F keeps.

    Term j = 1, 3, ..., 255 is kept when 2 ||Z||_F^j / j >= 1e-18.
    """
    return np.searchsorted(_LOG_TERM_NORMS, nrm, side="right")


def _log_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal logarithms of a (B, n, n) stack by the Gregory series, and a mask of the rows summed.

    log X is summed as the Gregory series 2 atanh(Z) over odd powers of
    Z = (X + I)^-1 (X - I), from one batched solve, for every row with
    ||Z||_F <= 0.85: rho(Z) <= ||Z||_F <= 0.85 puts every eigenvalue of
    X = (I + Z)(I - Z)^-1 at Re z >= 0.15 / 1.85 > 0.08, so 2 atanh(Z)
    is the principal log, and X + I = 2 (I - Z)^-1 has condition number
    at most 1.85 / 0.15 < 12.4. A row beyond that radius is refused: X +
    I singular gives it an infinite ||Z||_F and a non-finite entry a NaN
    one, both by _cayley_rows, and the one comparison with the radius
    refuses all three. A refused row keeps its place, runs through
    every pass as Z = 0 with no terms, and its log is NaN, so one
    refused row never stops or moves the others.

    Each row's term count is fixed in advance from its own ||Z||_F: odd
    term j is kept when 2 ||Z||_F^j / j >= 1e-18, which, as
    ||Z^j||_F <= ||Z||_F^j, keeps every term whose own norm reaches
    1e-18; at ||Z||_F = 0.85 that is j <= 225, 113 terms. With W = Z^2
    the series is Z sum_k 2 W^k / (2k + 1), and the sum is evaluated by
    Paterson and Stockmeyer's scheme (Higham, Functions of Matrices,
    SIAM 2008, sec. 4.2) in blocks of four terms: the products W^2, W^3
    and W^4, every block of every row as one batched contraction of that
    row's zero-padded coefficient table with its [I, W, W^2, W^3], Horner
    steps in W^4 and one product by Z. The stack takes as many blocks as
    its longest kept row needs; a row whose table is padded with zero
    blocks passes through them as zeros, so every kept row is computed
    exactly as a stack of one computes it.
    """
    count, n = m.shape[0], m.shape[-1]
    z, nrm = _cayley_rows(m)
    # A NaN norm, of a non-finite row, is not within the radius either.
    ok = nrm <= _LOG_CAYLEY_RADIUS
    # A refused row runs as Z = 0 with no terms: zeros, which cannot overflow.
    refused = ~ok
    z[refused] = 0.0
    nrm[refused] = 0.0
    terms = _series_terms(nrm)
    # At least two blocks: a one-block table would make a row's contraction a matrix-vector
    # product, which BLAS may round otherwise than the matrix product of a longer table.
    blocks = max(-(-int(terms.max(initial=0)) // 4), 2)
    powers = np.empty((count, 4, n, n))
    powers[:, 0] = _identity(n)
    np.matmul(z, z, out=powers[:, 1])
    np.matmul(powers[:, 1], powers[:, 1], out=powers[:, 2])
    np.matmul(powers[:, 2], powers[:, 1], out=powers[:, 3])
    w4 = powers[:, 2] @ powers[:, 2]
    coeffs = _GREGORY[terms, :4 * blocks].reshape(count, blocks, 4)
    table = (coeffs @ powers.reshape(count, 4, n * n)).reshape(count, blocks, n, n)
    total = table[:, -1]
    for b in range(blocks - 2, -1, -1):
        total = w4 @ total
        total += table[:, b]
    series = z @ total
    series[refused] = np.nan
    return series, ok


def matrix_log(m) -> np.ndarray:
    """Principal matrix logarithm by the Gregory series in the Cayley transform.

    log X is summed as 2 atanh(Z) in Z = (X + I)^-1 (X - I) when
    ||Z||_F <= 0.85, where every eigenvalue of X has real part above
    0.08, so the series gives the principal log. Its term count, at most
    113, is fixed in advance from ||Z||_F, and the series is evaluated in
    W = Z^2 by Paterson and Stockmeyer's scheme in blocks of four terms.
    An input beyond that radius, X + I singular included, raises
    PrincipalLogError. This is the batch-of-one case of the stack kernel
    that the closure audit runs on (B, n, n) blocks, where a refused row
    is flagged instead of raising.
    """
    logs, ok = _log_stack(check_square(m)[None])
    if not ok[0]:
        raise PrincipalLogError(
            "principal logarithm not computed: the Cayley transform Z = (X + I)^-1 (X - I) "
            f"lies beyond the series radius ||Z||_F <= {_LOG_CAYLEY_RADIUS}"
        )
    return logs[0]


def check_matrices(mats) -> np.ndarray:
    """A validated (k, n, n) stack of a list, tuple or array of same-order square matrices.

    No matrices give a (0, 0, 0) stack.
    """
    if not isinstance(mats, np.ndarray):
        mats = list(mats)
    if not len(mats):
        return np.empty((0, 0, 0))
    try:
        stack = np.asarray(mats, dtype=float)
    except ValueError:
        if len({np.shape(m) for m in mats}) > 1:
            raise ValueError("matrices must all have the same order") from None
        raise
    if stack.ndim != 3:
        raise ValueError(f"expected a square matrix, got shape {stack.shape[1:]}")
    return check_stack(stack)


def _svd_range(stack: np.ndarray, rel_tol: float) -> np.ndarray:
    """Rank-revealing SVD of a validated (k, n, n) stack, vectorized.

    Returns, as (r, n^2) rows, the right singular vectors whose singular
    values exceed rel_tol times the largest one (none for no or all-zero
    matrices), each sign-fixed so its largest-magnitude entry is positive.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    if not len(stack):
        return np.empty((0, 0))
    _, svals, vt = np.linalg.svd(stack.reshape(len(stack), -1), full_matrices=False)
    rows = vt[: int(np.sum(svals > rel_tol * svals[0]))]
    pivot = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    return np.where(pivot[:, None] < 0.0, -rows, rows)


def orthonormal_basis(mats, rel_tol: float = DEFAULT_RANK_RTOL) -> list[np.ndarray]:
    """Rank-revealing orthonormal basis of span(mats) under the Frobenius inner product.

    Basis elements are the right singular vectors of the stacked
    vectorized input whose singular values exceed rel_tol times the
    largest one, each sign-fixed so its largest-magnitude entry is
    positive; the output is therefore reproducible run to run, and its
    length is the numerical rank (empty or all-zero input has rank 0).
    rel_tol must lie in (0, 1).
    """
    stack = check_matrices(mats)
    rows = _svd_range(stack, rel_tol)
    return list(rows.reshape(len(rows), *stack.shape[1:]))


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
    stack = check_matrices(basis)
    if not len(stack):
        raise ValueError("basis must be non-empty")
    if stack.shape[1:] != x.shape:
        raise ValueError(f"incompatible matrix orders {x.shape[0]} and {stack.shape[1]}")
    columns = stack.reshape(len(stack), -1).T
    coeffs, *_ = np.linalg.lstsq(columns, x.reshape(-1), rcond=None)
    resid = x - (columns @ coeffs).reshape(x.shape)
    residual = np.linalg.norm(resid, "fro") / max(np.linalg.norm(x, "fro"), 1.0)
    return MembershipResult(
        inside=bool(residual <= tol),
        coefficients=tuple(float(c) for c in coeffs),
        residual=float(residual),
    )
