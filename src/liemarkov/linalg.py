"""Dense real matrix kernels.

Exponential, principal logarithm, commutators, rank-revealing span
bases and least-squares span membership for small dense matrices. All
functions are pure and operate on plain ``numpy`` arrays; nothing here
knows about Markov models or sum conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MEMBERSHIP_TOL = 1e-8
DEFAULT_RANK_RTOL = 1e-10

_EXP_SCALE_TARGET = 0.5
_EXP_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(17))
_LOG_SQRT_TARGET = 0.75
_SERIES_CUTOFF = 1e-18
_NEG_AXIS_MARGIN = 1e-12
_DISC_MARGIN = 1e-6
_SQRT_MAX_ITER = 100


class PrincipalLogError(ValueError):
    """The principal matrix logarithm does not exist for the input."""


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
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def commutator(a, b) -> np.ndarray:
    """Lie bracket AB - BA."""
    a, b = check_square(a), check_square(b)
    if a.shape != b.shape:
        raise ValueError(f"incompatible matrix orders {a.shape[0]} and {b.shape[0]}")
    return a @ b - b @ a


def _fro_rows(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (B, n, n) stack (or each row of a (B, m) array).

    Each row is summed as one dot product, as np.linalg.norm(x, "fro")
    sums a single matrix, so a batch-of-one call sees the same norm bit
    for bit.
    """
    count = len(x)
    flat = np.ascontiguousarray(x).reshape(count, math.prod(x.shape[1:]))
    return np.sqrt((flat[:, None, :] @ flat[:, :, None]).reshape(count))


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
    squarings[big] = np.ceil(np.log2(nrm[big] / _EXP_SCALE_TARGET))
    b = a / (2.0 ** squarings)[:, None, None]
    b2 = b @ b
    b3 = b2 @ b
    b4 = b2 @ b2
    eye = np.eye(n)

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
    runs on (B, n, n) blocks.
    """
    return _exp_stack(check_square(a)[None])[0]


# Per-row outcome codes of _log_stack; 0 means the row has a principal log.
_LOG_OK, _LOG_BRANCH, _LOG_FAR, _LOG_STALLED, _LOG_SINGULAR, _LOG_NONFINITE = range(6)
_LOG_FAILURES = {
    _LOG_FAR: "square-root stage failed to approach the identity",
    _LOG_STALLED: "square-root iteration did not converge",
    _LOG_SINGULAR: "square-root iteration met a singular iterate",
    _LOG_NONFINITE: "matrix entries must be finite",
}


def _branch_distance(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a (B, n, n) stack and their distances to the closed ray (-inf, 0]."""
    lam = np.linalg.eigvals(m)
    return lam, np.where(lam.real <= 0.0, np.abs(lam.imag), np.abs(lam))


def _gershgorin_clear(m: np.ndarray) -> np.ndarray:
    """Rows of a (B, n, n) stack whose Gershgorin discs keep every eigenvalue off the ray (-inf, 0].

    A row qualifies when all of its column discs, or all of its row
    discs, satisfy x_jj - sum_{i != j} |x_ij| > 1e-6. Every eigenvalue
    lies in the union of either family of discs, so its real part, and
    hence its distance to the ray, then exceeds 1e-6, far beyond the
    1e-12 branch margin.
    """
    diag = np.diagonal(m, axis1=1, axis2=2)
    mag = np.abs(m)
    # x_jj - (sum_i |x_ij| - |x_jj|) is 2 x_jj - sum_i |x_ij| where x_jj > 0, and <= 0 otherwise.
    twice = diag + np.abs(diag)
    columns = (twice - mag.sum(axis=1) > _DISC_MARGIN).all(axis=1)
    return columns | (twice - mag.sum(axis=2) > _DISC_MARGIN).all(axis=1)


def _inv_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (B, n, n) stack and a mask of the rows that have one.

    A singular row is left as NaN instead of failing the whole stack.
    """
    try:
        return np.linalg.inv(x), np.ones(len(x), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.full_like(x, np.nan)
        ok = np.zeros(len(x), dtype=bool)
        for k, row in enumerate(x):
            try:
                out[k], ok[k] = np.linalg.inv(row), True
            except np.linalg.LinAlgError:
                pass
        return out, ok


def _sqrtm_denman_beavers(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal square roots of a (B, n, n) stack and a per-row status.

    The product form of the Denman-Beavers iteration (Higham, Functions
    of Matrices, SIAM 2008, eq. 6.17): from M = Y = X, each step takes
    one inverse of M and sets Y <- Y (I + M^-1) / 2 and
    M <- (I + (M + M^-1) / 2) / 2. Y tends to X^(1/2) and M to I, so
    only a well-conditioned matrix is inverted as the iteration ends,
    and a row stops once its own ||M - I||_F is at most 1e-15. A row
    that meets a singular iterate, or runs out of its _SQRT_MAX_ITER
    iterations, gets a failure status and a NaN root; the other rows
    go on.
    """
    count = len(m)
    ident = np.eye(m.shape[-1])
    roots = np.full_like(m, np.nan)
    status = np.full(count, _LOG_STALLED, dtype=np.int8)
    rows, y = np.arange(count), m
    for _ in range(_SQRT_MAX_ITER):
        inv_m, ok = _inv_rows(m)
        y = 0.5 * (y + y @ inv_m)
        m = 0.5 * (ident + 0.5 * (m + inv_m))
        status[rows[~ok]] = _LOG_SINGULAR
        done = ok & (_fro_rows(m - ident) <= 1e-15)
        roots[rows[done]] = y[done]
        status[rows[done]] = _LOG_OK
        going = ok & ~done
        rows, y, m = rows[going], y[going], m[going]
        if not len(rows):
            break
    return roots, status


def _log_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal logarithms of a (B, n, n) stack by inverse scaling and squaring.

    Returns the logs and a per-row status, 0 where the row has a
    principal logarithm. A row fails, and its log is NaN, when an
    eigenvalue lies within 1e-12 of the closed negative real axis, when
    its square roots stall, meet a singular iterate or fail to approach
    the identity in 60 halvings, or when it is not finite; one failing
    row never stops the others. The branch guard looks only at the rows
    with ||X - I||_F > 0.75: a row within that radius has every
    eigenvalue within 0.75 of 1, so it cannot be near the axis. Of
    those, a row whose Gershgorin discs keep every eigenvalue right of
    Re z = 1e-6 is cleared without eigvals, and only the rest have their
    eigenvalues computed; with no row beyond the radius, neither test
    runs. Each row is square-rooted (product-form Denman-Beavers) until
    ||X - I||_F <= 0.75; log X is then summed
    as the Gregory series 2 atanh((X + I)^-1 (X - I)) over odd powers,
    one batched solve for all rows, until the row's own next term falls
    below 1e-18, and doubled back once per halving. The series rows stay
    in place: every pass forms the next term of every row, and a row
    whose series has ended is masked out of the sum. Every row takes its
    own number of halvings, Denman-Beavers iterations and series terms,
    exactly as a stack of one would.
    """
    count, n = m.shape[0], m.shape[-1]
    ident = np.eye(n)
    status = np.zeros(count, dtype=np.int8)
    finite = np.isfinite(m).all(axis=(1, 2))
    status[~finite] = _LOG_NONFINITE
    rows = np.flatnonzero(finite)
    pending = rows[_fro_rows(m[rows] - ident) > _LOG_SQRT_TARGET]
    # ||X - I||_F <= 0.75 bounds every eigenvalue within 0.75 of 1, so 0.25 from the ray.
    if len(pending):
        # Only the rows whose discs do not clear the ray go to eigvals.
        doubtful = pending[~_gershgorin_clear(m[pending])]
        if len(doubtful):
            near = (_branch_distance(m[doubtful])[1] <= _NEG_AXIS_MARGIN).any(axis=1)
            status[doubtful[near]] = _LOG_BRANCH
            pending = pending[status[pending] == _LOG_OK]
    x = m.copy()
    halvings = np.zeros(count, dtype=int)
    level = 0
    while len(pending):
        if level >= 60:
            status[pending] = _LOG_FAR
            break
        roots, root_status = _sqrtm_denman_beavers(x[pending])
        status[pending] = root_status
        converged = root_status == _LOG_OK
        pending, roots = pending[converged], roots[converged]
        x[pending] = roots
        level += 1
        halvings[pending] = level
        pending = pending[_fro_rows(roots - ident) > _LOG_SQRT_TARGET]
    rows = np.flatnonzero(status == _LOG_OK)
    total = np.zeros_like(m)
    # log X = 2 atanh(Z) = 2 (Z + Z^3/3 + Z^5/5 + ...) with Z = (X + I)^-1 (X - I);
    # the two factors commute, so one solve per row gives Z.
    e = x[rows] - ident
    power = np.linalg.solve(e + 2.0 * ident, e)
    zsq = power @ power
    # ||E||_2 <= ||E||_F <= 0.75 gives ||(2I + E)^-1||_2 <= 1 / (2 - 0.75) = 0.8, so
    # ||Z||_F <= 0.6 and every row's term 2 ||Z^j||_F / j falls below 1e-18 by j = 75,
    # well inside the cap.
    series, going = np.zeros_like(e), np.ones(len(rows), dtype=bool)
    j = 1
    while going.any() and j < 128:
        term = (2.0 / j) * power
        going &= _fro_rows(term) >= _SERIES_CUTOFF
        np.add(series, term, out=series, where=going[:, None, None])
        power = power @ zsq
        j += 2
    total[rows] = series
    logs = (2.0 ** halvings)[:, None, None] * total
    logs[status != _LOG_OK] = np.nan
    return logs, status


def matrix_log(m) -> np.ndarray:
    """Principal matrix logarithm by inverse scaling and squaring.

    Principal square roots (the product form of Denman-Beavers, one
    inverse per step) are taken until the iterate X is within 0.75 of
    the identity in Frobenius norm, log X is summed as the Gregory series
    2 atanh((X + I)^-1 (X - I)), and the result is doubled back. Inputs
    with an eigenvalue within 1e-12 of the closed negative real axis are
    rejected instead of silently choosing a branch; only an input that
    needs a square root is checked, since ||X - I||_F <= 0.75 keeps every
    eigenvalue 0.25 from that axis, and an input whose Gershgorin discs
    clear the axis by 1e-6 is accepted without computing its
    eigenvalues. Products closer to singular than that are still
    accepted down to the 1e-12 margin, with the accuracy their
    conditioning allows. This is the batch-of-one case of the stack kernel
    that the closure audit runs on (B, n, n) blocks, where a failing row
    is flagged instead of raising.
    """
    m = check_square(m)
    logs, status = _log_stack(m[None])
    if status[0] == _LOG_BRANCH:
        lam, dist = _branch_distance(m[None])
        worst = lam[0][np.argmax(dist[0] <= _NEG_AXIS_MARGIN)]
        raise PrincipalLogError(
            "principal logarithm undefined: eigenvalue "
            f"{worst:.6g} lies within {_NEG_AXIS_MARGIN:g} of the closed negative real axis"
        )
    if status[0] != _LOG_OK:
        raise PrincipalLogError(_LOG_FAILURES[status[0]])
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
