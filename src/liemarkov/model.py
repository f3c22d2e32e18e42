"""Markov model representation.

A model is a set of stochastic rate matrices cut out of the zero-sum
space either by a linear span basis, by polynomial constraints on the
off-diagonal entries, or both, optionally with a named parameterization
for seeded sampling. Models are immutable after construction and safe to
share across threads. A parameterization is judged once, when the model
is built, so its draws are never judged again. Every value a model
fills in is a deterministic function of its fields: its compiled
constraint values (_constraint_values), its span (_span, the rows
span_basis reports at seed 0), its residual (_residual, which reads the
span or the constraint values), and its algebra record (_algebra, the
closure's own results on the span: the Lie algebra the span generates,
the dimension after each level of brackets and the rank gap).
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from operator import itemgetter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import config
from .linalg import (
    DEFAULT_MEMBERSHIP_TOL,
    DEFAULT_RANK_RTOL,
    _fro_rows,
    _svd_range,
    check_matrices,
    check_square,
    check_stack,
)


class SamplingError(RuntimeError):
    """A sampler could not produce a stochastic rate matrix.

    Raised by _sample_stack, the one gate for drawing, when a model has
    neither a parameterization nor a basis, and by _sample_all when a
    basis-only sampler exhausts a stream. Every draw (the audit, span
    rows at a seed, sample_with_rng and the sample command) ends there.
    """


class ModelFormatError(ValueError):
    """A model file or dictionary does not follow the model format."""


def _json_int(value) -> int:
    """An integer as an int, by operator.index; floats, strings and booleans are refused."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _json_floats(values) -> np.ndarray:
    """A flat sequence of real numbers as a float array; strings, booleans and other non-numbers are refused.

    Each distinct type is judged once, so a long basis row costs one pass
    of type(); the first refused value, in order, is named.
    """
    values = list(values)
    refused = {k for k in set(map(type, values)) if issubclass(k, bool) or not issubclass(k, numbers.Real)}
    if refused:
        raise TypeError(f"expected a number, got {next(v for v in values if type(v) in refused)!r}")
    return np.array(values, dtype=float)


@dataclass(frozen=True)
class PolynomialConstraint:
    """Polynomial in the off-diagonal entries q_ij, stored as coefficient-monomial terms.

    ``terms`` is a tuple of (coefficient, monomial) pairs where each
    monomial is a tuple of 1-based (i, j) index pairs with i != j; the
    empty monomial is a constant term. Evaluation at Q is
    sum(coeff * prod(q_ij)). A constraint is a plain frozen value: it
    holds its terms and nothing derived from them.
    """

    terms: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]

    def __post_init__(self):
        norm = []
        for coeff, monomial in self.terms:
            try:
                pairs = tuple((_json_int(i), _json_int(j)) for i, j in monomial)
            except TypeError as exc:
                raise ValueError(f"constraint monomials must be pairs of integers: {exc}") from None
            for i, j in pairs:
                if i < 1 or j < 1:
                    raise ValueError(f"constraint indices are 1-based, got ({i}, {j})")
                if i == j:
                    raise ValueError("constraints only involve off-diagonal entries")
            try:
                (coeff,) = _json_floats([coeff]).tolist()
            except TypeError as exc:
                raise ValueError(f"constraint coefficients must be numbers: {exc}") from None
            if not np.isfinite(coeff):
                raise ValueError(f"constraint coefficients must be finite, got {coeff}")
            norm.append((coeff, pairs))
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def degree(self) -> int:
        return max((len(m) for _, m in self.terms), default=0)

    @property
    def homogeneous(self) -> bool:
        lengths = {len(m) for _, m in self.terms}
        return len(lengths) <= 1

    def evaluate(self, q) -> float:
        """The batch-of-one case of the constraint evaluator, compiled for q's order on each call."""
        q = check_square(q)
        return float(_compile_constraints(q.shape[0], (self,))(q[None])[0, 0])


def product_constraint(left: Sequence[tuple[int, int]], right: Sequence[tuple[int, int]]) -> PolynomialConstraint:
    """The equality prod(q_left) = prod(q_right) as a homogeneous constraint."""
    return PolynomialConstraint(((1.0, tuple(left)), (-1.0, tuple(right))))


# Named parameterizations (filled in by the zoo module on import). Each
# maps a (B, n_params) array of parameter rows to a (B, n, n) stack.
_PARAMETERIZATIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], int]] = {}


def get_parameterization(name: str) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    try:
        return _PARAMETERIZATIONS[name]
    except KeyError:
        raise ModelFormatError(f"unknown parameterization {name!r}") from None


def _landing_points(width: int) -> np.ndarray:
    """Four fixed points of the unit box, as a (4, width) array: frac(k phi) for k = 1 .. 4 width, row-major.

    phi = (sqrt(5) - 1) / 2 is irrational, so each coordinate has its own
    fraction, strictly inside (0, 1) and never 1/2: no point is the
    midpoint or a corner, and no two of its coordinates are equal, where
    one parameterization can land in a smaller model (k2p's in jc's span
    at alpha = beta).
    """
    return np.modf(np.arange(1, 4 * width + 1) * ((math.sqrt(5.0) - 1.0) / 2.0))[0].reshape(4, width)


@dataclass(frozen=True, eq=False)
class RateModel:
    """A named Markov model over n states.

    ``basis`` spans the model's rate space when that space is linear;
    ``constraints`` define it as a variety otherwise (at least one must
    be given; with both, the basis decides membership and must satisfy
    every constraint). ``parameterization`` names a registered generator
    and ``parameter_ranges`` gives it one (lo, hi) range per parameter,
    for seeded sampling; the two come together or not at all. The
    parameterization must land in the model: at each of a few fixed
    interior points of its ranges (_landing_points) it must give a
    stochastic rate matrix, within 1e-12 max(1, ||q||_F) per entry and
    column sum, whose model residual is at most 1e-10.

    Construction judges the model: a breach of any rule above raises
    ValueError. Judging a parameterization fills the residual, and a
    span model's residual fills its span. Every other derived value is
    filled once, on first use, and held on the instance. A fill reads
    other derived values only in one direction (the residual reads the
    span or the constraint values, the algebra record the span, and the
    span none), so the lock that functools.cached_property takes per
    property before Python 3.12 cannot deadlock. A pickle or copy
    rebuilds the model from its fields alone.
    """

    name: str
    n: int
    basis: tuple[np.ndarray, ...] = ()
    constraints: tuple[PolynomialConstraint, ...] = ()
    parameterization: str | None = None
    parameter_ranges: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", _json_int(self.n))
        except TypeError:
            raise ValueError(f"model order n must be an integer, got {self.n!r}") from None
        if self.n < 2:
            raise ValueError("model order must be at least 2")
        try:
            basis = np.array(check_matrices(self.basis))
        except ValueError as exc:
            raise ValueError(f"basis: {exc}") from None
        if len(basis):
            if basis.shape[1] != self.n:
                raise ValueError("basis matrix order does not match the model")
            _check_zero_sums(basis, "basis matrices must have zero generator sums")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.basis and not self.constraints:
            raise ValueError(f"model {self.name!r} must declare a basis or constraints")
        if self.constraints:
            values = self._constraint_values
            if len(basis) and np.max(np.abs(values(basis))) > 1e-12:
                raise ValueError("basis matrices must satisfy the declared constraints")
        if (self.parameterization is None) != (self.parameter_ranges is None):
            raise ValueError(
                f"model {self.name!r} must declare parameterization and parameter_ranges together"
            )
        if self.parameterization is not None:
            fn, n_params = get_parameterization(self.parameterization)
            try:
                ranges = tuple(tuple(_json_floats((lo, hi)).tolist()) for lo, hi in self.parameter_ranges)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"parameter_ranges must be (lo, hi) pairs: {exc}") from None
            for lo, hi in ranges:
                # A NaN fails lo <= hi; an infinite bound would leave every draw non-finite.
                if not (lo <= hi and math.isfinite(lo) and math.isfinite(hi)):
                    raise ValueError(
                        f"parameter_ranges must be finite with lo <= hi, got ({lo}, {hi})"
                    )
                # The one check of a parameter's sign: every draw and landing point lies in the box.
                if lo < 0:
                    raise ValueError(f"parameter_ranges must be non-negative, got ({lo}, {hi})")
            if len(ranges) != n_params:
                raise ValueError(
                    f"model {self.name!r} declares {len(ranges)} ranges "
                    f"but parameterization {self.parameterization!r} takes {n_params}"
                )
            object.__setattr__(self, "parameter_ranges", ranges)
            # The zoo's maps are polynomial or rational, and so are spans and constraints, so a residual
            # that vanishes at generic points vanishes on the whole box: no draw needs judging again.
            lo, hi = np.array(ranges).T
            try:
                q = fn(lo + (hi - lo) * _landing_points(n_params))
                lands, why = _is_rate_stack(q) & (self._residual(q) <= 1e-10), ""
            except ValueError as exc:
                lands, why = False, f": {exc}"
            if not np.all(lands):
                raise ValueError(f"parameterization {self.parameterization!r} does not land in model "
                                 f"{self.name!r} on its parameter_ranges{why}")

    def __reduce__(self):
        # The derived values include closures, so a pickle or copy rebuilds the model from its fields.
        return RateModel, (self.name, self.n, self.basis, self.constraints,
                           self.parameterization, self.parameter_ranges)

    @cached_property
    def _constraint_values(self) -> Callable[[np.ndarray], np.ndarray]:
        """The constraints' raw values; construction reads them, so a bad index fails there."""
        return _compile_constraints(self.n, self.constraints)

    @cached_property
    def _residual(self) -> Callable[[np.ndarray], np.ndarray]:
        """The scale-invariant residual of each matrix of a (B, n, n) stack.

        A span model divides the norm of q's part outside the span,
        x - (x V^T) V for x = vec(q) and V the rows of _span, by
        max(||q||_F, 1), as least_squares_membership does. It reads no
        algebra record, so membership never waits on the saturation. A
        constraint model takes the largest absolute constraint value at
        unit scale, q / ||q||_F (a zero q as it is): a homogeneous
        degree-d constraint gives f(q) / ||q||_F^d there, so a positive
        rescaling of q keeps it, and no power of the norm is formed, so
        no scale overflows it. An inhomogeneous constraint has no such
        scale, and its value is taken at q itself. A finite q whose norm
        overflows has no unit scale, and its residual is NaN, which no
        tol admits.
        """
        n = self.n
        if self.basis:
            span = self._span.reshape(-1, n * n)

            def span_residual(q: np.ndarray) -> np.ndarray:
                flat = _flat(q, n)
                return _fro_rows(flat - (flat @ span.T) @ span) / np.maximum(_fro_rows(flat), 1.0)

            return span_residual
        values = self._constraint_values
        # The rows of the inhomogeneous constraints, which have no scale and are taken at q.
        raw = np.array([[not c.homogeneous] for c in self.constraints])

        def constraint_residual(q: np.ndarray) -> np.ndarray:
            nrm = _fro_rows(q)
            unit = q / np.where(nrm > 0.0, nrm, 1.0)[:, None, None]
            unit[np.isinf(nrm)] = np.nan
            total = np.where(raw, values(q), values(unit)) if raw.any() else values(unit)
            return np.abs(total).max(axis=0)

        return constraint_residual

    @cached_property
    def _span(self) -> np.ndarray:
        """The span rows at seed 0 (_span_rows), read by the residual, span_basis, the audit and _algebra."""
        return _span_rows(self, 0)

    @cached_property
    def _algebra(self) -> tuple:
        """The Lie algebra the span generates, as closure._saturate records it; read by the audit."""
        from .closure import _saturate  # closure imports this module, so it is imported here

        algebra = _saturate(self._span)
        algebra.closure.flags.writeable = False
        return algebra


def _zero_sum(x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of (a stack of) square matrices onto zero column sums."""
    return x - x.mean(axis=-2, keepdims=True)


def _generators(stack: np.ndarray) -> np.ndarray:
    """The rank-revealing orthonormal rows of a validated (k, n, n) stack, as (r, n, n).

    The rows are _svd_range's at DEFAULT_RANK_RTOL, each then projected
    onto zero column sums. lie_closure and a model's span (_span_rows)
    both cut here, so they agree on the rank of the same input. The
    projection comes after the SVD because the SVD's rounding can leave
    a row off the zero-sum space by more than lie_closure's check
    allows: a thin direction, such as the difference of two nearly
    parallel matrices, carries it divided by its small singular value.
    """
    return _zero_sum(_svd_range(stack, DEFAULT_RANK_RTOL).reshape(-1, *stack.shape[1:]))


def _span_rows(model: RateModel, seed: int) -> np.ndarray:
    """span_basis's rows as one read-only (r, n, n) array: _generators of the basis or of the draws.

    The seed is checked first (_check_seed), though a declared basis
    draws nothing, so the closure command refuses the seeds that every
    other seeded command refuses. A model without a basis is drawn from,
    and _sample_stack refuses one it cannot draw from.
    """
    _check_seed(seed)
    stack = np.array(model.basis) if model.basis else _sample_stochastic_stack(model, seed, 4 * model.n ** 2)
    rows = _generators(stack)
    rows.flags.writeable = False
    return rows


def is_in_L(q, tol: float = 1e-12):
    """True when every column sum of q is zero within tol.

    For a (B, n, n) stack the answer is a boolean array, one per matrix.
    """
    q = check_stack(q)
    ok = _zero_sums(q, tol)
    return bool(ok) if q.ndim == 2 else ok


def _check_zero_sums(stack: np.ndarray, message: str) -> None:
    """Raise ValueError(message) unless each q of a validated stack has column sums within 1e-10 max(1, ||q||_F).

    RateModel's basis check and lie_closure's generator check, each with
    its own message.
    """
    scale = np.maximum(1.0, _fro_rows(stack))
    if not _zero_sums(stack, 1e-10 * scale).all():
        raise ValueError(message)


def _column_sums(q: np.ndarray) -> np.ndarray:
    """The column sums of each matrix of a stack, as q.sum(axis=-2) gives them, bit for bit.

    One einsum, which adds the rows in order. The bits agree for every
    layout a caller passes, a fresh array or check_matrices' output; a
    transposed view can differ in the last bit, as q.sum(axis=-2) can.
    """
    return np.einsum("...ij->...j", q)


def _zero_sums(q: np.ndarray, tol: float) -> np.ndarray:
    """Whether every column sum of each matrix of a validated stack is within tol of zero.

    The absolute sums are written matrix-minor, (n, B), so the largest
    of each matrix is a max over the leading axis: elementwise across
    whole rows, where a max over a last axis only n wide runs one inner
    loop per matrix.
    """
    return np.abs(_column_sums(q).T, order="C").max(axis=0) <= tol


@lru_cache(maxsize=32)
def _off_diagonal(n: int) -> np.ndarray:
    """The read-only mask of the off-diagonal entries of an n x n matrix."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def is_stochastic_rate(q, tol: float = 1e-12):
    """True when q is a valid rate matrix: zero sums and off-diagonals >= -tol.

    For a (B, n, n) stack the answer is a boolean array, one per matrix.
    The stack is validated once.
    """
    q = check_stack(q)
    ok = _zero_sums(q, tol) & (q[..., _off_diagonal(q.shape[-1])].min(axis=-1) >= -tol)
    return bool(ok) if q.ndim == 2 else ok


def _is_rate_stack(q: np.ndarray) -> np.ndarray:
    """is_stochastic_rate of each matrix of a (B, n, n) stack at 1e-12 max(1, ||q||_F).

    The rounding of a column sum grows with the matrix's scale, so the
    tolerance does too, as in _check_zero_sums.
    """
    return is_stochastic_rate(q, 1e-12 * np.maximum(1.0, _fro_rows(q)))


def _flat(q: np.ndarray, n: int) -> np.ndarray:
    if q.shape[-2:] != (n, n):
        raise ValueError("matrix order does not match the model")
    return q.reshape(len(q), n * n)


def _compile_constraints(
    n: int, constraints: Sequence[PolynomialConstraint]
) -> Callable[[np.ndarray], np.ndarray]:
    """Raw constraint values as a function of a (B, n, n) stack, constraint-major: shape (m, B).

    Gathers the factors of every monomial as whole rows of the stack's
    transposed entry table, in one take laid out factor by factor and
    term by term, so that every product and sum runs on contiguous
    (m, B) blocks. It multiplies each term's coefficient by its
    factors in declaration order and sums each constraint's terms in
    declaration order, starting from 0.0; missing terms and factors are
    padded with a zero coefficient and a constant 1, which leave every
    sum and product unchanged. Raises ValueError when a monomial index
    exceeds n.
    """
    width = max((len(c.terms) for c in constraints), default=0)
    depth = max((max(c.degree, 1) for c in constraints), default=1)
    # Factor d of term t of every constraint, so that each factor and each term is a contiguous
    # (m, B) block. Missing terms have coefficient 0; missing factors read entry n*n, a constant 1.
    coeffs = np.zeros((width, len(constraints), 1))
    index = np.full((depth, width, len(constraints)), n * n)
    for a, c in enumerate(constraints):
        for t, (coeff, monomial) in enumerate(c.terms):
            coeffs[t, a] = coeff
            for d, (i, j) in enumerate(monomial):
                if i > n or j > n:
                    raise ValueError(f"constraint index ({i}, {j}) out of range for order {n}")
                index[d, t, a] = (i - 1) * n + (j - 1)

    def values(q: np.ndarray) -> np.ndarray:
        # Row e of the table holds entry e of every matrix; row n*n is the constant 1.
        entries = np.empty((n * n + 1, len(q)))
        entries[:-1] = _flat(q, n).T
        entries[-1] = 1.0
        factors = entries[index]
        terms = coeffs * factors[0]
        for d in range(1, depth):
            terms *= factors[d]
        total = np.zeros((len(constraints), len(q)))
        for t in range(width):
            total += terms[t]
        return total

    return values


def model_residual(model: RateModel, q) -> float:
    """Scale-invariant residual of q against the model's rate space.

    The batch-of-one case of the model's residual (RateModel._residual),
    which the closure audit and the samplers use.
    """
    q = check_square(q)
    return float(model._residual(q[None])[0])


class Membership(NamedTuple):
    """Verdict of a model membership test.

    ``residual`` is model_residual(model, q); ``in_r`` is residual <= tol,
    the comparison the closure audit makes for each log-product.
    """

    in_r: bool
    in_r_plus: bool
    residual: float


def membership(model: RateModel, q, tol: float = DEFAULT_MEMBERSHIP_TOL) -> Membership:
    """Test membership of q in the model's rate space and stochastic cone.

    The span decides when a basis is declared, the constraints
    otherwise; both through model_residual, which reads the model's
    residual.
    """
    residual = model_residual(model, q)
    in_r = residual <= tol
    return Membership(in_r, bool(in_r and is_stochastic_rate(q, tol)), residual)


def _const(value) -> np.ndarray:
    """A read-only uint64 array constant: arithmetic on uint64 arrays wraps mod 2**64 and never warns."""
    out = np.array(value, dtype=np.uint64)
    out.flags.writeable = False
    return out


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3",
# SC'11) as numpy defines it: the round multipliers of counter words 0 and 2, shaped to
# broadcast over a (2, rows, blocks) array, and their 32-bit halves; then the key's Weyl increments.
_PHILOX_M = _const([0xD2E7470EE14C6C93, 0xCA5A826395121157])[:, None, None]
_LOW32, _U64_11, _U64_32 = _const(0xFFFFFFFF), _const(11), _const(32)
_M_LO, _M_HI = _const(_PHILOX_M & _LOW32), _const(_PHILOX_M >> _U64_32)
_PHILOX_W = _const([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B])
_MASK64 = 2**64 - 1


def _check_seed(seed: int) -> int:
    """seed as an int, by operator.index; ValueError unless it lies in [0, 2**128), the range of a Philox key."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    return seed


class _SeedStreams:
    """Streams start .. start + count - 1 of seed, one row each, as Philox4x64-10 counters.

    Stream k of seed is np.random.Generator(np.random.Philox(key=seed,
    counter=k << 128)): its word i is lane i % 4 of the Philox block at
    counter (i // 4 + 1, 0, k, 0), the counter numpy increments before
    each block, and its i-th double is (word i >> 11) * 2**-53, as
    Generator.random() reads it. A counter-based generator holds no
    state: the instance keeps only the ten round keys and the stream
    ids, which no call changes, and ``random(rows, offset, m)`` is a pure
    function of its arguments. It computes the blocks that hold words
    offset .. offset + m - 1 of each listed row, in one pass of ten
    rounds over (2, len(rows), blocks) arrays. Each call allocates its
    work arrays once and every round writes them in place; the rounds
    read no reversed or broadcast operand, which would take numpy's
    slower strided loop. The seed must be a Philox key (_check_seed),
    whatever count is.
    """

    def __init__(self, seed: int, count: int, start: int = 0):
        seed = _check_seed(seed)
        # The key of each of the ten rounds: its two words, low first, bumped by r times the Weyl
        # increments, every sum and product wrapping mod 2**64.
        words = np.array([seed & _MASK64, seed >> 64 & _MASK64], dtype=np.uint64)
        self.keys = _const(words + np.arange(10, dtype=np.uint64)[:, None] * _PHILOX_W)
        self.stream = _const(np.arange(start, start + count, dtype=np.uint64))

    def random(self, rows: np.ndarray, offset: int, m: int) -> np.ndarray:
        """Doubles offset .. offset + m - 1 in [0, 1) of each listed row's stream, shape (len(rows), m)."""
        first, skip = divmod(offset, 4)
        blocks = (skip + m + 3) // 4
        shape = (2, len(rows), blocks)
        # x holds counter words 0 and 2, which a round multiplies; words 1 and 3 start at zero.
        x, lo, hi, hi_lo, cross, low = np.empty((6, *shape), dtype=np.uint64)
        x[0] = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)
        x[1] = self.stream[rows][:, None]
        # The multipliers fill x's shape once: a broadcast operand takes numpy's slower loop.
        m_lo, m_hi, mult = np.empty((3, *shape), dtype=np.uint64)
        m_lo[...], m_hi[...], mult[...] = _M_LO, _M_HI, _PHILOX_M
        (x_0, x_1), (hi_0, hi_1) = x, hi
        for r, (key_0, key_1) in enumerate(self.keys):
            # The high words of both products, from the 32-bit halves of the factors. Two terms of
            # cross are below 2**32 and the third is at most (2**32 - 1)**2, so their sum fits.
            np.bitwise_and(x, _LOW32, out=lo)
            np.right_shift(x, _U64_32, out=hi)
            np.multiply(m_hi, lo, out=hi_lo)
            np.multiply(m_lo, lo, out=cross)
            cross >>= _U64_32
            np.multiply(m_lo, hi, out=lo)
            cross += lo
            np.bitwise_and(hi_lo, _LOW32, out=lo)
            cross += lo
            hi *= m_hi
            hi_lo >>= _U64_32
            hi += hi_lo
            cross >>= _U64_32
            hi += cross
            # A round maps (x0, y0, x1, y1) to (high1 ^ y0 ^ key0, low1, high0 ^ y1 ^ key1, low0),
            # low = mult * x. So low is kept with its lanes unswapped, y = low[::-1], and the swap
            # happens once, lane by lane, as x is written back. y is zero before round 0.
            if r:
                hi ^= low
            np.multiply(mult, x, out=low)
            np.bitwise_xor(hi_1, key_0, out=x_0)
            np.bitwise_xor(hi_0, key_1, out=x_1)
        words = np.empty((len(rows), blocks, 4), dtype=np.uint64)
        words[..., 0::2] = x.transpose(1, 2, 0)
        words[..., 1::2] = low[::-1].transpose(1, 2, 0)
        out = (words.reshape(len(rows), 4 * blocks)[:, skip:skip + m] >> _U64_11).astype(float)
        out *= 2.0 ** -53
        return out


# Draws a basis-only sampler makes for one matrix before it gives up.
_MAX_ATTEMPTS = 1000


def _sample_stack(
    model: RateModel,
    rows: int,
    random: Callable[[np.ndarray, int, int], np.ndarray],
    count: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """count stochastic rate matrices for each of streams 0 .. rows - 1, as a (rows, count, n, n) stack.

    ``random(rows, offset, m)`` is the stream source: doubles offset ..
    offset + m - 1 of each listed stream, as a (len(rows), m) array: the
    Philox rows of a _SeedStreams, or one shared Generator
    (sample_with_rng), which ignores the offset. A candidate is one draw
    of width doubles, one per parameter or basis element, and slot i of
    a row is what the (i + 1)-th sample_with_rng call on its stream
    would draw. Also returns a mask of the rows that drew all count.

    A parameterized model maps lo + (hi - lo) * unit through its
    parameterization, which is Generator.uniform(lo, hi). Construction
    judged that it lands in the model, so no draw is judged again: slot
    i of a row is its candidate i, words i * width .. (i + 1) * width - 1,
    and the (rows * count) stack is returned as drawn.

    A basis-only model takes coefficients -1 + 2 * unit, which is
    Generator.uniform(-1, 1). Its draws lie in the span but need not be
    stochastic, so a candidate is accepted when it is a stochastic rate
    matrix within 1e-12 max(1, ||q||_F) (_is_rate_stack). A stream's
    matrices are its first count accepted candidates, in stream order.
    Each pass draws one candidate for every row that still needs one,
    from its own stream, into that row's next open slot if accepted.
    Every such row has drawn every pass so far, so all of them read the
    same width words, at one offset that each pass advances by width. A
    matrix that sees _MAX_ATTEMPTS rejected candidates in a row exhausts
    its stream: the row is marked failed in the mask (its open slots
    stay NaN) instead of raising. Rows of a shared Generator draw from
    it in row order; that matches sequential draws while no row is
    rejected.

    This is the one gate for drawing: a model with neither a
    parameterization nor a basis raises SamplingError here, before any
    word is read, whatever rows is. Every draw reaches it: the audit,
    span rows at a seed, sample_with_rng and the sample command.
    """
    if model.parameterization is None and not model.basis:
        raise SamplingError(f"model {model.name!r} has no parameterization or basis to sample")
    n = model.n
    if model.parameterization is not None:
        fn, width = get_parameterization(model.parameterization)
        lo, hi = np.array(model.parameter_ranges).T
        q = fn(lo + (hi - lo) * random(np.arange(rows), 0, count * width).reshape(-1, width))
        return q.reshape(rows, count, n, n), np.ones(rows, dtype=bool)
    stack = np.reshape(model.basis, (len(model.basis), n * n))
    width = len(stack)
    out = np.full((rows, count, n, n), np.nan)
    got = np.zeros(rows, dtype=int)
    misses = np.zeros(rows, dtype=int)
    pending, offset = np.arange(rows), 0
    while len(pending):
        coeffs = -1.0 + 2.0 * random(pending, offset, width)
        q = (coeffs[:, None, :] @ stack).reshape(-1, n, n)
        accept = _is_rate_stack(q)
        hit, miss = pending[accept], pending[~accept]
        out[hit, got[hit]] = q[accept]
        got[hit] += 1
        misses[hit] = 0
        misses[miss] += 1
        offset += width
        pending = pending[(got[pending] < count) & (misses[pending] < _MAX_ATTEMPTS)]
    return out, got == count


def _sample_all(
    model: RateModel, count: int, random: Callable[[np.ndarray, int, int], np.ndarray]
) -> np.ndarray:
    """Rows 0..count-1 of _sample_stack, one matrix each, as a (count, n, n) stack.

    count is at least 0, and 0 gives an empty stack. A parameterized
    model's rows never fail; raises SamplingError when a basis-only
    model's row is exhausted in _MAX_ATTEMPTS draws.
    """
    mats, ok = _sample_stack(model, count, random)
    if not ok.all():
        raise SamplingError(
            f"sampler could not reach the stochastic cone of {model.name!r} in {_MAX_ATTEMPTS} attempts")
    return mats[:, 0]


def sample_with_rng(model: RateModel, rng: np.random.Generator) -> np.ndarray:
    """Draw one stochastic rate matrix from the model using rng.

    The batch-of-one case of the stack sampler the closure audit uses.
    A parameterized draw is always accepted; a basis-only sampler raises
    SamplingError when no draw is accepted in _MAX_ATTEMPTS, and a model
    with neither at the sampler's gate (_sample_stack).
    """
    return _sample_all(model, 1, lambda rows, offset, m: rng.random((len(rows), m)))[0]


def _sample_stochastic_stack(model: RateModel, seed: int, count: int) -> np.ndarray:
    """Row k is sample_with_rng(model, rng) on stream k of seed, for k < count, as one stack.

    Stream k is np.random.Generator(np.random.Philox(key=seed, counter=k << 128)),
    drawn here by _SeedStreams. count is at least 0, and 0 gives an
    empty stack. Raises ValueError when seed is not in [0, 2**128), and
    then SamplingError when the model cannot be drawn from or any row's
    sampler is exhausted.
    """
    return _sample_all(model, count, _SeedStreams(seed, count).random)


def check_scaling_closure(model: RateModel) -> bool | None:
    """Whether the model is closed under non-negative scalar multiplication: True, or None if undecided.

    Decided algebraically where it can be. A declared basis decides
    membership, whatever constraints the model also declares, and a span
    is a linear space, so a basis model scales. A homogeneous constraint
    of degree d satisfies f(alpha q) = alpha^d f(q), so a model whose
    constraints are all homogeneous scales too. An inhomogeneous
    constraint of a model without a basis does not settle the question
    either way: q12^2 + q12 = 0 holds on the stochastic cone exactly
    when q12 = 0, which is a cone. Such a model gets None.
    """
    return True if model.basis or all(c.homogeneous for c in model.constraints) else None


# ---------------------------------------------------------------------------
# Model file format (JSON). Matrices are flat row-major lists; constraint
# indices are 1-based (i, j) pairs. Either "basis" or "constraints" (or
# both) must be present.
# ---------------------------------------------------------------------------

def model_to_dict(model: RateModel) -> dict:
    """Serialize a model in the model file format, in the column convention."""
    doc: dict = {"name": model.name, "n": model.n, "convention": "column"}
    if model.basis:
        doc["basis"] = [[float(x) for x in np.asarray(b).reshape(-1)] for b in model.basis]
    if model.constraints:
        doc["constraints"] = [
            {
                "terms": [
                    {"coeff": coeff, "monomial": [[i, j] for i, j in monomial]}
                    for coeff, monomial in c.terms
                ]
            }
            for c in model.constraints
        ]
    doc["parameterization"] = model.parameterization
    if model.parameter_ranges is not None:
        doc["parameter_ranges"] = [[lo, hi] for lo, hi in model.parameter_ranges]
    return doc


_REQUIRED = object()


def _field(doc: dict, key: str, parse: Callable, default=_REQUIRED):
    """parse(doc[key]); an optional field that is absent or null gives default instead.

    A required field that is absent or null, or a KeyError, TypeError or
    ValueError from parse, is a ModelFormatError that names the field.
    """
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ModelFormatError(f"model file field {key!r} is missing or null")
        return default
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ModelFormatError(f"model file field {key!r}: {detail}") from exc


def model_from_dict(doc: dict) -> RateModel:
    """Build a RateModel from the model file format.

    Only reads the fields; RateModel judges whether they make a model.
    A file declaring ``"convention": "row"`` is converted to the column
    convention: its basis matrices are transposed and the (i, j) pairs
    of its constraint monomials swapped.
    """
    name = _field(doc, "name", str)
    n = _field(doc, "n", _json_int)
    axes = _field(doc, "convention", config.column_axes, config.column_axes("column"))
    swap = itemgetter(*axes)

    def matrix(flat) -> np.ndarray:
        arr = _json_floats(flat)
        if arr.size != n * n:
            raise ValueError(f"basis matrix has {arr.size} entries, expected {n * n}")
        return arr.reshape(n, n).transpose(axes)

    def constraint(cdoc) -> PolynomialConstraint:
        return PolynomialConstraint(tuple(
            (t["coeff"], tuple(swap((i, j)) for i, j in t["monomial"])) for t in cdoc["terms"]
        ))

    basis = _field(doc, "basis", lambda v: tuple(map(matrix, v)), ())
    constraints = _field(doc, "constraints", lambda v: tuple(map(constraint, v)), ())
    parameterization = _field(doc, "parameterization", str, None)
    ranges = _field(doc, "parameter_ranges", tuple, None)
    try:
        return RateModel(name, n, basis, constraints, parameterization, ranges)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def load_model(source) -> RateModel:
    """Read a model file from a path or from an open text stream such as stdin."""
    if not hasattr(source, "read"):
        with open(source, "r", encoding="utf-8") as fh:
            return load_model(fh)
    name = getattr(source, "name", "model stream")
    try:
        doc = json.load(source)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{name} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{name} must contain a JSON object")
    return model_from_dict(doc)
