"""Markov model representation.

A model is a set of stochastic rate matrices cut out of the zero-sum
space either by a linear span basis, by polynomial constraints on the
off-diagonal entries, or both, optionally with a named parameterization
for seeded sampling. Models are immutable after construction and safe to
share across threads. Every value a model fills in later is a
deterministic function of its fields: its compiled constraint values
(_constraint_values), its residual (_residual), and its algebra record
(_algebra): the span, the Lie algebra that span generates, the dimension
after each level of brackets and the rank gap.
"""

from __future__ import annotations

import json
import math
import operator
from operator import itemgetter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import config
from .linalg import (
    DEFAULT_MEMBERSHIP_TOL,
    _fro_rows,
    check_matrices,
    check_square,
    check_stack,
)


class SamplingError(RuntimeError):
    """A seeded sampler could not produce a valid stochastic rate matrix."""


class ModelFormatError(ValueError):
    """A model file or dictionary does not follow the model format."""


def _json_int(value) -> int:
    """An integer as an int, by operator.index; floats, strings and booleans are refused."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


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
            coeff = float(coeff)
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


class _derived(cached_property):
    """A cached_property that takes no lock.

    Before Python 3.12 a cached_property holds one lock per property for
    all instances. A span model's _residual reads its _algebra while a
    sampled model's _algebra reads its _residual, so two threads filling
    them for two models could each wait for the other. Every derived
    value is a deterministic function of the model's fields, so threads
    that race may each compute it, and the instance keeps the first. The
    descriptor defines no __set__, so a kept value shadows it.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.attrname, self.func(instance))


@dataclass(frozen=True, eq=False)
class RateModel:
    """A named Markov model over n states.

    ``basis`` spans the model's rate space when that space is linear;
    ``constraints`` define it as a variety otherwise (at least one must
    be given; with both, the basis decides membership and must satisfy
    every constraint). ``parameterization`` names a registered generator
    and ``parameter_ranges`` gives it one (lo, hi) range per parameter,
    for seeded sampling; the two come together or not at all.

    Construction only judges the model well formed: a breach of any rule
    above raises ValueError. Everything else is derived from the fields
    once, on first use, and held on the instance; a pickle or copy
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
            try:
                values = self._constraint_values
            except IndexError as exc:
                raise ValueError(str(exc)) from None
            if len(basis) and np.max(np.abs(values(basis))) > 1e-12:
                raise ValueError("basis matrices must satisfy the declared constraints")
        if (self.parameterization is None) != (self.parameter_ranges is None):
            raise ValueError(
                f"model {self.name!r} must declare parameterization and parameter_ranges together"
            )
        if self.parameterization is not None:
            _, n_params = get_parameterization(self.parameterization)
            try:
                ranges = tuple((float(lo), float(hi)) for lo, hi in self.parameter_ranges)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"parameter_ranges must be (lo, hi) pairs: {exc}") from None
            for lo, hi in ranges:
                # A NaN fails lo <= hi; an infinite bound would leave every draw non-finite.
                if not (lo <= hi and math.isfinite(lo) and math.isfinite(hi)):
                    raise ValueError(
                        f"parameter_ranges must be finite with lo <= hi, got ({lo}, {hi})"
                    )
            if len(ranges) != n_params:
                raise ValueError(
                    f"model {self.name!r} declares {len(ranges)} ranges "
                    f"but parameterization {self.parameterization!r} takes {n_params}"
                )
            object.__setattr__(self, "parameter_ranges", ranges)

    def __reduce__(self):
        # The derived values include closures, so a pickle or copy rebuilds the model from its fields.
        return RateModel, (self.name, self.n, self.basis, self.constraints,
                           self.parameterization, self.parameter_ranges)

    @property
    def samplable(self) -> bool:
        return bool(self.basis) or self.parameterization is not None

    @_derived
    def _constraint_values(self) -> Callable[[np.ndarray], np.ndarray]:
        """The constraints' raw values; construction reads them, so a bad index fails there."""
        return _compile_constraints(self.n, self.constraints)

    @_derived
    def _residual(self) -> Callable[[np.ndarray], np.ndarray]:
        """The scale-invariant residual of each matrix of a (B, n, n) stack.

        A span model divides the norm of q's part outside the span (its
        projection by I - V^T V, V the span rows of _algebra) by
        max(||q||_F, 1), as least_squares_membership does. A constraint
        model takes the largest absolute constraint value, a homogeneous
        degree-d one divided by ||q||_F^d first, so a positive rescaling
        of q keeps it.
        """
        n = self.n
        if self.basis:
            span = self._algebra.span.reshape(-1, n * n)
            projector = np.eye(n * n) - span.T @ span

            def span_residual(q: np.ndarray) -> np.ndarray:
                flat = _flat(q, n)
                return _fro_rows(flat @ projector) / np.maximum(_fro_rows(flat), 1.0)

            return span_residual
        values = self._constraint_values
        degree = np.array([c.degree if c.homogeneous else 0 for c in self.constraints])
        top = int(degree.max(initial=0))

        def constraint_residual(q: np.ndarray) -> np.ndarray:
            total = np.abs(values(q))
            # ||q||_F^d for d = 0..top, each the product of the one before and ||q||_F; a zero norm gives 1.
            scale = np.empty((top + 1, len(q)))
            scale[0] = 1.0
            if top:
                nrm = _fro_rows(q)
                scale[1] = np.where(nrm > 0.0, nrm, 1.0)
                for d in range(2, top + 1):
                    np.multiply(scale[d - 1], scale[1], out=scale[d])
            total /= scale[degree]
            return total.max(axis=0)

        return constraint_residual

    @_derived
    def _algebra(self) -> tuple:
        """The algebra record at seed 0 (closure._algebra_at), read by the residual, span_basis and the audit."""
        from .closure import _algebra_at  # closure imports this module, so it is imported here

        return _algebra_at(self, 0)


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
    with np.errstate(over="ignore"):  # a norm past 1.3e154 is summed again, scaled
        scale = np.maximum(1.0, _fro_rows(stack))
    if not _zero_sums(stack, 1e-10 * scale).all():
        raise ValueError(message)


def _column_sums(q: np.ndarray) -> np.ndarray:
    """The column sums of each matrix of a stack of order >= 2, as q.sum(axis=-2) gives them, bit for bit.

    The rows are added in order, as that reduction adds them, but as
    whole-row array additions rather than a reduction over a short axis.
    """
    sums = q[..., 0, :] + q[..., 1, :]
    for i in range(2, q.shape[-2]):
        sums += q[..., i, :]
    return sums


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
    sum and product unchanged. Raises IndexError when a monomial index
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
                    raise IndexError(f"constraint index ({i}, {j}) out of range for order {n}")
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
    slower strided loop. Raises ValueError when count is positive and
    seed is not in [0, 2**128), the range of a Philox key.
    """

    def __init__(self, seed: int, count: int, start: int = 0):
        seed = operator.index(seed)
        if count > 0 and not 0 <= seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), got {seed}")
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


# Draws a sampler makes for one matrix before it gives up.
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
    of width doubles, one per parameter or basis element: a
    parameterized model maps lo + (hi - lo) * unit through its
    parameterization, which is Generator.uniform(lo, hi); a basis-only
    model takes coefficients -1 + 2 * unit, which is
    Generator.uniform(-1, 1). A stream's matrices are its first count
    accepted candidates, in stream order, so slot i of a row is what the
    (i + 1)-th sample_with_rng call on its stream would draw. The first
    attempt draws count candidates for every row, words 0 .. count *
    width - 1, as one (rows * count) stack. When it accepts every
    candidate, as on every zoo draw, slot i of a row is its candidate i,
    and that stack is returned as drawn, with no fill, copy or slot
    count. Otherwise each row's candidates fill its slots one by one, and
    each later attempt draws one candidate for every row that still
    needs one, from its own stream. Every such row has drawn every
    attempt so far, so all of them read the same width words next, at
    one offset that each attempt advances by width. A matrix that sees
    _MAX_ATTEMPTS rejected candidates in a row exhausts its stream: the
    row is marked failed in the returned mask (its open slots stay NaN)
    instead of raising. Rows of a shared Generator draw from it in row
    order; that matches sequential draws while no row is rejected.

    A parameterized draw is accepted when it is a stochastic rate matrix
    and its model residual is at most 1e-10. A basis-only draw lies in
    its span by construction and only needs to be stochastic. Raises
    SamplingError when the model cannot be sampled at all.
    """
    n = model.n
    if model.parameterization is not None:
        fn, width = get_parameterization(model.parameterization)
        lo, hi = np.array(model.parameter_ranges).T

        def draw(rows: np.ndarray, offset: int, k: int) -> tuple[np.ndarray, np.ndarray]:
            q = fn(lo + (hi - lo) * random(rows, offset, k * width).reshape(-1, width))
            return q, is_stochastic_rate(q, 1e-12) & (model._residual(q) <= 1e-10)
    elif model.basis:
        stack = np.reshape(model.basis, (len(model.basis), n * n))
        width = len(stack)

        def draw(rows: np.ndarray, offset: int, k: int) -> tuple[np.ndarray, np.ndarray]:
            coeffs = -1.0 + 2.0 * random(rows, offset, k * width).reshape(-1, width)
            q = (coeffs[:, None, :] @ stack).reshape(-1, n, n)
            return q, is_stochastic_rate(q, 1e-12)
    else:
        raise SamplingError(f"model {model.name!r} has no parameterization or basis to sample")
    pending = np.arange(rows)
    q, accept = draw(pending, 0, count)
    if accept.all():
        # As on every zoo draw: slot i of a row is its candidate i, so the draw is the stack.
        return q.reshape(rows, count, n, n), np.ones(rows, dtype=bool)
    out = np.full((rows, count, n, n), np.nan)
    got = np.zeros(rows, dtype=int)
    misses = np.zeros(rows, dtype=int)
    offset = count * width
    while True:
        q, accept = q.reshape(len(pending), -1, n, n), accept.reshape(len(pending), -1)
        # A row's candidates fill its open slots in stream order until it is full or exhausted.
        for j in range(accept.shape[1]):
            live = (got[pending] < count) & (misses[pending] < _MAX_ATTEMPTS)
            take = live & accept[:, j]
            hit, miss = pending[take], pending[live & ~accept[:, j]]
            out[hit, got[hit]] = q[take, j]
            got[hit] += 1
            misses[hit] = 0
            misses[miss] += 1
        pending = pending[(got[pending] < count) & (misses[pending] < _MAX_ATTEMPTS)]
        if not len(pending):
            return out, got == count
        q, accept = draw(pending, offset, 1)
        offset += width


def _sample_all(
    model: RateModel, count: int, random: Callable[[np.ndarray, int, int], np.ndarray]
) -> np.ndarray:
    """Rows 0..count-1 of _sample_stack, one matrix each, as a (count, n, n) stack.

    A count of zero or below gives an empty stack. Raises SamplingError
    when any row is exhausted in _MAX_ATTEMPTS draws.
    """
    mats, ok = _sample_stack(model, max(count, 0), random)
    if ok.all():
        return mats[:, 0]
    if model.parameterization is not None:
        raise SamplingError(f"parameterized sampler for {model.name!r} failed {_MAX_ATTEMPTS} times")
    raise SamplingError(
        f"sampler could not reach the stochastic cone of {model.name!r} "
        f"in {_MAX_ATTEMPTS} attempts"
    )


def sample_with_rng(model: RateModel, rng: np.random.Generator) -> np.ndarray:
    """Draw one stochastic rate matrix from the model using rng.

    The batch-of-one case of the stack sampler the closure audit uses;
    raises SamplingError when no draw is accepted in _MAX_ATTEMPTS.
    """
    return _sample_all(model, 1, lambda rows, offset, m: rng.random((len(rows), m)))[0]


def _sample_stochastic_stack(model: RateModel, seed: int, count: int) -> np.ndarray:
    """Row k is sample_with_rng(model, rng) on stream k of seed, for k < count, as one stack.

    Stream k is np.random.Generator(np.random.Philox(key=seed, counter=k << 128)),
    drawn here by _SeedStreams. A count of zero or below gives an empty
    stack. Raises SamplingError when any row's sampler is exhausted, and
    ValueError when count is positive and seed is not in [0, 2**128).
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
        arr = np.asarray(flat, dtype=float)
        if arr.size != n * n:
            raise ValueError(f"basis matrix has {arr.size} entries, expected {n * n}")
        return arr.reshape(n, n).transpose(axes)

    def constraint(cdoc) -> PolynomialConstraint:
        return PolynomialConstraint(tuple(
            (float(t["coeff"]), tuple(swap((_json_int(i), _json_int(j))) for i, j in t["monomial"]))
            for t in cdoc["terms"]
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
