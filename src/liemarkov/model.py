"""Markov model representation.

A model is a set of stochastic rate matrices cut out of the zero-sum
space either by a linear span basis, by polynomial constraints on the
off-diagonal entries, or both, optionally with a named parameterization
for seeded sampling. Models are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import json
import math
import operator
from operator import itemgetter
from dataclasses import dataclass, field
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
    sum(coeff * prod(q_ij)).
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
        """The batch-of-one case of the compiled constraint evaluator."""
        q = check_square(q)
        return float(_compile_constraints(q.shape[0], (self,))(q[None])[0, 0])


def product_constraint(left: Sequence[tuple[int, int]], right: Sequence[tuple[int, int]]) -> PolynomialConstraint:
    """The equality prod(q_left) = prod(q_right) as a homogeneous constraint."""
    return PolynomialConstraint(((1.0, tuple(left)), (-1.0, tuple(right))))


# Named parameterizations (filled in by the zoo module on import). Each
# maps a (B, n_params) array of parameter rows to a (B, n, n) stack.
_PARAMETERIZATIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], int]] = {}


def register_parameterization(name: str, fn: Callable[[np.ndarray], np.ndarray], n_params: int) -> None:
    """Register fn, which maps a (B, n_params) parameter array to a (B, n, n) stack."""
    _PARAMETERIZATIONS[name] = (fn, n_params)


def get_parameterization(name: str) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    try:
        return _PARAMETERIZATIONS[name]
    except KeyError:
        raise ModelFormatError(f"unknown parameterization {name!r}") from None


@dataclass(frozen=True, eq=False)
class RateModel:
    """A named Markov model over n states.

    ``basis`` spans the model's rate space when that space is linear;
    ``constraints`` define it as a variety otherwise (at least one must
    be given; with both, the basis decides membership and must satisfy
    every constraint). ``parameterization`` names a registered generator
    and ``parameter_ranges`` gives it one (lo, hi) range per parameter,
    for seeded sampling; the two come together or not at all.

    Construction is the one place a model is judged well formed: a
    breach of any rule above raises ValueError here. It also compiles,
    once, the constraint values (None without constraints), the
    orthonormal span basis of a declared basis (None without one) and
    the residual; every membership test, sampler, span and audit of the
    model uses these.
    """

    name: str
    n: int
    basis: tuple[np.ndarray, ...] = ()
    constraints: tuple[PolynomialConstraint, ...] = ()
    parameterization: str | None = None
    parameter_ranges: tuple[tuple[float, float], ...] | None = None
    _constraint_values: Callable[[np.ndarray], np.ndarray] | None = field(
        init=False, repr=False, default=None
    )
    _span: np.ndarray | None = field(init=False, repr=False, default=None)
    _residual: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)

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
            if not is_in_L(basis, tol=1e-10 * np.maximum(1.0, _fro_rows(basis))).all():
                raise ValueError("basis matrices must have zero generator sums")
            span = _svd_range(basis, DEFAULT_RANK_RTOL)
            span.flags.writeable = False
            object.__setattr__(self, "_span", span)
        basis.flags.writeable = False
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.basis and not self.constraints:
            raise ValueError(f"model {self.name!r} must declare a basis or constraints")
        if self.constraints:
            try:
                values = _compile_constraints(self.n, self.constraints)
            except IndexError as exc:
                raise ValueError(str(exc)) from None
            if len(basis) and np.max(np.abs(values(basis))) > 1e-12:
                raise ValueError("basis matrices must satisfy the declared constraints")
            object.__setattr__(self, "_constraint_values", values)
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
        object.__setattr__(self, "_residual", _compile_residual(self))

    def __reduce__(self):
        # The compiled functions are closures, so a pickle or copy rebuilds the model from its fields.
        return RateModel, (self.name, self.n, self.basis, self.constraints,
                           self.parameterization, self.parameter_ranges)

    @property
    def samplable(self) -> bool:
        return bool(self.basis) or self.parameterization is not None


def is_in_L(q, tol: float = 1e-12):
    """True when every column sum of q is zero within tol.

    For a (B, n, n) stack the answer is a boolean array, one per matrix.
    """
    q = check_stack(q)
    ok = np.max(np.abs(q.sum(axis=-2)), axis=-1) <= tol
    return bool(ok) if q.ndim == 2 else ok


def is_stochastic_rate(q, tol: float = 1e-12):
    """True when q is a valid rate matrix: zero sums and off-diagonals >= -tol.

    For a (B, n, n) stack the answer is a boolean array, one per matrix.
    """
    q = check_stack(q)
    off = q[..., ~np.eye(q.shape[-1], dtype=bool)]
    ok = is_in_L(q, tol) & (np.min(off, axis=-1) >= -tol)
    return bool(ok) if q.ndim == 2 else ok


def _flat(q: np.ndarray, n: int) -> np.ndarray:
    if q.shape[-2:] != (n, n):
        raise ValueError("matrix order does not match the model")
    return q.reshape(len(q), n * n)


def _compile_constraints(
    n: int, constraints: Sequence[PolynomialConstraint]
) -> Callable[[np.ndarray], np.ndarray]:
    """Raw constraint values as a function of a (B, n, n) stack, shape (B, m).

    Gathers the entries of every monomial, multiplies each term's
    coefficient by its factors in declaration order and sums each
    constraint's terms in declaration order, starting from 0.0; missing
    terms and factors are padded with a zero coefficient and a constant
    1, which leave every sum and product unchanged. Raises IndexError
    when a monomial index exceeds n.
    """
    width = max((len(c.terms) for c in constraints), default=0)
    depth = max((max(c.degree, 1) for c in constraints), default=1)
    # Missing terms have coefficient 0; missing factors read entry n*n, a constant 1.
    coeffs = np.zeros((len(constraints), width))
    index = np.full((len(constraints), width, depth), n * n)
    for a, c in enumerate(constraints):
        for t, (coeff, monomial) in enumerate(c.terms):
            coeffs[a, t] = coeff
            for d, (i, j) in enumerate(monomial):
                if i > n or j > n:
                    raise IndexError(f"constraint index ({i}, {j}) out of range for order {n}")
                index[a, t, d] = (i - 1) * n + (j - 1)

    def values(q: np.ndarray) -> np.ndarray:
        entries = np.concatenate([_flat(q, n), np.ones((len(q), 1))], axis=1)
        total = np.zeros((len(q), len(constraints)))
        for t in range(width):
            term = coeffs[:, t]
            for d in range(depth):
                term = term * entries[:, index[:, t, d]]
            total = total + term
        return total

    return values


def _compile_residual(model: RateModel) -> Callable[[np.ndarray], np.ndarray]:
    """The model's scale-invariant residual as a function of a (B, n, n) stack.

    A span model projects each vectorized matrix onto the orthogonal
    complement of its span (I - V^T V, V the orthonormal span basis the
    model computed once, at the same DEFAULT_RANK_RTOL cutoff that
    span_basis reports) and divides the remainder's norm by
    max(||q||_F, 1), as least_squares_membership does. A constraint
    model takes the largest absolute raw constraint value; a homogeneous
    degree-d constraint is divided by ||q||_F^d first, so the residual
    is invariant under positive rescaling of q. RateModel builds this
    once, at construction, from the span basis or the constraint values
    it compiled there.
    """
    n = model.n
    if model.basis:
        projector = np.eye(n * n) - model._span.T @ model._span

        def span_residual(q: np.ndarray) -> np.ndarray:
            flat = _flat(q, n)
            return _fro_rows(flat @ projector) / np.maximum(_fro_rows(flat), 1.0)

        return span_residual
    values = model._constraint_values
    degree = np.array([c.degree if c.homogeneous else 0 for c in model.constraints], dtype=float)

    def constraint_residual(q: np.ndarray) -> np.ndarray:
        total = values(q)
        nrm = _fro_rows(q)[:, None]
        scale = np.where((degree > 0) & (nrm > 0.0), nrm ** degree, 1.0)
        return np.max(np.abs(total) / scale, axis=1)

    return constraint_residual


def model_residual(model: RateModel, q) -> float:
    """Scale-invariant residual of q against the model's rate space.

    The batch-of-one case of the residual the model compiled when it was
    built, which the closure audit and the samplers use.
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
    otherwise; both through model_residual. Raw constraint values come
    from PolynomialConstraint.evaluate.
    """
    residual = model_residual(model, q)
    in_r = residual <= tol
    return Membership(in_r, bool(in_r and is_stochastic_rate(q, tol)), residual)


# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier, as numpy defines them.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The multiplier's high word, low word and the low word's 32-bit halves.
_PCG_HI, _PCG_LO, _PCG_LO0, _PCG_LO1 = (
    np.array(w, dtype=np.uint64)
    for w in (_PCG_MULT >> 64, _PCG_MULT & (2**64 - 1), _PCG_MULT & _MASK32, (_PCG_MULT >> 32) & _MASK32)
)
_U32_MASK = np.array(_MASK32, dtype=np.uint64)


def _u32(x: int) -> np.ndarray:
    return np.array(x, dtype=np.uint32)


def _u64(x: int) -> np.ndarray:
    return np.array(x, dtype=np.uint64)


class _SeedStreams:
    """The streams of np.random.default_rng(seed + k) for k < count, advanced as arrays.

    Reproduces, with uint32/uint64 array arithmetic for every row at
    once, SeedSequence(seed + k): the entropy words of seed + k, the
    pool mixing and generate_state(4, uint64); then PCG64's seeding from
    those four words, its 128-bit LCG step and XSL-RR output, and
    Generator.random()'s (x >> 11) * 2**-53. ``random(rows, m)`` returns
    the next m doubles of each listed row's stream and advances only
    those rows, so row k yields what default_rng(seed + k).random(m)
    calls would. The state lives in the instance, never in the module.
    Raises ValueError when a seed + k is negative, as default_rng does.
    """

    def __init__(self, seed: int, count: int):
        seed = operator.index(seed)
        if count > 0 and seed < 0:
            raise ValueError("expected non-negative integer")
        # Entropy: the base-2**32 words of seed + k, least significant first, one column per row.
        nwords = max(1, ((seed + count - 1).bit_length() + 31) // 32)
        words = np.zeros((max(nwords, 4), count), dtype=np.uint32)
        carry = np.arange(count, dtype=np.uint64)
        for i in range(nwords):
            total = carry + _u64((seed >> (32 * i)) & _MASK32)
            words[i] = total & _U32_MASK
            carry = total >> _u64(32)
        # SeedSequence pads entropy shorter than its pool of 4 with zeros, which
        # is what the zero rows are; longer entropy mixes only the words it has.
        length = len(words) - np.argmax(words[::-1] != 0, axis=0)
        hash_const = _INIT_A

        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ _u32(hash_const)
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * _u32(hash_const)
            return value ^ (value >> _u32(16))

        def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            out = _u32(_MIX_L) * x - _u32(_MIX_R) * y
            return out ^ (out >> _u32(16))

        pool = [hashmix(words[i]) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(4, len(words)):
            present = length > src
            for dst in range(4):
                pool[dst] = np.where(present, mix(pool[dst], hashmix(words[src])), pool[dst])
        # generate_state(4, uint64): eight hashed 32-bit words, paired little-endian.
        hash_const = _INIT_B
        state = []
        for i in range(8):
            value = pool[i % 4] ^ _u32(hash_const)
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * _u32(hash_const)
            state.append((value ^ (value >> _u32(16))).astype(np.uint64))
        w = [state[2 * j] | (state[2 * j + 1] << _u64(32)) for j in range(4)]
        # PCG64 seeding: inc = (w2:w3 << 1) | 1, state = inc + w0:w1, then one step.
        self.inc_hi = (w[2] << _u64(1)) | (w[3] >> _u64(63))
        self.inc_lo = (w[3] << _u64(1)) | _u64(1)
        lo = self.inc_lo + w[1]
        hi = self.inc_hi + w[0] + (lo < w[1])
        self.hi, self.lo = self._step(hi, lo, self.inc_hi, self.inc_lo)

    @staticmethod
    def _step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
        """One LCG step, state * _PCG_MULT + inc mod 2**128, on (high, low) word arrays."""
        # The high word of lo * _PCG_LO, from the 32-bit halves of both factors.
        lo0, lo1 = lo & _U32_MASK, lo >> _u64(32)
        p00, p01, p10, p11 = lo0 * _PCG_LO0, lo0 * _PCG_LO1, lo1 * _PCG_LO0, lo1 * _PCG_LO1
        mid = (p00 >> _u64(32)) + (p01 & _U32_MASK) + (p10 & _U32_MASK)
        high = p11 + (p01 >> _u64(32)) + (p10 >> _u64(32)) + (mid >> _u64(32))
        new_lo = lo * _PCG_LO + inc_lo
        new_hi = high + lo * _PCG_HI + hi * _PCG_LO + inc_hi + (new_lo < inc_lo)
        return new_hi, new_lo

    def random(self, rows: np.ndarray, m: int) -> np.ndarray:
        """The next m doubles in [0, 1) of each listed row's stream, shape (len(rows), m)."""
        hi, lo = self.hi[rows], self.lo[rows]
        inc_hi, inc_lo = self.inc_hi[rows], self.inc_lo[rows]
        bits = np.empty((len(rows), m), dtype=np.uint64)
        for j in range(m):
            hi, lo = self._step(hi, lo, inc_hi, inc_lo)
            # XSL-RR: the xor of both words, rotated right by the top 6 bits.
            x, rot = hi ^ lo, hi >> _u64(58)
            bits[:, j] = (x >> rot) | (x << ((_u64(64) - rot) & _u64(63)))
        self.hi[rows], self.lo[rows] = hi, lo
        return (bits >> _u64(11)).astype(float) * 2.0 ** -53


# Draws a sampler makes for one matrix before it gives up.
_MAX_ATTEMPTS = 1000


def _generator_source(rng: np.random.Generator) -> Callable[[np.ndarray, int], np.ndarray]:
    """One shared Generator as a stream source: the listed rows draw from it in row order."""
    return lambda rows, m: rng.random((len(rows), m))


def _sample_stack(
    model: RateModel,
    rows: np.ndarray,
    random: Callable[[np.ndarray, int], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """One stochastic rate matrix per stream in rows, as a (len(rows), n, n) stack.

    ``random(rows, m)`` is the stream source: the next m uniform doubles
    of each listed stream, as a (len(rows), m) array, either a
    _SeedStreams or one shared Generator (_generator_source). Each
    attempt makes one draw for all pending rows: a parameterized model
    maps lo + (hi - lo) * unit through its parameterization, which is
    Generator.uniform(lo, hi); a basis-only model takes coefficients
    -1 + 2 * unit, which is Generator.uniform(-1, 1). So a row draws what
    sample_with_rng would draw from its stream. A rejected row redraws
    alone, from its own stream, up to _MAX_ATTEMPTS times in all; a row
    that runs out is marked failed in the returned mask (its matrix is
    NaN) instead of raising. Rows of a shared Generator draw from it in
    row order; that matches sequential draws while no row is rejected.

    A parameterized draw is accepted when it is a stochastic rate matrix
    and its model residual is at most 1e-10. A basis-only draw lies in
    its span by construction and only needs to be stochastic. Raises
    SamplingError when the model cannot be sampled at all.
    """
    n = model.n
    if model.parameterization is not None:
        fn, _ = get_parameterization(model.parameterization)
        lo, hi = np.array(model.parameter_ranges).T

        def draw(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            q = fn(lo + (hi - lo) * random(rows, len(lo)))
            return q, is_stochastic_rate(q, 1e-12) & (model._residual(q) <= 1e-10)
    elif model.basis:
        stack = np.reshape(model.basis, (len(model.basis), n * n))

        def draw(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            coeffs = -1.0 + 2.0 * random(rows, len(stack))
            q = (coeffs[:, None, :] @ stack).reshape(len(rows), n, n)
            return q, is_stochastic_rate(q, 1e-12)
    else:
        raise SamplingError(f"model {model.name!r} has no parameterization or basis to sample")
    out = np.full((len(rows), n, n), np.nan)
    ok = np.zeros(len(rows), dtype=bool)
    pending = np.arange(len(rows))
    for _ in range(_MAX_ATTEMPTS):
        if not len(pending):
            break
        q, accept = draw(rows[pending])
        out[pending[accept]] = q[accept]
        ok[pending[accept]] = True
        pending = pending[~accept]
    return out, ok


def _sample_all(
    model: RateModel, count: int, random: Callable[[np.ndarray, int], np.ndarray]
) -> np.ndarray:
    """Rows 0..count-1 of _sample_stack as a (count, n, n) stack.

    Raises SamplingError when any row is exhausted in _MAX_ATTEMPTS draws.
    """
    mats, ok = _sample_stack(model, np.arange(count), random)
    if ok.all():
        return mats
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
    return _sample_all(model, 1, _generator_source(rng))[0]


def _sample_stochastic_stack(model: RateModel, seed: int, count: int) -> np.ndarray:
    """Row k is sample_with_rng(model, np.random.default_rng(seed + k)), for k < count, as one stack.

    A count of zero or below gives an empty stack. Raises SamplingError
    when any row's sampler is exhausted, and ValueError when seed is
    negative and count positive, as default_rng does.
    """
    count = max(count, 0)
    return _sample_all(model, count, _SeedStreams(seed, count).random)


def check_scaling_closure(model: RateModel) -> bool:
    """Whether the model is closed under non-negative scalar multiplication.

    Decided algebraically: a span is a linear space, and a homogeneous
    constraint of degree d satisfies f(alpha q) = alpha^d f(q), so the
    model scales unless a defining constraint is inhomogeneous.
    """
    return all(c.homogeneous for c in model.constraints)


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
