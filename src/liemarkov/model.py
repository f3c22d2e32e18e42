"""Markov model representation.

A model is a set of stochastic rate matrices cut out of the zero-sum
space either by a linear span basis, by polynomial constraints on the
off-diagonal entries, or both, optionally with a named parameterization
for seeded sampling. Models are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import json
from operator import itemgetter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import config
from .linalg import (
    DEFAULT_MEMBERSHIP_TOL,
    _fro_rows,
    _svd_range,
    check_square,
    check_stack,
    frobenius,
)


class SamplingError(RuntimeError):
    """A seeded sampler could not produce a valid stochastic rate matrix."""


class ModelFormatError(ValueError):
    """A model file or dictionary does not follow the model format."""


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
            pairs = tuple((int(i), int(j)) for i, j in monomial)
            for i, j in pairs:
                if i < 1 or j < 1:
                    raise ValueError(f"constraint indices are 1-based, got ({i}, {j})")
                if i == j:
                    raise ValueError("constraints only involve off-diagonal entries")
            norm.append((float(coeff), pairs))
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


def linear_constraint(plus: tuple[int, int], minus: tuple[int, int]) -> PolynomialConstraint:
    """The equality q_plus = q_minus as a degree-1 constraint."""
    return PolynomialConstraint(((1.0, (plus,)), (-1.0, (minus,))))


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
    ``constraints`` define it as a variety otherwise (both may be
    present, in which case the basis decides membership and must satisfy
    every constraint). ``parameterization`` names a registered generator
    used together with ``parameter_ranges`` for seeded sampling.
    """

    name: str
    n: int
    basis: tuple[np.ndarray, ...] = ()
    constraints: tuple[PolynomialConstraint, ...] = ()
    parameterization: str | None = None
    parameter_ranges: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("model order must be at least 2")
        mats = []
        for b in self.basis:
            b = check_square(b)
            if b.shape[0] != self.n:
                raise ValueError("basis matrix order does not match the model")
            if not is_in_L(b, tol=1e-10 * max(1.0, frobenius(b))):
                raise ValueError("basis matrices must have zero generator sums")
            b = b.copy()
            b.flags.writeable = False
            mats.append(b)
        object.__setattr__(self, "basis", tuple(mats))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.basis and self.constraints:
            values = _compile_constraints(self.n, self.constraints)(np.stack(self.basis))
            if np.max(np.abs(values)) > 1e-12:
                raise ValueError("basis matrices must satisfy the declared constraints")
        if self.parameter_ranges is not None:
            ranges = tuple((float(lo), float(hi)) for lo, hi in self.parameter_ranges)
            for lo, hi in ranges:
                if not lo <= hi:
                    raise ValueError(f"invalid parameter range ({lo}, {hi})")
            object.__setattr__(self, "parameter_ranges", ranges)

    @property
    def samplable(self) -> bool:
        return bool(self.basis) or (
            self.parameterization is not None and self.parameter_ranges is not None
        )


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


def evaluate_constraints(model: RateModel, q) -> list[float]:
    """Raw residuals f_k(q) of the model's constraints, in declaration order."""
    if not model.constraints:
        raise ValueError(f"model {model.name!r} has no constraints")
    q = check_square(q)
    return _compile_constraints(model.n, model.constraints)(q[None])[0].tolist()


def constraints_homogeneous(model: RateModel) -> bool | None:
    """Whether every defining constraint is homogeneous; None without constraints."""
    if not model.constraints:
        return None
    return all(c.homogeneous for c in model.constraints)


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
    complement of its span (I - V^T V, V an orthonormal basis of the
    basis matrices at lstsq's default rank cutoff, max(n^2, k) eps) and
    divides the remainder's norm by max(||q||_F, 1), as
    least_squares_membership does. A constraint model takes the largest
    absolute raw constraint value; a homogeneous degree-d constraint is
    divided by ||q||_F^d first, so the residual is invariant under
    positive rescaling of q. Callers build this once per audit or
    sampling call, not at model construction.
    """
    n = model.n
    if model.basis:
        rows, _ = _svd_range(model.basis, max(n * n, len(model.basis)) * np.finfo(float).eps)
        projector = np.eye(n * n) - rows.T @ rows

        def span_residual(q: np.ndarray) -> np.ndarray:
            flat = _flat(q, n)
            return _fro_rows(flat @ projector) / np.maximum(_fro_rows(flat), 1.0)

        return span_residual
    if not model.constraints:
        raise ValueError(f"model {model.name!r} has neither a basis nor constraints")
    values = _compile_constraints(n, model.constraints)
    degree = np.array([c.degree if c.homogeneous else 0 for c in model.constraints], dtype=float)

    def constraint_residual(q: np.ndarray) -> np.ndarray:
        total = values(q)
        nrm = _fro_rows(q)[:, None]
        scale = np.where((degree > 0) & (nrm > 0.0), nrm ** degree, 1.0)
        return np.max(np.abs(total) / scale, axis=1)

    return constraint_residual


def model_residual(model: RateModel, q) -> float:
    """Scale-invariant residual of q against the model's rate space.

    The batch-of-one case of the residual the closure audit and the
    samplers compile once per call.
    """
    q = check_square(q)
    return float(_compile_residual(model)(q[None])[0])


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
    from evaluate_constraints, span coefficients from
    least_squares_membership.
    """
    residual = model_residual(model, q)
    in_r = residual <= tol
    return Membership(in_r, bool(in_r and is_stochastic_rate(q, tol)), residual)


def _sample_stack(
    model: RateModel,
    rngs: Sequence[np.random.Generator],
    residual: Callable[[np.ndarray], np.ndarray] | None = None,
    max_attempts: int = 1000,
) -> tuple[np.ndarray, np.ndarray]:
    """One stochastic rate matrix per generator in rngs, as a (B, n, n) stack.

    Row k draws from rngs[k] exactly as sample_with_rng(model, rngs[k])
    would: a parameterized model draws its parameter row uniform(lo, hi)
    as one vector, a basis-only model draws its coefficients uniformly
    in [-1, 1]. A rejected row redraws alone, from its own generator, up to
    max_attempts times in all; a row that runs out is marked failed in
    the returned mask (its matrix is NaN) instead of raising. The same
    generator may fill several rows, which then draw from it in row
    order; that matches sequential draws while no row is rejected.

    A parameterized draw is accepted when it is a stochastic rate matrix
    and its model residual is at most 1e-10; ``residual`` is that
    compiled residual, built here when the caller has none. A basis-only
    draw lies in its span by construction and only needs to be
    stochastic. Raises SamplingError when the model cannot be sampled at
    all.
    """
    n = model.n
    if model.parameterization is not None and model.parameter_ranges is not None:
        fn, n_params = get_parameterization(model.parameterization)
        if len(model.parameter_ranges) != n_params:
            raise SamplingError(
                f"model {model.name!r} declares {len(model.parameter_ranges)} ranges "
                f"but parameterization {model.parameterization!r} takes {n_params}"
            )
        lo, hi = np.array(model.parameter_ranges).T
        residual = residual or _compile_residual(model)

        def draw(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # Generator.uniform(lo, hi) forms lo + (hi - lo) * random(); this
            # is that stream without its per-call argument checks.
            unit = np.array([rngs[k].random(len(lo)) for k in rows]).reshape(len(rows), len(lo))
            q = fn(lo + (hi - lo) * unit)
            return q, is_stochastic_rate(q, 1e-12) & (residual(q) <= 1e-10)
    elif model.basis:
        stack = np.reshape(model.basis, (len(model.basis), n * n))

        def draw(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            coeffs = np.array([rngs[k].uniform(-1.0, 1.0, size=len(stack)) for k in rows])
            q = (coeffs[:, None, :] @ stack).reshape(len(rows), n, n)
            return q, is_stochastic_rate(q, 1e-12)
    else:
        raise SamplingError(f"model {model.name!r} has no parameterization or basis to sample")
    out = np.full((len(rngs), n, n), np.nan)
    ok = np.zeros(len(rngs), dtype=bool)
    pending = np.arange(len(rngs))
    for _ in range(max_attempts):
        if not len(pending):
            break
        q, accept = draw(pending)
        out[pending[accept]] = q[accept]
        ok[pending[accept]] = True
        pending = pending[~accept]
    return out, ok


def sample_with_rng(model: RateModel, rng: np.random.Generator, max_attempts: int = 1000) -> np.ndarray:
    """Draw one stochastic rate matrix from the model using rng.

    The batch-of-one case of the stack sampler the closure audit uses;
    raises SamplingError when no draw is accepted in max_attempts.
    """
    q, ok = _sample_stack(model, [rng], max_attempts=max_attempts)
    if not ok[0]:
        raise _exhausted(model, max_attempts)
    return q[0]


def _exhausted(model: RateModel, max_attempts: int) -> SamplingError:
    if model.parameterization is not None and model.parameter_ranges is not None:
        return SamplingError(
            f"parameterized sampler for {model.name!r} failed {max_attempts} times"
        )
    return SamplingError(
        f"sampler could not reach the stochastic cone of {model.name!r} "
        f"in {max_attempts} attempts"
    )


def sample_stochastic(model: RateModel, seed: int) -> np.ndarray:
    """Deterministic seeded draw from the model's stochastic cone."""
    return sample_with_rng(model, np.random.default_rng(seed))


def check_scaling_closure(model: RateModel) -> bool:
    """Whether the model is closed under non-negative scalar multiplication.

    Decided algebraically: a span is a linear space, and a homogeneous
    constraint of degree d satisfies f(alpha q) = alpha^d f(q), so the
    model scales unless a defining constraint is inhomogeneous.
    """
    return constraints_homogeneous(model) is not False


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


def model_from_dict(doc: dict) -> RateModel:
    """Build a RateModel from the model file format.

    A file declaring ``"convention": "row"`` is converted to the column
    convention: its basis matrices are transposed and the (i, j) pairs
    of its constraint monomials swapped.
    """
    try:
        name = str(doc["name"])
        n = int(doc["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file missing or invalid name/n: {exc}") from exc
    try:
        axes = config.column_axes(doc.get("convention", "column"))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    swap = itemgetter(*axes)

    basis = []
    for flat in doc.get("basis", []) or []:
        arr = np.asarray(flat, dtype=float)
        if arr.size != n * n:
            raise ModelFormatError(
                f"basis matrix has {arr.size} entries, expected {n * n}"
            )
        basis.append(arr.reshape(n, n).transpose(axes))

    constraints = []
    for cdoc in doc.get("constraints", []) or []:
        try:
            terms = tuple(
                (
                    float(t["coeff"]),
                    tuple(swap((int(i), int(j))) for i, j in t["monomial"]),
                )
                for t in cdoc["terms"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed constraint: {exc}") from exc
        try:
            constraints.append(PolynomialConstraint(terms))
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc

    if not basis and not constraints:
        raise ModelFormatError("model file must declare a basis or constraints")

    parameterization = doc.get("parameterization")
    if parameterization is not None:
        parameterization = str(parameterization)
        get_parameterization(parameterization)  # fail fast on unknown names
    ranges = doc.get("parameter_ranges")
    if ranges is not None:
        ranges = tuple((float(lo), float(hi)) for lo, hi in ranges)

    try:
        return RateModel(
            name=name,
            n=n,
            basis=tuple(basis),
            constraints=tuple(constraints),
            parameterization=parameterization,
            parameter_ranges=ranges,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def save_model(model: RateModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


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
