"""Multiplicative-closure machinery.

Truncated BCH evaluation, log-products of substitution matrices, seeded
sampling of the log-closure, generator-driven Lie-bracket saturation of a span,
and the closure audit that combines sampled refutation with the
algebraic bracket-closure certificate for span models.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .linalg import (
    DEFAULT_MEMBERSHIP_TOL,
    DEFAULT_RANK_RTOL,
    PrincipalLogError,
    _exp_stack,
    _log_stack,
    check_square,
    commutator,
    frobenius,
    matrix_exp,
    matrix_log,
    orthonormal_basis,
)
from .model import (
    RateModel,
    SamplingError,
    _compile_residual,
    _exhausted,
    _sample_stack,
    is_in_L,
    sample_with_rng,
)

logger = logging.getLogger(__name__)

_VERDICTS = ("closed", "not_closed", "inconclusive")
# Singular-value gate for new bracket directions: about sqrt(eps) on unit-norm operands.
DEFAULT_BRACKET_GATE = 1e-8
_MAX_WITNESSES = 10
# Pairs per stack in the closure audit; bounds its memory for any sample count.
_PAIR_BLOCK = 1024


@dataclass(frozen=True)
class ProductChain:
    """Ordered (generator, duration) links; the empty chain is the identity.

    ``n`` pins the matrix order for empty chains; for non-empty chains it
    must agree with the links.
    """

    links: tuple[tuple[np.ndarray, float], ...]
    n: int | None = None

    def __post_init__(self):
        norm = []
        order = self.n
        for q, t in self.links:
            q = check_square(q)
            t = float(t)
            if t < 0.0 or not np.isfinite(t):
                raise ValueError(f"chain durations must be non-negative, got {t}")
            if order is None:
                order = q.shape[0]
            elif q.shape[0] != order:
                raise ValueError("chain links must all have the same order")
            norm.append((q, t))
        object.__setattr__(self, "links", tuple(norm))
        object.__setattr__(self, "n", order)

    @property
    def order(self) -> int:
        if self.n is None:
            raise ValueError("empty chain with unspecified order")
        return self.n


def chain_substitution_matrix(chain: ProductChain) -> np.ndarray:
    """Product of exp(Q_k * t_k) over the links, in order; identity when empty."""
    out = np.eye(chain.order)
    for q, t in chain.links:
        out = out @ matrix_exp(q * t)
    return out


def bch_truncated(a, b, order: int) -> np.ndarray:
    """Truncated BCH series for log(exp(a) exp(b)).

    Order 1 is a + b, order 2 adds [a,b]/2, order 3 adds
    ([a,[a,b]] + [b,[b,a]])/12. Higher orders are not provided; compare
    against log_product for anything beyond.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"truncation order must be 1, 2 or 3, got {order}")
    a = check_square(a)
    b = check_square(b)
    out = a + b
    if order >= 2:
        ab = commutator(a, b)
        out = out + 0.5 * ab
        if order >= 3:
            out = out + (commutator(a, ab) + commutator(b, -ab)) / 12.0
    return out


def log_product(q, qp) -> np.ndarray:
    """Principal logarithm of exp(q) @ exp(qp)."""
    q = check_square(q)
    qp = check_square(qp)
    return matrix_log(matrix_exp(q) @ matrix_exp(qp))


def log_closure_sample(model: RateModel, chain_length: int, samples: int, seed: int) -> list[np.ndarray]:
    """Seeded draws from the scaled logarithms of finite substitution products.

    Each draw multiplies up to chain_length substitution matrices from
    the model (durations uniform in [0, 1]), takes the principal log and
    scales it by a uniform factor in [0, 2]. Chains whose product has no
    principal logarithm are skipped; if every chain is skipped an error
    is raised.
    """
    if chain_length < 1:
        raise ValueError("chain_length must be at least 1")
    rng = np.random.default_rng(seed)
    out = []
    skipped = 0
    for _ in range(samples):
        length = int(rng.integers(1, chain_length + 1))
        links = tuple(
            (sample_with_rng(model, rng), float(rng.uniform(0.0, 1.0)))
            for _ in range(length)
        )
        alpha = float(rng.uniform(0.0, 2.0))
        product = chain_substitution_matrix(ProductChain(links))
        try:
            log_m = matrix_log(product)
        except PrincipalLogError:
            skipped += 1
            continue
        out.append(alpha * log_m)
    if not out:
        raise RuntimeError("every sampled chain lacked a principal logarithm")
    if skipped:
        logger.debug("log_closure_sample skipped %d of %d chains", skipped, samples)
    return out


def _zero_sum(x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of (a stack of) square matrices onto zero generator sums."""
    return x - x.mean(axis=config.sum_axis(), keepdims=True)


def lie_closure(basis, rel_tol: float = DEFAULT_BRACKET_GATE) -> list[np.ndarray]:
    """Orthonormal basis of the Lie algebra generated by span(basis).

    The Lie algebra generated by a set S is spanned by the right-normed
    brackets [s1, [s2, [..., sk]]] with every si in S, so it is the
    smallest subspace that contains S and is invariant under ad_s = [s, .]
    for each s in S alone (the LieTree construction of Elliott, Bilinear
    Control Systems, 2009, ch. 2). The input is orthonormalised once into
    generators S, and the search runs breadth first: every basis
    direction of the newest level is bracketed with every s in S. A
    closure of dimension d thus costs at most |S| d brackets.

    A level's brackets are orthogonalised against the basis accumulated
    so far by two block Gram-Schmidt passes. The right singular vectors
    of what remains whose singular values exceed rel_tol become the next
    level, after one more pass and an exact projection onto the zero-sum
    space (subtracting column means, or row means under the row
    convention). Both operands of every bracket
    have unit norm, so rel_tol is relative to the brackets' scale; the
    default, about sqrt(eps), sits above the rounding carried through
    deep brackets (up to about 3e-9 on the tested inputs) and below
    genuine new directions (2e-5 and up). rel_tol is also the relative
    SVD rank threshold for the input. One SVD per level, rather than
    accepting brackets one at a time, matters: a nearly dependent
    bracket accepted on its own becomes a direction whose rounding
    error is divided by its small residual, and its brackets carry that
    error on until it clears the gate. Brackets of zero-sum matrices
    are zero-sum, so the search stops once the dimension reaches
    n*n - n.

    One debug log line per call gives the dimension after each level and
    the rank gap: the smallest accepted and the largest rejected singular
    value.
    """
    mats = [check_square(b) for b in basis]
    if not mats:
        raise ValueError("basis must be non-empty")
    for b in mats:
        if not is_in_L(b, tol=1e-10 * max(1.0, frobenius(b))):
            raise ValueError("lie_closure requires zero-sum generators")
    gens = orthonormal_basis([_zero_sum(b) for b in mats], rel_tol)
    n = mats[0].shape[0]
    ambient = n * n - n
    # Rows 0..d-1 hold the orthonormal basis found so far, vectorized.
    flat = np.empty((ambient, n * n))
    d = len(gens)
    flat[:d] = np.reshape(gens, (d, n * n))
    dims = [d]
    smallest_accepted, largest_rejected = math.inf, 0.0
    # [g_i, g_j] for j <= i is zero or an earlier bracket's negative.
    brackets = [commutator(g, s) for i, g in enumerate(gens) for s in gens[i + 1:]]
    while brackets and d < ambient:
        block = np.stack(brackets).reshape(len(brackets), -1)
        for _ in range(2):
            block -= (block @ flat[:d].T) @ flat[:d]
        _, svals, vt = np.linalg.svd(block, full_matrices=False)
        k = min(int(np.sum(svals > rel_tol)), ambient - d)
        if k < len(svals):
            largest_rejected = max(largest_rejected, float(svals[k]))
        if k:
            smallest_accepted = min(smallest_accepted, float(svals[k - 1]))
        # A direction with a small singular value carries eps/sigma of the basis.
        new = vt[:k] - (vt[:k] @ flat[:d].T) @ flat[:d]
        flat[d:d + k] = _zero_sum(new.reshape(k, n, n)).reshape(k, n * n)
        brackets = [commutator(v.reshape(n, n), s) for v in flat[d:d + k] for s in gens]
        d += k
        dims.append(d)
    logger.debug(
        "lie_closure n=%d: dimension after each level %s, smallest accepted singular value %.3g, "
        "largest rejected singular value %.3g",
        n, dims, smallest_accepted, largest_rejected,
    )
    return [row.reshape(n, n).copy() for row in flat[:d]]


def span_basis(model: RateModel, seed: int = 0, rel_tol: float = DEFAULT_RANK_RTOL) -> list[np.ndarray]:
    """Orthonormal basis of the span of the model's stochastic cone.

    Uses the declared basis when present; otherwise draws 4 n^2
    generators from the parameterization as one stack, every row from
    the one generator seeded with seed (so, while no draw is rejected,
    the same matrices as 4 n^2 sequential sample_with_rng calls), and
    extracts a rank-revealing basis.
    """
    if model.basis:
        return orthonormal_basis(model.basis, rel_tol)
    if not model.samplable:
        raise ValueError(f"model {model.name!r} has no basis and cannot be sampled")
    rng = np.random.default_rng(seed)
    mats, ok = _sample_stack(model, [rng] * (4 * model.n ** 2))
    if not ok.all():
        raise _exhausted(model, 1000)
    return orthonormal_basis(mats, rel_tol)


@dataclass(frozen=True)
class Witness:
    """A sampled pair whose log-product left the model's rate space."""

    q: np.ndarray
    q_prime: np.ndarray
    log_product: np.ndarray
    residual: float
    pair_index: int

    def to_dict(self) -> dict:
        return {
            "q": self.q.tolist(),
            "q_prime": self.q_prime.tolist(),
            "log_product": self.log_product.tolist(),
            "residual": self.residual,
            "pair_index": self.pair_index,
        }


@dataclass(frozen=True)
class ClosureReport:
    """Verdict of a multiplicative-closure audit."""

    model_name: str
    span_dim: int
    lie_closure_dim: int
    ambient_dim: int
    mult_closed_verdict: str
    witnesses: tuple[Witness, ...]
    samples_tested: int
    tolerance: float

    def __post_init__(self):
        if self.mult_closed_verdict not in _VERDICTS:
            raise ValueError(f"verdict must be one of {_VERDICTS}")
        if not 0 <= self.span_dim <= self.lie_closure_dim <= self.ambient_dim:
            raise ValueError(
                "dimensions must satisfy span <= lie closure <= ambient, got "
                f"{self.span_dim} / {self.lie_closure_dim} / {self.ambient_dim}"
            )
        if self.mult_closed_verdict == "not_closed" and not any(
            w.residual > self.tolerance for w in self.witnesses
        ):
            raise ValueError("a not_closed verdict requires a witness beyond tolerance")

    def to_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "span_dim": self.span_dim,
            "lie_closure_dim": self.lie_closure_dim,
            "ambient_dim": self.ambient_dim,
            "mult_closed_verdict": self.mult_closed_verdict,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "samples_tested": self.samples_tested,
            "tolerance": self.tolerance,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _select_witnesses(found: list[Witness], cap: int = _MAX_WITNESSES) -> tuple[Witness, ...]:
    # Keep the first failure and the worst one, then earliest others.
    if len(found) <= cap:
        return tuple(found)
    worst = max(range(len(found)), key=lambda i: found[i].residual)
    chosen = {0, worst}
    for i in range(len(found)):
        if len(chosen) >= cap:
            break
        chosen.add(i)
    return tuple(found[i] for i in sorted(chosen))


def _log_product_block(model: RateModel, rngs, residual) -> tuple[np.ndarray, ...]:
    """Pair k of a block: q then q' from rngs[k], and log(exp(q) exp(q')).

    Every row draws its q slot first and its q' slot second, so each
    pair's generator is read in the same order as sequential draws.
    Returns q, q', the log-products and a mask of the pairs that have
    one; a pair fails when its sampler is exhausted or its product has
    no principal logarithm. Under the row convention each log-product is
    the transpose of the column-convention one.
    """
    try:
        q, ok = _sample_stack(model, rngs, residual)
        q_prime = np.full_like(q, np.nan)
        rows = np.flatnonzero(ok)
        q_prime[rows], ok[rows] = _sample_stack(model, [rngs[k] for k in rows], residual)
    except SamplingError:
        # A model its sampler cannot serve at all fails every pair.
        q = q_prime = np.full((len(rngs), model.n, model.n), np.nan)
        ok = np.zeros(len(rngs), dtype=bool)
    logs = np.full_like(q, np.nan)
    rows = np.flatnonzero(ok)
    # Products are formed in the column convention, so a row-convention
    # audit is the transpose of the column-convention one, pair by pair.
    exps = _exp_stack(config.to_column(np.concatenate([q[rows], q_prime[rows]])))
    products, status = _log_stack(exps[: len(rows)] @ exps[len(rows):])
    logs[rows] = config.from_column(products)
    ok[rows] = status == 0
    return q, q_prime, logs, ok


def multiplicative_closure_check(
    model: RateModel,
    samples: int = 100,
    seed: int = 42,
    tol: float = DEFAULT_MEMBERSHIP_TOL,
) -> ClosureReport:
    """Audit multiplicative closure of a model by sampled log-products.

    For each pair of seeded draws the principal log of the product of
    their substitution matrices is tested for membership in the model's
    rate space (stochasticity is deliberately not required). Any failure
    refutes closure with a concrete witness. When every pair passes, a
    span-basis model is certified closed exactly when its span is closed
    under brackets; without a declared basis the audit stays
    inconclusive, because a bracket-closed span does not vouch for a
    smaller constraint variety inside it.

    Pair k derives its randomness from seed + k, so the audit is
    deterministic. Pairs run in blocks of up to 1024: one stack draw of
    every pair's q, one of every q', one stack exponential of the 2B
    generators, one stack logarithm of the B products and one pass of
    the model's residual, compiled once per call. Pair k gets the same
    matrices, log-product and residual as the batch-of-one kernels
    (matrix_exp, matrix_log, sample_with_rng) give it alone. Pairs
    whose sampler is exhausted or whose product has no principal
    logarithm are skipped; more than samples/2 of them is an error.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not model.samplable:
        raise ValueError(f"model {model.name!r} cannot be sampled")
    residual = _compile_residual(model)
    found: list[Witness] = []
    failures = 0
    tested = 0
    for start in range(0, samples, _PAIR_BLOCK):
        index = range(start, min(start + _PAIR_BLOCK, samples))
        rngs = [np.random.default_rng(seed + k) for k in index]
        q, q_prime, logs, ok = _log_product_block(model, rngs, residual)
        failures += len(ok) - int(ok.sum())
        if failures > samples / 2:
            raise RuntimeError(
                f"more than half of the {samples} sampled pairs failed "
                "to produce a principal logarithm"
            )
        rows = np.flatnonzero(ok)
        tested += len(rows)
        resid = residual(logs[rows])
        for k, r in zip(rows[resid > tol], resid[resid > tol]):
            found.append(Witness(q[k].copy(), q_prime[k].copy(), logs[k].copy(), float(r), index[k]))

    base = span_basis(model, seed=seed + samples)
    span_dim = len(base)
    closure_basis = lie_closure(base) if base else []
    lie_dim = len(closure_basis)

    if found:
        verdict = "not_closed"
    elif model.basis and lie_dim == span_dim:
        verdict = "closed"
    else:
        verdict = "inconclusive"

    return ClosureReport(
        model_name=model.name,
        span_dim=span_dim,
        lie_closure_dim=lie_dim,
        ambient_dim=model.n * model.n - model.n,
        mult_closed_verdict=verdict,
        witnesses=_select_witnesses(found),
        samples_tested=tested,
        tolerance=float(tol),
    )


def kappa_witness(q) -> list[float]:
    """The four transition/transversion ratios implied by a closure-pattern matrix.

    Requires the row-pair equalities of the 8-parameter pattern to hold
    at 1e-6. A single-ratio (HKY) matrix returns four equal values; a
    generic log-product returns four distinct ones.
    """
    q = config.to_column(check_square(q))
    if q.shape[0] != 4:
        raise ValueError("the closure pattern is defined for order-4 matrices")
    pattern_pairs = (
        ((0, 2), (0, 3)),
        ((1, 2), (1, 3)),
        ((2, 0), (2, 1)),
        ((3, 0), (3, 1)),
    )
    for (i1, j1), (i2, j2) in pattern_pairs:
        if abs(q[i1, j1] - q[i2, j2]) > 1e-6:
            raise ValueError(
                f"entries ({i1 + 1},{j1 + 1}) and ({i2 + 1},{j2 + 1}) differ "
                "beyond 1e-6; matrix is not in the closure pattern"
            )
    ratios = (
        ((0, 1), (0, 2)),
        ((1, 0), (1, 2)),
        ((2, 3), (2, 0)),
        ((3, 2), (3, 0)),
    )
    out = []
    for (ni, nj), (di, dj) in ratios:
        denom = q[di, dj]
        if abs(denom) < 1e-14:
            raise ZeroDivisionError(
                f"entry ({di + 1},{dj + 1}) is below 1e-14; ratio undefined"
            )
        out.append(float(q[ni, nj] / denom))
    return out
