"""Multiplicative-closure machinery.

Truncated BCH evaluation, log-products of substitution matrices,
generator-driven Lie-bracket saturation of a span, and the closure
audit that combines sampled refutation with the algebraic
bracket-closure certificate for span models.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_MEMBERSHIP_TOL,
    _exp_stack,
    _fro_rows,
    _log_stack,
    check_matrices,
    check_square,
    commutator,
    matrix_exp,
    matrix_log,
    orthonormal_basis,
)
from .model import (
    RateModel,
    _SeedStreams,
    _generator_source,
    _sample_all,
    _sample_stack,
    is_in_L,
)

logger = logging.getLogger(__name__)

_VERDICTS = ("closed", "not_closed", "inconclusive")
# Singular-value gate for new bracket directions: about sqrt(eps) on unit-norm operands.
DEFAULT_BRACKET_GATE = 1e-8
_MAX_WITNESSES = 10
# Pairs per stack in the closure audit; bounds its memory for any sample count.
_PAIR_BLOCK = 1024


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


def _zero_sum(x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of (a stack of) square matrices onto zero column sums."""
    return x - x.mean(axis=-2, keepdims=True)


def lie_closure(basis) -> list[np.ndarray]:
    """Orthonormal basis of the Lie algebra generated by span(basis).

    The Lie algebra generated by a set S is spanned by the right-normed
    brackets [s1, [s2, [..., sk]]] with every si in S, so it is the
    smallest subspace that contains S and is invariant under ad_s = [s, .]
    for each s in S alone (the LieTree construction of Elliott, Bilinear
    Control Systems, 2009, ch. 2). The input is orthonormalised once into
    generators S, and the search runs breadth first: every basis
    direction of the newest level is bracketed with every s in S. A
    closure of dimension d thus costs at most |S| d brackets.

    A level's brackets are formed as one array operation: the first
    level as g_i g_j - g_j g_i over every generator pair i < j, each
    later level as v g - g v over every new direction v and generator g,
    written straight into the level's (k |S|, n^2) block. Each bracket
    is the same floating-point value as commutator(v, g).

    A level's brackets are orthogonalised against the basis accumulated
    so far by two block Gram-Schmidt passes. The right singular vectors
    of what remains whose singular values exceed DEFAULT_BRACKET_GATE
    become the next level, after one more pass and an exact projection
    onto zero column sums (subtracting column means). Both operands of
    every bracket have unit norm, so the gate is relative to the
    brackets' scale; at about sqrt(eps) it sits above the rounding
    carried through deep brackets (up to about 3e-9 on the tested
    inputs) and below genuine new directions (2e-5 and up). The gate is
    also the relative SVD rank threshold for the input. One SVD per
    level, rather than accepting brackets one at a time, matters: a
    nearly dependent bracket accepted on its own becomes a direction
    whose rounding error is divided by its small residual, and its
    brackets carry that error on until it clears the gate. Brackets of
    zero-sum matrices are zero-sum, so the search stops once the
    dimension reaches n*n - n. An empty basis, like all-zero
    generators, generates the zero algebra, whose basis is empty.

    One debug log line per call gives the dimension after each level and
    the rank gap: the smallest accepted and the largest rejected singular
    value.
    """
    stack = check_matrices(basis)
    if not len(stack):
        return []
    if not is_in_L(stack, tol=1e-10 * np.maximum(1.0, _fro_rows(stack))).all():
        raise ValueError("lie_closure requires zero-sum generators")
    n = stack.shape[-1]
    gens = np.reshape(orthonormal_basis(_zero_sum(stack), DEFAULT_BRACKET_GATE), (-1, n, n))
    ambient = n * n - n
    # Rows 0..d-1 hold the orthonormal basis found so far, vectorized.
    flat = np.empty((ambient, n * n))
    d = len(gens)
    flat[:d] = gens.reshape(d, n * n)
    dims = [d]
    smallest_accepted, largest_rejected = math.inf, 0.0
    # [g_i, g_j] for j <= i is zero or an earlier bracket's negative.
    i, j = np.triu_indices(d, 1)
    block = gens[i] @ gens[j]
    block -= gens[j] @ gens[i]
    block = block.reshape(len(i), n * n)
    while len(block) and d < ambient:
        for _ in range(2):
            block -= (block @ flat[:d].T) @ flat[:d]
        _, svals, vt = np.linalg.svd(block, full_matrices=False)
        k = min(int(np.sum(svals > DEFAULT_BRACKET_GATE)), ambient - d)
        if k < len(svals):
            largest_rejected = max(largest_rejected, float(svals[k]))
        if k:
            smallest_accepted = min(smallest_accepted, float(svals[k - 1]))
        # A direction with a small singular value carries eps/sigma of the basis.
        new = vt[:k] - (vt[:k] @ flat[:d].T) @ flat[:d]
        flat[d:d + k] = _zero_sum(new.reshape(k, n, n)).reshape(k, n * n)
        # [v, s] for every new direction v and generator s, v-major, as the next block.
        v = flat[d:d + k].reshape(k, 1, n, n)
        block = v @ gens
        block -= gens @ v
        block = block.reshape(k * len(gens), n * n)
        d += k
        dims.append(d)
    logger.debug(
        "lie_closure n=%d: dimension after each level %s, smallest accepted singular value %.3g, "
        "largest rejected singular value %.3g",
        n, dims, smallest_accepted, largest_rejected,
    )
    return list(flat[:d].reshape(d, n, n).copy())


def span_basis(model: RateModel, seed: int = 0) -> list[np.ndarray]:
    """Orthonormal basis of the span of the model's stochastic cone.

    For a declared basis, fresh copies of the one the model computed
    when it was built, at DEFAULT_RANK_RTOL. Otherwise draws 4 n^2
    generators from the parameterization as one stack, all rows from
    the one generator seeded with seed, in row order, as a single
    (rows, m) draw per attempt (so, while no draw is rejected, the same
    matrices as 4 n^2 sequential sample_with_rng calls), and extracts a
    rank-revealing basis at DEFAULT_RANK_RTOL.
    """
    if model.basis:
        return list(model._span.reshape(-1, model.n, model.n).copy())
    if not model.samplable:
        raise ValueError(f"model {model.name!r} has no basis and cannot be sampled")
    source = _generator_source(np.random.default_rng(seed))
    return orthonormal_basis(_sample_all(model, 4 * model.n ** 2, source))


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _select_witnesses(residuals: np.ndarray) -> np.ndarray:
    """Positions, in order, of the failures to report out of residuals in pair order.

    Keeps the first failure and the worst one (the first of equals),
    then the earliest others. Selecting again among the kept failures
    of several blocks picks what one selection over all of them would.
    """
    cap = _MAX_WITNESSES
    if len(residuals) <= cap:
        return np.arange(len(residuals))
    worst = int(np.argmax(residuals))
    return np.arange(cap) if worst < cap else np.append(np.arange(cap - 1), worst)


def _log_product_block(model: RateModel, seed: int, count: int) -> tuple[np.ndarray, ...]:
    """A block of count pairs: pair k draws q then q' from default_rng(seed + k)'s stream.

    The streams of all pairs are one _SeedStreams, local to the call.
    Every row draws its q slot first; only the rows whose q was accepted
    then draw their q' slot, so each pair's stream is read in the same
    order as sequential draws from its own generator. Returns q, q', the
    log-products, a mask of the pairs whose sampler drew both
    generators and a mask of the pairs that have a log-product; a drawn
    pair fails only when its product has no principal logarithm.
    """
    streams = _SeedStreams(seed, count)
    q, sampled = _sample_stack(model, np.arange(count), streams.random)
    q_prime = np.full_like(q, np.nan)
    rows = np.flatnonzero(sampled)
    q_prime[rows], sampled[rows] = _sample_stack(model, rows, streams.random)
    logs = np.full_like(q, np.nan)
    rows = np.flatnonzero(sampled)
    exps = _exp_stack(np.concatenate([q[rows], q_prime[rows]]))
    logs[rows], status = _log_stack(exps[: len(rows)] @ exps[len(rows):])
    ok = sampled.copy()
    ok[rows] = status == 0
    return q, q_prime, logs, sampled, ok


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

    Pair k reads the stream of np.random.default_rng(seed + k), so the
    audit is deterministic. Pairs run in blocks of up to 1024: the
    block's streams are seeded and advanced as arrays (_SeedStreams,
    local to the call), then one stack draw of every pair's q, one of
    every q', one stack exponential of the 2B generators, one stack
    logarithm of the B products and one pass of the residual the model
    compiled when it was built. Pair k gets the same matrices, log-product
    and residual as the batch-of-one kernels (matrix_exp, matrix_log,
    sample_with_rng on default_rng(seed + k)) give it alone. Pairs
    whose sampler is exhausted or whose product has no principal
    logarithm are skipped; more than samples/2 of them is an error,
    which counts the two causes apart and names the larger. Raises
    ValueError unless tol is a positive finite number.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if not model.samplable:
        raise ValueError(f"model {model.name!r} cannot be sampled")
    found: list[Witness] = []
    exhausted = no_log = 0
    tested = 0
    for start in range(0, samples, _PAIR_BLOCK):
        index = range(start, min(start + _PAIR_BLOCK, samples))
        q, q_prime, logs, sampled, ok = _log_product_block(model, seed + start, len(index))
        # Count up to the pair whose failure passes half the sample, so blocking cannot change it.
        over = np.flatnonzero(exhausted + no_log + np.cumsum(~ok) > samples / 2)
        end = over[0] + 1 if len(over) else len(ok)
        exhausted += int(np.sum(~sampled[:end]))
        no_log += int(np.sum(sampled[:end] & ~ok[:end]))
        if len(over):
            cause = "sampler exhaustion" if exhausted > no_log else "a missing principal logarithm"
            raise RuntimeError(
                f"more than half of the {samples} sampled pairs failed, mostly by {cause}: "
                f"{exhausted} sampler exhaustions and {no_log} without a principal logarithm "
                f"in the first {index[end - 1] + 1} pairs"
            )
        rows = np.flatnonzero(ok)
        tested += len(rows)
        resid = model._residual(logs[rows])
        rows, resid = rows[resid > tol], resid[resid > tol]
        # Only the failures a report could keep become witnesses.
        for k in _select_witnesses(resid):
            r = rows[k]
            found.append(Witness(q[r].copy(), q_prime[r].copy(), logs[r].copy(), float(resid[k]), index[r]))

    base = span_basis(model, seed=seed + samples)
    span_dim = len(base)
    lie_dim = len(lie_closure(base))

    if found:
        verdict = "not_closed"
    elif model.basis and lie_dim == span_dim:
        verdict = "closed"
    else:
        verdict = "inconclusive"

    keep = _select_witnesses(np.array([w.residual for w in found]))
    return ClosureReport(
        model_name=model.name,
        span_dim=span_dim,
        lie_closure_dim=lie_dim,
        ambient_dim=model.n * model.n - model.n,
        mult_closed_verdict=verdict,
        witnesses=tuple(found[k] for k in keep),
        samples_tested=tested,
        tolerance=float(tol),
    )

