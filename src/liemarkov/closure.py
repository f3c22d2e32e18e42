"""Multiplicative-closure machinery.

Truncated BCH evaluation, log-products of substitution matrices,
generator-driven Lie-bracket saturation of a span, and the closure
audit that combines sampled refutation with the algebraic
bracket-closure certificate for span models.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, fields

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
)
from .model import (
    RateModel,
    _SeedStreams,
    _check_zero_sums,
    _generators,
    _sample_stack,
    _span_rows,
    check_scaling_closure,
)

_VERDICTS = ("closed", "not_closed", "inconclusive")
# Singular-value gate for new bracket directions: about sqrt(eps) on unit-norm operands. It decides
# only whether a bracket direction is new; the generators are cut at DEFAULT_RANK_RTOL (_generators).
DEFAULT_BRACKET_GATE = 1e-8
_MAX_WITNESSES = 10
# Pairs per stack in the closure audit; bounds its memory for any sample count.
_PAIR_BLOCK = 1024
# The audit's BCH domain: pairs with ||q||_F + ||q'||_F above this are scaled onto it.
_BCH_DOMAIN = 0.65


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


def lie_closure(basis) -> list[np.ndarray]:
    """Orthonormal basis of the Lie algebra generated by span(basis).

    The Lie algebra generated by a set S is spanned by the right-normed
    brackets [s1, [s2, [..., sk]]] with every si in S, so it is the
    smallest subspace that contains S and is invariant under ad_s = [s, .]
    for each s in S alone (the LieTree construction of Elliott, Bilinear
    Control Systems, 2009, ch. 2). The input is made into orthonormal
    generators S once (_generators, at DEFAULT_RANK_RTOL relative to the
    largest singular value, the cut of a model's span rows), and the
    search (_saturate) runs breadth first: every basis direction of the
    newest level is bracketed with every s in S. A closure of dimension
    d thus costs at most |S| d brackets.

    A level is a list of operands (g, V), a matrix g and a stack V,
    whose brackets g v - v g for every v in V are written in place into
    the level's block, one operand at a time. The first level is
    (g_i, [g_i+1, ...]) for each generator g_i, so it brackets every
    pair i < j once; each later level is (g, the new directions) for
    every generator g, generator-major. Each bracket is the same
    floating-point value as commutator(g, v).

    The basis is held behind the n unit column-mean directions, an
    orthonormal basis of the complement of zero column sums. A block of
    brackets (a level, or part of one, below) is projected once onto the
    orthogonal complement of both, the basis accumulated so far and the
    column means. One block Gram-Schmidt pass suffices: what it leaves
    along the known rows is of order eps times the block's norm, about
    1e-15, far below the gate. The leading singular vectors of what
    remains (the left ones of its transpose, which LAPACK factors by QR
    first) whose singular values exceed DEFAULT_BRACKET_GATE become new
    directions, after the same projection once more; that pass restores
    their orthogonality to the basis and their zero column sums, which
    a direction with a small singular value would otherwise lose by
    eps divided by it. Both operands of every bracket have unit norm, so
    the gate is relative to the brackets' scale; at about sqrt(eps) it
    sits above the rounding carried through deep brackets (up to about
    3e-9 on the tested inputs) and below genuine new directions (5e-5
    and up on the tested inputs, 1e-6 and up on generic integer pairs up
    to n = 20). One SVD per block, rather than accepting brackets one at
    a time, matters: a nearly dependent bracket accepted on its own
    becomes a direction whose rounding error is divided by its small
    residual, and its brackets carry that error on until it clears the
    gate.

    Brackets of zero-sum matrices are zero-sum, so the algebra lies in
    the n*n - n dimensional space L of them, and a level can add at most
    c = n*n - n - d directions. A level of at most c brackets is one
    such block. A longer level first takes its first c brackets as a
    block; only when they leave the dimension short of n*n - n do the
    rest follow, as a second block against the enlarged basis. Once the
    dimension is n*n - n the span is all of L, so the brackets not yet
    taken can add nothing, and the search stops before it forms another
    level. Every level thus takes at most two SVDs, and the level that
    fills L orthogonalises c of its brackets rather than all of them. An
    empty basis, like all-zero generators, generates the zero algebra,
    whose basis is empty.

    A block that the projection leaves within the gate in Frobenius
    norm takes no SVD: no singular value exceeds that norm, so it holds
    no new direction. This spares the SVD of every level of a closed
    span that adds nothing, such as the one level of the n = 61
    equal-input basis (1830 brackets, 3721 columns).

    _saturate also returns the dimension after each level and the rank
    gap: the smallest accepted and the largest rejected singular value,
    or, for a block that took no SVD, its Frobenius norm, a bound on its
    singular values. A model's algebra record (RateModel._algebra) is
    _saturate of the model's span rows (RateModel._span), so the first
    rows of its closure are the span's, bit for bit. Raises ValueError
    unless every generator has zero column sums within
    1e-10 max(1, ||g||_F).
    """
    stack = check_matrices(basis)
    if not len(stack):
        return []
    _check_zero_sums(stack, "lie_closure requires zero-sum generators")
    return list(_saturate(_generators(stack))[0])


# What the saturation finds: the orthonormal basis of the Lie algebra as a (d, n, n) stack, the
# dimension after each level of brackets and the rank gap, the smallest accepted and the largest
# rejected singular value (see lie_closure). A model's algebra record (RateModel._algebra) is one.
_Algebra = namedtuple("_Algebra", "closure levels accepted rejected")


def _saturate(gens: np.ndarray) -> _Algebra:
    """lie_closure's search from a (k, n, n) stack of orthonormal zero-sum generators.

    The generators are taken as they are, with no SVD, as the algebra's
    first k basis rows. Returns the whole _Algebra record.
    """
    n = gens.shape[-1]
    ambient = n * n - n
    # Rows 0..n-1 are the unit column-mean directions, 1/sqrt(n) on every entry of column j: an
    # orthonormal basis of L's complement. Rows n..n+d-1 hold the algebra's orthonormal basis found
    # so far, vectorized. One projection onto the complement of rows 0..n+d-1 thus also removes
    # column means.
    flat = np.zeros((n + ambient, n * n))
    flat[:n].reshape(n, n, n)[np.arange(n), :, np.arange(n)] = 1.0 / math.sqrt(n)
    d = len(gens)
    flat[n:n + d] = gens.reshape(d, n * n)
    dims = [d]
    smallest_accepted, largest_rejected = math.inf, 0.0
    # [g_i, g_j] for j <= i is zero or an earlier bracket's negative, so the first level is every i < j.
    operands = [(gens[i], gens[i + 1:]) for i in range(d - 1)]
    while operands and d < ambient:
        block = np.empty((sum(len(v) for _, v in operands), n, n))
        start = 0
        for g, v in operands:
            rows = block[start:start + len(v)]
            np.matmul(g, v, out=rows)
            rows -= v @ g
            start += len(v)
        block = block.reshape(len(block), n * n)
        level = d
        # No level adds more than ambient - d directions: that many brackets
        # first, the rest only while L is not full.
        for part in (block[:ambient - d], block[ambient - d:]):
            if not len(part) or d == ambient:
                break
            known = flat[:n + d]
            part -= (part @ known.T) @ known
            # No singular value exceeds ||part||_F, so a block within the gate adds nothing.
            bound = math.sqrt(part.ravel() @ part.ravel())
            if bound <= DEFAULT_BRACKET_GATE:
                largest_rejected = max(largest_rejected, bound)
                continue
            # The block is wide (fewer rows than n*n); its tall transpose is factored by QR first.
            u, svals, _ = np.linalg.svd(part.T, full_matrices=False)
            k = min(int(np.sum(svals > DEFAULT_BRACKET_GATE)), ambient - d)
            if k < len(svals):
                largest_rejected = max(largest_rejected, float(svals[k]))
            if k:
                smallest_accepted = min(smallest_accepted, float(svals[k - 1]))
            # A direction with a small singular value carries eps/sigma of the basis and of the column means.
            new = u[:, :k].T
            flat[n + d:n + d + k] = new - (new @ known.T) @ known
            d += k
        dims.append(d)
        # The next level brackets every generator with this level's new directions, generator-major.
        operands = [(g, flat[n + level:n + d].reshape(d - level, n, n)) for g in gens] if d > level else []
    return _Algebra(flat[n:n + d].reshape(d, n, n).copy(), dims, smallest_accepted, largest_rejected)


def span_basis(model: RateModel, seed: int = 0) -> list[np.ndarray]:
    """Orthonormal basis of the span of the model's stochastic cone.

    For a declared basis, or at seed 0, fresh copies of the model's span
    rows (RateModel._span), computed once per model, so a call runs no
    SVD. Otherwise draws 4 n^2 generators as one stack, generator i from
    stream i of seed (_sample_stochastic_stack, the draws of the sample
    command). Either way the basis is the rank-revealing one at
    DEFAULT_RANK_RTOL, each element projected onto zero column sums (see
    _generators). The streams are Philox counters in array arithmetic,
    so no call imports numpy.random. The audit reads its dimensions from
    the default seed, once per model. A declared basis draws nothing, so
    any seed returns its span. Otherwise raises ValueError when the seed
    is not in [0, 2**128), and then SamplingError, from the sampler's
    gate, when the model has no parameterization to draw from.
    """
    return list((model._span if model.basis or seed == 0 else _span_rows(model, seed)).copy())


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
        """Every field, in declaration order, with each witness as its own dict."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["witnesses"] = [w.to_dict() for w in self.witnesses]
        return doc

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
    keep = np.arange(cap)
    keep[-1] = max(cap - 1, int(residuals.argmax()))
    return keep


def _log_product_block(
    model: RateModel, seed: int, count: int, tol: float, scales: bool, start=0
) -> tuple[np.ndarray, ...]:
    """Pairs start .. start + count - 1: pair k draws q then q' from stream k of seed.

    The streams of all pairs are one _SeedStreams, local to the call.
    One _sample_stack call draws both generators of every pair: q and
    q' are the stream's first two candidates (for a basis-only model,
    its first two accepted ones), so each pair's stream is read in the
    same order as sequential draws from its own generator. A drawn pair with
    s = ||q||_F + ||q'||_F > 0.65 is tested as (t q, t q'), t = 0.65 / s,
    unless scales is false (check_scaling_closure does not vouch for the
    model) and t q or t q' has model residual above tol; then it is
    tested as drawn. Norms and residuals need no guard at any scale
    (_fro_rows mends a norm's overflow itself); only the exponential and
    the log are guarded, for a pair tested as drawn whose exponential
    overflows, a product the log then refuses. Returns the tested q and
    q', the log-products, a mask of the pairs whose sampler drew both
    generators and a mask of the pairs that have a log-product, row k
    for pair start + k; a pair that cannot be tested is a NaN row (see
    multiplicative_closure_check).
    """
    n = model.n
    pairs, sampled = _sample_stack(model, count, _SeedStreams(seed, count, start).random, 2)
    # Pair k's generators are adjacent rows, so the block is scaled and exponentiated where it
    # lies. A factor of exactly 1 leaves a pair inside the domain bit for bit.
    norms = _fro_rows(pairs.reshape(2 * count, n, n))
    t = _BCH_DOMAIN / np.maximum(norms[0::2] + norms[1::2], _BCH_DOMAIN)
    if not scales:
        # A model that may not be a cone tests a pair that scaling takes out of it as drawn.
        out = model._residual(pairs.reshape(-1, n, n) * np.repeat(t, 2)[:, None, None]) > tol
        t[out.reshape(-1, 2).any(axis=1)] = 1.0
    pairs *= t[:, None, None, None]
    # A pair tested as drawn may lie far outside the BCH domain, and its exponential overflow, as
    # matrix_exp allows for: the product is then non-finite, and the log refuses its row.
    with np.errstate(over="ignore", invalid="ignore"):
        exps = _exp_stack(pairs.reshape(2 * count, n, n))
        logs, ok = _log_stack(exps[0::2] @ exps[1::2])
    return pairs[:, 0], pairs[:, 1], logs, sampled, ok


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

    A pair refutes closure only inside the BCH domain, where s =
    ||q||_F + ||q'||_F <= 0.65. There s < ln 2, so the BCH series of
    log(exp(q) exp(q')) converges to the principal log (Blanes and
    Casas, "On the convergence and optimization of the
    Baker-Campbell-Hausdorff formula", Linear Algebra Appl. 378, 2004),
    which therefore lies in the Lie algebra that q and q' generate. By
    the theorem that a closed model's rate matrices are the stochastic
    part of a Lie algebra, that log then lies in any closed model, and a
    pair whose log leaves the model refutes closure. Outside the domain
    another logarithm of the product may lie in the model while the
    principal one does not (the single 4-cycle generator at scale 6 is
    such a model), so a pair with s > 0.65 is tested as (t q, t q'),
    t = 0.65 / s, and a pair inside it as drawn. For a model that
    check_scaling_closure does not vouch for, a scaled pair is tested
    only when t q and t q' are both members (model residual at most
    tol), and as drawn otherwise: a scaled member leaving the model
    would show it is no cone, hence not closed, so a raw witness can
    only confirm a true refutation. In the domain ||P - I||_F <= e^s - 1
    for P = exp(q) exp(q'), and the Cayley transform Z = (P + I)^-1
    (P - I) has ||Z||_F <= (e^s - 1) / (3 - e^s) <= 0.8442 < 0.85, so
    every tested product lies inside the log's series radius. A
    witness's q and q' are the pair that was tested.

    Pair k reads stream k of seed, np.random.Generator(np.random.Philox(
    key=seed, counter=k << 128)), so the audit is deterministic and its
    pairs are independent of the block they fall in. Pairs run in blocks
    of up to 1024: the block's Philox blocks are computed as arrays
    (_SeedStreams, local to the call, every word a draw needs in one
    pass of ten rounds on work arrays allocated once by that call), then
    one stack draw of both generators of every pair, one scaling into
    the BCH domain, one stack exponential of the 2B generators, one
    stack logarithm of the B products and one pass of the model's
    residual. Each stage is a fixed number of whole-array steps,
    whatever B is, with its constants built once at import; a block
    whose draws are all accepted keeps the sampler's stack as drawn, and
    one whose products all have a log skips the failure count. The
    failures a report can keep become witnesses by one gather of their
    rows from each of the block's q, q' and log-product stacks, not a
    copy per witness. So the fixed cost of a call is a count of numpy
    operations that does not grow with B, and only the log's Horner
    steps repeat, once per block of four series terms that its longest
    row needs. Pair k gets the same matrices and log-product as the
    batch-of-one kernels (matrix_exp, matrix_log, sample_with_rng on
    stream k, then the same scaling) give it alone. Its residual is the
    model's residual of that log-product, but the block's projection
    onto the span may sum in another order than model_residual's, so the
    two can differ in the last bits.

    A pair that cannot be tested keeps its own row in every stage, as
    NaN, and two masks say why: its sampler was exhausted (the sampler
    leaves the pair NaN, and the NaN runs through the scaling and the
    exponential until the log refuses it), or its product lies beyond
    the log's radius (only a pair tested as drawn can; the log writes
    NaN into its row). Its residual is NaN, which never exceeds tol, so
    it is skipped without a gather. More than samples/2 such pairs is an
    error, which counts the two causes apart and names the larger.
    Raises ValueError unless tol is a positive finite number, or when
    seed is not in [0, 2**128), the range of a Philox key; then
    SamplingError, from the sampler's gate, for a model with neither a
    parameterization nor a basis.

    The span and Lie closure dimensions are properties of the model, not
    of the sample: they are the lengths of the model's span rows
    (RateModel._span, span_basis at its default seed) and of the closure
    in its algebra record (RateModel._algebra, the algebra that span
    generates), each computed once per model object, so later audits of
    that object pay for neither. The pairs' residuals read only the
    span, so the first block's membership does not wait on the closure.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    found: list[Witness] = []
    exhausted = far = 0
    tested = 0
    scales = check_scaling_closure(model) is True
    for start in range(0, samples, _PAIR_BLOCK):
        index = range(start, min(start + _PAIR_BLOCK, samples))
        q, q_prime, logs, sampled, ok = _log_product_block(model, seed, len(index), tol, scales, start)
        passed = int(np.count_nonzero(ok))
        if passed < len(ok):
            # Count up to the pair whose failure passes half the sample, so blocking cannot change it.
            over = np.flatnonzero(exhausted + far + np.cumsum(~ok) > samples / 2)
            end = over[0] + 1 if len(over) else len(ok)
            exhausted += int(np.sum(~sampled[:end]))
            far += int(np.sum(sampled[:end] & ~ok[:end]))
            if len(over):
                cause = "sampler exhaustion" if exhausted > far else "products beyond the log's radius"
                raise RuntimeError(
                    f"more than half of the {samples} sampled pairs failed, mostly by {cause}: "
                    f"{exhausted} sampler exhaustions and {far} products beyond the log's radius "
                    f"in the first {index[end - 1] + 1} pairs"
                )
        tested += passed
        # An untested pair's log-product is NaN, whose residual never exceeds tol.
        resid = model._residual(logs)
        fail = (resid > tol).nonzero()[0]
        # Only the failures a report could keep become witnesses, gathered from the block at once.
        keep = fail[_select_witnesses(resid[fail])]
        found += map(Witness, q[keep], q_prime[keep], logs[keep], resid[keep].tolist(), (start + keep).tolist())

    span_dim, lie_dim = len(model._span), len(model._algebra.closure)
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

