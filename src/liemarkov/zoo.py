"""Built-in substitution models.

DNA models over the state order A, G, C, T, as one table: HKY and the
8-parameter Lie-algebra envelope that its products land in, plus JC,
F81, K2P and GTR as closed/not-closed contrast cases. Also holds the
reference HKY example (two generators and the independently computed
logarithm of the product of their substitution matrices) that the golden
tests and the repro-paper command pin, and kappa_witness, its ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_square
from .model import (
    PolynomialConstraint,
    RateModel,
    get_parameterization,
    product_constraint,
    register_parameterization,
)

NUCLEOTIDES = ("A", "G", "C", "T")

# Off-diagonal slots of lm88's parameters, in signature order: the row
# pairs of alpha..delta, then the transitions of kappa_1..kappa_4.
_LM88_SLOTS = (
    ((0, 2), (0, 3)), ((1, 2), (1, 3)), ((2, 0), (2, 1)), ((3, 0), (3, 1)),
    ((0, 1),), ((1, 0),), ((2, 3),), ((3, 2),),
)
_ROW_PAIRS = _LM88_SLOTS[:4]
# Transition pairs under the A, G, C, T ordering: A<->G and C<->T.
_TRANSITIONS = tuple(slot for (slot,) in _LM88_SLOTS[4:])


def _with_diagonal(off) -> np.ndarray:
    """Fill the diagonal so each column sums to zero.

    Acts on the last two axes, so off may be one matrix or a (B, n, n) stack.
    """
    q = np.array(off, dtype=float)
    diag = np.arange(q.shape[-1])
    q[..., diag, diag] = 0.0
    q[..., diag, diag] = -q.sum(axis=-2)
    return q


def _params(p, names: tuple[str, ...]) -> np.ndarray:
    """A (B, len(names)) parameter array, checked to be non-negative column by column."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] != len(names):
        raise ValueError(f"expected a (B, {len(names)}) parameter array, got shape {p.shape}")
    for col, pname in enumerate(names):
        negative = p[:, col] < 0
        if negative.any():
            raise ValueError(
                f"parameter {pname} must be non-negative, got {p[negative, col][0]}"
            )
    return p


# Stack builders: each maps a (B, n_params) array to a (B, 4, 4) stack of
# generators; the scalar builders below are their batch-of-one calls.

def _hky_stack(p) -> np.ndarray:
    p = _params(p, ("alpha_a", "alpha_g", "alpha_c", "alpha_t", "kappa"))
    alpha, kappa = p[:, :4], p[:, 4]
    off = np.repeat(alpha[:, :, None], 4, axis=2)
    for i, j in _TRANSITIONS:
        off[:, i, j] = kappa * alpha[:, i]
    return _with_diagonal(off)


def _jc_stack(p) -> np.ndarray:
    mu = _params(p, ("mu",))[:, 0]
    return _with_diagonal(np.broadcast_to(mu[:, None, None], (len(mu), 4, 4)))


def _f81_stack(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return _hky_stack(np.concatenate([p, np.ones((len(p), 1))], axis=1))


def _k2p_stack(p) -> np.ndarray:
    p = _params(p, ("alpha", "beta"))
    off = np.repeat(p[:, 1, None, None], 4, axis=1).repeat(4, axis=2)
    for i, j in _TRANSITIONS:
        off[:, i, j] = p[:, 0]
    return _with_diagonal(off)


def _lm88_stack(p) -> np.ndarray:
    p = _params(p, ("alpha", "beta", "gamma", "delta", "kappa_1", "kappa_2", "kappa_3", "kappa_4"))
    off = np.zeros((len(p), 4, 4))
    for col, slots in enumerate(_LM88_SLOTS):
        for i, j in slots:
            off[:, i, j] = p[:, col]
    return _with_diagonal(off)


_GTR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _gtr_stack(p) -> np.ndarray:
    p = _params(p, ("s_ag", "s_ac", "s_at", "s_gc", "s_gt", "s_ct", "w_a", "w_g", "w_c", "w_t"))
    exch, weights = p[:, :6], p[:, 6:]
    total = weights.sum(axis=1)
    if (total <= 0).any():
        raise ValueError("frequency weights must not all be zero")
    pi = weights / total[:, None]
    off = np.zeros((len(p), 4, 4))
    for col, (i, j) in enumerate(_GTR_PAIRS):
        off[:, i, j] = exch[:, col] * pi[:, i]
        off[:, j, i] = exch[:, col] * pi[:, j]
    return _with_diagonal(off)


def hky(alpha_a: float, alpha_g: float, alpha_c: float, alpha_t: float, kappa: float) -> np.ndarray:
    """HKY generator: per-row base rates alpha_i, transitions scaled by kappa.

    Row i carries alpha_i off the diagonal, with the transition entries
    (A<->G, C<->T) multiplied by kappa and the diagonal balancing the sums.
    """
    return _hky_stack([[alpha_a, alpha_g, alpha_c, alpha_t, kappa]])[0]


def jc(mu: float) -> np.ndarray:
    """Jukes-Cantor generator: all substitutions at rate mu."""
    return _jc_stack([[mu]])[0]


def f81(alpha_a: float, alpha_g: float, alpha_c: float, alpha_t: float) -> np.ndarray:
    """F81 generator: row i constant at alpha_i off the diagonal (HKY at kappa=1)."""
    return _f81_stack([[alpha_a, alpha_g, alpha_c, alpha_t]])[0]


def k2p(alpha: float, beta: float) -> np.ndarray:
    """Kimura two-parameter generator: transitions at alpha, transversions at beta."""
    return _k2p_stack([[alpha, beta]])[0]


def lm88(alpha: float, beta: float, gamma: float, delta: float,
         kappa_1: float, kappa_2: float, kappa_3: float, kappa_4: float) -> np.ndarray:
    """Generator in the 8-parameter pattern that log-products of HKY matrices follow.

    Same row-pair structure as HKY but with the four transition rates
    kappa_1..kappa_4 free instead of tied to a common ratio.
    """
    return _lm88_stack([[alpha, beta, gamma, delta, kappa_1, kappa_2, kappa_3, kappa_4]])[0]


def gtr(s_ag: float, s_ac: float, s_at: float, s_gc: float, s_gt: float, s_ct: float,
        w_a: float, w_g: float, w_c: float, w_t: float) -> np.ndarray:
    """General time-reversible generator from exchangeabilities and frequency weights.

    The weights are normalized to stationary frequencies pi and the rate
    into state i from state j is s_ij * pi_i, which satisfies detailed
    balance by construction.
    """
    return _gtr_stack([[s_ag, s_ac, s_at, s_gc, s_gt, s_ct, w_a, w_g, w_c, w_t]])[0]


register_parameterization("hky", _hky_stack, 5)
register_parameterization("jc", _jc_stack, 1)
register_parameterization("f81", _f81_stack, 4)
register_parameterization("k2p", _k2p_stack, 2)
register_parameterization("lm88", _lm88_stack, 8)
register_parameterization("gtr", _gtr_stack, 10)


def _hky_constraints() -> tuple[PolynomialConstraint, ...]:
    # Four row-pair equalities plus the full orbit of equal-ratio
    # quadratics kappa_r alpha_s = kappa_s alpha_r; the first three
    # quadratics already determine the model on the open stratum, the
    # last three close the degenerate one.
    alphas = [[(i + 1, j + 1) for i, j in pair] for pair in _ROW_PAIRS]
    kappas = [(i + 1, j + 1) for i, j in _TRANSITIONS]
    linear = tuple(product_constraint([plus], [minus]) for plus, minus in alphas)
    quadratic = tuple(
        product_constraint([kappas[r], alphas[s][0]], [kappas[s], alphas[r][0]])
        for r, s in ((0, 1), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2))
    )
    return linear + quadratic


def _gtr_constraints() -> tuple[PolynomialConstraint, ...]:
    # Reversibility as cycle conditions: on every 3-cycle the product of
    # rates one way around equals the product the other way.
    triples = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    return tuple(
        product_constraint([(i, j), (j, k), (k, i)], [(i, k), (k, j), (j, i)])
        for i, j, k in triples
    )


@dataclass(frozen=True)
class ZooEntry:
    """A built-in model: its sampling ranges, its constraints and its expected audit outcome.

    provenance is "reference" when the expectation is pinned by the
    built-in reference computation (see the repro-paper command) and
    "literature" when it is standard-model background.
    """

    parameter_ranges: tuple[tuple[float, float], ...]
    expected_span_dim: int | None
    expected_closed: bool | None
    provenance: str
    constraints: tuple[PolynomialConstraint, ...] = ()


_ZOO: dict[str, ZooEntry] = {
    # HKY as a constraint variety with its 5-parameter generator attached.
    "hky": ZooEntry(((0.001, 0.05),) * 4 + ((0.5, 2.0),), 8, False, "reference", _hky_constraints()),
    # The 8-dimensional span model enveloping HKY, one basis matrix per free rate.
    "lm88": ZooEntry(((0.001, 0.06),) * 8, 8, True, "reference"),
    "jc": ZooEntry(((0.001, 0.05),), 1, True, "literature"),
    "f81": ZooEntry(((0.001, 0.05),) * 4, 4, True, "literature"),
    "k2p": ZooEntry(((0.001, 0.05),) * 2, 2, True, "literature"),
    # GTR as a constraint variety; no span basis is declared on purpose, so
    # closure audits of it argue from sampled witnesses, which exercises the
    # constraints-only code path.
    "gtr": ZooEntry(((0.2, 0.6),) * 6 + ((0.1, 0.4),) * 4, None, False, "literature", _gtr_constraints()),
}


def zoo_names() -> list[str]:
    return list(_ZOO)


def zoo_entry(name: str) -> ZooEntry:
    try:
        return _ZOO[name]
    except KeyError:
        raise KeyError(f"unknown zoo model {name!r}; known: {', '.join(_ZOO)}") from None


def zoo_model(name: str) -> RateModel:
    """The zoo model of that name: 4 states, sampled through the parameterization of its name.

    A model without constraints declares as its basis the images of the
    unit vectors under that parameterization, which is linear.
    """
    entry = zoo_entry(name)
    fn, n_params = get_parameterization(name)
    basis = () if entry.constraints else tuple(fn(np.eye(n_params)))
    return RateModel(name, 4, basis, entry.constraints, name, entry.parameter_ranges)


# ---------------------------------------------------------------------------
# Reference example: two HKY generators and the
# independently computed principal logarithm of exp(Q1) @ exp(Q2). The
# log-product fits the lm88 pattern with the alpha values below but
# admits no single transition/transversion ratio.
# ---------------------------------------------------------------------------

REFERENCE_HKY_PARAMS = (
    (0.02, 0.01, 0.005, 0.009, 1.5),
    (0.03, 0.01, 0.006, 0.008, 1.4),
)

REFERENCE_LOG_PRODUCT = np.array(
    [
        [-0.0571752, 0.0718248, 0.0498348, 0.0498348],
        [0.0291051, -0.0998949, 0.0200951, 0.0200951],
        [0.0109967, 0.0109967, -0.0947047, 0.0158953],
        [0.0170734, 0.0170734, 0.0247748, -0.0858252],
    ]
)
REFERENCE_LOG_PRODUCT.flags.writeable = False

REFERENCE_ALPHAS = (0.0498348, 0.0200951, 0.0109967, 0.0170734)


def reference_pair() -> tuple[np.ndarray, np.ndarray]:
    """The two reference HKY generators."""
    p1, p2 = REFERENCE_HKY_PARAMS
    return hky(*p1), hky(*p2)


def kappa_witness(q) -> list[float]:
    """The four transition/transversion ratios implied by a closure-pattern matrix.

    Requires the row-pair equalities of the 8-parameter pattern to hold
    at 1e-6. A single-ratio (HKY) matrix returns four equal values; a
    generic log-product returns four distinct ones.
    """
    q = check_square(q)
    if q.shape[0] != 4:
        raise ValueError("the closure pattern is defined for order-4 matrices")
    for (i1, j1), (i2, j2) in _ROW_PAIRS:
        if abs(q[i1, j1] - q[i2, j2]) > 1e-6:
            raise ValueError(
                f"entries ({i1 + 1},{j1 + 1}) and ({i2 + 1},{j2 + 1}) differ "
                "beyond 1e-6; matrix is not in the closure pattern"
            )
    out = []
    for (ni, nj), ((di, dj), _) in zip(_TRANSITIONS, _ROW_PAIRS):
        denom = q[di, dj]
        if abs(denom) < 1e-14:
            raise ZeroDivisionError(f"entry ({di + 1},{dj + 1}) is below 1e-14; ratio undefined")
        out.append(float(q[ni, nj] / denom))
    return out
