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
from functools import partial

import numpy as np

from .linalg import check_square
from .model import (
    _PARAMETERIZATIONS,
    PolynomialConstraint,
    RateModel,
    _column_sums,
    get_parameterization,
    product_constraint,
)

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
    n = q.shape[-1]
    # The diagonal as a view: every (n + 1)-th entry of each flattened matrix.
    diag = q.reshape(*q.shape[:-2], n * n)[..., :: n + 1]
    diag[...] = 0.0
    np.negative(_column_sums(q), out=diag)
    return q


def _params(p, names: tuple[str, ...]) -> np.ndarray:
    """A (B, len(names)) parameter array, checked to be non-negative in one test.

    A negative entry is named by its column, the first such column, and
    its value, that column's first negative entry.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] != len(names):
        raise ValueError(f"expected a (B, {len(names)}) parameter array, got shape {p.shape}")
    negative = p < 0
    if negative.any():
        col = int(np.argmax(negative.any(axis=0)))
        raise ValueError(
            f"parameter {names[col]} must be non-negative, got {p[negative[:, col], col][0]}"
        )
    return p


# Stack builders: each maps a (B, n_params) array to a (B, 4, 4) stack of
# generators, one per parameter row; a single generator is a batch of one.

_ALPHAS = ("alpha_a", "alpha_g", "alpha_c", "alpha_t")


def _hky_stack(p) -> np.ndarray:
    """HKY: per-row base rates alpha_i, transitions scaled by kappa.

    Row i carries alpha_i off the diagonal, with the transition entries
    (A<->G, C<->T) multiplied by kappa and the diagonal balancing the sums.
    """
    p = _params(p, (*_ALPHAS, "kappa"))
    alpha, kappa = p[:, :4], p[:, 4]
    off = np.repeat(alpha[:, :, None], 4, axis=2)
    for i, j in _TRANSITIONS:
        off[:, i, j] = kappa * alpha[:, i]
    return _with_diagonal(off)


_GTR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# GTR's twelve rates: the flat cell 4 i + j of each, the column of its pair's exchangeability
# and the column of its row's frequency, since the rate into i from j is s_ij * pi_i.
_GTR_SLOTS = tuple(np.array(side) for side in zip(*(
    (4 * a + b, col, a) for col, pair in enumerate(_GTR_PAIRS) for a, b in (pair, pair[::-1]))))


def _gtr_stack(p) -> np.ndarray:
    """General time-reversible, from exchangeabilities and frequency weights.

    The weights are normalized to stationary frequencies pi and the rate
    into state i from state j is s_ij * pi_i, which satisfies detailed
    balance by construction.
    """
    p = _params(p, ("s_ag", "s_ac", "s_at", "s_gc", "s_gt", "s_ct", "w_a", "w_g", "w_c", "w_t"))
    exch, weights = p[:, :6], p[:, 6:]
    total = weights.sum(axis=1)
    if (total <= 0).any():
        raise ValueError("frequency weights must not all be zero")
    pi = weights / total[:, None]
    cells, pairs, rows = _GTR_SLOTS
    off = np.zeros((len(p), 16))
    off[:, cells] = exch[:, pairs] * pi[:, rows]
    return _with_diagonal(off.reshape(len(p), 4, 4))


_OFF = tuple((i, j) for i in range(4) for j in range(4) if i != j)
# The linear models: parameter names and, for each parameter, the off-diagonal slots it fills.
_LINEAR = {
    # Jukes-Cantor: all substitutions at rate mu.
    "jc": (("mu",), (_OFF,)),
    # F81: row i constant at alpha_i off the diagonal (HKY at kappa = 1).
    "f81": (_ALPHAS, tuple(tuple(s for s in _OFF if s[0] == i) for i in range(4))),
    # Kimura two-parameter: transitions at alpha, transversions at beta.
    "k2p": (("alpha", "beta"), (_TRANSITIONS, tuple(s for s in _OFF if s not in _TRANSITIONS))),
    # The 8-parameter pattern that log-products of HKY matrices follow: HKY's row pairs, with
    # the four transition rates kappa_1..kappa_4 free instead of tied to a common ratio.
    "lm88": (("alpha", "beta", "gamma", "delta", "kappa_1", "kappa_2", "kappa_3", "kappa_4"),
             _LM88_SLOTS),
}


def _linear_stack(names: tuple[str, ...], cells: np.ndarray, columns: np.ndarray, p) -> np.ndarray:
    """The generators whose flat entry cells[k] holds parameter columns[k], one per parameter row."""
    p = _params(p, names)
    off = np.zeros((len(p), 16))
    off[:, cells] = p[:, columns]
    return _with_diagonal(off.reshape(len(p), 4, 4))


def _slot_table(slots) -> tuple[np.ndarray, np.ndarray]:
    """The flat cell 4 i + j of every slot (i, j), and the parameter column that fills it."""
    pairs = [(4 * i + j, col) for col, cells in enumerate(slots) for i, j in cells]
    return tuple(np.array(side) for side in zip(*pairs))


_PARAMETERIZATIONS.update(
    {name: (partial(_linear_stack, names, *_slot_table(slots)), len(names))
     for name, (names, slots) in _LINEAR.items()},
    hky=(_hky_stack, 5), gtr=(_gtr_stack, 10),
)


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


def zoo_model(name: str) -> RateModel:
    """The zoo model of that name: 4 states, sampled through the parameterization of its name.

    A model without constraints declares as its basis the images of the
    unit vectors under that parameterization, which is linear.
    """
    try:
        entry = _ZOO[name]
    except KeyError:
        raise KeyError(f"unknown zoo model {name!r}; known: {', '.join(_ZOO)}") from None
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
    return tuple(_hky_stack(REFERENCE_HKY_PARAMS))


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
