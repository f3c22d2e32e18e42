"""Built-in substitution models.

DNA models over the state order A, G, C, T, as one table: HKY and the
8-parameter Lie-algebra envelope that its products land in, plus JC,
F81, K2P and GTR as closed/not-closed contrast cases. A row names the
model's parameters, the off-diagonal slots each one fills and those
each factor scales, its ranges, its constraints and its expected audit
outcome. One builder, _zoo_stack, makes every model's generators from
its row, and the parameterization registry is filled from the table,
one entry per row under the model's name. The builder does not check
a parameter's sign: a model's ranges are judged non-negative when it
is built (RateModel), and every draw lies in its box. Also holds the
reference HKY example (two generators and the independently computed
logarithm of the product of their substitution matrices) that the golden
tests and the repro-paper command pin, and kappa_witness, its ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

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

    Acts on the last two axes, so off may be one matrix or a (B, n, n)
    stack. The diagonal is einsum's writable view of a fresh copy, zeroed
    before the column sums are taken and then overwritten by their negation.
    """
    q = np.array(off, dtype=float)
    diag = np.einsum("...ii->...i", q)
    diag[...] = 0.0
    np.negative(_column_sums(q), out=diag)
    return q


_ALPHAS = ("alpha_a", "alpha_g", "alpha_c", "alpha_t")
_OFF = tuple((i, j) for i in range(4) for j in range(4) if i != j)
# The off-diagonal slots of row i, for i = 0..3.
_ROWS = tuple(tuple(s for s in _OFF if s[0] == i) for i in range(4))
_GTR_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


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
    """A built-in model: its generator, sampling ranges, constraints and expected audit outcome.

    parameters names the columns of the generator's (B, len(parameters))
    input. Parameter k < len(fills) fills the off-diagonal slots (i, j)
    in fills[k]; the rest are factors, and factor k multiplies the
    slots in scales[k] after the fill: HKY's kappa its transitions, and
    GTR's frequencies pi_i row i. normalized factors (GTR's) are weights,
    first divided by their row sum. The diagonal balances the column
    sums. provenance is "reference" when the expectation is pinned by
    the built-in reference computation (see the repro-paper command) and
    "literature" when it is standard-model background.
    """

    parameters: tuple[str, ...]
    fills: tuple[tuple[tuple[int, int], ...], ...]
    parameter_ranges: tuple[tuple[float, float], ...]
    expected_span_dim: int | None
    expected_closed: bool | None
    provenance: str
    constraints: tuple[PolynomialConstraint, ...] = ()
    scales: tuple[tuple[tuple[int, int], ...], ...] = ()
    normalized: bool = False

    @cached_property
    def _cells(self) -> tuple[np.ndarray, ...]:
        """Flat cells 4 i + j of the filled slots, their parameters, the scaled slots, their factors."""
        out = []
        for groups in (self.fills, self.scales):
            slots = [(4 * i + j, k) for k, group in enumerate(groups) for i, j in group]
            # Two contiguous rows: the cells, then the column each one reads.
            out.extend(np.array(slots, dtype=np.intp).reshape(-1, 2).T.copy())
        return tuple(out)


def _zoo_stack(entry: ZooEntry, p) -> np.ndarray:
    """entry's generators, one per row of the (B, len(entry.parameters)) array p, as a (B, 4, 4) stack.

    A single generator is a batch of one. A filled slot holds its
    parameter, a scaled slot that times its factor, and the diagonal
    balances the column sums (_with_diagonal). The slot tables are built
    on the entry's first call (ZooEntry._cells), not at import. p is
    taken as given: every caller passes a point of ranges that RateModel
    has judged non-negative, or constants.
    """
    p = np.asarray(p, dtype=float)
    filled, fill_columns, scaled, scale_columns = entry._cells
    off = np.zeros((len(p), 16))
    off[:, filled] = p[:, fill_columns]
    if len(scaled):
        factors = p[:, len(entry.fills):]
        if entry.normalized:
            total = factors.sum(axis=1)
            if (total <= 0).any():
                raise ValueError("frequency weights must not all be zero")
            factors = factors / total[:, None]
        off[:, scaled] *= factors[:, scale_columns]
    return _with_diagonal(off.reshape(len(p), 4, 4))


_ZOO: dict[str, ZooEntry] = {
    # HKY as a constraint variety with its 5-parameter generator attached: row i at alpha_i off the
    # diagonal, with the transitions (A<->G, C<->T) scaled by kappa.
    "hky": ZooEntry((*_ALPHAS, "kappa"), _ROWS, ((0.001, 0.05),) * 4 + ((0.5, 2.0),), 8, False,
                    "reference", _hky_constraints(), scales=(_TRANSITIONS,)),
    # The 8-dimensional span model enveloping HKY, one basis matrix per free rate: HKY's row pairs,
    # with the four transition rates kappa_1..kappa_4 free instead of tied to a common ratio.
    "lm88": ZooEntry(("alpha", "beta", "gamma", "delta", "kappa_1", "kappa_2", "kappa_3", "kappa_4"),
                     _LM88_SLOTS, ((0.001, 0.06),) * 8, 8, True, "reference"),
    # Jukes-Cantor: all substitutions at rate mu.
    "jc": ZooEntry(("mu",), (_OFF,), ((0.001, 0.05),), 1, True, "literature"),
    # F81: row i constant at alpha_i off the diagonal (HKY at kappa = 1).
    "f81": ZooEntry(_ALPHAS, _ROWS, ((0.001, 0.05),) * 4, 4, True, "literature"),
    # Kimura two-parameter: transitions at alpha, transversions at beta.
    "k2p": ZooEntry(("alpha", "beta"), (_TRANSITIONS, tuple(s for s in _OFF if s not in _TRANSITIONS)),
                    ((0.001, 0.05),) * 2, 2, True, "literature"),
    # General time-reversible: s_ij fills both rates of its pair, and the rate into i from j is
    # s_ij pi_i, which satisfies detailed balance by construction. A constraint variety; no span
    # basis is declared on purpose, so closure audits of it argue from sampled witnesses, which
    # exercises the constraints-only code path.
    "gtr": ZooEntry(("s_ag", "s_ac", "s_at", "s_gc", "s_gt", "s_ct", "w_a", "w_g", "w_c", "w_t"),
                    tuple((pair, pair[::-1]) for pair in _GTR_PAIRS), ((0.2, 0.6),) * 6 + ((0.1, 0.4),) * 4,
                    None, False, "literature", _gtr_constraints(), scales=_ROWS, normalized=True),
}
_PARAMETERIZATIONS.update(
    {name: (partial(_zoo_stack, entry), len(entry.parameters)) for name, entry in _ZOO.items()})


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


def reference_pair() -> tuple[np.ndarray, np.ndarray]:
    """The two reference HKY generators."""
    return tuple(_zoo_stack(_ZOO["hky"], REFERENCE_HKY_PARAMS))


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
