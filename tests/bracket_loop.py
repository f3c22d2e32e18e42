"""Per-bracket Lie saturation, the reference for lie_closure's batched brackets."""

import math

import numpy as np

from liemarkov import commutator, is_in_L
from liemarkov.closure import DEFAULT_BRACKET_GATE, _generators


def lie_closure_loop(basis, rel_tol: float = DEFAULT_BRACKET_GATE) -> list[np.ndarray]:
    """lie_closure with one commutator call per bracket and a list of brackets per level.

    The same generators (_generators), breadth-first search, bracket
    order and sign (the first level [g_i, g_j] for i < j, i-major, each
    later level [g, v] for every generator g and new direction v,
    g-major), basis layout (the n unit column-mean directions first),
    single projection, SVD of the block's transpose, gate, projection of
    the accepted directions and split of a level longer than the
    directions left as lie_closure; only the brackets are formed one at
    a time and stacked afterwards.
    lie_closure must return the same basis bit for bit.
    """
    mats = [np.asarray(b, dtype=float) for b in basis]
    if not mats:
        raise ValueError("basis must be non-empty")
    for b in mats:
        if not is_in_L(b, tol=1e-10 * max(1.0, np.linalg.norm(b, "fro"))):
            raise ValueError("lie_closure requires zero-sum generators")
    gens = list(_generators(np.array(mats), rel_tol))
    n = mats[0].shape[0]
    ambient = n * n - n
    flat = np.zeros((n + ambient, n * n))
    for j in range(n):
        flat[j].reshape(n, n)[:, j] = 1.0 / math.sqrt(n)
    d = len(gens)
    flat[n:n + d] = np.reshape(gens, (d, n * n))
    brackets = [commutator(g, s) for i, g in enumerate(gens) for s in gens[i + 1:]]
    while brackets and d < ambient:
        block = np.stack(brackets).reshape(len(brackets), -1)
        level = d
        # No level adds more than ambient - d directions: that many brackets
        # first, the rest only while L is not full.
        for part in (block[:ambient - d], block[ambient - d:]):
            if not len(part) or d == ambient:
                break
            known = flat[:n + d]
            part -= (part @ known.T) @ known
            u, svals, _ = np.linalg.svd(part.T, full_matrices=False)
            k = min(int(np.sum(svals > rel_tol)), ambient - d)
            new = u[:, :k].T
            flat[n + d:n + d + k] = new - (new @ known.T) @ known
            d += k
        brackets = [commutator(g, v.reshape(n, n)) for g in gens for v in flat[n + level:n + d]]
    return [row.reshape(n, n).copy() for row in flat[n:n + d]]
