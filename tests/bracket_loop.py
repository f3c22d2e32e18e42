"""Per-bracket Lie saturation, the reference for lie_closure's batched brackets."""

import numpy as np

from liemarkov import commutator, is_in_L
from liemarkov.closure import DEFAULT_BRACKET_GATE, _generators, _zero_sum


def lie_closure_loop(basis, rel_tol: float = DEFAULT_BRACKET_GATE) -> list[np.ndarray]:
    """lie_closure with one commutator call per bracket and a list of brackets per level.

    The same generators (_generators), breadth-first search, bracket
    order and sign (the first level [g_i, g_j] for i < j, i-major, each
    later level [g, v] for every generator g and new direction v,
    g-major), Gram-Schmidt passes, SVD gate, zero-sum projection and
    split of a level longer than the directions left as lie_closure;
    only the brackets are formed one at a time and stacked afterwards.
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
    flat = np.empty((ambient, n * n))
    d = len(gens)
    flat[:d] = np.reshape(gens, (d, n * n))
    brackets = [commutator(g, s) for i, g in enumerate(gens) for s in gens[i + 1:]]
    while brackets and d < ambient:
        block = np.stack(brackets).reshape(len(brackets), -1)
        level = d
        # No level adds more than ambient - d directions: that many brackets
        # first, the rest only while L is not full.
        for part in (block[:ambient - d], block[ambient - d:]):
            if not len(part) or d == ambient:
                break
            for _ in range(2):
                part -= (part @ flat[:d].T) @ flat[:d]
            _, svals, vt = np.linalg.svd(part, full_matrices=False)
            k = min(int(np.sum(svals > rel_tol)), ambient - d)
            new = vt[:k] - (vt[:k] @ flat[:d].T) @ flat[:d]
            flat[d:d + k] = _zero_sum(new.reshape(k, n, n)).reshape(k, n * n)
            d += k
        brackets = [commutator(g, v.reshape(n, n)) for g in gens for v in flat[level:d]]
    return [row.reshape(n, n).copy() for row in flat[:d]]
