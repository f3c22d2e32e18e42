"""Exact rational rank, an oracle for the numerical rank tests."""

import math
from fractions import Fraction

import numpy as np


def _fractions(m) -> list[Fraction]:
    """Entries of a square matrix as exact rationals, row-major, without a float round trip."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    out = []
    for x in a.reshape(-1).tolist():
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError("matrix entries must be finite")
        out.append(Fraction(x))
    return out


def exact_rank(mats) -> int:
    """Rank over the rationals by exact Gaussian elimination.

    Entries are converted straight to fractions: binary floats are
    rationals, and integers (including Python integers beyond 2**53 in
    object arrays) are taken exactly. A cross-check oracle for
    numerical_rank on small integer-valued bases, where it is immune to
    floating-point thresholds.
    """
    rows = [_fractions(m) for m in mats]
    if not rows:
        return 0
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrices must all have the same order")
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank
