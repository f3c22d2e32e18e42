"""Global sum convention for rate matrices.

Everything in this package defaults to the zero-column-sum convention: a
rate matrix has columns summing to zero, and the exponential of such a
matrix is column-stochastic. Users who keep their chains in row-sum form
can flip the convention once, up front; generators, predicates and model
file IO then transpose at the boundary.
"""

from __future__ import annotations

import numpy as np

_VALID = ("column", "row")
_convention = "column"


def set_convention(mode: str) -> None:
    """Select the sum convention: "column" (default) or "row".

    Set this once before building models; matrices created under one
    convention are not meaningful under the other.
    """
    global _convention
    if mode not in _VALID:
        raise ValueError(f"convention must be one of {_VALID}, got {mode!r}")
    _convention = mode


def get_convention() -> str:
    return _convention


def sum_axis() -> int:
    """Axis along which generator entries must sum to zero.

    Counted from the end (-2 for columns, -1 for rows), so it addresses
    a single matrix and every matrix of a (B, n, n) stack alike.
    """
    return -2 if _convention == "column" else -1


def from_column(q: np.ndarray) -> np.ndarray:
    """Convert a column-convention matrix, or stack of them, into the active convention."""
    return q if _convention == "column" else np.swapaxes(q, -1, -2).copy()


def to_column(q: np.ndarray) -> np.ndarray:
    """View a matrix, or stack of them, in the active convention as column-convention."""
    return q if _convention == "column" else np.swapaxes(q, -1, -2).copy()
