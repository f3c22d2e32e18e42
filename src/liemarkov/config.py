"""Sum conventions of the model file format.

The package works in the zero-column-sum convention throughout: a rate
matrix has columns summing to zero, and its exponential is
column-stochastic. Multiplicative closure does not depend on that
choice: transposition reverses products and maps each bracket to minus
the bracket of the transposes, so a span is bracket-closed exactly when
its transpose is. Model files may declare ``"convention": "row"`` for
rate matrices whose rows sum to zero; they are converted to the column
convention when they are loaded.
"""

from __future__ import annotations

CONVENTIONS = ("column", "row")


def column_axes(convention: str) -> tuple[int, int]:
    """Axis order that takes a file's matrices into the column convention.

    (0, 1) for "column" and (1, 0) for "row". It applies alike to an
    n x n matrix (``m.transpose(axes)``) and to an (i, j) index pair
    (``itemgetter(*axes)(pair)``). Raises ValueError for any other
    convention name.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    return (0, 1) if convention == "column" else (1, 0)
