from fractions import Fraction

import numpy as np
import pytest

from exact import _fractions, exact_rank


class TestExactRank:
    def test_keeps_large_integers(self):
        # 2**53 + 1 has no float64; a float round trip would merge the two vectors.
        a = np.array([[2 ** 53 + 1, 1], [0, 0]], dtype=object)
        b = np.array([[2 ** 53, 1], [0, 0]], dtype=object)
        assert exact_rank([a, b]) == 2
        assert exact_rank([a, a]) == 1

    def test_validates_shape_and_finiteness(self):
        with pytest.raises(ValueError, match="square"):
            exact_rank([np.zeros((2, 3))])
        with pytest.raises(ValueError, match="finite"):
            exact_rank([np.array([[np.inf, 0.0], [0.0, 0.0]])])
        with pytest.raises(ValueError, match="same order"):
            exact_rank([np.eye(2), np.eye(3)])

    def test_empty_and_dependent_inputs(self):
        assert exact_rank([]) == 0
        assert exact_rank([np.zeros((3, 3))]) == 0
        a = np.arange(9.0).reshape(3, 3)
        assert exact_rank([a, 2 * a, np.eye(3), a + np.eye(3)]) == 2

    def test_fractions_are_exact(self):
        # A binary float is taken as the rational it is, not as the decimal it prints as.
        out = _fractions(np.array([[0.1, 1.0], [2.0, 3.0]]))
        assert out == [Fraction(3602879701896397, 2 ** 55), 1, 2, 3]
        assert out[0] != Fraction(1, 10)
