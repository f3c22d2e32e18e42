import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemarkov import linalg
from liemarkov.linalg import (
    PrincipalLogError,
    commutator,
    exact_rank,
    frobenius,
    least_squares_membership,
    matrix_exp,
    matrix_log,
    numerical_rank,
    orthonormal_basis,
)

from conftest import make_rate_matrix


def taylor_log(m, terms=200):
    """Independent log oracle: plain power series, valid for ||M - I|| < 1."""
    m = np.asarray(m, dtype=float)
    x = m - np.eye(m.shape[0])
    assert np.linalg.norm(x, "fro") < 1.0
    total = np.zeros_like(x)
    power = x.copy()
    for j in range(1, terms + 1):
        total += ((-1.0) ** (j + 1) / j) * power
        power = power @ x
    return total


small_entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def matrices(n=3):
    return st.lists(small_entries, min_size=n * n, max_size=n * n).map(
        lambda xs: np.array(xs).reshape(n, n)
    )


class TestArith:
    def test_add_zero(self):
        z = np.zeros((4, 4))
        np.testing.assert_array_equal(linalg.add(z, z), z)

    def test_mul_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 4))
        np.testing.assert_allclose(linalg.mul(np.eye(4), x), x)

    def test_scale(self):
        np.testing.assert_array_equal(
            linalg.scale(2.0, np.eye(2)), np.array([[2.0, 0.0], [0.0, 2.0]])
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            linalg.add(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_rejects_nonfinite(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            linalg.check_square(bad)


class TestExp:
    def test_exp_zero_is_identity(self):
        np.testing.assert_allclose(matrix_exp(np.zeros((4, 4))), np.eye(4), atol=1e-15)

    def test_exp_symmetric_closed_form(self):
        # Eigenvalues 0 and -2, so exp has entries (1 +/- e^-2)/2.
        a = np.array([[-1.0, 1.0], [1.0, -1.0]])
        e2 = math.exp(-2.0)
        expected = np.array([[(1 + e2) / 2, (1 - e2) / 2], [(1 - e2) / 2, (1 + e2) / 2]])
        np.testing.assert_allclose(matrix_exp(a), expected, rtol=1e-13)

    def test_exp_reference_generator_is_stochastic(self, reference_pair_q):
        q1, _ = reference_pair_q
        p = matrix_exp(q1)
        np.testing.assert_allclose(p.sum(axis=0), np.ones(4), atol=1e-12)
        assert p.min() >= 0.0

    def test_exp_matches_arbitrary_precision(self):
        # Componentwise relative error <= 1e-12 up to ||A||_F = 10.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(7)
        for target in (0.5, 3.0, 10.0):
            q = make_rate_matrix(rng, 4, max_norm=1.0)
            q *= target / np.linalg.norm(q, "fro")
            ours = matrix_exp(q)
            exact = mpmath.expm(mpmath.matrix(q.tolist()))
            exact = np.array([[float(exact[i, j]) for j in range(4)] for i in range(4)])
            rel = np.abs(ours - exact) / np.abs(exact)
            assert rel.max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_exp_log_round_trip(self, seed):
        q = make_rate_matrix(np.random.default_rng(seed), 4, max_norm=1.0)
        assert frobenius(matrix_log(matrix_exp(q)) - q) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_exp_conserves_column_sums_and_positivity(self, seed):
        q = make_rate_matrix(np.random.default_rng(seed), 4, max_norm=1.0)
        p = matrix_exp(q)
        np.testing.assert_allclose(p.sum(axis=0), np.ones(4), atol=1e-12)
        assert p.min() >= -1e-14


class TestLog:
    def test_log_identity_is_zero(self):
        np.testing.assert_allclose(matrix_log(np.eye(4)), np.zeros((4, 4)), atol=1e-15)

    def test_log_round_trip_against_taylor_oracle(self):
        q = np.array([[-0.3, 0.2], [0.3, -0.2]])
        m = matrix_exp(q)
        oracle = taylor_log(m)
        ours = matrix_log(m)
        np.testing.assert_allclose(ours, oracle, atol=1e-13)
        np.testing.assert_allclose(ours, q, atol=1e-12)

    def test_log_inverts_exp_after_square_roots(self):
        # Norm large enough that the square-root stage actually runs.
        rng = np.random.default_rng(3)
        q = make_rate_matrix(rng, 4, max_norm=1.0)
        q *= 4.0 / np.linalg.norm(q, "fro")
        m = matrix_exp(q)
        l = matrix_log(m)
        assert frobenius(matrix_exp(l) - m) / frobenius(m) <= 1e-10

    def test_log_rejects_negative_axis(self):
        with pytest.raises(PrincipalLogError):
            matrix_log(np.diag([-1.0, -2.0]))

    def test_log_rejects_singular(self):
        with pytest.raises(PrincipalLogError):
            matrix_log(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_log_of_reference_product(self, reference_pair_q):
        from liemarkov import REFERENCE_LOG_PRODUCT

        q1, q2 = reference_pair_q
        l = matrix_log(matrix_exp(q1) @ matrix_exp(q2))
        assert np.abs(l - REFERENCE_LOG_PRODUCT).max() <= 1e-6


class TestCommutator:
    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        np.testing.assert_allclose(commutator(a, a), np.zeros((4, 4)), atol=1e-14)

    def test_elementary_bracket(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(commutator(a, b), np.array([[1.0, 0.0], [0.0, -1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(matrices(), matrices())
    def test_antisymmetry(self, a, b):
        np.testing.assert_allclose(commutator(a, b), -commutator(b, a), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(matrices(), matrices(), matrices(), small_entries, small_entries)
    def test_bilinearity(self, a, b, c, alpha, beta):
        lhs = commutator(alpha * a + beta * b, c)
        rhs = alpha * commutator(a, c) + beta * commutator(b, c)
        assert frobenius(lhs - rhs) <= 1e-12 * max(1.0, frobenius(lhs))


class TestRank:
    def test_single_matrix(self):
        assert numerical_rank([np.eye(2)]) == 1

    def test_scalar_multiple_collapses(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert numerical_rank([a, 2 * a, b]) == 2

    def test_empty_and_zero(self):
        assert numerical_rank([]) == 0
        assert numerical_rank([np.zeros((3, 3))]) == 0

    def test_rel_tol_range(self):
        with pytest.raises(ValueError):
            numerical_rank([np.eye(2)], rel_tol=1.5)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="same order"):
            numerical_rank([np.eye(2), np.eye(3)])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=9, max_size=9),
            min_size=1,
            max_size=5,
        ),
        st.randoms(use_true_random=False),
    )
    def test_invariance_and_exact_agreement(self, flat, rand):
        mats = [np.array(xs, dtype=float).reshape(3, 3) for xs in flat]
        rank = numerical_rank(mats)
        assert rank == exact_rank(mats)
        shuffled = list(mats)
        rand.shuffle(shuffled)
        assert numerical_rank(shuffled) == rank
        scaled = [m.copy() for m in mats]
        scaled[0] = -7.5 * scaled[0]
        assert numerical_rank(scaled) == rank


class TestMembership:
    def test_basis_member(self):
        b1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b2 = np.array([[0.0, 1.0], [0.0, -1.0]])
        res = least_squares_membership(b1, [b1, b2], tol=1e-10)
        assert res.inside
        np.testing.assert_allclose(res.coefficients, (1.0, 0.0), atol=1e-12)
        assert res.residual <= 1e-14

    def test_identity_outside_zero_sum_space(self):
        b1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b2 = np.array([[0.0, 1.0], [0.0, -1.0]])
        res = least_squares_membership(np.eye(2), [b1, b2], tol=1e-8)
        assert not res.inside
        assert res.residual > 0.1

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            least_squares_membership(np.eye(2), [])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            least_squares_membership(np.eye(2), [np.zeros((3, 3))])


class TestOrthonormalBasis:
    def test_orthonormal_and_deterministic(self):
        rng = np.random.default_rng(5)
        mats = [make_rate_matrix(rng) for _ in range(6)]
        basis = orthonormal_basis(mats)
        again = orthonormal_basis(mats)
        for u, v in zip(basis, again):
            np.testing.assert_array_equal(u, v)
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(np.sum(u * v) - expected) < 1e-12

    def test_sign_convention(self):
        for b in orthonormal_basis([np.diag([1.0, -1.0]) * -1.0]):
            assert b.reshape(-1)[np.argmax(np.abs(b))] > 0

    def test_rel_tol_range(self):
        # rel_tol = 0 would keep rounding-noise directions as basis elements.
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        for bad in (0.0, -1e-8, 1.0, 1.5):
            with pytest.raises(ValueError, match="rel_tol"):
                orthonormal_basis([a, a / 3.0], bad)
