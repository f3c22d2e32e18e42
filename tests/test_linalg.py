import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liemarkov import linalg, reference_pair
from liemarkov.linalg import (
    PrincipalLogError,
    _cayley_rows,
    _exp_stack,
    _fro_rows,
    _log_stack,
    commutator,
    least_squares_membership,
    matrix_exp,
    matrix_log,
    orthonormal_basis,
)

from conftest import make_rate_matrix
from exact import exact_rank


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
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            linalg.commutator(np.zeros((2, 2)), np.zeros((3, 3)))

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

    @pytest.mark.parametrize("top", [710.0, 1e4])
    def test_exp_overflow_raises(self, top):
        # e^710 overflows a double; the result must not come back as inf with only a warning.
        with pytest.raises(ValueError, match="non-finite"):
            matrix_exp(np.diag([top, -1.0]))

    @pytest.mark.parametrize("a", [1e155, 1e200, 1e300, 1.7e308])
    def test_exp_past_the_squared_norm_overflow(self, a):
        # ||q||_F^2 overflows from 1.3e154 on, and the norm itself past 1.04e308; exp(q) is
        # still the stochastic [[0, 0], [1, 1]], with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = matrix_exp(np.array([[-a, 0.0], [a, 0.0]]))
        np.testing.assert_allclose(p, [[0.0, 0.0], [1.0, 1.0]], rtol=0, atol=1e-15)

    def test_fro_rows_rescales_only_overflowing_rows(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3, 3))
        x[2] *= 1e200
        x[4] *= 1e-200
        with np.errstate(over="ignore"):
            nrm = _fro_rows(x)
        for k in (0, 1, 3, 4):
            assert nrm[k] == _fro_rows(x[k:k + 1])[0] == np.linalg.norm(x[k], "fro")
        assert abs(nrm[2] / (1e200 * np.linalg.norm(x[2] / 1e200, "fro")) - 1.0) <= 4e-16

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_exp_log_round_trip(self, seed):
        q = make_rate_matrix(np.random.default_rng(seed), 4, max_norm=1.0)
        assert np.linalg.norm(matrix_log(matrix_exp(q)) - q, "fro") <= 1e-9

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

    def test_log_refuses_beyond_the_radius(self):
        # A rate matrix of norm 4 has a principal log, but its Cayley transform lies beyond the series radius.
        rng = np.random.default_rng(3)
        q = make_rate_matrix(rng, 4, max_norm=1.0)
        q *= 4.0 / np.linalg.norm(q, "fro")
        m = matrix_exp(q)
        assert _cayley_rows(m[None])[1][0] > 0.85
        with pytest.raises(PrincipalLogError, match=r"beyond the series radius \|\|Z\|\|_F <= 0\.85$"):
            matrix_log(m)

    def test_log_rejects_negative_axis(self):
        with pytest.raises(PrincipalLogError):
            matrix_log(np.diag([-1.0, -2.0]))

    def test_log_rejects_singular(self):
        with pytest.raises(PrincipalLogError):
            matrix_log(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_log_of_reference_product(self, reference_pair_q):
        from liemarkov.zoo import REFERENCE_LOG_PRODUCT

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
        assert np.linalg.norm(lhs - rhs, "fro") <= 1e-12 * max(1.0, np.linalg.norm(lhs, "fro"))


class TestRank:
    def test_single_matrix(self):
        assert len(orthonormal_basis([np.eye(2)])) == 1

    def test_scalar_multiple_collapses(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert len(orthonormal_basis([a, 2 * a, b])) == 2

    def test_empty_and_zero(self):
        assert len(orthonormal_basis([])) == 0
        assert len(orthonormal_basis([np.zeros((3, 3))])) == 0

    def test_rel_tol_range(self):
        with pytest.raises(ValueError):
            orthonormal_basis([np.eye(2)], rel_tol=1.5)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="same order"):
            orthonormal_basis([np.eye(2), np.eye(3)])

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
        rank = len(orthonormal_basis(mats))
        assert rank == exact_rank(mats)
        shuffled = list(mats)
        rand.shuffle(shuffled)
        assert len(orthonormal_basis(shuffled)) == rank
        scaled = [m.copy() for m in mats]
        scaled[0] = -7.5 * scaled[0]
        assert len(orthonormal_basis(scaled)) == rank


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


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _cyclic_generator(rates):
    """Rate matrix of the cycle 0 -> 1 -> ... -> n-1 -> 0 with the given rates (complex spectrum)."""
    n = len(rates)
    q = np.zeros((n, n))
    for i, r in enumerate(rates):
        q[(i + 1) % n, i] = r
        q[i, i] = -r
    return q


def _gregory_log_rows(m):
    """Per-row oracle for _log_stack on rows inside the radius ||Z||_F <= 0.85: its evaluation, row by row.

    Row r alone: Z from a batch-of-one solve; its term count K, odd term j
    kept while ||Z||_F reaches (1e-18 j / 2)^(1/j) lowered by 1e-12
    relative; the coefficients 2 / (2k + 1), k < K, zero-padded to blocks
    of four, at least two blocks; one matrix product of that table with
    [I, W, W^2, W^3], W = Z^2; Horner steps in W^4 from the top block
    down; and one product by Z. Returns the logarithms and each row's K.
    """
    n = m.shape[-1]
    ident = np.eye(n)
    thresholds = [(1e-18 * j / 2) ** (1.0 / j) * (1.0 - 1e-12) for j in range(1, 256, 2)]
    out, terms = np.empty_like(m), []
    for r in range(len(m)):
        e = m[r:r + 1] - ident
        z = np.linalg.solve(e + 2.0 * ident, e)[0]
        nrm = _fro_rows(z[None])[0]
        count = sum(nrm >= t for t in thresholds)
        blocks = max(-(-count // 4), 2)
        coeffs = np.zeros(4 * blocks)
        coeffs[:count] = [2.0 / (2 * k + 1) for k in range(count)]
        w = z @ z
        w2 = w @ w
        w4 = w2 @ w2
        table = coeffs.reshape(blocks, 4) @ np.stack([ident, w, w2, w2 @ w]).reshape(4, n * n)
        total = table[-1].reshape(n, n)
        for b in range(blocks - 2, -1, -1):
            total = w4 @ total + table[b].reshape(n, n)
        out[r] = z @ total
        terms.append(count)
    return out, terms


def _per_term_count(z):
    """Odd terms 2 Z^j / j of 2 atanh(Z), taken in order, before the first whose norm falls below 1e-18."""
    power, zsq = z[None], (z @ z)[None]
    for count, j in enumerate(range(1, 256, 2)):
        if _fro_rows((2.0 / j) * power)[0] < 1e-18:
            return count
        power = power @ zsq
    return 128


def _sequential_log_rows(m):
    """Second oracle: the Gregory series summed term by term, per row, until a term's norm falls below 1e-18."""
    out = np.empty_like(m)
    ident = np.eye(m.shape[-1])
    for r in range(len(m)):
        e = m[r:r + 1] - ident
        power = np.linalg.solve(e + 2.0 * ident, e)
        zsq = power @ power
        total = np.zeros_like(e)
        for j in range(1, 256, 2):
            term = (2.0 / j) * power
            if _fro_rows(term)[0] < 1e-18:
                break
            total = total + term
            power = power @ zsq
        out[r] = total[0]
    return out


def _assert_near_sequential(logs, m):
    """Each log is the term-by-term series' within 4 eps of its norm, and the tails both leave out.

    Each series leaves out terms of norm below 1e-18, whose sum is below
    1e-18 / (1 - 0.85^2) < 3.7e-18 since ||Z^(j+2)||_F <= ||Z^j||_F ||Z||_F^2,
    so the two also differ by up to 1e-17 on rows whose log is near 1e-18 / eps.
    """
    for log_x, seq in zip(logs, _sequential_log_rows(m)):
        assert np.linalg.norm(log_x - seq) <= 4 * np.finfo(float).eps * np.linalg.norm(seq) + 1e-17


def _cycle_product(s):
    """exp(s C) for the unit-rate 4-cycle C: eigenvalues 1, exp(-2s) and exp(-s) e^(+-is)."""
    return matrix_exp(s * _cyclic_generator(np.ones(4)))


def _reference_product(t):
    q1, q2 = reference_pair()
    return matrix_exp(t * q1) @ matrix_exp(t * q2)


def _assert_principal_log(m, log_m):
    """log_m is scipy's principal log of m within max(1e-10, 16 eps kappa), kappa the log's conditioning."""
    sla = pytest.importorskip("scipy.linalg")
    reference = sla.logm(m)
    assert np.abs(reference.imag).max() < 1e-10
    reference = reference.real
    kappa = np.linalg.norm(m) / (np.abs(np.linalg.eigvals(m)).min() * np.linalg.norm(reference))
    assert _rel(log_m, reference) <= max(1e-10, 16 * np.finfo(float).eps * kappa)


class TestStackSeries:
    """Stack rows are computed exactly as stacks of one compute them."""

    @pytest.mark.parametrize("seed, n", [(0, 2), (1, 4), (2, 5), (3, 8)])
    def test_exp_stack_rows_match_their_own_slices(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(40, n, n))
        # Row norms from 1e-8 (no squaring) to 8 (four squarings).
        norms = np.geomspace(1e-8, 8.0, len(a))
        a *= (norms / np.linalg.norm(a, axis=(1, 2)))[:, None, None]
        squarings = np.ceil(np.log2(np.maximum(_fro_rows(a), 0.5) / 0.5))
        assert len(set(squarings)) >= 5
        expected = np.concatenate([_exp_stack(a[r:r + 1]) for r in range(len(a))])
        np.testing.assert_array_equal(_exp_stack(a), expected)
        np.testing.assert_array_equal(_exp_stack(a[::-1]), expected[::-1])

    @pytest.mark.parametrize("seed, n", [(0, 2), (1, 4), (2, 5), (3, 8)])
    def test_log_stack_matches_per_row_series(self, seed, n):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(40, n, n))
        norms = np.geomspace(1e-6, 0.75, len(e))
        m = np.eye(n) + e * (norms / np.linalg.norm(e, axis=(1, 2)))[:, None, None]
        expected, terms = _gregory_log_rows(m)
        assert len(set(terms)) >= 5
        logs, ok = _log_stack(m)
        assert ok.all()
        np.testing.assert_array_equal(logs, expected)
        np.testing.assert_array_equal(_log_stack(m[::-1])[0], expected[::-1])
        _assert_near_sequential(logs, m)

    @pytest.mark.parametrize("seed, n", [(0, 2), (1, 4), (2, 5), (3, 8)])
    def test_log_stack_matches_per_row_series_to_the_radius(self, seed, n):
        # X = (I + Z)(I - Z)^-1 with ||Z||_F up to 0.85; the last row puts all of it on one
        # eigenvalue, where the series runs to its longest.
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(40, n, n))
        z[-1] = np.diag(np.r_[-1.0, np.zeros(n - 1)])
        z *= (np.geomspace(1e-6, 0.85 - 1e-12, len(z)) / np.linalg.norm(z, axis=(1, 2)))[:, None, None]
        eye = np.eye(n)
        m = np.linalg.solve((eye - z).transpose(0, 2, 1), (eye + z).transpose(0, 2, 1)).transpose(0, 2, 1)
        expected, terms = _gregory_log_rows(m)
        assert max(terms) > 100
        logs, ok = _log_stack(m)
        assert ok.all()
        np.testing.assert_array_equal(logs, expected)
        _assert_near_sequential(logs, m)

    @pytest.mark.parametrize("name", ["hky", "lm88", "jc", "f81", "k2p", "gtr"])
    def test_audit_products_match_per_row_series(self, name):
        # The log-products of an audit block are its products' per-row series, bit for bit.
        from liemarkov import check_scaling_closure, closure, zoo_model

        model = zoo_model(name)
        q, q_prime, logs, sampled, ok = closure._log_product_block(
            model, 7, 300, 1e-8, check_scaling_closure(model) is True)
        assert sampled.all() and ok.all()
        exps = _exp_stack(np.stack([q, q_prime], axis=1).reshape(-1, 4, 4))
        products = exps[0::2] @ exps[1::2]
        np.testing.assert_array_equal(logs, _gregory_log_rows(products)[0])
        _assert_near_sequential(logs, products)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.floats(0.0, 0.85), st.sampled_from("gjd"))
    @example(seed=0, n=3, norm=0.85, kind="d")
    @example(seed=0, n=3, norm=0.0, kind="g")
    def test_term_count_covers_the_per_term_rule(self, seed, n, norm, kind):
        # The count fixed in advance from ||Z||_F keeps every term the per-term 1e-18 rule keeps, since
        # ||Z^j||_F <= ||Z||_F^j, and never more than 128 terms.
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, n))
        if kind == "j":  # strongly non-normal
            z[0, 1] += 10.0 * np.abs(z).max()
        elif kind == "d":  # the extreme case: all the norm on one eigenvalue, so ||Z^j||_F = ||Z||_F^j
            z = np.diag(np.r_[-1.0, np.zeros(n - 1)])
        z *= norm / np.linalg.norm(z)
        count = int(linalg._series_terms(_fro_rows(z[None]))[0])
        assert _per_term_count(z) <= count <= 128

    def test_term_count_at_each_threshold(self):
        # Z = diag(-x, 0, 0) with x at, and one ulp either side of, the norm where 2 x^j / j = 1e-18:
        # there ||Z^j||_F = ||Z||_F^j up to rounding, so the per-term rule sits on its cutoff.
        for j in range(1, 256, 2):
            edge = (1e-18 * j / 2) ** (1.0 / j)
            for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                z = np.diag([-x, 0.0, 0.0])
                count = int(linalg._series_terms(_fro_rows(z[None]))[0])
                assert _per_term_count(z) <= count <= (j + 1) // 2
        assert linalg._series_terms(np.array([0.0, 0.85, 1.0])).tolist() == [0, 113, 128]

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_rows_of_every_block_count_match_their_own_slices(self, n):
        # ||Z||_F from 0 (no term) to the radius (113 terms), midway between the norms where a row's
        # term count steps: rows of 0 to 29 blocks of four terms, each the log that its stack of one
        # gives, in any order.
        rng = np.random.default_rng(n)
        steps = np.r_[linalg._LOG_TERM_NORMS[:113], 0.85]
        norms = np.r_[0.0, (steps[:-1] + steps[1:]) / 2]
        z = rng.normal(size=(len(norms), n, n))
        z *= (norms / np.linalg.norm(z, axis=(1, 2)))[:, None, None]
        eye = np.eye(n)
        m = np.linalg.solve((eye - z).transpose(0, 2, 1), (eye + z).transpose(0, 2, 1)).transpose(0, 2, 1)
        blocks = -(-linalg._series_terms(_cayley_rows(m)[1]) // 4)
        assert set(blocks) == set(range(30))
        expected = np.concatenate([_log_stack(m[r:r + 1])[0] for r in range(len(m))])
        for order in (np.arange(len(m)), np.arange(len(m))[::-1], rng.permutation(len(m))):
            logs, ok = _log_stack(m[order])
            assert ok.all()
            np.testing.assert_array_equal(logs, expected[order])


def _cayley_norm(m):
    """||Z||_F of Z = (X + I)^-1 (X - I), by an explicit inverse rather than the kernel's solve."""
    eye = np.eye(m.shape[-1])
    return float(np.linalg.norm(np.linalg.inv(m + eye) @ (m - eye)))


class TestBranchGuard:
    """The lemmas behind the one guard the log keeps: its Cayley radius ||Z||_F <= 0.85."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.floats(1e-6, 0.75), st.booleans())
    def test_rows_within_the_radius_are_far_from_the_axis(self, seed, n, norm, jordan):
        # ||E||_F <= 0.75 gives ||Z||_F <= ||E||_F / (2 - ||E||_2) <= 0.6 for X = I + E, inside the
        # radius, and rho(E) <= 0.75 keeps every eigenvalue of X at least 0.25 from (-inf, 0].
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(n, n))
        if jordan:  # strongly non-normal
            e[0, 1] += 10.0 * np.abs(e).max()
        e *= norm / np.linalg.norm(e)
        x = np.eye(n) + e
        z, nrm = _cayley_rows(x[None])
        assert nrm[0] == _fro_rows(z)[0] <= 0.6 + 1e-12
        # eigvals is backward stable: exact for a perturbation of about eps * ||X||. The ray's
        # nearest point to lam is min(Re lam, 0).
        lam = np.linalg.eigvals(x)
        assert np.abs(lam - np.minimum(lam.real, 0.0)).min() >= 0.25 - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.floats(1e-6, 0.85), st.booleans())
    @example(seed=0, n=3, norm=0.85, jordan=False)
    def test_cayley_radius_keeps_eigenvalues_right_of_the_axis(self, seed, n, norm, jordan):
        # The argument _log_stack uses: rho(Z) <= ||Z||_F <= 0.85 puts every eigenvalue
        # (1 + mu) / (1 - mu) of X = (I + Z)(I - Z)^-1 at real part >= (1 - 0.85) / (1 + 0.85).
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, n))
        if jordan:  # strongly non-normal
            z[0, 1] += 10.0 * np.abs(z).max()
        elif seed % 2 == 0:  # the extreme case: all the norm on one eigenvalue near -1
            z = np.diag(np.r_[-1.0, np.zeros(n - 1)])
        z *= norm / np.linalg.norm(z)
        eye = np.eye(n)
        x = np.linalg.solve((eye - z).T, (eye + z).T).T
        assert np.linalg.eigvals(x).real.min() >= 0.15 / 1.85 - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.floats(0.01, 0.65), st.floats(0.0, 1.0),
           st.booleans())
    def test_pairs_in_the_bch_domain_are_inside_the_cayley_radius(self, seed, n, s, share, rates):
        # For s = ||q||_F + ||q'||_F, ||P - I||_F <= e^s - 1 for P = exp(q) exp(q'), and so
        # ||Z||_F <= (e^s - 1) / (3 - e^s), which is 0.8442 at s = 0.65, inside the 0.85 radius.
        rng = np.random.default_rng(seed)
        if rates:
            q, q_prime = make_rate_matrix(rng, n), make_rate_matrix(rng, n)
        else:  # any real pair, non-normal in general
            q, q_prime = rng.normal(size=(2, n, n))
        q *= share * s / np.linalg.norm(q)
        q_prime *= (1.0 - share) * s / np.linalg.norm(q_prime)
        z, nrm = _cayley_rows((matrix_exp(q) @ matrix_exp(q_prime))[None])
        assert nrm[0] == _fro_rows(z)[0] <= math.expm1(s) / (3.0 - math.exp(s)) <= 0.8443

    def test_bound_is_attained(self):
        # Z = -0.85 e1 e1^T puts an eigenvalue of X at exactly 0.15 / 1.85, and X is summed.
        x = np.eye(4)
        x[0, 0] = 0.15 / 1.85
        _, nrm = _cayley_rows(x[None])
        assert nrm[0] <= 0.85 and abs(nrm[0] - 0.85) <= 1e-15
        np.testing.assert_allclose(matrix_log(x), np.diag([math.log(0.15 / 1.85), 0.0, 0.0, 0.0]), atol=1e-14)

    def test_mixed_stack(self):
        # A near-identity row is summed; X + I singular, a spectrum near zero, NaN, inf and a single
        # NaN entry are refused alone, each by the one comparison with the radius, and warn nothing.
        m = np.stack([
            np.eye(2) + [[1e-3, 2e-3], [0.0, -1e-3]],
            np.diag([-1.0, 2.0]),
            np.diag([1e-13, 1.0]),
            np.full((2, 2), np.nan),
            np.full((2, 2), np.inf),
            [[1.0, np.nan], [0.0, 1.0]],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logs, ok = _log_stack(m)
            # Without the singular row the solve does not fail, and the non-finite rows solve to NaN.
            rest, rest_ok = _log_stack(m[[0, 3, 4, 5]])
        assert list(ok) == [True, False, False, False, False, False]
        assert list(rest_ok) == [True, False, False, False]
        np.testing.assert_array_equal(rest[0], logs[0])
        assert np.isnan(rest[1:]).all()
        np.testing.assert_array_equal(logs[0], matrix_log(m[0]))
        assert np.isnan(logs[1:]).all()
        for row in m[1:3]:
            with pytest.raises(PrincipalLogError, match="series radius"):
                matrix_log(row)


class TestStackKernels:
    """Stack exp/log in hard regimes, row by row against the batch-of-one call, scipy and mpmath."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(2, 6))
    def test_mixed_norm_exp_rows(self, seed, count, n):
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        # From no squaring at all (norm 0.3) to 20 squarings (norm 0.5 * 2**19.5).
        norms = 10.0 ** rng.uniform(-3.0, 5.4, size=count)
        norms[0], norms[1] = 0.3, 0.5 * 2.0 ** 19.5
        a = np.stack([make_rate_matrix(rng, n) for _ in range(count)])
        a *= (norms / np.linalg.norm(a, axis=(1, 2)))[:, None, None]
        stack = _exp_stack(a)
        for k in range(count):
            alone = matrix_exp(a[k])
            np.testing.assert_array_equal(stack[k], alone)
            # Scaling and squaring loses about eps * ||A|| on these non-normal inputs.
            assert _rel(stack[k], sla.expm(a[k])) <= 1e-14 * max(1.0, norms[k])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(2, 6))
    def test_mixed_norm_log_rows(self, seed, count, n):
        # ||Q||_F from 1e-3 to 3: rows inside the radius are summed as they are alone, the rest refused.
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        q = np.stack([make_rate_matrix(rng, n) for _ in range(count)])
        norms = 10.0 ** rng.uniform(-3.0, np.log10(3.0), size=count)
        norms[0], norms[-1] = 0.65, 3.0
        q *= (norms / np.linalg.norm(q, axis=(1, 2)))[:, None, None]
        m = np.stack([sla.expm(x) for x in q])
        logs, ok = _log_stack(m)
        inside = np.array([_cayley_norm(x) <= 0.85 for x in m])
        assert inside[0] and not inside[-1]
        assert list(ok) == list(inside)
        for k in range(count):
            if not inside[k]:
                assert np.isnan(logs[k]).all()
                continue
            np.testing.assert_array_equal(logs[k], matrix_log(m[k]))
            assert _rel(logs[k], sla.logm(m[k]).real) <= 1e-11
            # Spectra of these generators stay inside |Im| < pi, so log(exp(Q)) = Q.
            assert _rel(logs[k], q[k]) <= 1e-11

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 6), st.integers(1, 8))
    def test_complex_spectra(self, seed, n, count):
        # Cycle generators of spectral radius in (0.1, 3): complex spectra, inside the radius or refused.
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        gens = []
        for _ in range(count):
            q = _cyclic_generator(rng.uniform(0.5, 1.0, size=n))
            q *= rng.uniform(0.1, 3.0) / np.abs(np.linalg.eigvals(q)).max()
            gens.append(q)
        gens = np.stack(gens)
        assert (np.abs(np.linalg.eigvals(gens).imag).max(axis=1) > 0.01).all()
        exps = _exp_stack(gens)
        logs, ok = _log_stack(exps)
        for k in range(count):
            assert _rel(exps[k], sla.expm(gens[k])) <= 1e-13
            assert ok[k] == (_cayley_norm(exps[k]) <= 0.85)
            if not ok[k]:
                continue
            assert _rel(logs[k], sla.logm(exps[k]).real) <= 1e-10
            assert _rel(logs[k], gens[k]) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.sampled_from("gsnbc"), min_size=2, max_size=10))
    def test_failing_rows_are_flagged_and_neighbours_unaffected(self, seed, kinds):
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        cycle = _cyclic_generator(np.ones(4))
        rows = []
        for kind in kinds:
            if kind == "g":  # good: a substitution matrix of a generator in the BCH domain
                rows.append(sla.expm(make_rate_matrix(rng, 4, max_norm=0.65)))
            elif kind == "s":  # singular: every column the same distribution
                p = rng.dirichlet(np.ones(4))
                rows.append(np.repeat(p[:, None], 4, axis=1))
            elif kind == "n":  # an eigenvalue within 1e-12 of zero
                basis = np.linalg.qr(rng.normal(size=(4, 4)))[0]
                rows.append(basis @ np.diag([1.0, 0.5, 0.25, 1e-14]) @ basis.T)
            elif kind == "b":  # a negative real eigenvalue
                basis = np.linalg.qr(rng.normal(size=(4, 4)))[0]
                rows.append(basis @ np.diag([1.0, 0.5, -0.3, 0.8]) @ basis.T)
            else:  # complex pair near the axis: ill-conditioned, eigenvalues down to 5e-12
                rows.append(sla.expm(rng.uniform(9.0, 13.0) * cycle))
        logs, ok = _log_stack(np.stack(rows))
        for kind, m, log_m, summed in zip(kinds, rows, logs, ok):
            assert summed == (kind == "g")
            if kind == "g":
                np.testing.assert_array_equal(log_m, matrix_log(m))
                assert _rel(log_m, sla.logm(m).real) <= 1e-12
            else:
                assert np.isnan(log_m).all()
                with pytest.raises(PrincipalLogError, match="series radius"):
                    matrix_log(m)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(2, 6))
    def test_rows_at_the_series_radius(self, seed, count, n):
        # X = (I + Z)(I - Z)^-1 with ||Z||_F 1e-12 inside 0.85 (summed) or in (0.85, 0.9] (refused).
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        outside = rng.random(count) < 0.5
        outside[0], outside[-1] = False, True
        # The inner edge sits 1e-12 short of 0.85, and the outer 1e-6 past it, far beyond the
        # rounding of Z through X.
        norms = np.where(outside, 0.9 - rng.uniform(0.0, 0.05 - 1e-6, count), 0.85 - 1e-12)
        norms[-1] = 0.9
        rows = []
        for k, target in enumerate(norms):
            kind = k % 3
            if kind == 0:  # a rate matrix
                z = make_rate_matrix(rng, n)
            elif kind == 1:  # non-normal: a Jordan-like 2x2 block plus a rate matrix
                z = make_rate_matrix(rng, n)
                z[0, 1] += rng.uniform(2.0, 8.0) * np.abs(z).max()
            else:  # a general real matrix, complex spectra included
                z = rng.normal(size=(n, n))
            z *= target / np.linalg.norm(z, "fro")
            rows.append((np.eye(n) + z) @ np.linalg.inv(np.eye(n) - z))
        m = np.stack(rows)
        logs, ok = _log_stack(m)
        assert list(ok) == list(~outside)
        for k in np.flatnonzero(~outside):
            np.testing.assert_array_equal(logs[k], matrix_log(m[k]))
            assert _rel(logs[k], sla.logm(m[k]).real) <= 1e-13
        assert np.isnan(logs[outside]).all()

    def test_row_with_eigenvalue_minus_one_is_refused_alone(self):
        # X + I is singular in the first row, so the batched Cayley solve fails and is redone without it.
        m = np.stack([np.diag([-1.0, 1.0]), np.eye(2) + [[0.2, -0.1], [0.3, 0.1]]])
        logs, ok = _log_stack(m)
        assert list(ok) == [False, True]
        assert np.isnan(logs[0]).all()
        np.testing.assert_array_equal(logs[1], _log_stack(m[1:])[0][0])
        with pytest.raises(PrincipalLogError, match="series radius"):
            matrix_log(m[0])

    def test_nonfinite_row_is_flagged(self):
        m = np.stack([np.eye(3), np.full((3, 3), np.nan), 2.0 * np.eye(3)])
        logs, ok = _log_stack(m)
        assert list(ok) == [True, False, True]
        np.testing.assert_allclose(logs[2], np.log(2.0) * np.eye(3), rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("product, arg", [
        (_cycle_product, 8.5), (_cycle_product, 10.0), (_cycle_product, 12.0),
        (_cycle_product, 13.5), (_cycle_product, 14.5), (_reference_product, 150.0),
        (_reference_product, 170.0), (_reference_product, 203.0), (_reference_product, 220.0),
    ])
    def test_near_singular_products_are_refused(self, product, arg):
        # Smallest eigenvalues from 4e-8 (s = 8.5) down to 2.5e-13 (s = 14.5) and 4.7e-13 (t = 220):
        # their Cayley transforms have ||Z||_F near sqrt(3) and 1.8, far beyond the radius.
        m = product(arg)
        assert _cayley_norm(m) > 1.7
        logs, ok = _log_stack(m[None])
        assert not ok[0] and np.isnan(logs[0]).all()
        with pytest.raises(PrincipalLogError, match="series radius"):
            matrix_log(m)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_rate_products_at_larger_order(self, n):
        # Rate-matrix pairs of norm up to 6 sqrt(n), scaled into the BCH domain as the audit scales
        # them, give products inside the radius whose logs are scipy's.
        rng = np.random.default_rng(n)
        pairs = np.stack([[make_rate_matrix(rng, n, max_norm=6.0 * n ** 0.5) for _ in range(2)]
                          for _ in range(4)])
        s = np.linalg.norm(pairs, axis=(2, 3)).sum(axis=1)
        pairs *= (0.65 / np.maximum(s, 0.65))[:, None, None, None]
        m = np.stack([matrix_exp(q) @ matrix_exp(q_prime) for q, q_prime in pairs])
        logs, ok = _log_stack(m)
        assert ok.all()
        for x, log_x in zip(m, logs):
            _assert_principal_log(x, log_x)

    def test_reference_pair_durations(self):
        # exp(tQ1) exp(tQ2) is summed while its ||Z||_F <= 0.85 (to t = 8.4) and refused from t = 10 on,
        # where it nears rank one.
        sla = pytest.importorskip("scipy.linalg")
        mpmath = pytest.importorskip("mpmath")
        q1, q2 = reference_pair()
        ts = np.geomspace(1.0, 1000.0, 40)
        exps = _exp_stack(np.concatenate([ts[:, None, None] * q1, ts[:, None, None] * q2]))
        products = exps[:40] @ exps[40:]
        logs, ok = _log_stack(products)
        assert list(ok) == [_cayley_norm(p) <= 0.85 for p in products]
        assert ok[ts <= 8.4].all() and not ok[ts >= 10.0].any()
        for k, t in enumerate(ts):
            assert _rel(exps[k], sla.expm(t * q1)) <= 1e-13 * t
            if ok[k]:
                np.testing.assert_array_equal(logs[k], matrix_log(products[k]))
                assert _rel(logs[k], sla.logm(products[k]).real) <= 1e-13
            else:
                with pytest.raises(PrincipalLogError, match="series radius"):
                    matrix_log(products[k])
        mpmath.mp.dps = 40
        for k in (0, int(np.searchsorted(ts, 8.0))):
            exact = mpmath.logm(mpmath.matrix(products[k].tolist()))
            exact = np.array(exact.tolist(), dtype=complex).real
            assert _rel(logs[k], exact) <= 1e-12

    @pytest.mark.parametrize("name", ["hky", "lm88", "jc", "f81", "k2p", "gtr"])
    def test_audit_inputs_against_scipy(self, name):
        # The stacks an audit block feeds the kernels: 60 pairs drawn as the audit draws them.
        sla = pytest.importorskip("scipy.linalg")
        from liemarkov import zoo_model
        from liemarkov.model import _SeedStreams, _sample_stack

        model = zoo_model(name)
        pairs, ok = _sample_stack(model, 60, _SeedStreams(17, 60).random, 2)
        q, q_prime = pairs[:, 0], pairs[:, 1]
        assert ok.all()
        exps = _exp_stack(np.concatenate([q, q_prime]))
        logs, ok = _log_stack(exps[:60] @ exps[60:])
        assert ok.all()
        for k in range(60):
            assert _rel(exps[k], sla.expm(q[k])) <= 1e-14
            assert _rel(exps[60 + k], sla.expm(q_prime[k])) <= 1e-14
            ref = sla.logm(sla.expm(q[k]) @ sla.expm(q_prime[k]))
            assert np.abs(ref.imag).max() < 1e-12
            assert _rel(logs[k], ref.real) <= 1e-11

    @pytest.mark.parametrize("name", ["hky", "gtr"])
    def test_audit_logs_against_mpmath(self, name):
        # 20 products of pairs drawn as the audit draws them. gtr's go straight to the series
        # (||Z||_F <= 0.85) where they once took square roots, and its largest error fell from 1.0e-15
        # to 4.3e-16; hky's products never took one (3.3e-16). The bound is 1.5 times the larger.
        mpmath = pytest.importorskip("mpmath")
        from liemarkov import zoo_model
        from liemarkov.model import _SeedStreams, _sample_stack

        pairs, ok = _sample_stack(zoo_model(name), 20, _SeedStreams(17, 20).random, 2)
        assert ok.all()
        exps = _exp_stack(np.concatenate([pairs[:, 0], pairs[:, 1]]))
        products = exps[:20] @ exps[20:]
        logs, ok = _log_stack(products)
        assert ok.all()
        with mpmath.workdps(40):
            for x, log_x in zip(products, logs):
                exact = np.array(mpmath.logm(mpmath.matrix(x.tolist())).tolist(), dtype=complex)
                assert np.abs(exact.imag).max() < 1e-30
                assert _rel(log_x, exact.real) <= 6.5e-16

    @pytest.mark.parametrize("name", ["hky", "lm88", "jc", "f81", "k2p", "gtr", "cyclic-6", "cyclic-8"])
    def test_audit_inputs_against_mpmath(self, name):
        # 20 pairs drawn as the audit draws them; cyclic-s is the span model {s C}, C the unit 4-cycle,
        # whose products lie close to singular. The bounds are about 1.5 times the largest errors
        # measured: 1.9e-16 (gtr) on the zoo rows and 8.2e-15 (cyclic-8) on the cyclic rows.
        mpmath = pytest.importorskip("mpmath")
        from liemarkov import RateModel, zoo_model
        from liemarkov.model import _SeedStreams, _sample_stack

        if name.startswith("cyclic-"):
            basis = (float(name.split("-")[1]) * _cyclic_generator(np.ones(4)),)
            model, bound = RateModel(name="cyclic", n=4, basis=basis), 1.2e-14
        else:
            model, bound = zoo_model(name), 3e-16
        pairs, ok = _sample_stack(model, 20, _SeedStreams(17, 20).random, 2)
        assert ok.all()
        a = np.concatenate([pairs[:, 0], pairs[:, 1]])
        with mpmath.workdps(40):
            for x, e in zip(a, _exp_stack(a)):
                exact = np.array(mpmath.expm(mpmath.matrix(x.tolist())).tolist(), dtype=float)
                assert _rel(e, exact) <= bound
