import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liemarkov import linalg, reference_pair
from liemarkov.linalg import (
    _LOG_BRANCH,
    _LOG_NONFINITE,
    _LOG_OK,
    _NEG_AXIS_MARGIN,
    PrincipalLogError,
    _branch_distance,
    _exp_stack,
    _fro_rows,
    _gershgorin_clear,
    _log_stack,
    _sqrtm_denman_beavers,
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

    def test_log_inverts_exp_after_square_roots(self):
        # Norm large enough that the square-root stage actually runs.
        rng = np.random.default_rng(3)
        q = make_rate_matrix(rng, 4, max_norm=1.0)
        q *= 4.0 / np.linalg.norm(q, "fro")
        m = matrix_exp(q)
        l = matrix_log(m)
        assert np.linalg.norm(matrix_exp(l) - m, "fro") / np.linalg.norm(m, "fro") <= 1e-10

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
    """Per-row oracle for _log_stack on rows with ||X - I||_F <= 0.75: the Gregory series alone.

    Returns the logarithms and the number of series terms each row added.
    """
    out, terms = np.empty_like(m), []
    ident = np.eye(m.shape[-1])
    for r in range(len(m)):
        e = m[r:r + 1] - ident
        power = np.linalg.solve(e + 2.0 * ident, e)
        zsq = power @ power
        total = np.zeros_like(e)
        j = 1
        while j < 128:
            term = (2.0 / j) * power
            if _fro_rows(term)[0] < 1e-18:
                break
            total = total + term
            power = power @ zsq
            j += 2
        out[r] = total[0]
        terms.append(j // 2)
    return out, terms


def _product_form_steps(x):
    """Steps of the product-form Denman-Beavers iteration on one matrix, counted on a (1, n, n) slice."""
    m, ident = x[None], np.eye(len(x))
    for step in range(1, 101):
        m = 0.5 * (ident + 0.5 * (m + np.linalg.inv(m)))
        if _fro_rows(m - ident)[0] <= 1e-15:
            return step
    raise AssertionError("the iteration did not reach the identity")


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
        logs, status = _log_stack(m)
        assert (status == _LOG_OK).all()
        np.testing.assert_array_equal(logs, expected)
        np.testing.assert_array_equal(_log_stack(m[::-1])[0], expected[::-1])


class TestBranchGuard:
    """The eigenvalue guard runs only on rows that need a square root."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.floats(1e-6, 0.75), st.booleans())
    def test_rows_within_the_radius_are_far_from_the_axis(self, seed, n, norm, jordan):
        # rho(E) <= ||E||_2 <= ||E||_F <= 0.75, so every eigenvalue of I + E is 0.25 from (-inf, 0].
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(n, n))
        if jordan:  # strongly non-normal
            e[0, 1] += 10.0 * np.abs(e).max()
        e *= norm / np.linalg.norm(e)
        # eigvals is backward stable: exact for a perturbation of about eps * ||X||.
        assert _branch_distance((np.eye(n) + e)[None])[1].min() >= 0.25 - 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.floats(-1e-4, 1e-4),
        st.sampled_from(["columns", "rows", "product"]),
    )
    @example(seed=0, n=4, margin=1.01e-6, kind="columns")
    @example(seed=1, n=5, margin=0.99e-6, kind="rows")
    def test_disc_certificate_keeps_eigenvalues_off_the_ray(self, seed, n, margin, kind):
        rng = np.random.default_rng(seed)
        if kind == "product":  # a substitution product that needs a square root, as in a gtr audit
            q, q_prime = make_rate_matrix(rng, n, max_norm=3.0), make_rate_matrix(rng, n, max_norm=3.0)
            x = matrix_exp(q) @ matrix_exp(q_prime)
            dominant = False
        else:  # every column's (or row's) disc margin is at least margin, complex spectra included
            x = rng.normal(size=(n, n))
            np.fill_diagonal(x, 0.0)
            off = np.abs(x).sum(axis=0 if kind == "columns" else 1)
            np.fill_diagonal(x, off + margin + rng.uniform(0.0, 1e-4, n) * rng.integers(0, 2, n))
            dominant = margin > 2e-6
        certified = _gershgorin_clear(x[None])[0]
        assert certified or not dominant
        if certified:
            assert _branch_distance(x[None])[1].min() > _NEG_AXIS_MARGIN
            assert np.linalg.eigvals(x).real.min() > 1e-6 - 1e-12

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
        z, inside = linalg._cayley_rows((matrix_exp(q) @ matrix_exp(q_prime))[None])
        assert inside[0]
        assert _fro_rows(z)[0] <= math.expm1(s) / (3.0 - math.exp(s)) <= 0.8443

    def test_bound_is_attained(self):
        x = np.eye(4)
        x[0, 0] -= 0.75
        assert _branch_distance(x[None])[1].min() == 0.25

    def test_mixed_stack(self):
        m = np.stack([
            np.eye(2) + [[1e-3, 2e-3], [0.0, -1e-3]],
            np.diag([-1.0, 2.0]),
            np.diag([1e-13, 1.0]),
            np.full((2, 2), np.nan),
        ])
        with mock.patch.object(linalg, "_branch_distance", wraps=linalg._branch_distance) as spy:
            logs, status = _log_stack(m)
            guarded = [len(call.args[0]) for call in spy.call_args_list]
        assert list(status) == [_LOG_OK, _LOG_BRANCH, _LOG_BRANCH, _LOG_NONFINITE]
        # The near-identity row needs no square root, so only the two far rows are guarded.
        assert guarded == [2]
        np.testing.assert_array_equal(logs[0], matrix_log(m[0]))
        assert np.isnan(logs[1:]).all()
        with pytest.raises(PrincipalLogError, match="eigenvalue -1 lies within 1e-12"):
            matrix_log(m[1])


class TestSquareRoot:
    """The product-form Denman-Beavers stage: one inverse per step, and near-singular products."""

    def test_one_inverse_per_step(self, monkeypatch):
        rng = np.random.default_rng(11)
        # Products of growing norm take from a few steps to several.
        pairs = [(make_rate_matrix(rng, 4, max_norm=nrm), make_rate_matrix(rng, 4, max_norm=nrm))
                 for nrm in (1.5, 3.0, 6.0, 12.0, 24.0)]
        m = np.stack([matrix_exp(q) @ matrix_exp(q_prime) for q, q_prime in pairs] + [_cycle_product(10.0)])
        steps = [_product_form_steps(x) for x in m]
        assert len(set(steps)) >= 3
        calls, solve_rows = [], linalg._solve_rows

        def spy(a, b):
            calls.append(len(a))
            return solve_rows(a, b)

        monkeypatch.setattr(linalg, "_solve_rows", spy)
        roots, status = _sqrtm_denman_beavers(m)
        assert (status == _LOG_OK).all()
        # Step j inverts exactly the rows that have not yet reached the identity.
        assert calls == [sum(s > j for s in steps) for j in range(max(steps))]
        for x, root in zip(m, roots):
            # The residual grows like eps over the spectrum's distance to zero (2e-9 for the cycle).
            gap = np.abs(np.linalg.eigvals(x)).min()
            assert _rel(root @ root, x) <= max(1e-14, 16 * np.finfo(float).eps / gap)

    @pytest.mark.parametrize("product, arg", [
        (_cycle_product, 8.5), (_cycle_product, 10.0), (_cycle_product, 12.0),
        (_cycle_product, 13.5), (_reference_product, 150.0), (_reference_product, 170.0),
        (_reference_product, 203.0),
    ])
    def test_near_singular_products_are_accepted(self, product, arg):
        # Smallest eigenvalues from 4e-8 (s = 8.5) down to 1.9e-12 (s = 13.5), 2.9e-10 and 4.2e-12
        # (t = 170 and 203); the old step test never stopped on the cycle products or past t = 150.
        m = product(arg)
        logs, status = _log_stack(m[None])
        assert status[0] == _LOG_OK
        np.testing.assert_array_equal(matrix_log(m), logs[0])
        _assert_principal_log(m, logs[0])

    @pytest.mark.parametrize("product, arg, shown", [
        (_cycle_product, 14.5, r"2\.54\d*e-13\+0j"),
        (_reference_product, 220.0, r"4\.72\d*e-13"),
    ])
    def test_past_the_margin_the_guard_refuses(self, product, arg, shown):
        message = (f"^principal logarithm undefined: eigenvalue {shown} "
                   "lies within 1e-12 of the closed negative real axis$")
        with pytest.raises(PrincipalLogError, match=message):
            matrix_log(product(arg))

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_rate_products_at_larger_order(self, n):
        # ||M - I||_F <= 1e-15 is an absolute test: it must still be met when n^2 entries round.
        rng = np.random.default_rng(n)
        m = np.stack([
            matrix_exp(make_rate_matrix(rng, n, max_norm=6.0 * n ** 0.5))
            @ matrix_exp(make_rate_matrix(rng, n, max_norm=6.0 * n ** 0.5))
            for _ in range(4)
        ])
        assert (_fro_rows(m - np.eye(n)) > 0.75).all()
        logs, status = _log_stack(m)
        assert (status == _LOG_OK).all()
        for x, log_x in zip(m, logs):
            _assert_principal_log(x, log_x)


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
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        # ||exp(Q) - I|| from about 1e-3 (no square root) to several halvings.
        q = np.stack([make_rate_matrix(rng, n) for _ in range(count)])
        q *= (10.0 ** rng.uniform(-3.0, np.log10(3.0), size=count) / np.linalg.norm(q, axis=(1, 2)))[:, None, None]
        m = np.stack([sla.expm(x) for x in q])
        logs, status = _log_stack(m)
        assert (status == _LOG_OK).all()
        for k in range(count):
            alone = matrix_log(m[k])
            assert np.linalg.norm(logs[k] - alone, "fro") <= 1e-15 * np.linalg.norm(alone, "fro")
            assert _rel(logs[k], sla.logm(m[k]).real) <= 1e-11
            # Spectra of these generators stay inside |Im| < pi, so log(exp(Q)) = Q.
            assert _rel(logs[k], q[k]) <= 1e-11

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 6), st.integers(1, 8))
    def test_complex_spectra(self, seed, n, count):
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        gens = []
        for _ in range(count):
            q = _cyclic_generator(rng.uniform(0.5, 1.0, size=n))
            # Spectral radius in (0.5, 3), so every |Im lambda| < pi.
            q *= rng.uniform(0.5, 3.0) / np.abs(np.linalg.eigvals(q)).max()
            gens.append(q)
        gens = np.stack(gens)
        assert (np.abs(np.linalg.eigvals(gens).imag).max(axis=1) > 0.1).all()
        exps = _exp_stack(gens)
        logs, status = _log_stack(exps)
        assert (status == _LOG_OK).all()
        for k in range(count):
            assert _rel(exps[k], sla.expm(gens[k])) <= 1e-13
            assert _rel(logs[k], sla.logm(exps[k]).real) <= 1e-10
            assert _rel(logs[k], gens[k]) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.sampled_from("gsnbc"), min_size=2, max_size=10))
    # Its 'c' row, expm(9.5125 C), is one whose square roots converge.
    @example(seed=7260160, kinds=["g", "g", "g", "g", "g", "s", "s", "c"])
    # Its 'c' row, expm(10.3993 C), has an eigenvalue of 9.3e-10: its log is
    # 6.2e-10 from an mpmath reference and scipy's is 2.1e-9.
    @example(seed=13503374, kinds=["g"] * 6 + ["s"] * 3 + ["c"])
    def test_failing_rows_are_flagged_and_neighbours_unaffected(self, seed, kinds):
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        cycle = _cyclic_generator(np.ones(4))
        rows = []
        for kind in kinds:
            if kind == "g":  # good: a substitution matrix of moderate norm
                rows.append(sla.expm(make_rate_matrix(rng, 4, max_norm=2.0)))
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
        logs, status = _log_stack(np.stack(rows))
        for kind, m, log_m, code in zip(kinds, rows, logs, status):
            if kind == "g" or (kind == "c" and code == _LOG_OK):
                assert code == _LOG_OK
                np.testing.assert_array_equal(log_m, matrix_log(m))
                reference = sla.logm(m).real
                bound = 1e-10
                if kind == "c":
                    # Near-singular rows: the log's condition number, which scipy's error shares.
                    kappa = np.linalg.norm(m) / (np.abs(np.linalg.eigvals(m)).min() * np.linalg.norm(reference))
                    bound = max(bound, 16 * np.finfo(float).eps * kappa)
                assert _rel(log_m, reference) <= bound
                assert (np.abs(np.linalg.eigvals(log_m).imag) < math.pi).all()
            else:
                assert code != _LOG_OK
                assert np.isnan(log_m).all()
                with pytest.raises(PrincipalLogError):
                    matrix_log(m)
            if kind in "snb":
                assert code == _LOG_BRANCH

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(2, 6))
    def test_rows_at_the_square_root_radius(self, seed, count, n):
        # X = (I + Z)(I - Z)^-1 with ||Z||_F 1e-12 inside 0.85 (straight to the series) or in
        # (0.85, 0.9] (one square root: Z -> Z / (1 + sqrt(I - Z^2)) has norm at most 0.63).
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        outside = rng.random(count) < 0.5
        outside[0], outside[-1] = False, True
        # The inner edge sits 1e-12 short of 0.85, far beyond the rounding of Z through X.
        norms = np.where(outside, 0.9 - rng.uniform(0.0, 0.05, count), 0.85 - 1e-12)
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
        with mock.patch.object(linalg, "_sqrtm_denman_beavers", wraps=linalg._sqrtm_denman_beavers) as spy:
            logs, status = _log_stack(m)
            roots = [len(call.args[0]) for call in spy.call_args_list]
        assert (status == _LOG_OK).all()
        # Only rows beyond the radius are square-rooted, once each.
        assert roots == ([int(outside.sum())] if outside.any() else [])
        for k in range(count):
            np.testing.assert_array_equal(logs[k], matrix_log(m[k]))
            assert _rel(logs[k], sla.logm(m[k]).real) <= 1e-13

    def test_row_with_eigenvalue_minus_one_is_refused_alone(self):
        # X + I is singular in the first row, so the batched Cayley solve falls back to one row at a time.
        m = np.stack([np.diag([-1.0, 1.0]), np.eye(2) + [[0.2, -0.1], [0.3, 0.1]]])
        logs, status = _log_stack(m)
        assert list(status) == [_LOG_BRANCH, _LOG_OK]
        assert np.isnan(logs[0]).all()
        np.testing.assert_array_equal(logs[1], _log_stack(m[1:])[0][0])
        with pytest.raises(PrincipalLogError, match="eigenvalue -1 lies within 1e-12"):
            matrix_log(m[0])

    def test_nonfinite_row_is_flagged(self):
        m = np.stack([np.eye(3), np.full((3, 3), np.nan), 2.0 * np.eye(3)])
        logs, status = _log_stack(m)
        assert list(status == _LOG_OK) == [True, False, True]
        np.testing.assert_allclose(logs[2], np.log(2.0) * np.eye(3), rtol=1e-14, atol=1e-15)

    def test_reference_pair_durations(self):
        # The principal-branch guard refuses once exp(tQ1) exp(tQ2) nears rank one.
        sla = pytest.importorskip("scipy.linalg")
        mpmath = pytest.importorskip("mpmath")
        q1, q2 = reference_pair()
        ts = np.geomspace(1.0, 1000.0, 40)
        exps = _exp_stack(np.concatenate([ts[:, None, None] * q1, ts[:, None, None] * q2]))
        products = exps[:40] @ exps[40:]
        logs, status = _log_stack(products)
        ok = status == _LOG_OK
        # Accepted up to t = 100 at least, refused from the first failure on, refused by the guard at t = 1000.
        assert ok[ts <= 100.0].all()
        first_refusal = int(np.argmin(ok))
        assert not ok[first_refusal:].any()
        assert status[-1] == _LOG_BRANCH
        dist = np.abs(sla.eigvals(products[-1])).min()
        assert dist <= 1e-12
        for k, t in enumerate(ts):
            assert _rel(exps[k], sla.expm(t * q1)) <= 1e-13 * t
            if ok[k]:
                np.testing.assert_array_equal(logs[k], matrix_log(products[k]))
                # Conditioning grows like 1 / (distance of the spectrum to zero).
                gap = np.abs(np.linalg.eigvals(products[k])).min()
                assert _rel(logs[k], sla.logm(products[k]).real) <= 1e-13 / gap
            else:
                with pytest.raises(PrincipalLogError):
                    matrix_log(products[k])
        mpmath.mp.dps = 40
        for k in (0, int(np.searchsorted(ts, 50.0))):
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
        pairs, ok = _sample_stack(model, np.arange(60), _SeedStreams(17, 60).random, 2)
        q, q_prime = pairs[:, 0], pairs[:, 1]
        assert ok.all()
        exps = _exp_stack(np.concatenate([q, q_prime]))
        logs, status = _log_stack(exps[:60] @ exps[60:])
        assert (status == _LOG_OK).all()
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

        pairs, ok = _sample_stack(zoo_model(name), np.arange(20), _SeedStreams(17, 20).random, 2)
        assert ok.all()
        exps = _exp_stack(np.concatenate([pairs[:, 0], pairs[:, 1]]))
        products = exps[:20] @ exps[20:]
        logs, status = _log_stack(products)
        assert (status == _LOG_OK).all()
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
        pairs, ok = _sample_stack(model, np.arange(20), _SeedStreams(17, 20).random, 2)
        assert ok.all()
        a = np.concatenate([pairs[:, 0], pairs[:, 1]])
        with mpmath.workdps(40):
            for x, e in zip(a, _exp_stack(a)):
                exact = np.array(mpmath.expm(mpmath.matrix(x.tolist())).tolist(), dtype=float)
                assert _rel(e, exact) <= bound
