import json
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial, reduce
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemarkov import (
    ClosureReport,
    PolynomialConstraint,
    PrincipalLogError,
    RateModel,
    SamplingError,
    bch_truncated,
    check_scaling_closure,
    commutator,
    kappa_witness,
    least_squares_membership,
    lie_closure,
    load_model,
    log_product,
    matrix_exp,
    membership,
    model_residual,
    multiplicative_closure_check,
    orthonormal_basis,
    sample_with_rng,
    span_basis,
    zoo_model,
    zoo_names,
)
from liemarkov import closure
from liemarkov import model as model_module
from liemarkov.model import _SeedStreams, _generators, _sample_stack, _zero_sum, model_from_dict
from liemarkov.zoo import REFERENCE_LOG_PRODUCT, reference_pair

from bracket_loop import lie_closure_loop
from conftest import (
    audit_pair, chain_logs, cyclic_model, equal_input_doc, make_rate_matrix, pair_rng, row_convention_doc,
    zoo_generator,
)
from exact import exact_rank


def _generic_pair(rng, n):
    """Two n x n rate matrices with off-diagonal integers 1..9 (zero column sums)."""
    q = rng.integers(1, 10, size=(2, n, n)).astype(float)
    q[:, np.arange(n), np.arange(n)] = 0.0
    q[:, np.arange(n), np.arange(n)] = -q.sum(axis=1)
    return q


def _kronecker_pair(seed, p, m):
    """Q_k = A_k (x) I_m + I_p (x) B_k for generic pairs A of order p and B of order m.

    Every bracket has the form [A, A'] (x) I + I (x) [B, B'], so the
    closure has dimension at most (p*p - p) + (m*m - m).
    """
    rng = np.random.default_rng(seed)
    a, b = _generic_pair(rng, p), _generic_pair(rng, m)
    return [np.kron(a[k], np.eye(m)) + np.kron(np.eye(p), b[k]) for k in range(2)]


def _block_triangular_pair(seed, n, k):
    """Two n x n rate matrices with off-diagonal integers 0..9, zero where row >= k and column < k."""
    q = np.random.default_rng(seed).integers(0, 10, size=(2, n, n)).astype(float)
    q[:, k:, :k] = 0.0
    q[:, np.arange(n), np.arange(n)] = 0.0
    q[:, np.arange(n), np.arange(n)] = -q.sum(axis=1)
    return q


def _saturation_inputs():
    """Zoo span bases, 4 (x) 4 Kronecker pairs and generic pairs up to n = 20."""
    inputs = [span_basis(zoo_model(name), seed=0) for name in zoo_names()]
    inputs += [_kronecker_pair(seed, 4, 4) for seed in (0, 4, 6, 13)]
    inputs += [list(_generic_pair(np.random.default_rng(n), n)) for n in (*range(3, 15), 16, 20)]
    return inputs


def _exact_lie_rank(gens) -> int:
    """Dimension of the Lie algebra generated by integer matrices, in exact arithmetic.

    Right-normed words [s, w] (s a generator, w a word kept at the
    previous level) are built level by level in Python ints (dtype=object,
    so nothing overflows) and divided by the gcd of their entries. A word
    is kept when fraction-free elimination finds it independent of those
    kept before; the search ends when a level keeps none. exact_rank then
    certifies the answer independently of the elimination: the kept words
    are independent, and adding the generators and every bracket [s, w]
    does not raise the rank, so their span is the smallest ad_S-invariant
    space containing S. No floating-point rank decision is involved.
    """
    assert all(np.array_equal(g, np.rint(g)) for g in gens), "integer generators only"
    gens = [np.array(np.rint(g).astype(np.int64).tolist(), dtype=object) for g in gens]
    pivots = []  # (column, row) of an integer echelon form of the kept words

    def independent(word):
        vec = list(word.flat)
        for col, row in pivots:
            if vec[col]:
                vec = [row[col] * x - vec[col] * y for x, y in zip(vec, row)]
        col = next((j for j, x in enumerate(vec) if x), None)
        if col is None:
            return False
        g = reduce(gcd, vec)
        pivots.append((col, [x // g for x in vec]))
        return True

    def primitive(word):
        g = reduce(gcd, word.flat, 0)
        return word // g if g else word

    kept = [g for g in gens if independent(g)]
    level = kept
    while level:
        level = [w for w in (primitive(s.dot(v) - v.dot(s)) for v in level for s in gens)
                 if independent(w)]
        kept += level
    brackets = [s.dot(w) - w.dot(s) for w in kept for s in gens]
    assert exact_rank(kept) == len(kept)
    assert exact_rank(kept + gens + brackets) == len(kept)
    return len(kept)


@st.composite
def _patterned_generators(draw):
    """2-3 integer rate matrices of order 3-5 with random zero patterns."""
    n = draw(st.integers(3, 5))
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        cells = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 3)),
                              min_size=n * n, max_size=n * n))
        q = np.array([v if keep else 0 for keep, v in cells], dtype=float).reshape(n, n)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=0))
        gens.append(q)
    return gens


def _assert_closed_basis(closed, gens, tol):
    """Orthonormal, zero column sums, contains gens, bracket-closed to tol."""
    n = gens[0].shape[0]
    assert len(closed) <= n * n - n
    flat = np.array([b.reshape(-1) for b in closed])
    assert np.abs(flat @ flat.T - np.eye(len(closed))).max() <= 1e-12
    assert max(np.abs(b.sum(axis=0)).max() for b in closed) <= 1e-12
    for g in gens:
        assert least_squares_membership(g, closed, tol).inside
    for i, x in enumerate(closed):
        for y in closed[i + 1:]:
            assert least_squares_membership(commutator(x, y), closed, tol).inside


def _pinned_model(name, ranges):
    """The zoo parameterization name with q12 pinned to its first range by the constraint q12 - c = 0.

    The constant term makes the constraint inhomogeneous, so check_scaling_closure does not vouch
    for the model, and a pair that scaling would take out of it is tested as drawn.
    """
    c = ranges[0][0]
    pin = PolynomialConstraint(((1.0, ((1, 2),)), (-c, ())))
    return RateModel(name=f"{name}-pinned", n=4, constraints=(pin,), parameterization=name,
                     parameter_ranges=ranges)


def test_saturating_a_closed_span_returns_in_seconds():
    # The first test of this file, before any other saturates a span of two or more generators: a
    # saturation that loops on a closed span fails here in 10 s instead of hanging the suite. The
    # calls run in a child process, which the timeout kills; a looping thread could not be stopped,
    # and would hold the interpreter lock through the failure's report.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("from liemarkov import lie_closure, zoo_model\n"
            "for name in ('k2p', 'lm88'): print(len(lie_closure(list(zoo_model(name).basis))))")
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              timeout=10, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail("lie_closure of k2p's and lm88's bases did not return in 10 s")
    assert proc.stdout.split() == ["2", "8"]


class TestProductChain:
    """Products of substitution matrices exp(Q_k t_k), formed link by link."""

    def test_repeated_link_is_one_parameter_semigroup(self, reference_pair_q):
        q1, _ = reference_pair_q
        np.testing.assert_allclose(
            matrix_exp(q1) @ matrix_exp(q1), matrix_exp(2.0 * q1), atol=1e-14
        )

    def test_reference_chain_matches_log_product(self, reference_pair_q):
        # The stored reference matrix carries ~7 digits, so its exp can
        # only agree with the true product to the rounding level.
        q1, q2 = reference_pair_q
        np.testing.assert_allclose(
            matrix_exp(q1) @ matrix_exp(q2),
            matrix_exp(np.asarray(REFERENCE_LOG_PRODUCT)),
            rtol=0.0,
            atol=1e-7,
        )


class TestBch:
    def test_order_one_is_sum(self, reference_pair_q):
        q1, q2 = reference_pair_q
        np.testing.assert_array_equal(bch_truncated(q1, q2, 1), q1 + q2)

    def test_commuting_arguments_collapse(self, reference_pair_q):
        q1, _ = reference_pair_q
        for order in (1, 2, 3):
            np.testing.assert_allclose(
                bch_truncated(q1, q1, order), 2.0 * q1, atol=1e-15
            )

    @pytest.mark.parametrize("name", ["jc", "k2p"])
    def test_commuting_generators_match_log_product(self, name):
        # jc and k2p generators commute, so every order is exact up to rounding.
        rng = np.random.default_rng(42)
        q, q_prime = sample_with_rng(zoo_model(name), rng), sample_with_rng(zoo_model(name), rng)
        for t in (2.0 ** -k for k in range(1, 7)):
            reference = log_product(t * q, t * q_prime)
            for order in (1, 2, 3):
                assert np.linalg.norm(reference - bch_truncated(t * q, t * q_prime, order), "fro") <= 1e-14

    def test_invalid_order(self, reference_pair_q):
        q1, q2 = reference_pair_q
        for order in (0, 4, -1):
            with pytest.raises(ValueError, match="order"):
                bch_truncated(q1, q2, order)

    def test_order_three_error_is_fourth_order(self, reference_pair_q):
        q1, q2 = reference_pair_q
        ts = [0.5 * 2.0 ** -k for k in range(7)]
        errs = [
            np.linalg.norm(log_product(t * q1, t * q2) - bch_truncated(t * q1, t * q2, 3), "fro")
            for t in ts
        ]
        slope = np.polyfit(np.log2(ts), np.log2(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)


class TestLogProduct:
    def test_identity_factor(self, reference_pair_q):
        q1, _ = reference_pair_q
        np.testing.assert_allclose(log_product(q1, np.zeros((4, 4))), q1, atol=1e-13)

    def test_same_generator_doubles(self, reference_pair_q):
        q1, _ = reference_pair_q
        np.testing.assert_allclose(log_product(q1, q1), 2.0 * q1, atol=1e-13)

    def test_reference_pair(self, reference_pair_q):
        q1, q2 = reference_pair_q
        computed = log_product(q1, q2)
        assert np.abs(computed - REFERENCE_LOG_PRODUCT).max() <= 1e-6
        assert computed[0, 0] == pytest.approx(-0.0571752, abs=1e-6)
        assert computed[3, 2] == pytest.approx(0.0247748, abs=1e-6)

    def test_zero_column_sums_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            q = make_rate_matrix(rng)
            qp = make_rate_matrix(rng)
            l = log_product(q, qp)
            assert np.abs(l.sum(axis=0)).max() <= 1e-10


class TestLogClosureSample:
    def test_chain_length_one_stays_in_model(self):
        model = zoo_model("hky")
        for elem in chain_logs(model, chain_length=1, samples=20, seed=3):
            assert membership(model, elem, 1e-8).in_r

    def test_hky_chain_two_escapes(self):
        model = zoo_model("hky")
        elems = chain_logs(model, chain_length=2, samples=50, seed=11)
        assert any(not membership(model, e, 1e-8).in_r for e in elems)

    def test_lm88_chain_two_stays(self):
        model = zoo_model("lm88")
        elems = chain_logs(model, chain_length=2, samples=50, seed=11)
        assert all(membership(model, e, 1e-8).in_r for e in elems)

    def test_zero_column_sums(self):
        for e in chain_logs(zoo_model("hky"), chain_length=3, samples=20, seed=5):
            assert np.abs(e.sum(axis=0)).max() <= 1e-9

    def test_all_chains_skipped(self):
        # Huge cyclic rates push exp(Qt) eigenvalues inside the rejection
        # margin around the negative axis, so every product lacks a principal log.
        assert chain_logs(cyclic_model(), chain_length=2, samples=10, seed=0) == []


class TestLieClosure:
    def test_single_generator_is_abelian(self):
        q = sample_with_rng(zoo_model("jc"), np.random.default_rng(0))
        assert len(lie_closure([q])) == 1

    def test_commuting_basis_closure_is_span(self):
        basis = zoo_model("k2p").basis
        for x in basis:
            for y in basis:
                assert np.linalg.norm(commutator(x, y), "fro") <= 1e-14
        assert len(lie_closure(list(basis))) == 2

    def test_rejects_nonzero_sums(self):
        # A column sum of 1e-8 is beyond the check's 1e-10 max(1, ||g||_F) for jc's generator.
        for offset in (1.0, 1e-8):
            with pytest.raises(ValueError, match="zero-sum"):
                lie_closure([zoo_model("jc").basis[0] + offset * np.eye(4)[0]])

    def test_generators_past_the_squared_norm_overflow_warn_nothing(self):
        # ||q||_F^2 overflows from 1.3e154 on; the zero-sum tolerance's norm is summed again, scaled.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(lie_closure([1e160 * np.array([[-1.0, 0.0], [1.0, 0.0]])])) == 1

    def test_idempotent(self):
        closed = lie_closure(list(zoo_model("lm88").basis))
        again = lie_closure(closed)
        assert len(again) == len(closed)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
    def test_nearly_parallel_generators_give_zero_sum_rows(self, eps):
        # The thin generator of jc and jc + eps k2p_0 carries the SVD's rounding divided by its small
        # singular value, so its column sums are zero only if it is projected after the SVD.
        jc, k2p = zoo_model("jc").basis[0], zoo_model("k2p").basis[0]
        closed = lie_closure([jc, jc + eps * k2p])
        assert len(closed) == len(lie_closure(closed)) == 2
        assert len(RateModel(name="near-closure", n=4, basis=tuple(closed)).basis) == 2

    def test_cuts_the_generators_where_the_record_cuts_the_span(self):
        # lie_closure and a model's span make their generators one way, at DEFAULT_RANK_RTOL, so the
        # same input has one closure, the model's algebra record. jc and jc + eps k2p_0 have a second
        # singular value of about 0.12 eps relative to the first: two span rows down to eps = 1e-9,
        # where a cut at DEFAULT_BRACKET_GATE would keep one.
        jc, k2p = zoo_model("jc").basis[0], zoo_model("k2p").basis[0]
        near = [[jc, jc + eps * k2p] for eps in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)]
        for k, basis in enumerate(near + _saturation_inputs()):
            model = RateModel(name="same-input", n=len(basis[0]), basis=tuple(basis))
            np.testing.assert_array_equal(lie_closure(basis), model._algebra.closure)
            if k < len(near):
                assert len(model._span) == (2 if k < 5 else 1)

    def test_monotone_and_bracket_closed(self):
        basis = span_basis(zoo_model("hky"), seed=0)
        closed = lie_closure(basis)
        for b in basis:
            assert least_squares_membership(b, closed, 1e-10).inside
        for i, x in enumerate(closed):
            for y in closed[i + 1:]:
                assert least_squares_membership(commutator(x, y), closed, 1e-8).inside

    def test_f81_matches_exact_saturation_oracle(self):
        # Oracle: saturation in integer arithmetic with exact rational
        # rank, fully independent of the SVD pipeline.
        basis = [np.asarray(b) for b in zoo_model("f81").basis]
        assert _exact_lie_rank(basis) == 4
        assert len(lie_closure(basis)) == 4

    @settings(max_examples=20, deadline=None)
    @given(_patterned_generators())
    def test_matches_exact_oracle_on_patterned_generators(self, gens):
        # Zero patterns make proper subalgebras as well as full ones.
        assert len(lie_closure(gens)) == _exact_lie_rank(gens)

    @pytest.mark.parametrize("p, m, seed", [
        (4, 4, 4), (4, 4, 6), (4, 4, 0), (4, 4, 13), (3, 5, 0), (2, 6, 0),
    ])
    def test_kronecker_sum_dimension(self, p, m, seed):
        # 4 (x) 4 at seeds 4 and 6 once came out as 256, beyond n*n - n = 240.
        gens = _kronecker_pair(seed, p, m)
        closed = lie_closure(gens)
        assert len(closed) == (p * p - p) + (m * m - m)
        _assert_closed_basis(closed, gens, 1e-8)

    @pytest.mark.parametrize("n, k", [(20, 5), (24, 6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_block_triangular_pairs_keep_three_decades(self, n, k, seed):
        # Rate matrices that vanish where row >= k and column < k generate all of them, a subalgebra
        # of dimension n*n - n - (n - k) k. The gap between kept and dropped directions is 3.7 to 5.3
        # decades on these seeds; the float search's wrong answers from n = 30 on have under one.
        gens = _block_triangular_pair(seed, n, k)
        closed, _, accepted, rejected = _saturate_from(gens)
        assert len(closed) == n * n - n - (n - k) * k
        assert accepted >= 1e3 * rejected

    @pytest.mark.parametrize("n", range(4, 15))
    def test_generic_pair_rows_stay_zero_sum_and_orthonormal(self, n):
        # No zero-sum projection runs in the search: the column-mean rows in front of the basis are
        # removed by the one projection that orthogonalises each block and each accepted direction.
        closed = np.array(lie_closure(list(_generic_pair(np.random.default_rng(n), n))))
        flat = closed.reshape(len(closed), -1)
        assert np.abs(closed.sum(axis=1)).max() <= 1e-14
        assert np.abs(flat @ flat.T - np.eye(len(closed))).max() <= 1e-13

    @pytest.mark.parametrize("name, dim", [
        ("jc", 1), ("k2p", 2), ("f81", 4), ("hky", 8), ("lm88", 8), ("gtr", 12),
    ])
    def test_zoo_closure_dimension_and_bracket_closure(self, name, dim):
        base = span_basis(zoo_model(name), seed=0)
        closed = lie_closure(base)
        assert len(closed) == dim
        _assert_closed_basis(closed, base, 1e-12)

    def test_block_just_above_the_gate_takes_the_svd(self):
        # [A, A^2] = 0, so the one first-level bracket of A and A^2 + d X is d [A, X]. At d = 2^-21
        # its norm after Gram-Schmidt, the smallest singular value accepted, lies between the gate
        # and ten times it, and the SVD must still take it and open the rest of L. The same
        # algebra in integers is generated by A and 2^21 A^2 + X.
        a, x = _generic_pair(np.random.default_rng(3), 4)
        closed, dims, accepted, _ = _saturate_from([a, a @ a + 2.0 ** -21 * x])
        assert closure.DEFAULT_BRACKET_GATE < accepted < 10 * closure.DEFAULT_BRACKET_GATE
        assert dims[:2] == [2, 3]
        assert len(closed) == _exact_lie_rank([a, 2 ** 21 * (a @ a) + x]) == 12

    def test_rank_gap_recorded(self):
        # lie_closure is the list view of the saturation's rows, which also returns the dimension
        # after each level and the rank gap; a model's algebra record is the saturation of its span.
        for gens in _saturation_inputs():
            closed, dims, accepted, rejected = _saturate_from(gens)
            np.testing.assert_array_equal(lie_closure(gens), closed)
            assert dims[-1] == len(closed)
            # At least three decades between the kept and the dropped directions.
            assert accepted >= 1e3 * rejected
        for name in zoo_names():
            model = zoo_model(name)
            base = np.array(span_basis(zoo_model(name)))
            closed, *rest = closure._saturate(base)
            np.testing.assert_array_equal(model._span, base)
            np.testing.assert_array_equal(model._algebra.closure, closed)
            assert list(model._algebra[1:]) == rest
            algebra = model._algebra
            assert algebra.levels[-1] == len(closed) and algebra.accepted >= 1e3 * algebra.rejected


def _saturate_from(gens):
    """lie_closure's path on raw generators: _generators, then _saturate."""
    return closure._saturate(_generators(np.array(gens)))


@pytest.mark.parametrize("name", zoo_names())
def test_closure_begins_with_the_span_rows(name):
    # The model's span rows are the saturation's generators as they are, with no SVD of their own.
    model = zoo_model(name)
    np.testing.assert_array_equal(model._algebra.closure[:len(model._span)], model._span)


def _counting_svds(saturation, monkeypatch):
    """saturation() under a spy: the row count of each SVD's block, and its dimension per level.

    A bracket block enters the SVD transposed, so its row count is the smaller side of the SVD's input."""
    rows = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        rows.append(min(np.shape(a)))
        return svd(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", spy)
        _, dims, _, _ = saturation()
    return rows, dims


class TestSaturationCost:
    """A level takes its first c brackets, c the directions left, and the rest only while L is not full;
    a block already in the span takes no SVD."""

    def test_filling_level_takes_one_small_svd(self, monkeypatch):
        # The last level has 2 (127 - 71) = 112 brackets against 5 directions left.
        gens = _generic_pair(np.random.default_rng(12), 12)
        rows, dims = _counting_svds(lambda: _saturate_from(gens), monkeypatch)
        assert dims == [2, 3, 5, 8, 14, 23, 41, 71, 127, 132]
        # The input's rank, then one SVD per level.
        assert rows == [2, 1, 2, 4, 6, 12, 18, 36, 60, 5]

    @pytest.mark.parametrize("name", ["hky", "lm88"])
    def test_closed_span_takes_no_bracket_svd(self, name, monkeypatch):
        # The span rows are the generators as they are, with no SVD. 28 brackets of 8 generators
        # against 4 directions left: 4 first, then the other 24, both already in the span after
        # Gram-Schmidt, so neither block takes an SVD.
        base = np.array(span_basis(zoo_model(name), seed=0))
        rows, dims = _counting_svds(lambda: closure._saturate(base), monkeypatch)
        assert dims == [8, 8]
        assert rows == []

    def test_at_most_two_svds_per_level(self, monkeypatch):
        for gens in _saturation_inputs():
            rows, dims = _counting_svds(lambda: _saturate_from(gens), monkeypatch)
            s, ambient = dims[0], gens[0].size - len(gens[0])
            # The blocks of each level that adds a direction.
            blocks, adding = [], 0
            for level in range(1, len(dims)):
                r = s * (s - 1) // 2 if level == 1 else (dims[level - 1] - dims[level - 2]) * s
                c = ambient - dims[level - 1]
                if dims[level] > dims[level - 1]:
                    blocks += [min(r, c)] + ([r - c] if r > c else [])
                    adding += 1
            # A block already in the span, like every block of a level that adds nothing, takes no
            # SVD; nor does a second block once the first has filled L. After the input's rank, the
            # rest are taken in order, at least one for each level that adds a direction.
            remaining = iter(blocks)
            assert rows[0] == len(gens) and all(r in remaining for r in rows[1:])
            assert len(rows) >= 1 + adding


class TestBatchedBrackets:
    """lie_closure forms each level's brackets as one array; the per-bracket loop is the reference."""

    @staticmethod
    def _assert_same_basis(gens):
        batched, looped = lie_closure(gens), lie_closure_loop(gens)
        assert len(batched) == len(looped)
        for b, ref in zip(batched, looped):
            np.testing.assert_array_equal(b, ref)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_generic_pairs(self, n):
        self._assert_same_basis(list(_generic_pair(np.random.default_rng(n), n)))

    @pytest.mark.parametrize("seed", [0, 4, 6, 13])
    def test_kronecker_pairs(self, seed):
        self._assert_same_basis(_kronecker_pair(seed, 4, 4))

    @pytest.mark.parametrize("name", zoo_names())
    def test_zoo_span_bases(self, name):
        self._assert_same_basis(span_basis(zoo_model(name), seed=0))

    @pytest.mark.parametrize("n, count", [(4, 1), (5, 2), (3, 3)])
    def test_all_zero_generators(self, n, count):
        # No generator survives orthonormalisation, so there is no bracket to form.
        assert lie_closure([np.zeros((n, n))] * count) == []
        self._assert_same_basis([np.zeros((n, n))] * count)

    def test_empty_basis_generates_the_zero_algebra(self):
        assert lie_closure([]) == []


class TestMatrixSets:
    """A set of matrices may come as a list, a tuple or a (k, n, n) array, with the same result."""

    @pytest.mark.parametrize("gens", [
        _generic_pair(np.random.default_rng(5), 5),
        np.stack(_kronecker_pair(4, 4, 4)),
        np.stack(zoo_model("lm88").basis),
    ])
    def test_list_tuple_and_array_agree(self, gens):
        results = []
        for form in (list(gens), tuple(gens), np.array(gens)):
            results.append((orthonormal_basis(form), lie_closure(form)))
        for basis, closed in results[1:]:
            for got, ref in ((basis, results[0][0]), (closed, results[0][1])):
                assert isinstance(got, list) and len(got) == len(ref)
                for a, b in zip(got, ref):
                    np.testing.assert_array_equal(a, b)

    def test_empty_and_mixed_sets(self):
        for empty in ([], (), np.empty((0, 4, 4))):
            assert orthonormal_basis(empty) == [] and lie_closure(empty) == []
        for call in (orthonormal_basis, lie_closure):
            with pytest.raises(ValueError, match="matrices must all have the same order"):
                call([np.zeros((3, 3)), np.zeros((4, 4))])
        # Matrices of one shape that are not numbers keep numpy's own error; vectors are no matrices.
        with pytest.raises(ValueError, match="could not convert string to float"):
            lie_closure([[["a", "b"], ["c", "d"]]])
        with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(4,\)"):
            lie_closure([np.zeros(4)])


class TestSpanBasis:
    def test_declared_basis_gives_fresh_arrays(self):
        model = zoo_model("lm88")
        first = span_basis(model)
        residual = model_residual(model, REFERENCE_LOG_PRODUCT)
        for b in first:
            assert b.flags.writeable
            b[...] = 7.0
        # The declared basis's orthonormal rows, projected onto zero column sums.
        refs = _zero_sum(np.array(orthonormal_basis(model.basis)))
        np.testing.assert_allclose(refs, orthonormal_basis(model.basis), rtol=0, atol=1e-15)
        for b, ref in zip(span_basis(model), refs):
            np.testing.assert_array_equal(b, ref)
        assert model_residual(model, REFERENCE_LOG_PRODUCT) == residual
        assert all(not b.flags.writeable for b in model.basis)

    def test_declared_basis_runs_no_svd_per_call(self, monkeypatch):
        model = zoo_model("f81")
        assert len(span_basis(model)) == 4
        monkeypatch.setattr(np.linalg, "svd", None)
        assert len(span_basis(model)) == 4

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_declared_basis_takes_any_seed(self, seed):
        # A declared basis draws nothing, so span_basis returns the model's span at any seed.
        model = zoo_model("jc")
        for got, want in zip(span_basis(model, seed=seed), model._span, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_sampled_span_at_seed_0_is_drawn_once(self, monkeypatch):
        # A sampled model's span at seed 0 is the model's own: the second call draws nothing.
        calls = []
        draw = model_module._sample_stochastic_stack

        def counted(*args):
            calls.append(args[1:])
            return draw(*args)

        monkeypatch.setattr(model_module, "_sample_stochastic_stack", counted)
        model = zoo_model("hky")
        first, second = span_basis(model, seed=0), span_basis(model, seed=0)
        assert calls == [(0, 64)]
        for a, b in zip(first, second, strict=True):
            np.testing.assert_array_equal(a, b)
            assert a is not b and a.flags.writeable
        assert len(span_basis(model, seed=1)) == 8 and calls == [(0, 64), (1, 64)]

    def test_first_residual_of_a_generic_pair_builds_no_closure(self):
        # A generic integer pair at n = 61 generates all 3660 zero-sum directions, a float closure
        # of 14 levels and hundreds of MiB. Membership needs only the pair's span.
        n = 61
        model = RateModel(name="generic-61", n=n, basis=tuple(_generic_pair(np.random.default_rng(n), n)))
        q = model.basis[0] + 1e-3 * np.roll(model.basis[1], 1, axis=1)
        tracemalloc.start()
        try:
            residual = model_residual(model, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "_algebra" not in vars(model) and "_span" in vars(model)
        assert peak < 100 * 2**20
        assert 1e-6 < residual < 1.0
        assert model_residual(model, model.basis[0] - 2.0 * model.basis[1]) <= 1e-12

    def test_nearly_dependent_basis_has_one_span_and_residual(self):
        # jc and jc + 1e-12 b span one direction at DEFAULT_RANK_RTOL, so b lies outside it.
        q = zoo_model("jc").basis[0]
        b = zoo_model("k2p").basis[0] - (np.sum(zoo_model("k2p").basis[0] * q) / np.sum(q * q)) * q
        b /= np.linalg.norm(b, "fro")
        model = RateModel(name="near", n=4, basis=(q, q + 1e-12 * b))
        assert len(span_basis(model)) == 1
        assert model_residual(model, b) == pytest.approx(1.0, abs=1e-12)


class TestMultiplicativeClosure:
    def test_jc_closed(self):
        report = multiplicative_closure_check(zoo_model("jc"), samples=20, seed=1)
        assert report.mult_closed_verdict == "closed"
        assert report.span_dim == report.lie_closure_dim == 1
        assert report.ambient_dim == 12
        assert report.witnesses == ()

    def test_lm88_closed(self):
        report = multiplicative_closure_check(zoo_model("lm88"), samples=30, seed=2)
        assert report.mult_closed_verdict == "closed"
        assert report.span_dim == report.lie_closure_dim == 8

    def test_unclosed_span_without_witnesses_is_inconclusive(self):
        # A generic 4-state pair spans 2 dimensions and generates 12. At tol = 1.0 no pair can fail
        # (a span residual is at most 1), so only the dimensions decide, and they must not say closed.
        model = RateModel(name="generic-4", n=4, basis=tuple(_generic_pair(np.random.default_rng(3), 4)))
        report = multiplicative_closure_check(model, samples=200, tol=1.0)
        assert (report.span_dim, report.lie_closure_dim) == (2, 12)
        assert report.witnesses == ()
        assert report.mult_closed_verdict == "inconclusive"

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_nearly_parallel_basis_is_audited(self, eps):
        # jc and jc + eps k2p_0 span k2p's closed span, of dimension 2. The span's thin SVD row
        # carries rounding divided by its small singular value: column sums of 9.3e-10 at eps =
        # 1e-6 and 1.2e-6 at 1e-9, beyond lie_closure's 1e-10 check, unless the span rows are
        # projected onto zero column sums where they are made.
        jc, k2p = zoo_model("jc").basis[0], zoo_model("k2p").basis[0]
        model = RateModel(name="near", n=4, basis=(jc, jc + eps * k2p))
        report = multiplicative_closure_check(model, samples=100, seed=42)
        assert len(lie_closure(span_basis(model))) == report.lie_closure_dim
        assert report.mult_closed_verdict != "not_closed"
        if eps >= 1e-7:
            assert (report.mult_closed_verdict, report.span_dim, report.lie_closure_dim) == ("closed", 2, 2)

    def test_tol_must_be_positive_and_finite(self):
        for tol in (float("nan"), float("inf"), -1.0, 0.0):
            with pytest.raises(ValueError, match="positive finite"):
                multiplicative_closure_check(zoo_model("hky"), samples=5, tol=tol)

    def test_hky_not_closed(self):
        report = multiplicative_closure_check(zoo_model("hky"), samples=30, seed=42)
        assert report.mult_closed_verdict == "not_closed"
        assert report.witnesses
        worst = max(w.residual for w in report.witnesses)
        assert worst > report.tolerance
        assert len(report.witnesses) <= 10

    def test_gtr_not_closed(self):
        report = multiplicative_closure_check(zoo_model("gtr"), samples=40, seed=3)
        assert report.mult_closed_verdict == "not_closed"

    def test_gtr_witness_against_scipy_oracle(self):
        # Independent oracle: scipy's expm/logm and direct evaluation of
        # the cycle conditions, no liemarkov kernels involved.
        sla = pytest.importorskip("scipy.linalg")
        model = zoo_model("gtr")
        found = None
        for seed in range(40):
            q = sample_with_rng(model, np.random.default_rng(2 * seed))
            qp = sample_with_rng(model, np.random.default_rng(2 * seed + 1))
            l = sla.logm(sla.expm(q) @ sla.expm(qp))
            assert np.abs(l.imag).max() < 1e-12
            l = l.real
            resids = [c.evaluate(l) for c in model.constraints]
            if max(abs(r) for r in resids) > 1e-5:
                found = (q, qp, l)
                break
        assert found is not None

    def test_witness_cap_and_selection(self):
        # Recompute every failing pair independently of the cap: the
        # report must keep the first failure and the global worst one.
        model = zoo_model("hky")
        samples, seed, tol = 150, 42, 1e-8
        failures = []
        for index in range(samples):
            q, qp = audit_pair(model, pair_rng(seed, index))
            resid = model_residual(model, log_product(q, qp))
            if resid > tol:
                failures.append((index, resid))
        assert len(failures) > 10

        report = multiplicative_closure_check(model, samples=samples, seed=seed, tol=tol)
        assert len(report.witnesses) == 10
        indices = [w.pair_index for w in report.witnesses]
        assert indices == sorted(indices)
        assert indices[0] == failures[0][0]
        worst_index, worst_resid = max(failures, key=lambda f: f[1])
        assert any(
            w.pair_index == worst_index and w.residual == pytest.approx(worst_resid)
            for w in report.witnesses
        )

    def test_deterministic(self):
        a = multiplicative_closure_check(zoo_model("hky"), samples=25, seed=9)
        b = multiplicative_closure_check(zoo_model("hky"), samples=25, seed=9)
        assert a.to_json() == b.to_json()

    def test_report_serialization_fields(self):
        report = multiplicative_closure_check(zoo_model("hky"), samples=10, seed=42)
        doc = report.to_dict()
        assert set(doc) == {
            "model_name",
            "span_dim",
            "lie_closure_dim",
            "ambient_dim",
            "mult_closed_verdict",
            "witnesses",
            "samples_tested",
            "tolerance",
        }
        w = doc["witnesses"][0]
        assert np.asarray(w["log_product"]).shape == (4, 4)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError, match="verdict must be one of"):
            ClosureReport(
                model_name="x", span_dim=1, lie_closure_dim=1, ambient_dim=12,
                mult_closed_verdict="maybe", witnesses=(), samples_tested=1,
                tolerance=1e-8,
            )
        with pytest.raises(ValueError, match="dimensions"):
            ClosureReport(
                model_name="x", span_dim=5, lie_closure_dim=4, ambient_dim=12,
                mult_closed_verdict="closed", witnesses=(), samples_tested=1,
                tolerance=1e-8,
            )
        with pytest.raises(ValueError, match="witness"):
            ClosureReport(
                model_name="x", span_dim=1, lie_closure_dim=1, ambient_dim=12,
                mult_closed_verdict="not_closed", witnesses=(), samples_tested=1,
                tolerance=1e-8,
            )

    def test_majority_log_failures_error(self):
        # jc at rate 5 with q12 - 5 = 0: no scaled pair is a member, and exp(2q) is within e^-40 of
        # rank one, so every pair is tested as drawn and lies beyond the log's radius.
        with pytest.raises(RuntimeError, match="half"):
            multiplicative_closure_check(_pinned_model("jc", ((5.0, 5.0),)), samples=10, seed=0)

    def test_majority_failure_names_its_cause(self):
        # The 12-state equal-input basis: its box sampler accepts about 2^-12 of its draws.
        model = model_from_dict(equal_input_doc(12))
        # The whole message, pinned: one pair of seed 0's first 27 draws both its generators.
        for samples, seed, failed, read in ((20, 42, 11, 11), (50, 0, 26, 27)):
            with pytest.raises(RuntimeError) as err:
                multiplicative_closure_check(model, samples=samples, seed=seed)
            assert str(err.value) == (
                f"more than half of the {samples} sampled pairs failed, mostly by sampler exhaustion: "
                f"{failed} sampler exhaustions and 0 products beyond the log's radius in the first {read} pairs")
        with pytest.raises(RuntimeError) as err:
            multiplicative_closure_check(_pinned_model("jc", ((5.0, 5.0),)), samples=10, seed=0)
        assert str(err.value) == (
            "more than half of the 10 sampled pairs failed, mostly by products beyond the log's radius: "
            "0 sampler exhaustions and 6 products beyond the log's radius in the first 6 pairs")

    def test_a_tie_of_causes_names_the_log_radius(self, monkeypatch):
        # One pair whose sampler is exhausted and one whose product lies beyond the log's radius: the
        # cause named on a tie is the log's radius.
        def block(model, seed, count, tol, scales, start=0):
            nan = np.full((count, 4, 4), np.nan)
            return nan, nan, nan, np.array([False, True]), np.array([False, False])

        monkeypatch.setattr(closure, "_log_product_block", block)
        with pytest.raises(RuntimeError) as err:
            multiplicative_closure_check(zoo_model("jc"), samples=2, seed=0)
        assert str(err.value) == (
            "more than half of the 2 sampled pairs failed, mostly by products beyond the log's radius: "
            "1 sampler exhaustions and 1 products beyond the log's radius in the first 2 pairs")

    def test_one_pair_is_an_audit(self):
        report = multiplicative_closure_check(zoo_model("jc"), samples=1, seed=7)
        assert (report.mult_closed_verdict, report.samples_tested) == ("closed", 1)

    def test_a_pair_whose_exponential_overflows_is_refused_without_a_warning(self):
        # jc at rate 1e100 with q12 - 1e100 = 0: no scaled pair is a member, so every pair is tested as
        # drawn. Its exponential overflows, and the log refuses the non-finite product.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError) as err:
                multiplicative_closure_check(_pinned_model("jc", ((1e100, 1e100),)), samples=20, seed=0)
        assert str(err.value) == (
            "more than half of the 20 sampled pairs failed, mostly by products beyond the log's radius: "
            "0 sampler exhaustions and 11 products beyond the log's radius in the first 11 pairs")

    def test_generators_past_the_squared_norm_overflow_warn_nothing(self):
        # ||q||_F^2 overflows from 1.3e154 on. The model is one-dimensional, hence closed; its pairs
        # are scaled into the BCH domain, and the audit says closed without a warning.
        model = RateModel(name="huge", n=2, basis=(1e160 * np.array([[-1.0, 0.0], [1.0, 0.0]]),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = multiplicative_closure_check(model, samples=4, seed=1)
        assert (report.mult_closed_verdict, report.samples_tested) == ("closed", 4)

    @pytest.mark.parametrize("scale", [1.0, 2.0, 3.0, 6.0, 8.0, 10.0, 13.5, 20.0, 1e6])
    def test_single_cycle_is_closed_at_every_scale(self, scale):
        # One generator spans an abelian algebra. As drawn, pairs from scale 2 on have principal logs
        # off the span (|Im lambda| > pi), and from about 7 on products near rank one.
        report = multiplicative_closure_check(cyclic_model(scale), samples=150, seed=7)
        assert (report.mult_closed_verdict, report.samples_tested) == ("closed", 150)

    @pytest.mark.parametrize("name", ["jc", "k2p", "f81", "lm88"])
    def test_span_bases_scaled_by_ten_stay_closed(self, name):
        base = zoo_model(name)
        model = RateModel(name=f"{name}-x10", n=4, basis=tuple(10.0 * b for b in base.basis))
        # The box sampler of a declared basis may run out on a few pairs (6 of lm88's 150).
        report = multiplicative_closure_check(model, samples=150, seed=7)
        assert report.mult_closed_verdict == "closed" and report.samples_tested >= 140

    @pytest.mark.parametrize("seed", [7, 42, 2024])
    def test_gtr_stays_not_closed_in_the_bch_domain(self, seed):
        report = multiplicative_closure_check(zoo_model("gtr"), samples=1000, seed=seed)
        assert report.mult_closed_verdict == "not_closed"
        for w in report.witnesses:
            s = np.linalg.norm(w.q, "fro") + np.linalg.norm(w.q_prime, "fro")
            assert s <= 0.65 * (1 + 1e-15)

    def test_a_model_that_may_not_scale_keeps_its_pairs_members(self):
        # jc with its rate fixed at 0.1 and q12 - 0.1 = 0: every pair has s = 1.39, but t q has
        # q12 = 0.047 and leaves the model, so each pair is tested as drawn. Its log 2 q has
        # q12 = 0.2, a sound witness.
        model = _pinned_model("jc", ((0.1, 0.1),))
        assert check_scaling_closure(model) is None
        report = multiplicative_closure_check(model, samples=100, seed=7)
        assert (report.mult_closed_verdict, report.samples_tested) == ("not_closed", 100)
        assert report.witnesses
        for w in report.witnesses:
            assert model_residual(model, w.q) <= report.tolerance
            assert model_residual(model, w.q_prime) <= report.tolerance
            assert w.residual == pytest.approx(0.1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["jc", "k2p", "f81", "lm88"]),
           st.floats(0.01, 0.65), st.floats(0.05, 0.95))
    def test_closed_pairs_in_the_bch_domain_stay_in_the_model(self, seed, name, s, share):
        # The theorem's direction the audit relies on: inside the domain a closed model's
        # log-product lies in the model, to rounding.
        model = zoo_model(name)
        rng = np.random.default_rng(seed)
        q, q_prime = sample_with_rng(model, rng), sample_with_rng(model, rng)
        q = q * (share * s / np.linalg.norm(q, "fro"))
        q_prime = q_prime * ((1.0 - share) * s / np.linalg.norm(q_prime, "fro"))
        assert model_residual(model, log_product(q, q_prime)) <= 1e-12

    def test_bracket_extraction_limit(self):
        # (2/eps^2)(log(e^{eQ} e^{eQ'}) - eQ - eQ') converges to [Q, Q'].
        eps = 1e-3
        for name in ("hky", "lm88", "gtr"):
            model = zoo_model(name)
            q = sample_with_rng(model, np.random.default_rng(0))
            qp = sample_with_rng(model, np.random.default_rng(1))
            bracket = commutator(q, qp)
            approx = (2.0 / eps ** 2) * (
                log_product(eps * q, eps * qp) - eps * q - eps * qp
            )
            assert np.linalg.norm(approx - bracket, "fro") <= 1e-4 * np.linalg.norm(bracket, "fro") + 1e-10


class TestTheoremDirections:
    def test_closed_models_contain_their_log_closure(self):
        # Forward direction, numerically: models audited as closed keep
        # all sampled log-closure elements inside their span.
        for name in ("jc", "f81", "k2p", "lm88"):
            model = zoo_model(name)
            report = multiplicative_closure_check(model, samples=20, seed=4)
            assert report.mult_closed_verdict == "closed"
            for elem in chain_logs(model, chain_length=3, samples=50, seed=4):
                assert model_residual(model, elem) <= 1e-7


class TestKappaWitness:
    def test_single_ratio_matrix(self):
        q = zoo_generator("hky", 0.02, 0.01, 0.005, 0.009, 1.5)
        assert kappa_witness(q) == pytest.approx([1.5] * 4, abs=1e-12)

    def test_reference_log_product(self):
        # Oracle: direct entrywise division of the reference matrix.
        ref = np.asarray(REFERENCE_LOG_PRODUCT)
        expected = [
            ref[0, 1] / ref[0, 2],
            ref[1, 0] / ref[1, 2],
            ref[2, 3] / ref[2, 0],
            ref[3, 2] / ref[3, 0],
        ]
        got = kappa_witness(ref)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx([1.4413, 1.4484, 1.4455, 1.4511], abs=1e-3)
        diffs = [abs(a - b) for i, a in enumerate(got) for b in got[i + 1:]]
        assert min(diffs) > 1e-3

    def test_pattern_violation_rejected(self):
        q = np.diag([1.0, 1.0, 1.0, -3.0]) - np.full((4, 4), 0.25)
        q[0, 2] += 0.1  # break q13 = q14
        with pytest.raises(ValueError, match="pattern"):
            kappa_witness(q)

    def test_order_4_only(self):
        with pytest.raises(ValueError, match="the closure pattern is defined for order-4 matrices"):
            kappa_witness(np.ones((3, 3)) - 3 * np.eye(3))

    def test_zero_denominator(self):
        q = zoo_generator("lm88", 0.0, 0.01, 0.01, 0.01, 0.02, 0.02, 0.02, 0.02)
        with pytest.raises(ZeroDivisionError):
            kappa_witness(q)

    def test_equal_ratios_kill_hky_quadratics_symbolically(self):
        # Symbolic oracle: on the 8-parameter pattern with all four
        # ratios equal, every quadratic constraint is identically zero.
        sympy = pytest.importorskip("sympy")
        a, b, g, d, k = sympy.symbols("a b g d k", positive=True)
        q = sympy.zeros(4, 4)
        pattern = {
            (0, 1): k * a, (0, 2): a, (0, 3): a,
            (1, 0): k * b, (1, 2): b, (1, 3): b,
            (2, 0): g, (2, 1): g, (2, 3): k * g,
            (3, 0): d, (3, 1): d, (3, 2): k * d,
        }
        for (i, j), expr in pattern.items():
            q[i, j] = expr
        for c in zoo_model("hky").constraints:
            total = sympy.Integer(0)
            for coeff, monomial in c.terms:
                term = sympy.Float(coeff)
                for i, j in monomial:
                    term *= q[i - 1, j - 1]
                total += term
            assert sympy.simplify(total) == 0


def _golden_model(name):
    if name.startswith("cyclic-"):
        return cyclic_model(float(name.split("-")[1]))
    if name == "jc-pinned":
        return _pinned_model("jc", ((0.1, 0.1),))
    return zoo_model(name)


# What a per-pair audit finds, by (model, seed); tests/golden/regenerate.py writes the files.
AUDIT_GOLDENS = {
    (doc["model"], doc["seed"]): doc
    for doc in (json.loads(p.read_text(encoding="utf-8"))
                for p in (Path(__file__).resolve().parent / "golden" / "audit").glob("*.json"))
}


class TestBatchedAudit:
    """The block audit against the per-pair audit, scipy, and sequential draws."""

    def test_every_audit_golden_has_a_file(self):
        assert len(AUDIT_GOLDENS) == 16

    @pytest.mark.parametrize("name, seed", sorted(AUDIT_GOLDENS))
    def test_matches_per_pair_goldens(self, name, seed):
        pin = AUDIT_GOLDENS[name, seed]
        report = multiplicative_closure_check(_golden_model(name), samples=pin["samples"], seed=seed)
        assert (report.mult_closed_verdict, report.samples_tested) == (pin["mult_closed_verdict"],
                                                                      pin["samples_tested"])
        assert (report.span_dim, report.lie_closure_dim) == (pin["span_dim"], pin["lie_closure_dim"])
        assert [w.pair_index for w in report.witnesses] == [w["pair_index"] for w in pin["witnesses"]]
        np.testing.assert_allclose([w.residual for w in report.witnesses],
                                   [w["residual"] for w in pin["witnesses"]], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name, seed", [("hky", 7), ("hky", 2024), ("gtr", 7), ("gtr", 2024)])
    def test_witness_log_products_match_scipy(self, name, seed):
        sla = pytest.importorskip("scipy.linalg")
        report = multiplicative_closure_check(zoo_model(name), samples=150, seed=seed)
        assert report.witnesses
        for w in report.witnesses:
            ref = sla.logm(sla.expm(w.q) @ sla.expm(w.q_prime))
            assert np.abs(ref.imag).max() < 1e-12
            assert np.linalg.norm(w.log_product - ref.real, "fro") <= 1e-9 * np.linalg.norm(ref.real, "fro")

    @pytest.mark.parametrize("name", ["cyclic-6", "cyclic-8", "cyclic-10", "jc-pinned", "hky", "gtr"])
    def test_witnesses_match_the_batch_of_one_kernels(self, name):
        # Pair by pair, sample_with_rng, the audit's scaling, log_product and model_residual find
        # the witnesses the report keeps: none for the closed cyclic models, scaled pairs for gtr,
        # pairs tested as drawn for jc-pinned. A witness's q, q' and log-product are those bit for
        # bit. Its residual is the model's residual of that log-product, but the block's projection
        # may sum in another order, so it matches model_residual to a few ulps only.
        model, samples, seed = _golden_model(name), 150, 7
        failures = []
        for k in range(samples):
            q, q_prime = audit_pair(model, pair_rng(seed, k))
            logs = log_product(q, q_prime)
            residual = model_residual(model, logs)
            if residual > 1e-8:
                failures.append((k, q, q_prime, logs, residual))
        report = multiplicative_closure_check(model, samples=samples, seed=seed)
        keep = closure._select_witnesses(np.array([f[-1] for f in failures]))
        assert [w.pair_index for w in report.witnesses] == [failures[i][0] for i in keep]
        assert bool(report.witnesses) == (name not in ("cyclic-6", "cyclic-8", "cyclic-10"))
        for w, i in zip(report.witnesses, keep):
            _, q, q_prime, logs, residual = failures[i]
            for got, want in ((w.q, q), (w.q_prime, q_prime), (w.log_product, logs)):
                np.testing.assert_array_equal(got, want)
            assert abs(w.residual - residual) <= 4 * np.finfo(float).eps * w.residual

    def test_partially_exhausted_block_matches_the_batch_of_one_kernels(self, monkeypatch):
        # With six attempts per matrix, some pairs of the generic 4-state pair exhaust their streams
        # and the rest share one block with them. Pair by pair, a pair is untested exactly when
        # sample_with_rng raises, and the tested pairs find the witnesses the report keeps.
        monkeypatch.setattr(model_module, "_MAX_ATTEMPTS", 6)
        model = RateModel(name="generic-4", n=4, basis=tuple(_generic_pair(np.random.default_rng(3), 4)))
        samples, seed = 300, 7
        tested, failures = 0, []
        for k in range(samples):
            try:
                q, q_prime = audit_pair(model, pair_rng(seed, k))
            except SamplingError:
                continue
            tested += 1
            logs = log_product(q, q_prime)
            residual = model_residual(model, logs)
            if residual > 1e-8:
                failures.append((k, q, q_prime, logs, residual))
        assert samples / 2 < tested < samples
        report = multiplicative_closure_check(model, samples=samples, seed=seed)
        assert report.samples_tested == tested
        keep = closure._select_witnesses(np.array([f[-1] for f in failures]))
        assert report.witnesses
        assert [w.pair_index for w in report.witnesses] == [failures[i][0] for i in keep]
        for w, i in zip(report.witnesses, keep):
            _, q, q_prime, logs, residual = failures[i]
            for got, want in ((w.q, q), (w.q_prime, q_prime), (w.log_product, logs)):
                np.testing.assert_array_equal(got, want)
            # The span residual is ||(I - P) log||_F / max(||log||_F, 1), so it rounds to a few eps of
            # max(||log||_F, 1); these logs leave the span by under 1% of their norm, so a bound
            # relative to the residual itself would be far tighter than that rounding.
            assert abs(w.residual - residual) <= 4 * np.finfo(float).eps * max(np.linalg.norm(logs), 1.0)

    def test_mixed_block_skip_count(self):
        # k2p with alpha pinned at 0.02 and beta in [0.001, 0.3]: a pair with s <= 0.65 is tested
        # as drawn, and so is every other, since scaling moves q12. Some of those lie beyond the
        # log's radius. Recount with the batch-of-one kernels: a pair is skipped exactly when
        # log_product raises.
        model, samples, seed = _pinned_model("k2p", ((0.02, 0.02), (0.001, 0.3))), 80, 2024
        skipped, inside = 0, 0
        for k in range(samples):
            q, q_prime = audit_pair(model, pair_rng(seed, k))
            inside += np.linalg.norm(q, "fro") + np.linalg.norm(q_prime, "fro") <= 0.65
            try:
                log_product(q, q_prime)
            except PrincipalLogError:
                skipped += 1
        assert 0 < skipped < samples / 2 and inside
        report = multiplicative_closure_check(model, samples=samples, seed=seed)
        assert report.samples_tested == samples - skipped

    @pytest.mark.parametrize(
        "name, seed", [("hky", 7), ("gtr", 2024), ("cyclic-6", 7), ("cyclic-8", 2024), ("cyclic-8", 7)]
    )
    def test_block_size_does_not_change_the_report(self, name, seed, monkeypatch):
        model = _golden_model(name)

        def audit():
            try:
                return multiplicative_closure_check(model, samples=150, seed=seed).to_json()
            except RuntimeError as exc:
                return str(exc)

        whole = audit()
        monkeypatch.setattr(closure, "_PAIR_BLOCK", 7)
        assert audit() == whole

    @pytest.mark.parametrize("name", zoo_names())
    def test_audit_products_lie_inside_the_bch_bound(self, name):
        # Every product an audit block logs has ||Z||_F <= (e^s - 1) / (3 - e^s) <= 0.8442 for its
        # tested s <= 0.65, so none is refused. gtr's pairs all have s > 0.65 as drawn and are scaled.
        model = zoo_model(name)
        q, q_prime, _, sampled, ok = closure._log_product_block(
            model, 7, 1024, 1e-8, check_scaling_closure(model) is True)
        assert sampled.all() and ok.all()
        s = np.linalg.norm(q, axis=(1, 2)) + np.linalg.norm(q_prime, axis=(1, 2))
        assert s.max() <= 0.65 * (1 + 1e-15)
        p = np.stack([matrix_exp(a) @ matrix_exp(b) for a, b in zip(q, q_prime)])
        eye = np.eye(4)
        z = np.linalg.norm(np.linalg.inv(p + eye) @ (p - eye), axis=(1, 2))
        assert (z <= np.expm1(s) / (3.0 - np.exp(s)) + 1e-12).all()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-8, 1.0), max_size=40), st.lists(st.integers(1, 12), min_size=1, max_size=8))
    def test_witness_selection_by_block_matches_one_selection(self, residuals, sizes):
        def select_all(resid, cap=10):
            # The rule over every failure at once: the first, the worst, then the earliest others.
            if len(resid) <= cap:
                return list(range(len(resid)))
            chosen = {0, max(range(len(resid)), key=lambda i: resid[i])}
            for i in range(len(resid)):
                if len(chosen) >= cap:
                    break
                chosen.add(i)
            return sorted(chosen)

        resid = np.array(residuals)
        kept, start = [], 0
        for size in sizes * (len(resid) // sum(sizes) + 1):
            block = resid[start:start + size]
            kept.extend(start + closure._select_witnesses(block))
            start += size
        kept = np.array(kept, dtype=int)
        assert list(kept[closure._select_witnesses(resid[kept])]) == select_all(residuals)

    def test_stack_draws_match_sequential_draws_under_rejection(self):
        # Coefficient draws in [-1, 1]^2: three of four land outside the stochastic cone.
        model = RateModel(name="k2p-span", n=4, basis=zoo_model("k2p").basis)
        seed, count = 11, 40
        pairs, ok = _sample_stack(model, count, _SeedStreams(seed, count).random, 2)
        assert ok.all()
        for k in range(count):
            rng = pair_rng(seed, k)
            np.testing.assert_array_equal(pairs[k, 0], sample_with_rng(model, rng))
            np.testing.assert_array_equal(pairs[k, 1], sample_with_rng(model, rng))

    def test_two_candidate_draw_counts_attempts_per_matrix(self, monkeypatch):
        # With two attempts per matrix, a pair fails exactly when q or q' fails alone on its stream.
        monkeypatch.setattr(model_module, "_MAX_ATTEMPTS", 2)
        model = RateModel(name="k2p-span", n=4, basis=zoo_model("k2p").basis)
        seed, count = 3, 80
        pairs, ok = _sample_stack(model, count, _SeedStreams(seed, count).random, 2)
        slots = {"q": 0, "q_prime": 0}
        for k in range(count):
            rng = pair_rng(seed, k)
            expected = []
            try:
                expected.append(sample_with_rng(model, rng))
                expected.append(sample_with_rng(model, rng))
            except SamplingError:
                slots["q_prime" if expected else "q"] += 1
            assert ok[k] == (len(expected) == 2)
            for i in range(2):
                if i < len(expected):
                    np.testing.assert_array_equal(pairs[k, i], expected[i])
                else:
                    assert np.isnan(pairs[k, i]).all()
        # Both slots run out somewhere, and some pairs draw both.
        assert slots["q"] and slots["q_prime"] and ok.any()

    def test_exhausted_rows_fail_alone(self, monkeypatch):
        monkeypatch.setattr(model_module, "_MAX_ATTEMPTS", 2)
        model = RateModel(name="k2p-span", n=4, basis=zoo_model("k2p").basis)
        q, ok = _sample_stack(model, 40, _SeedStreams(5, 40).random)
        q = q[:, 0]
        assert 0 < ok.sum() < 40
        for k in range(40):
            rng = pair_rng(5, k)
            if ok[k]:
                np.testing.assert_array_equal(q[k], sample_with_rng(model, rng))
            else:
                assert np.isnan(q[k]).all()
                with pytest.raises(SamplingError, match="in 2 attempts"):
                    sample_with_rng(model, rng)

    @pytest.mark.parametrize("name", zoo_names())
    def test_row_convention_mirrors_column_convention(self, name, tmp_path):
        # A row-sum model file loads as the column-convention model, so it audits bit for bit alike.
        path = tmp_path / f"{name}-row.json"
        path.write_text(json.dumps(row_convention_doc(zoo_model(name))))
        column = multiplicative_closure_check(zoo_model(name), samples=80, seed=5)
        row = multiplicative_closure_check(load_model(path), samples=80, seed=5)
        assert (row.mult_closed_verdict, row.samples_tested) == (
            column.mult_closed_verdict, column.samples_tested)
        assert (row.span_dim, row.lie_closure_dim) == (column.span_dim, column.lie_closure_dim)
        assert [w.pair_index for w in row.witnesses] == [w.pair_index for w in column.witnesses]
        for r, c in zip(row.witnesses, column.witnesses):
            for got, want in ((r.q, c.q), (r.q_prime, c.q_prime), (r.log_product, c.log_product)):
                np.testing.assert_array_equal(got, want)
            assert r.residual == c.residual
        assert row.to_json() == column.to_json()


class TestClosureDims:
    def test_computed_once_per_model(self, monkeypatch):
        # Audits at other seeds, sample counts and tolerances read the model's one span, built at
        # seed 0, and its one algebra record, the saturation of that span. Their dimensions are
        # span_basis's and lie_closure's at that seed.
        calls = []
        rows, saturate = model_module._span_rows, closure._saturate

        def counted_rows(model, seed):
            calls.append(seed)
            return rows(model, seed)

        def counted_saturate(gens):
            calls.append("saturate")
            return saturate(gens)

        monkeypatch.setattr(model_module, "_span_rows", counted_rows)
        monkeypatch.setattr(closure, "_saturate", counted_saturate)
        for name in zoo_names():
            model = zoo_model(name)
            reports = [multiplicative_closure_check(model, samples=samples, seed=seed, tol=tol)
                       for samples, seed, tol in ((20, 3, 1e-8), (7, 2024, 1e-6), (50, 0, 1e-10))]
            assert calls == [0, "saturate"]
            base = span_basis(model)
            dims = (len(base), len(lie_closure(base)))
            assert all((r.span_dim, r.lie_closure_dim) == dims for r in reports)
            calls.clear()

    def test_pickle_drops_the_memo(self):
        # A copy is rebuilt from the model's fields. It holds only what construction fills, each
        # value built afresh: a parameterized model's residual, which judges its parameterization,
        # with a span model's span or a constraint model's compiled values, which that reads.
        memos = {"_span", "_algebra", "_residual", "_constraint_values"}
        span = RateModel("lm88-span", 4, basis=zoo_model("lm88").basis)
        for model, built in ((zoo_model("gtr"), {"_residual", "_constraint_values"}),
                             (zoo_model("lm88"), {"_residual", "_span"}), (span, set())):
            assert memos & set(vars(model)) == built
            multiplicative_closure_check(model, samples=5, seed=1)
            assert memos & set(vars(model)) == built | {"_span", "_algebra", "_residual"}
            copy = pickle.loads(pickle.dumps(model))
            assert memos & set(vars(copy)) == built
            assert not any(vars(copy)[k] is vars(model)[k] for k in built)


class TestConcurrency:
    def test_threaded_audits_match_serial(self):
        # Calls share no module state, so running them side by side cannot change a result. The
        # threads share one model per zoo name and one per zoo span with no parameterization, so
        # several audits race to fill the sampled models' spans, the basis-only models' residuals
        # and every model's record.
        def audit(model, seed):
            return multiplicative_closure_check(model, samples=60, seed=seed).to_json()

        def reference_kappas():
            return kappa_witness(log_product(*reference_pair()))

        def models():
            zoo = [zoo_model(name) for name in zoo_names()]
            # Basis-only copies of the span models fill their residual and its span on first use.
            return zoo + [RateModel(f"{m.name}-span", 4, basis=m.basis) for m in zoo if m.basis]

        seeds = (3, 8, 13, 21)
        serial = [audit(model, seed) for model in models() for seed in seeds]
        serial += [reference_kappas()] * 8
        shared = models()
        tasks = [partial(audit, model, seed) for model in shared for seed in seeds]
        tasks += [reference_kappas] * 8
        # Construction fills only what judging a parameterization reads; the rest is left to the race.
        assert not any("_algebra" in vars(model) for model in shared)
        assert not any("_span" in vars(model) for model in shared if not model.basis)
        assert not any({"_span", "_residual"} & set(vars(model)) for model in shared if not model.parameterization)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda task: task(), tasks, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_derived_values_share_no_lock_across_models(self, monkeypatch):
        # A basis-only span model's residual reads its span, and hky's span samples hky, which reads
        # nothing else of hky: not its residual, dropped here so that a read would take the
        # residual's lock. One thread builds hky's span while another builds the span model's
        # residual; with one lock per property for all models (functools.cached_property before
        # Python 3.12), a span that read its residual would leave each thread waiting for the other.
        build = model_module._span_rows
        building, entered = threading.Event(), threading.Event()

        def slow(model, seed):
            if model.name == "hky":
                building.set()
                entered.wait(10)
                time.sleep(0.2)  # the other thread is now inside the span model's residual
            return build(model, seed)

        monkeypatch.setattr(model_module, "_span_rows", slow)
        hky, span = zoo_model("hky"), RateModel("jc-span", 4, basis=zoo_model("jc").basis)
        del vars(hky)["_residual"]

        def residual():
            building.wait(10)
            entered.set()
            return span._residual

        threads = [threading.Thread(target=lambda: hky._span, daemon=True),
                   threading.Thread(target=residual, daemon=True)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert "_span" in vars(hky) and {"_span", "_residual"} <= set(vars(span))
