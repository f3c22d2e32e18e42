import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial, reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemarkov import (
    ClosureReport,
    PrincipalLogError,
    RateModel,
    SamplingError,
    bch_truncated,
    commutator,
    hky,
    kappa_witness,
    least_squares_membership,
    lie_closure,
    lm88,
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
from liemarkov import closure, linalg
from liemarkov import model as model_module
from liemarkov.model import _SeedStreams, _sample_stack
from liemarkov.zoo import REFERENCE_LOG_PRODUCT, reference_pair

from audit_goldens import AUDIT_GOLDENS
from bracket_loop import lie_closure_loop
from conftest import chain_logs, make_rate_matrix, row_convention_doc
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


def _exact_floats(mats):
    # Integers below 2**53 convert to float exactly, so exact_rank sees them unrounded.
    assert all(abs(int(x)) < 2 ** 53 for m in mats for x in m.flat)
    return [m.astype(float) for m in mats]


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
    assert exact_rank(_exact_floats(kept)) == len(kept)
    assert exact_rank(_exact_floats(kept + gens + brackets)) == len(kept)
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


def _cyclic_model(scale=1e6):
    """Span model whose samples are multiples of scale times a 4-cycle generator.

    A pair's product is exp(s C) with s up to 2 * scale. Its complex
    eigenvalues shrink like exp(-s) and its real one like exp(-2s), so
    the product is ill-conditioned, and the principal log fails once
    that real eigenvalue comes within the branch margin of zero (s
    above about 13.8). At the default scale, log extraction reliably
    fails; at scale 6 no pair fails, at scale 8 a few in a hundred, at
    scale 10 about a fifth.
    """
    cycle = np.zeros((4, 4))
    for i in range(4):
        cycle[(i + 1) % 4, i] = 1.0
    np.fill_diagonal(cycle, -1.0)
    return RateModel(name="cyclic", n=4, basis=(scale * cycle,))


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
        assert chain_logs(_cyclic_model(), chain_length=2, samples=10, seed=0) == []


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
        with pytest.raises(ValueError, match="zero-sum"):
            lie_closure([np.eye(4)])

    def test_idempotent(self):
        closed = lie_closure(list(zoo_model("lm88").basis))
        again = lie_closure(closed)
        assert len(again) == len(closed)

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

    @pytest.mark.parametrize("name, dim", [
        ("jc", 1), ("k2p", 2), ("f81", 4), ("hky", 8), ("lm88", 8), ("gtr", 12),
    ])
    def test_zoo_closure_dimension_and_bracket_closure(self, name, dim):
        base = span_basis(zoo_model(name), seed=0)
        closed = lie_closure(base)
        assert len(closed) == dim
        _assert_closed_basis(closed, base, 1e-12)

    def test_rank_gap_logged(self, caplog):
        inputs = [span_basis(zoo_model(name), seed=0) for name in zoo_names()]
        inputs += [_kronecker_pair(seed, 4, 4) for seed in (0, 4, 6, 13)]
        inputs += [list(_generic_pair(np.random.default_rng(n), n)) for n in range(3, 15)]
        for gens in inputs:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="liemarkov.closure"):
                closed = lie_closure(gens)
            (record,) = [r for r in caplog.records if r.getMessage().startswith("lie_closure")]
            _, dims, accepted, rejected = record.args
            assert dims[-1] == len(closed)
            # At least three decades between the kept and the dropped directions.
            assert accepted >= 1e3 * rejected


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


class TestSpanBasis:
    def test_declared_basis_gives_fresh_arrays(self):
        model = zoo_model("lm88")
        first = span_basis(model)
        residual = model_residual(model, REFERENCE_LOG_PRODUCT)
        for b in first:
            assert b.flags.writeable
            b[...] = 7.0
        for b, ref in zip(span_basis(model), orthonormal_basis(model.basis)):
            np.testing.assert_array_equal(b, ref)
        assert model_residual(model, REFERENCE_LOG_PRODUCT) == residual
        assert all(not b.flags.writeable for b in model.basis)

    def test_declared_basis_runs_no_svd_per_call(self, monkeypatch):
        model = zoo_model("f81")
        monkeypatch.setattr(np.linalg, "svd", None)
        assert len(span_basis(model)) == 4

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
        from liemarkov import sample_with_rng

        model = zoo_model("hky")
        samples, seed, tol = 150, 42, 1e-8
        failures = []
        for index in range(samples):
            rng = np.random.default_rng(seed + index)
            q = sample_with_rng(model, rng)
            qp = sample_with_rng(model, rng)
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
        with pytest.raises(RuntimeError, match="half"):
            multiplicative_closure_check(_cyclic_model(), samples=10, seed=0)

    def test_majority_failure_names_its_cause(self):
        # The 12-state equal-input basis: its box sampler accepts about 2^-12 of its draws.
        n = 12
        basis = np.zeros((n, n, n))
        for i in range(n):
            basis[i, i] = 1.0
            basis[i, i, i] = 0.0
            basis[i][np.arange(n), np.arange(n)] = -basis[i].sum(axis=0)
        model = RateModel(name="equal-input", n=n, basis=tuple(basis))
        with pytest.raises(RuntimeError, match="half of the 20 sampled pairs failed, mostly by sampler exhaustion"):
            multiplicative_closure_check(model, samples=20, seed=42)
        with pytest.raises(RuntimeError, match="mostly by a missing principal logarithm: 0 sampler exhaustions and 6 without"):
            multiplicative_closure_check(_cyclic_model(), samples=10, seed=0)

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
        q = hky(0.02, 0.01, 0.005, 0.009, 1.5)
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

    def test_zero_denominator(self):
        q = lm88(0.0, 0.01, 0.01, 0.01, 0.02, 0.02, 0.02, 0.02)
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
        return _cyclic_model(float(name.split("-")[1]))
    return zoo_model(name)


class TestBatchedAudit:
    """The block audit against the per-pair audit it replaced, scipy, and sequential draws."""

    @pytest.mark.parametrize("name, seed", sorted(AUDIT_GOLDENS))
    def test_matches_per_pair_goldens(self, name, seed):
        verdict, tested, span_dim, lie_dim, indices, residuals = AUDIT_GOLDENS[name, seed]
        report = multiplicative_closure_check(_golden_model(name), samples=150, seed=seed)
        assert (report.mult_closed_verdict, report.samples_tested) == (verdict, tested)
        assert (report.span_dim, report.lie_closure_dim) == (span_dim, lie_dim)
        assert [w.pair_index for w in report.witnesses] == indices
        np.testing.assert_allclose([w.residual for w in report.witnesses], residuals, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name, seed", [("hky", 7), ("hky", 2024), ("gtr", 7), ("gtr", 2024)])
    def test_witness_log_products_match_scipy(self, name, seed):
        sla = pytest.importorskip("scipy.linalg")
        report = multiplicative_closure_check(zoo_model(name), samples=150, seed=seed)
        assert report.witnesses
        for w in report.witnesses:
            ref = sla.logm(sla.expm(w.q) @ sla.expm(w.q_prime))
            assert np.abs(ref.imag).max() < 1e-12
            assert np.linalg.norm(w.log_product - ref.real, "fro") <= 1e-9 * np.linalg.norm(ref.real, "fro")

    def test_mixed_block_skip_count(self):
        # Recount with the batch-of-one kernels: a pair is skipped exactly when log_product raises.
        model, samples, seed = _cyclic_model(10.0), 80, 2024
        skipped = 0
        for k in range(samples):
            rng = np.random.default_rng(seed + k)
            q, q_prime = sample_with_rng(model, rng), sample_with_rng(model, rng)
            try:
                log_product(q, q_prime)
            except PrincipalLogError:
                skipped += 1
        assert 0 < skipped < samples / 2
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

    def test_hky_products_take_no_square_root(self, monkeypatch):
        # Their ||P - I||_F stays under the 0.75 series radius, so the log needs no Denman-Beavers.
        calls, sqrtm = [], linalg._sqrtm_denman_beavers

        def spy(m, *args):
            calls.append(len(m))
            return sqrtm(m, *args)

        monkeypatch.setattr(linalg, "_sqrtm_denman_beavers", spy)
        model = zoo_model("hky")
        *_, ok = closure._log_product_block(model, 7, 200)
        assert ok.all()
        assert calls == []

    @pytest.mark.parametrize("name", ["hky", "lm88", "f81", "k2p", "jc"])
    def test_products_within_the_radius_skip_the_branch_guard(self, name, monkeypatch):
        # The guard runs only on rows that need a square root, and these products need none.
        calls, guard = [], linalg._branch_distance

        def spy(m):
            calls.append(len(m))
            return guard(m)

        monkeypatch.setattr(linalg, "_branch_distance", spy)
        *_, ok = closure._log_product_block(zoo_model(name), 7, 200)
        assert ok.all()
        assert calls == []

    @pytest.mark.parametrize("name", ["hky", "lm88", "f81", "k2p", "jc"])
    def test_products_within_the_radius_skip_the_disc_certificate(self, name, monkeypatch):
        # With no row pending a square root, the certificate does not run at all.
        calls, clear = [], linalg._gershgorin_clear

        def spy(m):
            calls.append(len(m))
            return clear(m)

        monkeypatch.setattr(linalg, "_gershgorin_clear", spy)
        *_, ok = closure._log_product_block(zoo_model(name), 7, 200)
        assert ok.all()
        assert calls == []

    def test_gtr_guard_sees_only_rows_the_discs_leave_in_doubt(self, monkeypatch):
        calls, guard = [], linalg._branch_distance

        def spy(m):
            calls.append(m.copy())
            return guard(m)

        monkeypatch.setattr(linalg, "_branch_distance", spy)
        q, q_prime, _, sampled, ok = closure._log_product_block(zoo_model("gtr"), 7, 1024)
        assert sampled.all() and ok.all()
        products = np.stack([matrix_exp(a) @ matrix_exp(b) for a, b in zip(q, q_prime)])
        pending = np.linalg.norm(products - np.eye(4), axis=(1, 2)) > 0.75
        # Gershgorin, written out: every column disc, or every row disc, clears 1e-6.
        diag = np.diagonal(products, axis1=1, axis2=2)
        by_columns = (2 * diag - np.abs(products).sum(axis=1) > 1e-6).all(axis=1)
        by_rows = (2 * diag - np.abs(products).sum(axis=2) > 1e-6).all(axis=1)
        doubtful = pending & ~(by_columns | by_rows)
        # Nearly every gtr product needs a square root; only a few percent reach eigvals.
        assert pending.sum() >= 1000
        assert 0 < doubtful.sum() < 0.05 * len(products)
        assert len(calls) == 1
        np.testing.assert_allclose(calls[0], products[doubtful], rtol=0, atol=1e-15)

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
        streams, rows = _SeedStreams(seed, count), np.arange(count)
        q, ok = _sample_stack(model, rows, streams.random)
        q_prime, ok_prime = _sample_stack(model, rows, streams.random)
        assert ok.all() and ok_prime.all()
        for k in range(count):
            rng = np.random.default_rng(seed + k)
            np.testing.assert_array_equal(q[k], sample_with_rng(model, rng))
            np.testing.assert_array_equal(q_prime[k], sample_with_rng(model, rng))

    def test_exhausted_rows_fail_alone(self, monkeypatch):
        monkeypatch.setattr(model_module, "_MAX_ATTEMPTS", 2)
        model = RateModel(name="k2p-span", n=4, basis=zoo_model("k2p").basis)
        q, ok = _sample_stack(model, np.arange(40), _SeedStreams(5, 40).random)
        assert 0 < ok.sum() < 40
        for k in range(40):
            rng = np.random.default_rng(5 + k)
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


class TestConcurrency:
    def test_threaded_audits_match_serial(self):
        # Calls share no module state, so running them side by side cannot change a result.
        def audit(name, seed):
            return multiplicative_closure_check(zoo_model(name), samples=60, seed=seed).to_json()

        def reference_kappas():
            return kappa_witness(log_product(*reference_pair()))

        tasks = [partial(audit, name, seed) for name in zoo_names() for seed in (3, 8)]
        tasks += [reference_kappas] * 8
        serial = [task() for task in tasks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda task: task(), tasks, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
