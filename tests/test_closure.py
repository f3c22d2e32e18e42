import logging
from functools import reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemarkov import (
    ClosureReport,
    ProductChain,
    bch_truncated,
    chain_substitution_matrix,
    commutator,
    exact_rank,
    f81_model,
    frobenius,
    gtr_model,
    hky,
    hky_model,
    jc_model,
    k2p_model,
    kappa_witness,
    least_squares_membership,
    lie_closure,
    lm88,
    lm88_model,
    log_closure_sample,
    log_product,
    matrix_exp,
    membership,
    model_residual,
    multiplicative_closure_check,
    sample_stochastic,
    span_basis,
    zoo_model,
    zoo_names,
)
from liemarkov.zoo import REFERENCE_LOG_PRODUCT

from conftest import make_rate_matrix


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


def _cyclic_blowup_model():
    """Span model whose samples are enormous cyclic generators.

    exp(Qt) of such a generator has eigenvalue magnitudes below the
    principal-branch margin for all but vanishing durations, so log
    extraction reliably fails.
    """
    from liemarkov import RateModel

    cycle = np.zeros((4, 4))
    for i in range(4):
        cycle[(i + 1) % 4, i] = 1.0
    np.fill_diagonal(cycle, -1.0)
    return RateModel(name="blowup", n=4, basis=(1e6 * cycle,))


class TestProductChain:
    def test_empty_chain_is_identity(self):
        chain = ProductChain((), n=4)
        np.testing.assert_array_equal(chain_substitution_matrix(chain), np.eye(4))

    def test_empty_chain_needs_order(self):
        with pytest.raises(ValueError, match="order"):
            chain_substitution_matrix(ProductChain(()))

    def test_repeated_link_is_one_parameter_semigroup(self, reference_pair_q):
        q1, _ = reference_pair_q
        chain = ProductChain(((q1, 1.0), (q1, 1.0)))
        np.testing.assert_allclose(
            chain_substitution_matrix(chain), matrix_exp(2.0 * q1), atol=1e-14
        )

    def test_reference_chain_matches_log_product(self, reference_pair_q):
        # The stored reference matrix carries ~7 digits, so its exp can
        # only agree with the true product to the rounding level.
        q1, q2 = reference_pair_q
        chain = ProductChain(((q1, 1.0), (q2, 1.0)))
        np.testing.assert_allclose(
            chain_substitution_matrix(chain),
            matrix_exp(np.asarray(REFERENCE_LOG_PRODUCT)),
            rtol=0.0,
            atol=1e-7,
        )

    def test_negative_duration_rejected(self, reference_pair_q):
        with pytest.raises(ValueError, match="non-negative"):
            ProductChain(((reference_pair_q[0], -1.0),))

    def test_mixed_orders_rejected(self, reference_pair_q):
        with pytest.raises(ValueError, match="same order"):
            ProductChain(((reference_pair_q[0], 1.0), (np.zeros((3, 3)), 1.0)))


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

    def test_invalid_order(self, reference_pair_q):
        q1, q2 = reference_pair_q
        for order in (0, 4, -1):
            with pytest.raises(ValueError, match="order"):
                bch_truncated(q1, q2, order)

    def test_order_three_error_is_fourth_order(self, reference_pair_q):
        q1, q2 = reference_pair_q
        ts = [0.5 * 2.0 ** -k for k in range(7)]
        errs = [
            frobenius(log_product(t * q1, t * q2) - bch_truncated(t * q1, t * q2, 3))
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
        model = hky_model()
        for elem in log_closure_sample(model, chain_length=1, samples=20, seed=3):
            assert membership(model, elem, 1e-8).in_r

    def test_hky_chain_two_escapes(self):
        model = hky_model()
        elems = log_closure_sample(model, chain_length=2, samples=50, seed=11)
        assert any(not membership(model, e, 1e-8).in_r for e in elems)

    def test_lm88_chain_two_stays(self):
        model = lm88_model()
        elems = log_closure_sample(model, chain_length=2, samples=50, seed=11)
        assert all(membership(model, e, 1e-8).in_r for e in elems)

    def test_zero_column_sums(self):
        for e in log_closure_sample(hky_model(), chain_length=3, samples=20, seed=5):
            assert np.abs(e.sum(axis=0)).max() <= 1e-9

    def test_deterministic(self):
        a = log_closure_sample(hky_model(), 2, 5, seed=1)
        b = log_closure_sample(hky_model(), 2, 5, seed=1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_all_chains_skipped(self):
        # Huge cyclic rates push exp(Qt) eigenvalues inside the rejection
        # margin around the negative axis, so every chain is skipped.
        with pytest.raises(RuntimeError, match="principal logarithm"):
            log_closure_sample(_cyclic_blowup_model(), chain_length=2, samples=10, seed=0)


class TestLieClosure:
    def test_single_generator_is_abelian(self):
        q = sample_stochastic(jc_model(), 0)
        assert len(lie_closure([q])) == 1

    def test_commuting_basis_closure_is_span(self):
        basis = k2p_model().basis
        for x in basis:
            for y in basis:
                assert frobenius(commutator(x, y)) <= 1e-14
        assert len(lie_closure(list(basis))) == 2

    def test_rejects_nonzero_sums(self):
        with pytest.raises(ValueError, match="zero-sum"):
            lie_closure([np.eye(4)])

    def test_idempotent(self):
        closed = lie_closure(list(lm88_model().basis))
        again = lie_closure(closed)
        assert len(again) == len(closed)

    def test_monotone_and_bracket_closed(self):
        basis = span_basis(hky_model(), seed=0)
        closed = lie_closure(basis)
        for b in basis:
            assert least_squares_membership(b, closed, 1e-10).inside
        for i, x in enumerate(closed):
            for y in closed[i + 1:]:
                assert least_squares_membership(commutator(x, y), closed, 1e-8).inside

    def test_f81_matches_exact_saturation_oracle(self):
        # Oracle: saturation in integer arithmetic with exact rational
        # rank, fully independent of the SVD pipeline.
        basis = [np.asarray(b) for b in f81_model().basis]
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


class TestMultiplicativeClosure:
    def test_jc_closed(self):
        report = multiplicative_closure_check(jc_model(), samples=20, seed=1)
        assert report.mult_closed_verdict == "closed"
        assert report.span_dim == report.lie_closure_dim == 1
        assert report.ambient_dim == 12
        assert report.witnesses == ()

    def test_lm88_closed(self):
        report = multiplicative_closure_check(lm88_model(), samples=30, seed=2)
        assert report.mult_closed_verdict == "closed"
        assert report.span_dim == report.lie_closure_dim == 8

    def test_hky_not_closed(self):
        report = multiplicative_closure_check(hky_model(), samples=30, seed=42)
        assert report.mult_closed_verdict == "not_closed"
        assert report.witnesses
        worst = max(w.residual for w in report.witnesses)
        assert worst > report.tolerance
        assert len(report.witnesses) <= 10

    def test_gtr_not_closed(self):
        report = multiplicative_closure_check(gtr_model(), samples=40, seed=3)
        assert report.mult_closed_verdict == "not_closed"

    def test_gtr_witness_against_scipy_oracle(self):
        # Independent oracle: scipy's expm/logm and direct evaluation of
        # the cycle conditions, no liemarkov kernels involved.
        sla = pytest.importorskip("scipy.linalg")
        model = gtr_model()
        found = None
        for seed in range(40):
            q = sample_stochastic(model, 2 * seed)
            qp = sample_stochastic(model, 2 * seed + 1)
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

        model = hky_model()
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
        a = multiplicative_closure_check(hky_model(), samples=25, seed=9)
        b = multiplicative_closure_check(hky_model(), samples=25, seed=9)
        assert a.to_json() == b.to_json()

    def test_report_serialization_fields(self):
        report = multiplicative_closure_check(hky_model(), samples=10, seed=42)
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
            multiplicative_closure_check(_cyclic_blowup_model(), samples=10, seed=0)

    def test_bracket_extraction_limit(self):
        # (2/eps^2)(log(e^{eQ} e^{eQ'}) - eQ - eQ') converges to [Q, Q'].
        eps = 1e-3
        for name in ("hky", "lm88", "gtr"):
            model = {"hky": hky_model, "lm88": lm88_model, "gtr": gtr_model}[name]()
            q = sample_stochastic(model, 0)
            qp = sample_stochastic(model, 1)
            bracket = commutator(q, qp)
            approx = (2.0 / eps ** 2) * (
                log_product(eps * q, eps * qp) - eps * q - eps * qp
            )
            assert frobenius(approx - bracket) <= 1e-4 * frobenius(bracket) + 1e-10


class TestTheoremDirections:
    def test_closed_models_contain_their_log_closure(self):
        # Forward direction, numerically: models audited as closed keep
        # all sampled log-closure elements inside their span.
        for builder in (jc_model, f81_model, k2p_model, lm88_model):
            model = builder()
            report = multiplicative_closure_check(model, samples=20, seed=4)
            assert report.mult_closed_verdict == "closed"
            for elem in log_closure_sample(model, chain_length=3, samples=50, seed=4):
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
        for c in hky_model().constraints:
            total = sympy.Integer(0)
            for coeff, monomial in c.terms:
                term = sympy.Float(coeff)
                for i, j in monomial:
                    term *= q[i - 1, j - 1]
                total += term
            assert sympy.simplify(total) == 0
