
import json
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liemarkov import (
    Membership,
    PrincipalLogError,
    ModelFormatError,
    PolynomialConstraint,
    RateModel,
    SamplingError,
    check_scaling_closure,
    is_in_L,
    is_stochastic_rate,
    log_product,
    membership,
    model_from_dict,
    model_residual,
    model_to_dict,
    multiplicative_closure_check,
    sample_with_rng,
    zoo_model,
    zoo_names,
)
from liemarkov.closure import _MAX_WITNESSES
from liemarkov import closure as closure_module
from liemarkov import model as model_module
from liemarkov.model import _SeedStreams, _sample_stochastic_stack, load_model
from liemarkov.zoo import REFERENCE_LOG_PRODUCT

from conftest import (
    audit_pair, equal_input_doc, make_rate_matrix, pair_rng, row_convention_doc, zoo_generator,
)


def by_hand(c, q):
    """Per-term product and sum in declaration order, starting from 0.0."""
    total = 0.0
    for coeff, monomial in c.terms:
        prod = coeff
        for i, j in monomial:
            prod *= q[i - 1, j - 1]
        total += prod
    return total


def q12_constraint(value=1.0):
    # q12 - value = 0: inhomogeneous unless value is 0.
    return PolynomialConstraint(((1.0, ((1, 2),)), (-value, ())))


class TestPolynomialConstraint:
    def test_evaluate_linear(self):
        c = PolynomialConstraint(((1.0, ((1, 3),)), (-1.0, ((1, 4),))))
        q = np.arange(16.0).reshape(4, 4)
        assert c.evaluate(q) == q[0, 2] - q[0, 3]
        assert c.degree == 1
        assert c.homogeneous

    def test_evaluate_quadratic(self):
        c = PolynomialConstraint(((1.0, ((1, 2), (2, 3))), (-1.0, ((2, 1), (1, 3)))))
        q = np.arange(1.0, 17.0).reshape(4, 4)
        assert c.evaluate(q) == q[0, 1] * q[1, 2] - q[1, 0] * q[0, 2]
        assert c.degree == 2

    def test_constant_term_marks_inhomogeneous(self):
        c = q12_constraint()
        assert not c.homogeneous
        assert c.degree == 1

    def test_rejects_diagonal_indices(self):
        with pytest.raises(ValueError, match="off-diagonal"):
            PolynomialConstraint(((1.0, ((2, 2),)),))

    @pytest.mark.parametrize("pair", [(1, 2.7), (1.0, 2), (True, 2), ("1", 2)])
    def test_indices_must_be_integers(self, pair):
        # Truncation would read 2.7 as 2 and True as 1.
        with pytest.raises(ValueError, match="constraint monomials must be pairs of integers"):
            PolynomialConstraint(((1.0, (pair,)),))

    def test_numpy_integer_indices_are_stored_as_int(self):
        c = PolynomialConstraint(((1.0, ((np.int64(1), np.int32(2)),)),))
        assert c.terms == ((1.0, ((1, 2),)),)
        assert all(type(i) is int for i in c.terms[0][1][0])

    def test_index_out_of_range(self):
        c = PolynomialConstraint(((1.0, ((1, 4),)),))
        with pytest.raises(IndexError, match="out of range"):
            c.evaluate(np.zeros((3, 3)))
        # A model rejects the index when it is built, so no evaluation of it can reach the IndexError.
        with pytest.raises(ValueError, match=r"\(1, 4\) out of range for order 3"):
            RateModel(name="short", n=3, constraints=(q12_constraint(0.0), c))

    @pytest.mark.parametrize("name", ["hky", "gtr"])
    @pytest.mark.parametrize("scale", [1e-6, 1e-2, 1.0, 1e3])
    def test_compiled_values_equal_hand_sum(self, name, scale):
        model = zoo_model(name)
        rng = np.random.default_rng(0)
        for _ in range(25):
            q = scale * rng.normal(size=(4, 4))
            expected = [by_hand(c, q) for c in model.constraints]
            assert [c.evaluate(q) for c in model.constraints] == expected

    @pytest.mark.parametrize("name", ["hky", "gtr"])
    def test_constraint_major_values_equal_hand_sums(self, name):
        # The compiled evaluator gives one row per constraint and one column per matrix, each entry the
        # hand sum bit for bit; the residual divides each by ||q||_F to its degree, as a product of norms.
        model = zoo_model(name)
        rng = np.random.default_rng(11)
        stack = np.concatenate([
            _sample_stochastic_stack(model, 5, 40),
            rng.normal(size=(40, 4, 4)) * 10.0 ** rng.integers(-8, 4, size=(40, 1, 1)),
            np.zeros((1, 4, 4)),
        ])
        values = model._constraint_values(stack)
        assert values.shape == (len(model.constraints), len(stack))
        np.testing.assert_array_equal(values, [[by_hand(c, q) for q in stack] for c in model.constraints])
        expected = []
        for q in stack:
            nrm = float(np.sqrt(q.ravel() @ q.ravel())) or 1.0
            scaled = []
            for c in model.constraints:
                power = 1.0
                for _ in range(c.degree):
                    power *= nrm
                scaled.append(abs(by_hand(c, q)) / power)
            expected.append(max(scaled))
        np.testing.assert_array_equal(model._residual(stack), expected)

    def test_constant_and_mixed_degree_terms(self):
        c = PolynomialConstraint(
            ((2.5, ((1, 2), (2, 3))), (-0.75, ()), (1.0, ((3, 1),)), (-3.0, ((1, 3), (2, 1), (3, 2))))
        )
        model = RateModel(name="mixed", n=3, constraints=(c, q12_constraint(0.2)))
        rng = np.random.default_rng(3)
        for _ in range(25):
            q = rng.normal(size=(3, 3))
            assert c.evaluate(q) == by_hand(c, q)
            assert [f.evaluate(q) for f in model.constraints] == [by_hand(c, q), by_hand(q12_constraint(0.2), q)]
        assert PolynomialConstraint(((4.0, ()),)).evaluate(np.zeros((2, 2))) == 4.0
        assert PolynomialConstraint(()).evaluate(np.ones((2, 2))) == 0.0

    @pytest.mark.parametrize("alpha", [0.25, 2.0, 10.0])
    def test_residual_scales_with_degree(self, alpha):
        model = zoo_model("hky")
        q = sample_with_rng(model, np.random.default_rng(5))
        base = [c.evaluate(q + 0.01) for c in model.constraints]  # push off the variety
        scaled = [c.evaluate(alpha * (q + 0.01)) for c in model.constraints]
        for c, f0, f1 in zip(model.constraints, base, scaled):
            assert f1 == pytest.approx(alpha ** c.degree * f0, abs=1e-10)


class TestPredicates:
    def test_zero_in_L(self):
        assert is_in_L(np.zeros((4, 4)))

    def test_identity_not_in_L(self):
        assert not is_in_L(np.eye(4))

    def test_reference_generator_in_L(self, reference_pair_q):
        assert is_in_L(reference_pair_q[0], tol=1e-15)

    def test_stochastic_rate(self, reference_pair_q):
        q1, _ = reference_pair_q
        assert is_stochastic_rate(q1)
        assert not is_stochastic_rate(-q1)
        assert is_stochastic_rate(REFERENCE_LOG_PRODUCT, tol=1e-12)

    def test_stochastic_implies_zero_sums(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rng.normal(size=(4, 4))
            if is_stochastic_rate(q, 1e-9):
                assert is_in_L(q, 1e-9)

    def test_row_convention(self):
        # Library matrices keep zero column sums; a row-sum generator is not in L.
        q = zoo_generator("hky", 0.02, 0.01, 0.005, 0.009, 1.5).T
        assert abs(q.sum(axis=1)).max() <= 1e-15
        assert not is_in_L(q, 1e-12)
        assert is_in_L(q.T, 1e-15)


class TestStackPredicates:
    def test_predicates_act_per_matrix(self):
        rng = np.random.default_rng(3)
        params = rng.uniform(0.001, 0.05, size=(6, 5))
        stack = np.stack([zoo_generator("hky", *p) for p in params])
        stack[2] = -stack[2]  # zero sums, negative off-diagonals
        stack[4, 0, 1] += 1e-3  # breaks a generator sum
        ins = is_in_L(stack)
        rates = is_stochastic_rate(stack)
        assert ins.shape == rates.shape == (6,)
        assert list(ins) == [is_in_L(q) for q in stack]
        assert list(rates) == [is_stochastic_rate(q) for q in stack]
        assert list(rates) == [True, True, False, True, False, True]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 21, 34, 61])
    def test_predicates_agree_with_the_axis_reduction(self, n):
        # Column sums added row by row are q.sum(axis=-2) bit for bit, so both predicates decide as
        # np.max(np.abs(q.sum(axis=-2)), axis=-1) <= tol does: with a scalar tol, a per-row tol, and
        # sums exactly at tol or one ulp past it. zoo's diagonal fill uses the same sums.
        from liemarkov.model import _column_sums
        from liemarkov.zoo import _with_diagonal

        rng = np.random.default_rng(n)
        q = np.stack([make_rate_matrix(rng, n) for _ in range(20)] + list(rng.normal(size=(10, n, n))))
        q *= 10.0 ** rng.integers(-6, 4, size=(len(q), 1, 1))
        np.testing.assert_array_equal(_column_sums(q), q.sum(axis=-2))
        diag, off_diagonal = np.arange(n), np.where(np.eye(n, dtype=bool), 0.0, q)
        np.testing.assert_array_equal(_with_diagonal(q)[:, diag, diag], -off_diagonal.sum(axis=-2))
        worst = np.max(np.abs(q.sum(axis=-2)), axis=-1)
        off = np.min(q[:, ~np.eye(n, dtype=bool)], axis=-1)
        for tol in (1e-12, float(np.median(worst[:20])), worst, np.nextafter(worst, 0.0), -off):
            assert is_in_L(q, tol).tolist() == (worst <= tol).tolist()
            assert is_stochastic_rate(q, tol).tolist() == ((worst <= tol) & (off >= -tol)).tolist()
        assert is_in_L(q, worst).all() and not is_in_L(q, np.nextafter(worst, 0.0))[worst > 0].any()

    def test_stochastic_rate_validates_the_stack_once(self, monkeypatch):
        calls = []
        check_stack = model_module.check_stack
        monkeypatch.setattr(model_module, "check_stack", lambda q: calls.append(1) or check_stack(q))
        assert is_stochastic_rate(np.zeros((3, 4, 4))).all()
        assert len(calls) == 1


class TestEvaluateConstraints:
    def test_own_samples_satisfy_constraints(self):
        model = zoo_model("hky")
        for seed in range(5):
            q = sample_with_rng(model, np.random.default_rng(seed))
            assert max(abs(c.evaluate(q)) for c in model.constraints) <= 1e-15

    def test_reference_log_product_breaks_quadratics_only(self):
        model = zoo_model("hky")
        resids = [c.evaluate(REFERENCE_LOG_PRODUCT) for c in model.constraints]
        linear = resids[:4]
        quadratic = resids[4:]
        assert max(abs(r) for r in linear) <= 1e-6
        assert max(abs(r) for r in quadratic) > 1e-6

    def test_zero_matrix_zero_residuals(self):
        model = zoo_model("hky")
        assert [c.evaluate(np.zeros((4, 4))) for c in model.constraints] == [0.0] * 10


class TestMembership:
    def test_hky_member(self):
        model = zoo_model("hky")
        q2 = zoo_generator("hky", 0.03, 0.01, 0.006, 0.008, 1.4)
        assert membership(model, q2)[:2] == (True, True)

    def test_reference_log_product_not_in_hky(self):
        res = membership(zoo_model("hky"), REFERENCE_LOG_PRODUCT)
        assert res.in_r is False
        assert res.in_r_plus is False
        assert res.residual > 1e-5

    def test_reference_log_product_in_lm88(self):
        res = membership(zoo_model("lm88"), REFERENCE_LOG_PRODUCT, tol=1e-6)
        assert res.in_r and res.in_r_plus
        assert res.residual <= 1e-6

    def test_scale_invariance(self):
        model = zoo_model("hky")
        q = sample_with_rng(model, np.random.default_rng(3))
        outside = np.asarray(REFERENCE_LOG_PRODUCT)
        for alpha in (0.5, 2.0, 10.0, 1000.0):
            assert membership(model, alpha * q).in_r
            assert not membership(model, alpha * outside).in_r

    def test_requires_basis_or_constraints(self):
        with pytest.raises(ValueError, match="model 'bare' must declare a basis or constraints"):
            RateModel(name="bare", n=4, parameterization="jc", parameter_ranges=((0.0, 1.0),))

    def test_namedtuple_unpacks(self):
        in_r, in_r_plus, residual = membership(zoo_model("hky"), np.zeros((4, 4)))
        assert isinstance(Membership(in_r, in_r_plus, residual), Membership)
        assert residual == 0.0

    @pytest.mark.parametrize("name", zoo_names())
    def test_residual_is_model_residual(self, name):
        model = zoo_model(name)
        rng = np.random.default_rng(11)
        for q in [sample_with_rng(model, np.random.default_rng(8)), np.asarray(REFERENCE_LOG_PRODUCT),
                  make_rate_matrix(rng, 4, max_norm=3.0)]:
            for tol in (1e-10, 1e-8, 1e-3):
                res = membership(model, q, tol)
                assert res.residual == model_residual(model, q)
                assert res.in_r == (model_residual(model, q) <= tol)

    @pytest.mark.parametrize("name", zoo_names())
    def test_agrees_with_the_audit(self, name):
        # Ten pairs never exceed the witness cap, so every failing pair is a witness.
        model, samples = zoo_model(name), _MAX_WITNESSES
        for seed in (5, 15, 25):
            report = multiplicative_closure_check(model, samples=samples, seed=seed)
            witnesses = {w.pair_index for w in report.witnesses}
            for w in report.witnesses:
                assert membership(model, w.log_product).in_r is False
            passed = 0
            for k in set(range(samples)) - witnesses:
                # Pair k of an audit draws q, then q', from stream k of the seed, and scales them.
                q, q_prime = audit_pair(model, pair_rng(seed, k))
                try:
                    log = log_product(q, q_prime)
                except PrincipalLogError:
                    continue
                assert membership(model, log).in_r is True
                passed += 1
            assert passed == report.samples_tested - len(witnesses)


class TestScalingClosure:
    def test_hky_scales(self):
        assert check_scaling_closure(zoo_model("hky"))

    def test_span_models_scale(self):
        for name in ("jc", "f81", "k2p", "lm88"):
            assert check_scaling_closure(zoo_model(name))

    def test_span_model_with_an_inhomogeneous_constraint_scales(self):
        # The basis decides membership and a span is a cone, so the constraint q13^2 - q13 = 0, which
        # both k2p basis matrices satisfy, cannot leave scaling undecided.
        square = PolynomialConstraint(((1.0, ((1, 3), (1, 3))), (-1.0, ((1, 3),))))
        model = RateModel(name="k2p-inhom", n=4, basis=zoo_model("k2p").basis, constraints=(square,))
        assert check_scaling_closure(model) is True

    def test_inhomogeneous_constraint_fails(self):
        # An inhomogeneous constraint leaves the question open: q12 = 1 is no cone, but see below.
        model = RateModel(name="pinned", n=4, constraints=(q12_constraint(),))
        assert check_scaling_closure(model) is None

    def test_inhomogeneous_constraint_may_define_a_cone(self):
        # q12^2 + q12 = 0 holds on the stochastic cone (q12 >= 0) exactly when q12 = 0, a cone: a
        # member and five times it both have residual 0, so the answer cannot be False.
        square = PolynomialConstraint(((1.0, ((1, 2), (1, 2))), (1.0, ((1, 2),))))
        model = RateModel(name="q12-zero", n=3, constraints=(square,))
        assert check_scaling_closure(model) is None
        q = np.array([[-1.0, 0.0, 2.0], [0.5, -1.0, 1.0], [0.5, 1.0, -3.0]])
        assert model_residual(model, q) == model_residual(model, 5.0 * q) == 0.0


class TestSampling:
    def test_deterministic(self):
        a = sample_with_rng(zoo_model("hky"), np.random.default_rng(1))
        b = sample_with_rng(zoo_model("hky"), np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)
        c = sample_with_rng(zoo_model("hky"), np.random.default_rng(2))
        assert np.abs(a - c).max() > 0

    def test_samples_are_members(self):
        for name in zoo_names():
            model = zoo_model(name)
            for seed in range(100):
                q = sample_with_rng(model, np.random.default_rng(seed))
                assert is_stochastic_rate(q, 1e-12)
                assert membership(model, q)[:2] == (True, True)

    def test_single_basis_cone(self):
        q0 = zoo_generator("jc", 0.02)
        model = RateModel(name="ray", n=4, basis=(q0,))
        q = sample_with_rng(model, np.random.default_rng(9))
        coeff = q[0, 1] / q0[0, 1]
        assert coeff > 0
        np.testing.assert_allclose(q, coeff * q0, atol=1e-15)

    def test_unsamplable_model(self):
        model = RateModel(name="bare", n=4, constraints=(q12_constraint(0.0),))
        with pytest.raises(SamplingError):
            sample_with_rng(model, np.random.default_rng(0))

    def test_draws_just_off_the_span_are_rejected(self, monkeypatch):
        # jc's generator plus 1e-8 times a unit zero-sum direction orthogonal to jc's span: every
        # draw is a stochastic rate matrix with model residual 1e-8, above the 1e-10 it must meet.
        jc = zoo_model("jc")
        fn, n_params = model_module.get_parameterization("jc")
        leak = np.zeros((4, 4))
        leak[0, 1], leak[1, 1], leak[0, 2], leak[2, 2] = 0.5, -0.5, -0.5, 0.5
        monkeypatch.setitem(model_module._PARAMETERIZATIONS, "jc-leaky", (lambda p: fn(p) + 1e-8 * leak, n_params))
        model = RateModel(name="jc-leaky", n=4, basis=jc.basis, parameterization="jc-leaky",
                          parameter_ranges=jc.parameter_ranges)
        q = fn(np.array([[0.02]]))[0] + 1e-8 * leak
        assert is_stochastic_rate(q, 1e-12)
        assert model_residual(model, q) == pytest.approx(1e-8, rel=1e-6)
        with pytest.raises(SamplingError, match="failed 1000 times"):
            sample_with_rng(model, np.random.default_rng(0))

    def test_unreachable_cone(self):
        # Zero-sum basis matrix with off-diagonal entries of both signs:
        # no nonzero multiple is a rate matrix.
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        bad[1, 1] = -1.0
        bad[0, 2] = -1.0
        bad[2, 2] = 1.0
        model = RateModel(name="stuck", n=4, basis=(bad,))
        with pytest.raises(SamplingError, match="attempts"):
            sample_with_rng(model, np.random.default_rng(0))


# Philox keys: anywhere in [0, 2**128), at the edges of its two 64-bit words, and around 2**64.
_KEYS = st.one_of(
    st.integers(0, 2**128 - 1),
    st.sampled_from((0, 2**64 - 1, 2**64, 2**128 - 1)),
    st.integers(2**64 - 20, 2**64 + 20),
)


def _stream_words(seed, k, offset, m):
    """Doubles offset .. offset + m - 1 of stream k of seed, read from numpy's own Philox."""
    return pair_rng(seed, k).random(offset + m)[offset:]


class TestSeedStreams:
    """Row k of _SeedStreams(seed, count, start) is stream start + k of seed, pair_rng(seed, start + k)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=_KEYS, count=st.integers(1, 12), start=st.sampled_from((0, 1024, 2**40)), data=st.data())
    def test_rows_match_default_rng(self, seed, count, start, data):
        streams = _SeedStreams(seed, count, start)
        subsets = st.permutations(range(count)).flatmap(lambda p: st.integers(0, count).map(lambda size: p[:size]))
        widths = st.one_of(st.integers(0, 9), st.integers(0, 640))
        for _ in range(data.draw(st.integers(1, 4))):
            # Draws over row subsets in any order, each at any offset: no call depends on another.
            rows, offset, m = data.draw(subsets), data.draw(st.integers(0, 700)), data.draw(widths)
            out = streams.random(np.array(rows, dtype=int), offset, m)
            assert out.shape == (len(rows), m)
            for r, k in enumerate(rows):
                np.testing.assert_array_equal(out[r], _stream_words(seed, start + k, offset, m))

    @pytest.mark.parametrize("m", [1, 2, 7, 20, 64, 640])
    @pytest.mark.parametrize("seed", [5, 2**32 - 3, 2**64 - 2])
    def test_jumps_match_default_rng(self, seed, m):
        # Offsets at a block start, at each of the three mid-block skips, and past 60 000 words,
        # as deep as an exhausted n = 61 stream reads; the same call twice gives the same words.
        count = 6
        streams = _SeedStreams(seed, count)
        for rows, offset in (([4, 1], 0), (list(range(count)), 1), ([1], 6), ([5, 0, 1], 7), ([3], 61_003)):
            out = streams.random(np.array(rows), offset, m)
            assert out.shape == (len(rows), m)
            np.testing.assert_array_equal(streams.random(np.array(rows), offset, m), out)
            for r, k in enumerate(rows):
                np.testing.assert_array_equal(out[r], _stream_words(seed, k, offset, m))

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_key_range_raises(self, seed):
        # numpy's Philox refuses the same keys.
        with pytest.raises(ValueError):
            pair_rng(seed, 0)
        message = rf"seed must be in \[0, 2\*\*128\), got {seed}$"
        with pytest.raises(ValueError, match=message):
            _SeedStreams(seed, 4)
        with pytest.raises(ValueError, match=message):
            multiplicative_closure_check(zoo_model("hky"), samples=3, seed=seed)
        # No row, no seed to check.
        assert _SeedStreams(seed, 0).random(np.arange(0), 5, 3).shape == (0, 3)

    def test_constants_are_unsigned_arrays(self):
        # Under NEP 50 an op with a Python integer beyond the dtype raises OverflowError; with
        # a uint array it wraps. Scalars would warn on overflow, so every constant is an array,
        # built once and read-only, since every stream and every call shares it. The instance
        # holds only its round keys and stream ids: no call writes a word position back.
        streams = _SeedStreams(7, 3)
        for value in (model_module._PHILOX_M, model_module._M_LO, model_module._M_HI,
                      model_module._LOW32, model_module._U64_11, model_module._U64_32, streams.keys,
                      streams.stream):
            assert isinstance(value, np.ndarray) and value.dtype == np.uint64
            assert not value.flags.writeable
        # numpy's own Philox4x64 multipliers, and the key of round 0, low word first.
        assert model_module._PHILOX_M.ravel().tolist() == [0xD2E7470EE14C6C93, 0xCA5A826395121157]
        assert streams.keys.shape == (10, 2) and streams.keys[0].tolist() == [7, 0]
        assert set(vars(streams)) == {"keys", "stream"}
        assert streams.stream.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64 + 5, 2**128 - 1])
    def test_round_keys_follow_the_weyl_schedule(self, seed):
        # Round r's key is the seed's two 64-bit words, low first, each plus r times numpy's
        # Philox4x64 Weyl increment for its word, mod 2**64; computed here in Python ints. r times
        # either increment passes 2**64 from r = 2 on, and a word of 2**64 - 1 wraps from r = 1.
        increments = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
        words = (seed % 2**64, seed // 2**64)
        expected = [[(word + r * inc) % 2**64 for word, inc in zip(words, increments)] for r in range(10)]
        assert _SeedStreams(seed, 1).keys.tolist() == expected

    @pytest.mark.parametrize("seed, count", [(2**128 - 1, 3), (2**64 - 1, 1), (0, 1), (2**32 - 2, 4)])
    def test_wraparound_emits_no_warning(self, seed, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _SeedStreams(seed, count).random(np.arange(count), 3, 5)
        for k in range(count):
            np.testing.assert_array_equal(out[k], _stream_words(seed, k, 3, 5))

    @pytest.mark.parametrize("name", ["hky", "gtr", "k2p-span"])
    def test_stack_rows_are_seeded_draws(self, name):
        # k2p's basis coefficients in [-1, 1]^2 are rejected three times in four, so rows redraw.
        model = (RateModel(name=name, n=4, basis=zoo_model("k2p").basis) if name == "k2p-span"
                 else zoo_model(name))
        seed = 2**32 - 10
        mats = _sample_stochastic_stack(model, seed, 20)
        for k in range(20):
            expected = sample_with_rng(model, pair_rng(seed, k))
            np.testing.assert_array_equal(mats[k], expected)

    @pytest.mark.parametrize("seed", [7, -1])
    @pytest.mark.parametrize("count", [0, -2])
    def test_stack_of_no_rows_is_empty(self, seed, count):
        assert _sample_stochastic_stack(zoo_model("hky"), seed, count).shape == (0, 4, 4)


class TestModelValidation:
    def test_constraint_index_beyond_order_is_a_format_error(self):
        doc = {"name": "short", "n": 3, "constraints": [{"terms": [{"coeff": 1.0, "monomial": [[1, 4]]}]}]}
        with pytest.raises(ModelFormatError, match=r"\(1, 4\) out of range"):
            model_from_dict(doc)

    def test_basis_must_be_zero_sum(self):
        # A column sum of 1e-8 is beyond the check's 1e-10 max(1, ||q||_F) for jc's generator.
        for offset in (1.0, 1e-8):
            with pytest.raises(ValueError, match="zero generator sums"):
                RateModel(name="bad", n=4, basis=(zoo_model("jc").basis[0] + offset * np.eye(4)[0],))

    def test_basis_must_satisfy_constraints(self):
        q0 = zoo_generator("jc", 1.0)
        ok = RateModel(
            name="ok", n=4, basis=(q0,),
            constraints=(PolynomialConstraint(((1.0, ((1, 2),)), (-1.0, ((1, 3),)))),),
        )
        assert ok.basis
        with pytest.raises(ValueError, match="satisfy"):
            RateModel(name="bad", n=4, basis=(q0,), constraints=(q12_constraint(0.5),))

    def test_range_count_must_match_the_parameterization(self):
        hky4 = zoo_model("hky")
        message = "declares 3 ranges but parameterization 'hky' takes 5"
        with pytest.raises(ValueError, match=message):
            RateModel(name="hky", n=4, constraints=hky4.constraints, parameterization="hky",
                      parameter_ranges=hky4.parameter_ranges[:3])
        doc = model_to_dict(hky4)
        doc["parameter_ranges"] = doc["parameter_ranges"][:3]
        with pytest.raises(ModelFormatError, match=message):
            model_from_dict(doc)

    def test_bare_model_is_refused_at_construction(self):
        # Such a model could do nothing: its residual, sampler and audit would all raise.
        with pytest.raises(ValueError, match="model 'bare' must declare a basis or constraints"):
            RateModel(name="bare", n=4)

    @pytest.mark.parametrize("n, shown", [(4.0, "4.0"), (True, "True"), ("4", "'4'")])
    def test_order_must_be_an_integer(self, n, shown):
        # A float order used to build from constraints and fail in every residual.
        message = f"model order n must be an integer, got {shown}"
        with pytest.raises(ValueError, match=message):
            RateModel(name="x", n=n, constraints=zoo_model("hky").constraints)
        with pytest.raises(ValueError, match=message):
            RateModel(name="x", n=n, basis=(zoo_generator("jc", 1.0),))

    def test_numpy_integer_order_is_stored_as_int(self):
        model = RateModel(name="x", n=np.int64(4), basis=(zoo_generator("jc", 1.0),))
        assert type(model.n) is int
        doc = model_to_dict(model)
        assert type(doc["n"]) is int
        again = model_from_dict(json.loads(json.dumps(doc)))
        assert again.n == 4 and model_to_dict(again) == doc

    @pytest.mark.parametrize("fields", [
        {"parameterization": "jc"},
        {"parameter_ranges": ((0.0, 1.0),)},
    ])
    def test_parameterization_and_ranges_come_together(self, fields):
        with pytest.raises(ValueError, match="parameterization and parameter_ranges together"):
            RateModel(name="x", n=4, basis=(zoo_generator("jc", 1.0),), **fields)

    def test_unknown_parameterization_is_refused_at_construction(self):
        # Without ranges it used to build, and its exported file did not load again.
        with pytest.raises(ValueError):
            RateModel(name="x", n=4, basis=(zoo_generator("jc", 1.0),), parameterization="nope")
        with pytest.raises(ValueError, match="unknown parameterization 'nope'"):
            RateModel(name="x", n=4, basis=(zoo_generator("jc", 1.0),), parameterization="nope",
                      parameter_ranges=((0.0, 1.0),))

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_ranges_must_be_finite(self, bound):
        # An infinite range used to load, and every draw from it then held non-finite entries.
        doc = model_to_dict(zoo_model("jc"))
        doc["parameter_ranges"] = [[0.001, bound]] if bound > 0 else [[bound, 0.05]]
        with pytest.raises(ModelFormatError, match="parameter_ranges must be finite"):
            model_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("ranges", [5, ((0.0, 1.0, 2.0),), ((0.0,),), (("a", 1.0),)])
    def test_ranges_must_be_pairs(self, ranges):
        with pytest.raises(ValueError, match="parameter_ranges must be"):
            RateModel(name="x", n=4, basis=(zoo_generator("jc", 1.0),), parameterization="jc",
                      parameter_ranges=ranges)

    def test_model_residual_matches_membership(self):
        model = zoo_model("hky")
        q = sample_with_rng(model, np.random.default_rng(4))
        assert model_residual(model, q) <= 1e-12
        assert model_residual(model, REFERENCE_LOG_PRODUCT) > 1e-8


class TestCompiledOnce:
    def test_compiled_once_on_first_use(self, monkeypatch):
        # Construction compiles only the constraint values, which it checks; the algebra record (the
        # span's SVD and its saturation) and the residual wait for their first use, and audits,
        # membership and sampling never redo them.
        calls = []

        def spy(module, name):
            compile_fn = getattr(module, name)

            def counted(*args):
                calls.append(name)
                return compile_fn(*args)

            monkeypatch.setattr(module, name, counted)

        spy(closure_module, "_algebra_at")
        spy(model_module, "_compile_constraints")
        for name in zoo_names():
            model = zoo_model(name)
            built = ["_compile_constraints"] * bool(model.constraints)
            assert calls == built
            assert not {"_algebra", "_residual"} & set(vars(model))
            q = sample_with_rng(model, np.random.default_rng(1))
            residual = vars(model)["_residual"]
            for seed in (3, 4):
                multiplicative_closure_check(model, samples=20, seed=seed)
                assert membership(model, q).in_r and model_residual(model, q) <= 1e-10
                sample_with_rng(model, np.random.default_rng(seed))
            assert vars(model)["_residual"] is residual
            assert calls == built + ["_algebra_at"]
            calls.clear()

    def test_large_basis_model_builds_without_its_projector(self):
        # The n = 61 equal-input model. Its n^2 x n^2 residual projector alone would take
        # 106 MiB, and building a model or writing it out reads neither that nor its algebra record.
        n = 61
        basis = np.reshape(equal_input_doc(n)["basis"], (n, n, n))
        tracemalloc.start()
        try:
            model = RateModel(name="equal-input-61", n=n, basis=tuple(basis))
            doc = model_to_dict(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert len(doc["basis"]) == n
        assert not {"_algebra", "_residual"} & set(vars(model))

    def test_raw_values_compile_once_per_constraint(self):
        # evaluate is the batch-of-one case of the constraint compiler. A constraint is a plain
        # frozen value, so a used one pickles and compares like a fresh one.
        compile_fn = model_module._compile_constraints
        model = model_from_dict(model_to_dict(zoo_model("hky")))
        q = sample_with_rng(model, np.random.default_rng(4))
        first = [c.evaluate(q) for c in model.constraints]
        for seed in range(3):
            p = sample_with_rng(model, np.random.default_rng(seed))
            assert [c.evaluate(p) for c in model.constraints] == [
                float(compile_fn(4, (c,))(p[None])[0, 0]) for c in model.constraints]
        assert [c.evaluate(q) for c in model.constraints] == first
        copies = pickle.loads(pickle.dumps(model.constraints))
        assert copies == model.constraints
        assert [c.evaluate(q) for c in copies] == first

    @pytest.mark.parametrize("name", zoo_names())
    def test_pickle_rebuilds_the_model(self, name):
        model = zoo_model(name)
        copy = pickle.loads(pickle.dumps(model))
        assert model_to_dict(copy) == model_to_dict(model)
        q = sample_with_rng(model, np.random.default_rng(5))
        assert model_residual(copy, REFERENCE_LOG_PRODUCT) == model_residual(model, REFERENCE_LOG_PRODUCT)
        np.testing.assert_array_equal(sample_with_rng(copy, np.random.default_rng(5)), q)


class TestModelFiles:
    @pytest.mark.parametrize("name", ["hky", "lm88", "jc", "f81", "k2p", "gtr"])
    def test_round_trip(self, name, tmp_path):
        model = zoo_model(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(model_to_dict(model)))
        loaded = load_model(path)
        assert loaded.name == model.name and loaded.n == model.n
        assert len(loaded.basis) == len(model.basis)
        for a, b in zip(loaded.basis, model.basis):
            np.testing.assert_array_equal(a, b)
        assert tuple(c.terms for c in loaded.constraints) == tuple(
            c.terms for c in model.constraints
        )
        assert loaded.parameterization == model.parameterization
        assert loaded.parameter_ranges == model.parameter_ranges
        np.testing.assert_array_equal(
            sample_with_rng(loaded, np.random.default_rng(0)), sample_with_rng(model, np.random.default_rng(0))
        )

    def test_flat_row_major_basis(self):
        doc = model_to_dict(zoo_model("jc"))
        q0 = zoo_generator("jc", 1.0)
        assert doc["basis"][0] == [float(x) for x in q0.reshape(-1)]

    def test_convention_conversion(self):
        # A row-sum file's basis is transposed into the column convention at load.
        original = zoo_model("lm88")
        doc = row_convention_doc(original)
        loaded = model_from_dict(doc)
        assert len(loaded.basis) == len(original.basis) == 8
        for flat, a, b in zip(doc["basis"], loaded.basis, original.basis):
            np.testing.assert_array_equal(np.reshape(flat, (4, 4)), b.T)
            np.testing.assert_array_equal(a, b)
        assert model_to_dict(loaded) == model_to_dict(original)

    def test_constraint_indices_transpose(self):
        # A row-sum file's monomials (i, j) become (j, i) at load.
        original = zoo_model("hky")
        doc = row_convention_doc(original)
        assert doc["constraints"][0]["terms"][0]["monomial"] == [[3, 1]]
        loaded = model_from_dict(doc)
        q = zoo_generator("hky", 0.02, 0.01, 0.005, 0.009, 1.5)
        assert max(abs(c.evaluate(q)) for c in loaded.constraints) <= 1e-15
        for m in [q, REFERENCE_LOG_PRODUCT, *np.random.default_rng(6).normal(size=(5, 4, 4))]:
            assert [c.evaluate(m) for c in loaded.constraints] == [c.evaluate(m) for c in original.constraints]
        assert model_to_dict(loaded) == model_to_dict(original)

    def test_unknown_convention(self):
        doc = model_to_dict(zoo_model("jc"))
        doc["convention"] = "diagonal"
        with pytest.raises(ModelFormatError, match="unknown convention 'diagonal'"):
            model_from_dict(doc)

    def test_missing_basis_and_constraints(self):
        with pytest.raises(ModelFormatError, match="basis or constraints"):
            model_from_dict({"name": "x", "n": 4})

    def test_unknown_parameterization(self):
        doc = model_to_dict(zoo_model("jc"))
        doc["parameterization"] = "nope"
        with pytest.raises(ModelFormatError, match="unknown parameterization"):
            model_from_dict(doc)

    def test_wrong_entry_count(self):
        with pytest.raises(ModelFormatError, match="entries"):
            model_from_dict({"name": "x", "n": 4, "basis": [[0.0, 1.0]]})

    def test_diagonal_constraint_index(self):
        doc = {
            "name": "x",
            "n": 4,
            "constraints": [{"terms": [{"coeff": 1.0, "monomial": [[2, 2]]}]}],
        }
        with pytest.raises(ModelFormatError, match="off-diagonal"):
            model_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("name", None),
        ("basis", 5),
        ("constraints", 5),
        ("constraints", [{"terms": [{"monomial": [[1, 2]]}]}]),
        ("parameter_ranges", 5),
        ("parameter_ranges", [[0.001, 0.05, 0.1]]),
    ])
    def test_malformed_field_is_named(self, field, value):
        doc = model_to_dict(zoo_model("jc"))
        doc[field] = value
        with pytest.raises(ModelFormatError, match=field):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", [4.9, 4.0, "4", True])
    def test_n_must_be_a_json_integer(self, value):
        doc = model_to_dict(zoo_model("jc"))
        doc["n"] = value
        with pytest.raises(ModelFormatError, match="field 'n'"):
            model_from_dict(doc)

    @pytest.mark.parametrize("index", [2.7, 1.0, True, "2"])
    def test_constraint_index_must_be_a_json_integer(self, index):
        # hky's first term is [[1, 3]]; truncation would load [[2.7, 3]] as (2, 3) and [[True, 3]] as (1, 3).
        doc = model_to_dict(zoo_model("hky"))
        doc["constraints"][0]["terms"][0]["monomial"] = [[index, 3]]
        with pytest.raises(ModelFormatError, match="field 'constraints'"):
            model_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_basis_entries_must_be_finite(self, entry):
        doc = model_to_dict(zoo_model("jc"))
        doc["basis"][0][1] = entry
        # JSON's NaN, Infinity and -Infinity literals load as floats.
        with pytest.raises(ModelFormatError, match="basis: matrix entries must be finite"):
            model_from_dict(json.loads(json.dumps(doc)))
        bad = zoo_generator("jc", 1.0)
        bad[0, 1] = entry
        with pytest.raises(ValueError, match="basis: matrix entries must be finite"):
            RateModel(name="x", n=4, basis=(bad,))

    def test_missing_name(self):
        doc = model_to_dict(zoo_model("jc"))
        del doc["name"]
        with pytest.raises(ModelFormatError, match="'name' is missing or null"):
            model_from_dict(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model(path)
