
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
    span_basis,
    zoo_model,
    zoo_names,
)
from liemarkov.closure import _MAX_WITNESSES
from liemarkov import closure as closure_module
from liemarkov import model as model_module
from liemarkov.model import _SeedStreams, _sample_stochastic_stack, load_model
from liemarkov.zoo import _ZOO, REFERENCE_LOG_PRODUCT

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
        # One check, where the constraints are compiled: an evaluation and a model get the same error.
        c = PolynomialConstraint(((1.0, ((1, 4),)),))
        with pytest.raises(ValueError, match=r"^constraint index \(1, 4\) out of range for order 3$"):
            c.evaluate(np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"^constraint index \(1, 4\) out of range for order 3$"):
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
        # hand sum bit for bit; the residual takes the hand sums at unit scale, q / ||q||_F (a zero q as
        # it is), bit for bit.
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
            unit = q / (float(np.sqrt(q.ravel() @ q.ravel())) or 1.0)
            expected.append(max(abs(by_hand(c, unit)) for c in model.constraints))
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
        # The column sums are q.sum(axis=-2) bit for bit, so both predicates decide as
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


class TestResidualAtAnyScale:
    """Closure does not depend on the units of time, so q and c q get one residual at every finite scale."""

    @staticmethod
    def gtr_non_member():
        # Off-diagonals uniform from default_rng(3), the diagonal filling zero column sums, ||q||_F = 1.
        q = np.random.default_rng(3).uniform(size=(4, 4))
        np.fill_diagonal(q, 0.0)
        q -= np.diag(q.sum(axis=0))
        return q / np.linalg.norm(q)

    def test_a_non_member_stays_out_at_every_scale(self):
        # A power of the norm used to overflow: the residual read 0.0 at 1e103, a member, and NaN from
        # 1e104 on.
        model, q = zoo_model("gtr"), self.gtr_non_member()
        base = model_residual(model, q)
        assert base > 1e-3
        for k in (0, 50, 102, 103, 104, 200, 300):
            res = membership(model, q * 10.0 ** k)
            assert res.residual == pytest.approx(base, rel=1e-12, abs=0.0)
            assert res.in_r is False

    @pytest.mark.parametrize("name, scales", [
        # Powers of the norm overflowed: gtr's cubic terms from 1e104 on, hky's quadratic ones from 1e155.
        ("hky", (1e104, 1e155, 1e300)),
        ("gtr", (1e104, 1e155, 1e300)),
        # The span residual stayed finite, but its norm warned when ||q||_F^2 overflowed, past 1.3e154.
        ("lm88", (1.4e154, 1e300)),
    ])
    def test_a_member_stays_in_at_every_scale_without_a_warning(self, name, scales):
        model = zoo_model(name)
        q = sample_with_rng(model, np.random.default_rng(1))
        q /= np.linalg.norm(q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in scales:
                assert model_residual(model, scale * q) <= 1e-12

    def test_a_norm_beyond_the_largest_double_is_not_a_member(self):
        # ||q||_F is inf, and q / inf would be 0, a member: the residual is NaN instead.
        q = np.arange(16.0).reshape(4, 4) * 1e307
        for name in ("hky", "gtr"):
            res = membership(zoo_model(name), q)
            assert res.in_r is False and math.isnan(res.residual)

    def test_homogeneous_rows_at_unit_scale_and_inhomogeneous_rows_at_q(self):
        # q13 - q14 = 0 is homogeneous and q12 - 0.2 = 0 is not: the residual is the larger of the
        # first's hand sum at q / ||q||_F and the second's at q, bit for bit.
        same = PolynomialConstraint(((1.0, ((1, 3),)), (-1.0, ((1, 4),))))
        model = RateModel(name="mixed", n=4, constraints=(same, q12_constraint(0.2)))
        rng = np.random.default_rng(4)
        stack = np.array([make_rate_matrix(rng, 4, max_norm=1.0) * 10.0 ** e for e in rng.uniform(-3, 3, 40)])
        expected = []
        for q in stack:
            unit = q / float(np.sqrt(q.ravel() @ q.ravel()))
            expected.append(max(abs(by_hand(same, unit)), abs(by_hand(q12_constraint(0.2), q))))
        np.testing.assert_array_equal(model._residual(stack), expected)


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
        # Constraints alone, no parameterization: every draw ends at the sampler's one gate.
        model = RateModel(name="bare", n=4, constraints=(q12_constraint(0.0),))
        for draw in (lambda: sample_with_rng(model, np.random.default_rng(0)),
                     lambda: multiplicative_closure_check(model, samples=3),
                     lambda: span_basis(model, seed=0),
                     lambda: span_basis(model, seed=3)):
            with pytest.raises(SamplingError, match="^model 'bare' has no parameterization or basis to sample$"):
                draw()

    def test_a_bad_seed_is_refused_before_the_gate(self):
        # The streams are keyed before the sampler is reached.
        model = RateModel(name="bare", n=4, constraints=(q12_constraint(0.0),))
        for draw in (lambda: multiplicative_closure_check(model, samples=3, seed=-1),
                     lambda: span_basis(model, seed=-1)):
            with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*128\), got -1$"):
                draw()

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


def _jc_doc(parameterization, ranges):
    """jc's model file with another parameterization and its ranges."""
    return {**model_to_dict(zoo_model("jc")), "parameterization": parameterization, "parameter_ranges": ranges}


class TestLanding:
    """A parameterization is judged once, when its model is built, and its draws never again."""

    @pytest.mark.parametrize("name, width", [("k2p", 2), ("gtr", 10)])
    def test_a_parameterization_that_misses_its_model_is_refused(self, name, width):
        # k2p's and gtr's generators lie in jc's span only where their rates are all equal. The
        # message names the parameterization and the model, from Python and from a model file.
        fn, _ = model_module.get_parameterization(name)
        jc = zoo_model("jc")
        message = f"parameterization '{name}' does not land in model 'jc'"
        with pytest.raises(ValueError, match=message):
            RateModel("jc", 4, basis=jc.basis, parameterization=name, parameter_ranges=((0.2, 0.6),) * width)
        with pytest.raises(ModelFormatError, match=message):
            model_from_dict(_jc_doc(name, [[0.2, 0.6]] * width))
        # On the diagonal of its box, where every rate is equal, a k2p or gtr draw is a jc matrix.
        assert model_residual(jc, fn(np.full((1, width), 0.3))[0]) <= 1e-15

    def test_a_parameterization_that_raises_is_refused_with_its_error(self):
        # The parameterization's own error follows the landing message: gtr with every frequency
        # weight at zero, and jc's 4-state map on a 3-state basis.
        gtr = zoo_model("gtr")
        with pytest.raises(ValueError, match="parameterization 'gtr' does not land in model 'gtr' on its "
                                             "parameter_ranges: frequency weights must not all be zero"):
            RateModel("gtr", 4, constraints=gtr.constraints, parameterization="gtr",
                      parameter_ranges=gtr.parameter_ranges[:6] + ((0.0, 0.0),) * 4)
        with pytest.raises(ValueError, match="parameterization 'jc' does not land in model 'three' on its "
                                             "parameter_ranges: matrix order does not match the model"):
            RateModel("three", 3, basis=(np.ones((3, 3)) - 3 * np.eye(3),), parameterization="jc",
                      parameter_ranges=((0.001, 0.05),))

    def test_a_range_a_landing_point_takes_below_zero_is_refused(self):
        with pytest.raises(ModelFormatError, match=r"parameter_ranges must be non-negative, got \(-0.05, 0.05\)"):
            model_from_dict(_jc_doc("jc", [[-0.05, 0.05]]))

    @pytest.mark.parametrize("name, lo", [("jc", -0.01), ("k2p", -1e-300), ("hky", -0.001)])
    def test_a_range_below_zero_is_refused_where_every_landing_point_is_not(self, name, lo):
        # Every landing point of [lo, 0.05] lies above zero, so the range used to build, and its
        # first negative draw raised the parameterization's error mid-audit.
        model = zoo_model(name)
        width = model_module.get_parameterization(name)[1]
        ranges = ((lo, 0.05),) + model.parameter_ranges[1:]
        assert (lo + (0.05 - lo) * model_module._landing_points(width)[:, 0] > 0).all()
        with pytest.raises(ValueError, match=rf"parameter_ranges must be non-negative, got \({lo}, 0.05\)"):
            RateModel(name, model.n, model.basis, model.constraints, name, ranges)
        RateModel(name, model.n, model.basis, model.constraints, name, ((0.0, 0.05),) + model.parameter_ranges[1:])

    @pytest.mark.parametrize("name, parameter", [("jc", "mu"), ("k2p", "beta"), ("f81", "alpha_c"),
                                                 ("hky", "kappa"), ("lm88", "kappa_2"), ("gtr", "w_c")])
    def test_a_negative_lower_bound_of_any_parameter_is_refused_on_load(self, name, parameter):
        # The range check is the one check of a parameter's sign: the zoo's builder takes a negative
        # parameter as given, and would fill a negative rate.
        doc = model_to_dict(zoo_model(name))
        column = _ZOO[name].parameters.index(parameter)
        lo, hi = -1e-3, doc["parameter_ranges"][column][1]
        doc["parameter_ranges"][column][0] = lo
        with pytest.raises(ModelFormatError, match=rf"^parameter_ranges must be non-negative, got \({lo}, {hi}\)$"):
            model_from_dict(doc)
        fn, width = model_module.get_parameterization(name)
        p = np.full((1, width), 0.3)
        p[0, column] = lo
        assert not is_stochastic_rate(fn(p)[0])

    def test_a_parameterization_just_off_the_span_is_refused(self, monkeypatch):
        # jc's generator plus 1e-8 times a unit zero-sum direction orthogonal to jc's span: every
        # draw is a stochastic rate matrix with model residual 1e-8, above the 1e-10 it must meet.
        jc = zoo_model("jc")
        fn, n_params = model_module.get_parameterization("jc")
        leak = np.zeros((4, 4))
        leak[0, 1], leak[1, 1], leak[0, 2], leak[2, 2] = 0.5, -0.5, -0.5, 0.5
        monkeypatch.setitem(model_module._PARAMETERIZATIONS, "jc-leaky", (lambda p: fn(p) + 1e-8 * leak, n_params))
        q = fn(np.array([[0.02]]))[0] + 1e-8 * leak
        assert is_stochastic_rate(q, 1e-12)
        assert model_residual(jc, q) == pytest.approx(1e-8, rel=1e-6)
        with pytest.raises(ValueError, match="parameterization 'jc-leaky' does not land in model 'jc-leaky'"):
            RateModel(name="jc-leaky", n=4, basis=jc.basis, parameterization="jc-leaky",
                      parameter_ranges=jc.parameter_ranges)

    def test_landing_points_are_fixed_and_generic(self):
        # Each coordinate its own fraction, strictly inside (0, 1): no midpoint, corner or diagonal.
        for width in (1, 2, 8, 10):
            u = model_module._landing_points(width)
            assert u.shape == (4, width)
            assert ((0.0 < u) & (u < 1.0) & (u != 0.5)).all()
            assert len(np.unique(u)) == u.size
            np.testing.assert_array_equal(u, model_module._landing_points(width))

    def test_large_rates_land_and_audit(self):
        # hky with every range at [5e4, 1e5]: its generators reach 1e10, whose column sums round
        # far above 1e-12 but within 1e-12 of their norm. Every pair is tested.
        doc = {**model_to_dict(zoo_model("hky")), "parameter_ranges": [[5e4, 1e5]] * 5}
        report = multiplicative_closure_check(model_from_dict(doc), samples=100, seed=7)
        assert (report.mult_closed_verdict, report.samples_tested) == ("not_closed", 100)

    @pytest.mark.parametrize("name", zoo_names())
    def test_parameterized_draws_are_not_judged_again(self, name, monkeypatch):
        # A parameterized draw, the audit's, the sample command's or a sampled span's, makes no
        # stochastic test and reads no residual.
        model = zoo_model(name)

        def judged(*args):
            raise AssertionError("a parameterized draw was judged")

        monkeypatch.setattr(model_module, "is_stochastic_rate", judged)
        monkeypatch.setitem(vars(model), "_residual", judged)
        vars(model).pop("_span", None)
        pairs, sampled = model_module._sample_stack(model, 40, _SeedStreams(5, 40).random, 2)
        assert pairs.shape == (40, 2, 4, 4) and sampled.all()
        assert _sample_stochastic_stack(model, 5, 40).shape == (40, 4, 4)
        sample_with_rng(model, np.random.default_rng(0))
        assert len(model._span)

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e9])
    def test_basis_draws_are_judged_relative_to_their_norm(self, scale):
        # lm88's basis times scale: the column sums of a draw round to about eps times its norm, so
        # an absolute 1e-12 would reject most draws in the cone from scale 1e4 on.
        model = RateModel("lm88-scaled", 4, basis=tuple(scale * b for b in zoo_model("lm88").basis))
        report = multiplicative_closure_check(model, samples=100, seed=7)
        assert (report.mult_closed_verdict, report.samples_tested) == ("closed", 98)


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
        # The seed is checked whatever the count, with no streams too.
        with pytest.raises(ValueError, match=message):
            _SeedStreams(seed, 0)

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

    @pytest.mark.parametrize("count, seed", [(0, 7)])
    def test_stack_of_no_rows_is_empty(self, count, seed):
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

    @pytest.mark.parametrize("make, message", [
        (lambda: PolynomialConstraint(((1.0, ((0, 1),)),)), r"constraint indices are 1-based, got \(0, 1\)"),
        (lambda: RateModel(name="x", n=1, constraints=(q12_constraint(0.0),)), "model order must be at least 2"),
        (lambda: RateModel(name="x", n=3, basis=(zoo_generator("jc", 1.0),)),
         "basis matrix order does not match the model"),
    ], ids=["index-0", "order-1", "basis-order"])
    def test_out_of_range_orders_and_indices(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

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
        # Construction compiles the constraint values and judges the parameterization, which fills
        # the residual and, for a span model, the span the residual reads (its SVD), but not the
        # algebra record (its saturation). A sampled model's span waits for its first use, and
        # every model's record for its first audit. Audits, membership and sampling never redo any
        # of them, and a basis-only model builds nothing up front.
        calls = []

        def spy(module, name):
            compile_fn = getattr(module, name)

            def counted(*args):
                calls.append(name)
                return compile_fn(*args)

            monkeypatch.setattr(module, name, counted)

        spy(model_module, "_span_rows")
        spy(closure_module, "_saturate")
        spy(model_module, "_compile_constraints")
        for name in zoo_names():
            model = zoo_model(name)
            built = ["_compile_constraints"] if model.constraints else ["_span_rows"]
            assert calls == built
            assert ("_span" in vars(model)) == bool(model.basis) and "_algebra" not in vars(model)
            residual = vars(model)["_residual"]
            q = sample_with_rng(model, np.random.default_rng(1))
            for seed in (3, 4):
                multiplicative_closure_check(model, samples=20, seed=seed)
                assert membership(model, q).in_r and model_residual(model, q) <= 1e-10
                sample_with_rng(model, np.random.default_rng(seed))
            assert vars(model)["_residual"] is residual
            assert calls == (["_compile_constraints", "_span_rows"] if model.constraints else built) + ["_saturate"]
            calls.clear()
        basis = zoo_model("lm88").basis
        calls.clear()
        model = RateModel("lm88-span", 4, basis=basis)
        assert not calls and not {"_span", "_algebra", "_residual"} & set(vars(model))
        multiplicative_closure_check(model, samples=20, seed=3)
        assert calls == ["_span_rows", "_saturate"]

    @pytest.mark.parametrize("name", ["lm88", "f81", "k2p", "jc"])
    def test_span_model_builds_its_span_but_not_its_closure(self, name, monkeypatch):
        # Judging the parameterization reads the residual, which reads the span's SVD alone.
        def saturate(gens):
            raise AssertionError("building a span model saturated its span")

        monkeypatch.setattr(closure_module, "_saturate", saturate)
        model = zoo_model(name)
        assert {"_span", "_residual"} <= set(vars(model)) and "_algebra" not in vars(model)
        assert membership(model, sample_with_rng(model, np.random.default_rng(1))).in_r

    def test_large_basis_model_builds_without_its_projector(self):
        # The n = 61 equal-input model, with no parameterization to judge: building it or writing
        # it out reads neither its residual nor its span, let alone its algebra record.
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
        assert not {"_span", "_algebra", "_residual"} & set(vars(model))

    def test_span_residual_projects_with_the_span_rows(self):
        # The n = 61 equal-input model's first residual of 1024 rows, its span built: x - (x V^T) V
        # takes (1024, 61) coefficients and one (1024, n^2) product, where the n^2 x n^2 projector
        # I - V^T V took 106 MiB and its identity as much again.
        n = 61
        model = RateModel(name="equal-input-61", n=n, basis=tuple(np.reshape(equal_input_doc(n)["basis"], (n, n, n))))
        span = model._span.reshape(n, n * n)
        q = np.random.default_rng(0).standard_normal((1024, n, n))
        tracemalloc.start()
        try:
            residual = model._residual(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        flat = q.reshape(1024, n * n)
        outside = np.linalg.norm(flat - flat @ np.linalg.pinv(span) @ span, axis=1)
        np.testing.assert_allclose(residual, outside / np.maximum(np.linalg.norm(flat, axis=1), 1.0), rtol=1e-12)

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
        path.write_text("[1, 2]")
        with pytest.raises(ModelFormatError, match="junk.json must contain a JSON object"):
            load_model(path)
