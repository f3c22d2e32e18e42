import numpy as np
import pytest

from liemarkov import (
    is_stochastic_rate,
    lie_closure,
    membership,
    orthonormal_basis,
    sample_with_rng,
    zoo_model,
    zoo_names,
)
from liemarkov.model import get_parameterization
from liemarkov.zoo import _ZOO, REFERENCE_HKY_PARAMS, REFERENCE_LOG_PRODUCT

from conftest import zoo_generator
from exact import exact_rank


class TestStackBuilders:
    @pytest.mark.parametrize("name", ["f81", "gtr", "hky", "jc", "k2p", "lm88"])
    def test_rows_match_scalar_builders(self, name):
        # A single generator is the batch-of-one call, so every row of a
        # stack must equal its own batch of one, bit for bit.
        fn, n_params = get_parameterization(name)
        params = np.random.default_rng(4).uniform(0.0, 2.0, size=(7, n_params))
        stack = fn(params)
        assert stack.shape == (7, 4, 4)
        for k in range(len(params)):
            np.testing.assert_array_equal(stack[k], fn(params[k:k + 1])[0])
        assert is_stochastic_rate(stack).all()

    @pytest.mark.parametrize("name", ["f81", "gtr", "hky", "jc", "k2p", "lm88"])
    def test_stack_is_its_definition(self, name):
        # Each model's generators written slot by slot under the A, G, C, T order, on rows with
        # zeros and scales from 1e-4 to 10, bit for bit; each diagonal entry is minus its column's
        # off-diagonal sum.
        fn, n_params = get_parameterization(name)
        rng = np.random.default_rng(25)
        p = rng.random((1000, n_params)) * 10.0 ** rng.integers(-4, 2, size=(1000, n_params))
        p[rng.random((1000, n_params)) < 0.05] = 0.0
        if name == "gtr":
            p[:, 6] += 1e-3  # a row of weights must not sum to zero
            pi = p[:, 6:] / p[:, 6:].sum(axis=1)[:, None]
        transitions = ((0, 1), (1, 0), (2, 3), (3, 2))  # A<->G and C<->T
        gtr_pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        expected = np.zeros((1000, 4, 4))
        for i in range(4):
            for j in range(4):
                transition = (i, j) in transitions
                expected[:, i, j] = {
                    # All substitutions at mu.
                    "jc": lambda: p[:, 0],
                    # Row i at alpha_i.
                    "f81": lambda: p[:, i],
                    # Transitions at alpha, transversions at beta.
                    "k2p": lambda: p[:, 0] if transition else p[:, 1],
                    # Row i at alpha_i, its transition times kappa.
                    "hky": lambda: p[:, i] * p[:, 4] if transition else p[:, i],
                    # Row i's transversions at alpha..delta, its transition at kappa_1..kappa_4.
                    "lm88": lambda: p[:, 4 + i] if transition else p[:, i],
                    # The rate into i from j is s_ij pi_i, pi the weights over their sum.
                    "gtr": lambda: p[:, gtr_pairs.index(tuple(sorted((i, j))))] * pi[:, i],
                }[name]() if i != j else 0.0
        diag = np.arange(4)
        expected[:, diag, diag] = -expected.sum(axis=1)
        np.testing.assert_array_equal(fn(p), expected)


class TestGenerators:
    def test_hky_reference_entries(self):
        q = zoo_generator("hky", *REFERENCE_HKY_PARAMS[0])
        assert q[0, 1] == pytest.approx(0.03)
        assert q[0, 2] == pytest.approx(0.02)
        assert q[0, 3] == pytest.approx(0.02)
        assert q[1, 0] == pytest.approx(0.015)
        np.testing.assert_allclose(q.sum(axis=0), np.zeros(4), atol=1e-17)

    def test_hky_zero_rates(self):
        np.testing.assert_array_equal(zoo_generator("hky", 0, 0, 0, 0, 1.5), np.zeros((4, 4)))

    def test_hky_kappa_one_is_f81(self):
        q = zoo_generator("hky", 0.02, 0.01, 0.005, 0.009, 1.0)
        np.testing.assert_array_equal(q, zoo_generator("f81", 0.02, 0.01, 0.005, 0.009))
        assert membership(zoo_model("f81"), q)[:2] == (True, True)

    def test_all_generators_stochastic(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            assert is_stochastic_rate(zoo_generator("hky", *rng.uniform(0.0, 0.1, 4), rng.uniform(0, 3)))
            assert is_stochastic_rate(zoo_generator("jc", rng.uniform(0, 1)))
            assert is_stochastic_rate(zoo_generator("k2p", *rng.uniform(0, 1, 2)))
            assert is_stochastic_rate(zoo_generator("lm88", *rng.uniform(0, 1, 8)))
            assert is_stochastic_rate(zoo_generator("gtr", *rng.uniform(0.1, 1, 10)), tol=1e-14)

    def test_gtr_reversible(self):
        # Detailed balance pi_j * q_ij == pi_i * q_ji for the generator.
        weights = np.array([0.3, 0.2, 0.1, 0.4])
        q = zoo_generator("gtr", 1.0, 2.0, 0.5, 0.8, 1.2, 2.5, *weights)
        pi = weights / weights.sum()
        for i in range(4):
            for j in range(4):
                assert pi[j] * q[i, j] == pytest.approx(pi[i] * q[j, i], abs=1e-15)


class TestHkyModel:
    def test_constraints_hold_on_random_draws(self):
        model = zoo_model("hky")
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = zoo_generator("hky", *rng.uniform(0.0, 0.1, 4), rng.uniform(0.0, 3.0))
            assert max(abs(c.evaluate(q)) for c in model.constraints) <= 1e-14

    def test_reference_memberships(self):
        model = zoo_model("hky")
        q2 = zoo_generator("hky", *REFERENCE_HKY_PARAMS[1])
        assert membership(model, q2)[:2] == (True, True)
        assert membership(model, REFERENCE_LOG_PRODUCT)[:2] == (False, False)

    def test_constraint_set_cuts_a_5_parameter_variety(self):
        # Completeness oracle for the quadratic completion: at generic
        # points of the 5-parameter family the constraint Jacobian (in
        # the 12 off-diagonal coordinates) must have rank 7, leaving a
        # variety of dimension 12 - 7 = 5.
        model = zoo_model("hky")
        rng = np.random.default_rng(21)
        off_indices = [(i, j) for i in range(4) for j in range(4) if i != j]
        for _ in range(10):
            q = zoo_generator("hky", *rng.uniform(0.01, 0.1, 4), rng.uniform(0.6, 2.5))
            jac = np.zeros((len(model.constraints), 12))
            h = 1e-6
            for col, (i, j) in enumerate(off_indices):
                qp = q.copy()
                qm = q.copy()
                qp[i, j] += h
                qm[i, j] -= h
                fp = [c.evaluate(qp) for c in model.constraints]
                fm = [c.evaluate(qm) for c in model.constraints]
                jac[:, col] = (np.array(fp) - np.array(fm)) / (2 * h)
            svals = np.linalg.svd(jac, compute_uv=False)
            rank = int((svals > 1e-8 * svals[0]).sum())
            assert rank == 7

    def test_hky_inside_gtr(self):
        # Time reversibility: HKY draws satisfy the GTR cycle conditions.
        gtr_m = zoo_model("gtr")
        for seed in range(10):
            q = sample_with_rng(zoo_model("hky"), np.random.default_rng(seed))
            assert membership(gtr_m, q)[:2] == (True, True)

    def test_span_rank_against_exact_rational_oracle(self):
        # Oracle: the HKY pattern evaluated at dyadic-rational parameter
        # points (exactly representable as floats) and row-reduced over
        # the rationals. The span rank must be 8, matching the SVD rank
        # of floating-point samples.
        from fractions import Fraction

        def hky_exact(a_a, a_g, a_c, a_t, kappa):
            vals = [Fraction(x) for x in (a_a, a_g, a_c, a_t, kappa)]
            a_a, a_g, a_c, a_t, kappa = vals
            q = [[Fraction(0)] * 4 for _ in range(4)]
            rows = (
                (0, a_a, (1,), kappa * a_a),
                (1, a_g, (0,), kappa * a_g),
                (2, a_c, (3,), kappa * a_c),
                (3, a_t, (2,), kappa * a_t),
            )
            for i, base, trans, scaled in rows:
                for j in range(4):
                    if j != i:
                        q[i][j] = scaled if j in trans else base
            for j in range(4):
                q[j][j] = -sum(q[i][j] for i in range(4) if i != j)
            return np.array([[float(x) for x in row] for row in q])

        points = [
            (0.25, 0.5, 0.125, 0.375, 1.5),
            (0.5, 0.25, 0.75, 0.125, 0.5),
            (0.125, 0.125, 0.25, 0.5, 2.0),
            (0.375, 0.625, 0.5, 0.25, 1.25),
            (0.75, 0.5, 0.125, 0.625, 0.75),
            (0.25, 0.375, 0.625, 0.75, 1.75),
            (0.625, 0.25, 0.375, 0.125, 2.5),
            (0.5, 0.75, 0.25, 0.375, 1.125),
            (0.125, 0.5, 0.75, 0.25, 0.625),
            (0.375, 0.125, 0.5, 0.625, 1.375),
            (0.25, 0.625, 0.125, 0.5, 2.25),
            (0.75, 0.375, 0.625, 0.125, 0.875),
        ]
        exact_mats = [hky_exact(*p) for p in points]
        assert exact_rank(exact_mats) == 8
        assert len(orthonormal_basis(exact_mats)) == 8
        for p, m in zip(points, exact_mats):
            np.testing.assert_array_equal(m, zoo_generator("hky", *p))


class TestLm88Model:
    def test_span_dimension(self):
        model = zoo_model("lm88")
        assert len(orthonormal_basis(list(model.basis))) == 8

    def test_bracket_closed(self):
        assert len(lie_closure(list(zoo_model("lm88").basis))) == 8

    def test_orthonormalized_basis_is_orthogonal(self):
        basis = orthonormal_basis(list(zoo_model("lm88").basis))
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert np.sum(u * v) == pytest.approx(expected, abs=1e-12)

    def test_contains_hky(self):
        model = zoo_model("lm88")
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = zoo_generator("hky", *rng.uniform(0.0, 0.1, 4), rng.uniform(0.0, 3.0))
            assert membership(model, q)[:2] == (True, True)


class TestCompanionModels:
    def test_span_dims(self):
        assert len(orthonormal_basis(list(zoo_model("jc").basis))) == 1
        assert len(orthonormal_basis(list(zoo_model("f81").basis))) == 4
        assert len(orthonormal_basis(list(zoo_model("k2p").basis))) == 2

    def test_exact_rank_oracle_on_all_declared_bases(self):
        for name in zoo_names():
            model = zoo_model(name)
            if model.basis:
                mats = list(model.basis)
                assert len(orthonormal_basis(mats)) == exact_rank(mats)

    def test_k2p_inside_hky(self):
        q = zoo_generator("k2p", 0.03, 0.02)
        assert membership(zoo_model("hky"), q)[:2] == (True, True)

    def test_gtr_has_no_declared_basis(self):
        assert zoo_model("gtr").basis == ()
        assert len(zoo_model("gtr").constraints) == 4

    def test_zoo_entry_metadata(self):
        assert set(zoo_names()) == {"hky", "lm88", "jc", "f81", "k2p", "gtr"}
        assert _ZOO["hky"].expected_closed is False
        assert _ZOO["lm88"].expected_span_dim == 8
        assert _ZOO["hky"].provenance == "reference"
        assert _ZOO["jc"].provenance == "literature"
        with pytest.raises(KeyError, match="unknown zoo model 'hky85'; known: hky, lm88, jc, f81, k2p, gtr"):
            zoo_model("hky85")

    def test_expected_span_dims_match_computed(self):
        from liemarkov import span_basis

        for name in zoo_names():
            entry = _ZOO[name]
            if entry.expected_span_dim is not None:
                assert len(span_basis(zoo_model(name), seed=0)) == entry.expected_span_dim
