"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s / -v)
and pins the tolerance it must meet; runtime-limited criteria assert
their budget too.
"""

import functools
import json
import time

import numpy as np
import pytest

from liemarkov import (
    commutator,
    evaluate_constraints,
    frobenius,
    kappa_witness,
    least_squares_membership,
    lie_closure,
    log_product,
    matrix_exp,
    matrix_log,
    model_residual,
    multiplicative_closure_check,
    numerical_rank,
    orthonormal_basis,
    sample_stochastic,
    zoo_model,
    zoo_names,
)
from liemarkov.cli import main as cli_main
from liemarkov.closure import bch_truncated
from liemarkov.zoo import REFERENCE_LOG_PRODUCT, reference_pair

from conftest import chain_logs, make_rate_matrix
from exact import exact_rank


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} [{label}]: FAIL")
                raise
            print(f"ACCEPTANCE {number} [{label}]: PASS")

        return wrapper

    return decorate


@criterion(1, "golden log-product")
def test_01_golden_log_product():
    start = time.perf_counter()
    q1, q2 = reference_pair()
    computed = log_product(q1, q2)
    elapsed = time.perf_counter() - start
    assert np.abs(computed - REFERENCE_LOG_PRODUCT).max() <= 1e-5
    assert elapsed < 1.0


@criterion(2, "HKY refutation with witness")
def test_02_hky_refutation():
    start = time.perf_counter()
    model = zoo_model("hky")
    report = multiplicative_closure_check(model, samples=100, seed=42)
    assert report.mult_closed_verdict == "not_closed"

    q1, q2 = reference_pair()
    witness = log_product(q1, q2)
    residuals = evaluate_constraints(model, witness)
    linear = [r for r, c in zip(residuals, model.constraints) if c.degree == 1]
    quadratic = [r for r, c in zip(residuals, model.constraints) if c.degree == 2]
    assert max(abs(r) for r in linear) <= 1e-6
    assert max(abs(r) for r in quadratic) > 1e-6

    kappas = kappa_witness(REFERENCE_LOG_PRODUCT)
    gaps = [abs(a - b) for i, a in enumerate(kappas) for b in kappas[i + 1:]]
    assert min(gaps) > 1e-3
    assert time.perf_counter() - start < 10.0


@criterion(3, "HKY span and bracket closure dimensions")
def test_03_span_and_closure_dimensions():
    start = time.perf_counter()
    model = zoo_model("hky")
    samples = [sample_stochastic(model, seed) for seed in range(200)]
    assert numerical_rank(samples) == 8

    basis = orthonormal_basis(samples)
    assert len(basis) == 8
    closed = lie_closure(basis)
    assert len(closed) == 8

    pattern = list(zoo_model("lm88").basis)
    for element in closed:
        assert least_squares_membership(element, pattern, tol=1e-8).inside
    assert time.perf_counter() - start < 10.0


@criterion(4, "closed models verified")
def test_04_closed_models():
    assert multiplicative_closure_check(zoo_model("jc"), samples=50, seed=7).mult_closed_verdict == "closed"
    lm88 = zoo_model("lm88")
    assert multiplicative_closure_check(lm88, samples=50, seed=7).mult_closed_verdict == "closed"
    for element in chain_logs(lm88, chain_length=3, samples=50, seed=7):
        assert model_residual(lm88, element) <= 1e-7


@criterion(5, "BCH order of accuracy")
def test_05_bch_order_of_accuracy():
    q1, q2 = reference_pair()
    ts = [2.0 ** -k for k in range(1, 7)]
    for order in (1, 2, 3):
        errors = [
            frobenius(log_product(t * q1, t * q2) - bch_truncated(t * q1, t * q2, order))
            for t in ts
        ]
        slope = float(np.polyfit(np.log2(ts), np.log2(errors), 1)[0])
        assert slope == pytest.approx(order + 1, abs=0.2)


@criterion(6, "bracket extraction limit")
def test_06_bracket_extraction_limit():
    q1, q2 = reference_pair()
    eps = 1e-3
    bracket = commutator(q1, q2)
    approx = (2.0 / eps ** 2) * (log_product(eps * q1, eps * q2) - eps * q1 - eps * q2)
    assert frobenius(approx - bracket) <= 1e-4 * frobenius(bracket) + 1e-10


@criterion(7, "kernel property suites")
def test_07_property_suites():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        q = make_rate_matrix(rng, n=4, max_norm=1.0)
        p = matrix_exp(q)
        assert frobenius(matrix_log(p) - q) <= 1e-9
        assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-12
        assert p.min() >= -1e-14
    for name in zoo_names():
        basis = list(zoo_model(name).basis)
        if basis:
            assert numerical_rank(basis) == exact_rank(basis)


@criterion(8, "deterministic reports")
def test_08_deterministic_reports(capsys):
    argv = ["check", "--model", "hky", "--seed", "42", "--no-timestamp"]
    code_first = cli_main(list(argv))
    first = capsys.readouterr().out
    code_second = cli_main(list(argv))
    second = capsys.readouterr().out
    assert code_first == code_second == 2
    assert first.encode() == second.encode()
    json.loads(first)  # stays parseable
