import numpy as np
import pytest

from liemarkov import (
    PrincipalLogError,
    RateModel,
    check_scaling_closure,
    matrix_exp,
    matrix_log,
    model_residual,
    model_to_dict,
    reference_pair,
    sample_with_rng,
)
from liemarkov.model import get_parameterization


@pytest.fixture
def reference_pair_q():
    return reference_pair()


def zoo_generator(name, *params):
    """One generator of the named zoo parameterization: its stack builder's batch of one."""
    fn, _ = get_parameterization(name)
    return fn([params])[0]


def make_rate_matrix(rng, n=4, max_norm=1.0):
    """Random stochastic rate matrix with Frobenius norm at most max_norm."""
    off = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(off, 0.0)
    q = off.copy()
    np.fill_diagonal(q, -off.sum(axis=0))
    nrm = np.linalg.norm(q, "fro")
    return q * (rng.uniform(0.05, 1.0) * max_norm / nrm)


def pair_rng(seed, k):
    """Stream k of seed, which pair k of an audit and sample k of the sample command read.

    np.random.default_rng over numpy's own Philox4x64-10, keyed by the seed, with k in
    counter word 2.
    """
    return np.random.default_rng(np.random.Philox(key=seed, counter=k << 128))


def equal_input_doc(n):
    """The n-state equal-input model file: basis matrix i has row i all ones off the diagonal.

    Closed, of dimension n. Its basis-only sampler reaches the stochastic
    cone with probability about 2^-n per draw.
    """
    basis = np.zeros((n, n, n))
    for i, b in enumerate(basis):
        b[i] = 1.0
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=0))
    return {"name": f"equal-input-{n}", "n": n, "basis": basis.reshape(n, n * n).tolist()}


def cyclic_model(scale=1e6):
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


def audit_pair(model, rng, tol=1e-8):
    """The pair an audit tests from rng = pair_rng(seed, k): q then q', scaled into the BCH domain.

    A pair with s = ||q||_F + ||q'||_F > 0.65 becomes (t q, t q'), t = 0.65 / s, unless the model
    is not vouched for by check_scaling_closure and t q or t q' has model residual above tol.
    """
    q, q_prime = sample_with_rng(model, rng), sample_with_rng(model, rng)
    s = np.linalg.norm(q, "fro") + np.linalg.norm(q_prime, "fro")
    if s > 0.65:
        t = 0.65 / s
        if check_scaling_closure(model) is True or max(
                model_residual(model, t * q), model_residual(model, t * q_prime)) <= tol:
            q, q_prime = t * q, t * q_prime
    return q, q_prime


def chain_logs(model, chain_length, samples, seed):
    """Seeded elements of the model's log-closure: scaled logs of substitution products.

    Each of the samples draws a length in 1..chain_length, then for each
    factor a model sample Q and a duration t uniform in [0, 1], multiplies
    the exp(Q t) in order, and scales the product's principal log by a
    uniform factor in [0, 2]. Products without a principal log are
    skipped, so the list may be shorter than samples.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        product = np.eye(model.n)
        for _ in range(int(rng.integers(1, chain_length + 1))):
            q = sample_with_rng(model, rng)
            product = product @ matrix_exp(q * float(rng.uniform(0.0, 1.0)))
        alpha = float(rng.uniform(0.0, 2.0))
        try:
            out.append(alpha * matrix_log(product))
        except PrincipalLogError:
            pass
    return out


def row_convention_doc(model):
    """The model's file dictionary rewritten in the row-sum convention.

    Basis matrices are transposed and every (i, j) monomial pair swapped,
    as a user who keeps rows summing to zero would write the file.
    """
    doc = model_to_dict(model)
    n = doc["n"]
    doc["convention"] = "row"
    if "basis" in doc:
        doc["basis"] = [np.reshape(b, (n, n)).T.reshape(-1).tolist() for b in doc["basis"]]
    for c in doc.get("constraints", []):
        for t in c["terms"]:
            t["monomial"] = [[j, i] for i, j in t["monomial"]]
    return doc
