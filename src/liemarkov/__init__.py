"""Lie-algebraic closure analysis for continuous-time Markov substitution models.

A model is a set of stochastic rate matrices; its substitution matrices
multiply, their products have logarithms, and the model is
multiplicatively closed exactly when those logarithms stay inside the
model's rate space. This package represents such models, computes
bracket closures of their spans, and decides or refutes multiplicative
closure with concrete witnesses.
"""

from .linalg import (
    MembershipResult,
    PrincipalLogError,
    commutator,
    least_squares_membership,
    matrix_exp,
    matrix_log,
    orthonormal_basis,
)
from .model import (
    Membership,
    ModelFormatError,
    PolynomialConstraint,
    RateModel,
    SamplingError,
    check_scaling_closure,
    is_in_L,
    is_stochastic_rate,
    load_model,
    membership,
    model_from_dict,
    model_residual,
    model_to_dict,
    sample_with_rng,
)
from .closure import (
    ClosureReport,
    Witness,
    bch_truncated,
    lie_closure,
    log_product,
    multiplicative_closure_check,
    span_basis,
)
from .zoo import kappa_witness, reference_pair, zoo_model, zoo_names

__version__ = "0.1.0"
