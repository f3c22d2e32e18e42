"""The package's public names, pinned.

Adding a name to ``liemarkov`` (a new export, or a wrapper around a call
that already exists) or removing one has to be a deliberate edit of this
list.
"""

import types

import liemarkov

PUBLIC_NAMES = [
    "ClosureReport",
    "DEFAULT_MEMBERSHIP_TOL",
    "DEFAULT_RANK_RTOL",
    "Membership",
    "MembershipResult",
    "ModelFormatError",
    "PolynomialConstraint",
    "PrincipalLogError",
    "REFERENCE_ALPHAS",
    "REFERENCE_HKY_PARAMS",
    "REFERENCE_LOG_PRODUCT",
    "RateModel",
    "SamplingError",
    "Witness",
    "ZooEntry",
    "bch_truncated",
    "check_scaling_closure",
    "commutator",
    "f81",
    "gtr",
    "hky",
    "is_in_L",
    "is_stochastic_rate",
    "jc",
    "k2p",
    "kappa_witness",
    "least_squares_membership",
    "lie_closure",
    "lm88",
    "load_model",
    "log_product",
    "matrix_exp",
    "matrix_log",
    "membership",
    "model_from_dict",
    "model_residual",
    "model_to_dict",
    "multiplicative_closure_check",
    "orthonormal_basis",
    "reference_pair",
    "sample_with_rng",
    "span_basis",
    "zoo_entry",
    "zoo_model",
    "zoo_names",
]


def test_public_names_are_pinned():
    public = sorted(
        name for name, value in vars(liemarkov).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES
