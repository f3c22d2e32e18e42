"""Closure-audit results of per-pair audits, against which the block audit is checked.

Each key is (model, seed); every audit ran 150 pairs at the default
tolerance. Zoo models are looked up by name; their entries come from the
per-pair audit that preceded the batched one. "cyclic-6" and "cyclic-8"
are the single-generator span models of tests/test_closure.py's
_cyclic_model at scales 6 and 8, whose raw products lie close to
singular. The cyclic and gtr entries were regenerated when the audit
began to scale every pair with s = ||q||_F + ||q'||_F > 0.65 into the
BCH domain: the cyclic models, one-dimensional and so closed, went from
not_closed to closed, and gtr's witness residuals moved (its pairs all
lie outside the domain as drawn) while its verdict, counts and indices
held. A per-pair loop gave the values: pair k drew q then q' by
sample_with_rng on default_rng(seed + k), a pair with s > 0.65 became
(t q, t q') with t = 0.65 / s, and its log_product, within 1e-12 of
scipy's logm, went to model_residual. A value is (verdict,
samples_tested, span_dim, lie_closure_dim, witness pair indices, witness
residuals).
"""

AUDIT_GOLDENS = {
    ('hky', 7): (
        'not_closed', 150, 8, 8,
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 52],
        (
            0.0024436145375910222, 0.002145121170605742, 0.0022759967269689353,
            0.0059605483300872635, 0.01027639281514784, 0.010151826440328604,
            0.010260708867062485, 0.0001786438396778694, 0.004051933163340131,
            0.023363088597662916,
        ),
    ),
    ('hky', 2024): (
        'not_closed', 150, 8, 8,
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 39],
        (
            0.0037811915792116202, 0.007033748587742773, 0.0005370832617193229,
            0.006692426275960687, 0.0075782949327857915, 0.0006391991488206857,
            0.0034043567499650006, 0.0019079062760669918, 0.014546992755486085,
            0.01586213317024134,
        ),
    ),
    ('lm88', 7): (
        'closed', 150, 8, 8,
        [],
        (),
    ),
    ('lm88', 2024): (
        'closed', 150, 8, 8,
        [],
        (),
    ),
    ('jc', 7): (
        'closed', 150, 1, 1,
        [],
        (),
    ),
    ('jc', 2024): (
        'closed', 150, 1, 1,
        [],
        (),
    ),
    ('f81', 7): (
        'closed', 150, 4, 4,
        [],
        (),
    ),
    ('f81', 2024): (
        'closed', 150, 4, 4,
        [],
        (),
    ),
    ('k2p', 7): (
        'closed', 150, 2, 2,
        [],
        (),
    ),
    ('k2p', 2024): (
        'closed', 150, 2, 2,
        [],
        (),
    ),
    ('gtr', 7): (
        'not_closed', 150, 12, 12,
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 132],
        (
            0.0002416211435714092, 0.0003350748591425689, 0.0007424226251216859,
            0.00017790810071158282, 0.00018491845706481065, 0.0006824116131465075,
            0.00032818435857793923, 0.0004043820189401168, 0.00013642324479035318,
            0.002142515300611816,
        ),
    ),
    ('gtr', 2024): (
        'not_closed', 150, 12, 12,
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 100],
        (
            0.0005425003637306206, 0.00023355350737545651, 0.00024988948159402404,
            0.0008732108799920644, 0.0007408547165506066, 9.352735996279048e-05,
            0.0008784058276949449, 0.0001434431787291293, 0.00021315762338153368,
            0.0018629159557303398,
        ),
    ),
    ('cyclic-6', 7): (
        'closed', 150, 1, 1,
        [],
        (),
    ),
    ('cyclic-6', 2024): (
        'closed', 150, 1, 1,
        [],
        (),
    ),
    ('cyclic-8', 7): (
        'closed', 150, 1, 1,
        [],
        (),
    ),
    ('cyclic-8', 2024): (
        'closed', 150, 1, 1,
        [],
        (),
    ),
}
