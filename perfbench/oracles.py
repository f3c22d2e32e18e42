"""Independent checks of the program's outputs.

Everything here is computed outside the package: log-products with
scipy's expm/logm, model membership with hand-written equal-entry
patterns and the 3-cycle (Kolmogorov) reversibility test, span fits with
numpy least squares on the benchmark's own bases, and spot checks with
mpmath at high precision. Each check returns a list of error strings;
an empty list means the output passed.

All matrices are in the zero-column-sum convention (the package default).
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

TOL = 1e-8          # the audit tolerance the workloads run at
LOG_RTOL = 1e-9     # program log-product against scipy, relative Frobenius
FIT_RTOL = 1e-9     # span fits of log-products of closed models
ORTHO_TOL = 1e-9    # orthonormality and zero column sums of bases

_OFF = [(i, j) for i in range(4) for j in range(4) if i != j]
_TRANSITIONS = [(0, 1), (1, 0), (2, 3), (3, 2)]

# Equal-entry patterns (0-based row, column) of the span models. A matrix
# is in the span when entries inside each group agree and the diagonal
# makes every column sum zero.
PATTERNS = {
    "jc": [_OFF],
    "k2p": [_TRANSITIONS, [e for e in _OFF if e not in _TRANSITIONS]],
    "f81": [[(i, j) for j in range(4) if j != i] for i in range(4)],
    "lm88": [[(0, 1)], [(1, 0)], [(2, 3)], [(3, 2)],
             [(0, 2), (0, 3)], [(1, 2), (1, 3)], [(2, 0), (2, 1)], [(3, 0), (3, 1)]],
}
# The span of HKY is the lm88 pattern; GTR spans every zero-sum matrix.
PATTERNS["hky"] = PATTERNS["lm88"]
PATTERNS["gtr"] = [[e] for e in _OFF]

# Literature: JC, K2P, F81 and the 8-parameter family are Lie algebras,
# HKY and GTR are not multiplicatively closed.
CLOSED = {"jc": True, "k2p": True, "f81": True, "lm88": True, "hky": False, "gtr": False}


def pattern_basis(model: str) -> np.ndarray:
    """Stack (k, 4, 4) of the benchmark's own basis of a model's span."""
    out = []
    for group in PATTERNS[model]:
        m = np.zeros((4, 4))
        for i, j in group:
            m[i, j] = 1.0
        m[np.diag_indices(4)] = -m.sum(axis=0)
        out.append(m)
    return np.array(out)


def span_fit_residual(x: np.ndarray, basis: np.ndarray) -> float:
    """Relative least-squares residual of x against span(basis)."""
    cols = basis.reshape(len(basis), -1).T
    coef, *_ = np.linalg.lstsq(cols, x.reshape(-1), rcond=None)
    return float(np.linalg.norm(x.reshape(-1) - cols @ coef) / max(np.linalg.norm(x), 1.0))


def is_generator(q: np.ndarray) -> bool:
    """Zero column sums and non-negative off-diagonal entries."""
    scale = max(1.0, float(np.abs(q).max()))
    off = q[~np.eye(len(q), dtype=bool)]
    return bool(np.abs(q.sum(axis=0)).max() <= 1e-12 * scale and off.min() >= -1e-12 * scale)


def scipy_log_product(q: np.ndarray, qp: np.ndarray) -> np.ndarray:
    log_m = scipy.linalg.logm(scipy.linalg.expm(q) @ scipy.linalg.expm(qp))
    if np.iscomplexobj(log_m):
        if np.abs(log_m.imag).max() > 1e-12:
            raise ValueError("scipy logm returned a non-real logarithm")
        log_m = log_m.real
    return log_m


def rel_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def hky_ratios(q: np.ndarray) -> np.ndarray:
    """The four transition/transversion ratios of a matrix in the lm88 pattern."""
    return np.array([q[0, 1] / q[0, 2], q[1, 0] / q[1, 2], q[2, 3] / q[2, 0], q[3, 2] / q[3, 0]])


def gtr_cycle_residual(q: np.ndarray) -> float:
    """Largest 3-cycle reversibility defect, scaled by ||q||^3."""
    worst = 0.0
    for i, j, k in itertools.combinations(range(4), 3):
        d = q[i, j] * q[j, k] * q[k, i] - q[i, k] * q[k, j] * q[j, i]
        worst = max(worst, abs(d))
    return worst / np.linalg.norm(q) ** 3


def pattern_residual(q: np.ndarray, model: str) -> float:
    """Spread inside the model's equal-entry groups, relative to ||q||."""
    spread = max(np.ptp([q[e] for e in group]) for group in PATTERNS[model])
    return float(spread / max(np.linalg.norm(q), 1e-300))


def in_model(q: np.ndarray, model: str, rtol: float) -> bool:
    """Membership in the model's rate space by the benchmark's own test."""
    if model == "gtr":
        return gtr_cycle_residual(q) <= rtol
    if pattern_residual(q, model) > rtol:
        return False
    if model == "hky":
        r = hky_ratios(q)
        return bool(np.ptp(r) <= rtol * np.abs(r).max())
    return True


def check_witness(model: str, w: dict, samples: int) -> list[str]:
    q, qp, log_m = (np.array(w[k]) for k in ("q", "q_prime", "log_product"))
    errs = []
    tag = f"{model} witness pair {w['pair_index']}"
    if not 0 <= w["pair_index"] < samples:
        errs.append(f"{tag}: pair index out of range")
    if not (is_generator(q) and is_generator(qp)):
        errs.append(f"{tag}: sampled matrices are not rate matrices")
    if not (in_model(q, model, 1e-10) and in_model(qp, model, 1e-10)):
        errs.append(f"{tag}: sampled matrices are not in the model")
    ref = scipy_log_product(q, qp)
    if rel_diff(log_m, ref) > LOG_RTOL:
        errs.append(f"{tag}: log-product differs from scipy by {rel_diff(log_m, ref):.3g}")
    if not w["residual"] > TOL:
        errs.append(f"{tag}: reported residual {w['residual']} is within tolerance")
    if model == "hky":
        # Log-products of HKY matrices stay in the 8-parameter pattern but
        # carry four distinct ratios, so no single kappa describes them.
        if pattern_residual(ref, "lm88") > FIT_RTOL:
            errs.append(f"{tag}: log-product left the 8-parameter pattern")
        r = hky_ratios(ref)
        gaps = [abs(a - b) for a, b in itertools.combinations(r, 2)]
        if min(gaps) <= TOL * np.abs(r).max():
            errs.append(f"{tag}: transition/transversion ratios are not four distinct values")
    elif model == "gtr":
        if gtr_cycle_residual(ref) <= TOL:
            errs.append(f"{tag}: log-product satisfies every 3-cycle condition")
    else:
        errs.append(f"{tag}: closed model {model} produced a witness")
    return errs


def check_report(model: str, rep: dict, samples: int, pairs: list) -> list[str]:
    """Check one closure report against literature verdicts and scipy.

    ``pairs`` are (index, q, q') triples re-drawn from the audit's seeds;
    for closed models their scipy log-products must fit the span.
    """
    errs = []
    expect = "closed" if CLOSED[model] else "not_closed"
    if rep["mult_closed_verdict"] != expect:
        errs.append(f"{model}: verdict {rep['mult_closed_verdict']}, literature says {expect}")
    dim = len(PATTERNS[model])
    if (rep["span_dim"], rep["lie_closure_dim"], rep["ambient_dim"]) != (dim, dim, 12):
        errs.append(f"{model}: dims {rep['span_dim']}/{rep['lie_closure_dim']}/{rep['ambient_dim']},"
                    f" expected {dim}/{dim}/12")
    if not samples / 2 <= rep["samples_tested"] <= samples or rep["tolerance"] != TOL:
        errs.append(f"{model}: {rep['samples_tested']} of {samples} pairs tested at tol {rep['tolerance']}")
    if CLOSED[model] == bool(rep["witnesses"]) or len(rep["witnesses"]) > 10:
        errs.append(f"{model}: {len(rep['witnesses'])} witnesses for a {expect} model")
    for w in rep["witnesses"]:
        errs += check_witness(model, w, samples)
    if CLOSED[model]:
        basis = pattern_basis(model)
        for index, q, qp in pairs:
            if not all(is_generator(m) and in_model(m, model, 1e-10) for m in (q, qp)):
                errs.append(f"{model} pair {index}: sampled matrices are not in the model")
            res = span_fit_residual(scipy_log_product(q, qp), basis)
            if res > FIT_RTOL:
                errs.append(f"{model} pair {index}: scipy log-product leaves the span ({res:.3g})")
    return errs


def check_lie_basis(basis: np.ndarray, generators: np.ndarray, dim: int, rng) -> list[str]:
    """Orthonormal, zero column sums, expected dimension, bracket-closed."""
    errs = []
    if len(basis) != dim:
        return [f"closure of {len(generators)} generators at n={generators.shape[-1]}:"
                f" dimension {len(basis)}, expected {dim}"]
    flat = basis.reshape(dim, -1)
    gram_err = np.abs(flat @ flat.T - np.eye(dim)).max()
    if gram_err > ORTHO_TOL:
        errs.append(f"basis is not orthonormal ({gram_err:.3g})")
    if np.abs(basis.sum(axis=1)).max() > ORTHO_TOL:
        errs.append("basis elements do not have zero column sums")

    def escape(x):
        x = x.reshape(-1)
        return np.linalg.norm(x - flat.T @ (flat @ x)) / max(np.linalg.norm(x), 1.0)

    if max(escape(g) for g in generators) > FIT_RTOL:
        errs.append("a generator lies outside the returned span")
    for _ in range(10):
        i, j = rng.integers(dim, size=2)
        if escape(basis[i] @ basis[j] - basis[j] @ basis[i]) > FIT_RTOL:
            errs.append(f"bracket of basis elements {i} and {j} leaves the span")
    return errs


def hky_generator(a_a, a_g, a_c, a_t, kappa) -> np.ndarray:
    """HKY rate matrix built independently of the package (column sums zero)."""
    alpha = np.array([a_a, a_g, a_c, a_t])
    q = np.repeat(alpha[:, None], 4, axis=1)
    for i, j in _TRANSITIONS:
        q[i, j] *= kappa
    q[np.diag_indices(4)] = 0.0
    q[np.diag_indices(4)] = -q.sum(axis=0)
    return q


def check_repro(doc: dict, params) -> list[str]:
    ref = scipy_log_product(hky_generator(*params[0]), hky_generator(*params[1]))
    got = np.array(doc["computed_log_product"])
    errs = []
    if np.abs(got - ref).max() > 1e-5 or rel_diff(got, ref) > LOG_RTOL:
        errs.append(f"repro-paper log-product differs from scipy by {rel_diff(got, ref):.3g}")
    r = hky_ratios(ref)
    if rel_diff(doc["kappas"], r) > 1e-9 or min(abs(a - b) for a, b in itertools.combinations(r, 2)) <= TOL:
        errs.append("repro-paper kappas are not the four distinct ratios of the log-product")
    dev = np.abs(got - np.array(doc["reference_log_product"])).max()
    if doc["within_tolerance"] is not True or abs(doc["max_deviation"] - dev) > 1e-15:
        errs.append("repro-paper deviation fields are inconsistent")
    return errs


def kernel_errors(kernel: str, cases: list) -> float:
    """Largest relative error of (inputs, output) pairs of exp or log against scipy."""
    ref = scipy.linalg.expm if kernel == "exp" else scipy.linalg.logm
    return max((rel_diff(out, np.real(ref(np.array(args[0])))) for args, out in cases), default=0.0)


def mp_errors(kernel: str, cases: list, dps: int = 40) -> float:
    """Largest error of a few (inputs, output) pairs against mpmath at high precision.

    Errors of exp and log are relative to the exact result. A bracket of
    commuting matrices is exactly zero, so its error is taken relative to
    ||A|| ||B||, the scale of its rounding error.
    """
    import mpmath

    worst = 0.0
    with mpmath.workdps(dps):
        for args, out in cases:
            mats = [mpmath.matrix(np.array(a).tolist()) for a in args]
            if kernel == "exp":
                ref = mpmath.expm(mats[0])
            elif kernel == "log":
                ref = mpmath.logm(mats[0])
            else:
                ref = mats[0] * mats[1] - mats[1] * mats[0]
            ref = np.array(ref.tolist(), dtype=complex).real
            scale = (np.linalg.norm(ref) if kernel != "bracket"
                     else np.linalg.norm(args[0]) * np.linalg.norm(args[1]))
            worst = max(worst, float(np.linalg.norm(np.asarray(out) - ref) / max(scale, 1e-300)))
    return worst
