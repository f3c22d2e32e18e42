"""Call tracing around the package's public functions, from outside the package.

Each traced function is replaced by a timing wrapper at every module
attribute that names it, so calls made through another module's
namespace (``closure`` calling ``matrix_exp``, ``cli`` calling
``lie_closure``) are caught too. A wrapper records calls, total time
and self time, which is its duration minus the time spent in traced
callees. The trace lives in memory and is read out once at the end.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

import numpy as np

TRACED = {
    "linalg": ("matrix_exp", "matrix_log", "least_squares_membership", "commutator",
               "orthonormal_basis"),
    "model": ("sample_with_rng", "membership", "is_stochastic_rate", "model_residual",
              "check_scaling_closure"),
    "closure": ("log_product", "span_basis", "lie_closure", "multiplicative_closure_check"),
    "zoo": ("zoo_model",),
    "cli": ("main",),
}
# Kernels whose (input, output) pairs are kept for the accuracy checks.
CAPTURE = {"linalg.matrix_exp": "exp", "linalg.matrix_log": "log", "linalg.commutator": "bracket"}
MP_CASES = 3  # bracket inputs kept for the mpmath spot check


class Tracer:
    def __init__(self, package):
        self.enabled = False
        self.capturing = False
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.active = Counter()
        self.stack: list[float] = []
        self.captured = {"exp": [], "log": [], "bracket": []}
        self._install(package)

    def _wrap(self, name, fn):
        capture = CAPTURE.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if name == "linalg.commutator" and self.active["closure.lie_closure"]:
                self.calls["closure.lie_closure.brackets"] += 1
            if name == "linalg.orthonormal_basis" and self.active["closure.lie_closure"]:
                self.calls["closure.lie_closure.rounds"] += 1
            self.active[name] += 1
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self.stack.pop()
                self.active[name] -= 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if self.stack:
                    self.stack[-1] += dt
            if capture and self.capturing:
                kept = self.captured[capture]
                if capture != "bracket" or len(kept) < MP_CASES:
                    kept.append(([np.asarray(a).tolist() for a in args], np.asarray(out).tolist()))
            return out

        return traced

    def _install(self, package):
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in ("config", *TRACED)}
        for mod_name, names in TRACED.items():
            mod = modules[mod_name]
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", orig)
                for m in (package, *modules.values()):
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
        cls = modules["model"].PolynomialConstraint
        cls.evaluate = self._wrap("model.PolynomialConstraint.evaluate", cls.evaluate)
        # Parameter draws: every call of a registered parameterization.
        registry = modules["model"]._PARAMETERIZATIONS
        for key, (fn, n_params) in list(registry.items()):
            registry[key] = (self._counter("model.sampler.draws", fn), n_params)

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            if self.enabled:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def snapshot(self) -> dict:
        names = set(self.calls) | set(self.total)
        return {
            "calls": {k: self.calls[k] for k in names},
            "total_s": {k: self.total[k] for k in names},
            "self_s": {k: self.self_time[k] for k in names},
        }
