"""Reference figures for the README, one row per ROADMAP Baseline item.

    python3 perfbench/reference.py [--repeats 3]

Prints minimum and median wall time over the repeats for: CLI commands
(interpreter start included), `import liemarkov`, in-process 1000-pair
audits, 4x4 exp/log kernels against scipy, `lie_closure` of generic
integer pairs by n, and the spread of repeated 500-pair audits. Not part
of the measured benchmark; run it by hand on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np
import scipy.linalg

from run import SRC, generic_pair, spawn

sys.path.insert(0, str(SRC))
import liemarkov as lm  # noqa: E402


def timed(fn, repeats):
    ts = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return ts


def row(label, ts, unit="s", scale=1.0):
    print(f"{label:44s} min {min(ts) * scale:9.4g} {unit}  median {statistics.median(ts) * scale:9.4g} {unit}"
          f"  (n={len(ts)})")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    r = ap.parse_args().repeats
    py = sys.executable

    def cli(*args):
        return lambda: spawn([py, "-m", "liemarkov", *args, "--no-timestamp"])

    def cli_any_exit(*args):
        def go():
            try:
                cli(*args)()
            except RuntimeError as exc:  # check exits 2 on a not-closed model
                if "exited with 2" not in str(exc):
                    raise
        return go

    row("cli check --model hky (100 pairs)", timed(cli_any_exit("check", "--model", "hky"), r))
    row("cli check --model hky --samples 1000",
        timed(cli_any_exit("check", "--model", "hky", "--samples", "1000"), r))
    row("cli closure --model gtr", timed(cli("closure", "--model", "gtr"), r))
    row("cli repro-paper", timed(cli("repro-paper"), r))
    bare = timed(lambda: spawn([py, "-c", "pass"]), 2 * r)
    imp = timed(lambda: spawn([py, "-c", "import liemarkov"]), 2 * r)
    row("interpreter start", bare)
    row("import liemarkov (beyond start)", [t - statistics.median(bare) for t in imp])

    for name in ("hky", "gtr"):
        model = lm.zoo_model(name)
        row(f"in-process audit {name}, 1000 pairs",
            timed(lambda: lm.multiplicative_closure_check(model, samples=1000, seed=42), r))

    rng = np.random.default_rng(0)
    mats = [lm.sample_with_rng(lm.zoo_model("gtr"), rng) for _ in range(50)]
    prods = [lm.matrix_exp(a) @ lm.matrix_exp(b) for a, b in zip(mats[::2], mats[1::2])]
    for label, ours, ref, inputs in (
        ("matrix_exp 4x4", lm.matrix_exp, scipy.linalg.expm, mats),
        ("matrix_log 4x4", lm.matrix_log, scipy.linalg.logm, prods),
    ):
        for impl, tag in ((ours, "liemarkov"), (ref, "scipy")):
            per_call = [t / len(inputs) for t in timed(lambda: [impl(x) for x in inputs], r)]
            row(f"{label} per call ({tag})", per_call, "us", 1e6)
        err = max(np.linalg.norm(ours(x) - np.real(ref(x))) / np.linalg.norm(np.real(ref(x)))
                  for x in inputs)
        print(f"{label} max relative difference to scipy: {err:.3g}")

    for n in (4, 8, 12, 16):
        gens = generic_pair(np.random.default_rng(n), n)
        dims = []
        row(f"lie_closure n={n} (generic integer pair)",
            timed(lambda: dims.append(len(lm.lie_closure(gens))), r))
        print(f"  dimension {dims[0]} (n^2-n = {n * n - n})")

    model = lm.zoo_model("hky")
    ts = timed(lambda: lm.multiplicative_closure_check(model, samples=500, seed=42), 5 * r)
    row("repeats of one 500-pair hky audit", ts)
    print(f"  max/min ratio {max(ts) / min(ts):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
