"""Workload process: imports the package, builds the inputs it is given, runs rounds.

Usage: ``python3 worker.py setup|run|trace <seconds>`` with the generated
inputs as JSON on stdin. ``setup`` imports the package, builds the
workload's models and exits. ``run`` then warms up and repeats whole
rounds of the workload's operations until ``seconds`` have passed (at
least two rounds), timing each operation and, between operations, a
reference task that cancels the machine's speed drift. ``trace`` does
the same with every public package function wrapped by the tracer. The
result goes to stdout as one JSON object. This process never imports
scipy, so its peak memory is the program's.
"""

from __future__ import annotations

import io
import json
import resource
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout

import numpy as np

CLI_TIMEOUT_S = 60
_REF_SMALL = np.arange(16.0).reshape(4, 4) / 30.0
_REF_FIT = np.random.default_rng(1).random((16, 8)), np.random.default_rng(2).random(16)
_REF_TALL = np.random.default_rng(0).random((1500, 100))


def reference_task(parts: list[str]) -> float:
    """Wall time of a fixed task made of the kinds of work the workload does.

    The machine's speed drifts by up to 2x over minutes (shared cores),
    and the drift slows the reference and the program alike, so timing
    the reference beside every operation and dividing cancels it. Each
    kind of work drifts by its own amount, so the reference holds only
    the kinds the workload does: "lstsq" is a Python loop of small
    least-squares fits (small LAPACK calls, as in the audits), "loop"
    Python-level iteration over 4x4 numpy products, "svd" an SVD of a
    stack too big for the fast caches, and "spawn" an interpreter start
    that imports numpy. None of them touches the package.
    """
    t0 = time.perf_counter()
    if "spawn" in parts:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=CLI_TIMEOUT_S)
    if "loop" in parts:
        x, acc = np.eye(4), 0.0
        for i in range(1000):
            x = (x @ _REF_SMALL) * 0.5 + np.eye(4)
            acc += float(np.linalg.norm(x)) + i * 0.5
    if "lstsq" in parts:
        for _ in range(400):
            np.linalg.lstsq(*_REF_FIT, rcond=None)
    if "svd" in parts:
        np.linalg.svd(_REF_TALL, full_matrices=False)
    return time.perf_counter() - t0


def build(inputs: dict):
    """Set-up: import the package and build the workload's models.

    Returns the round's (name, operation) pairs and the warm-up operations.
    """
    import liemarkov as lm

    kind = inputs["kind"]
    if kind == "audit":
        models = {name: lm.zoo_model(name) for name in inputs["models"]}
        pairs, seeds = inputs["pairs"], inputs["seeds"]

        def audit(name, samples):
            return lambda: lm.multiplicative_closure_check(
                models[name], samples=samples, seed=seeds[name])

        ops = [(f"audit.{name}", audit(name, pairs)) for name in models]
        warmup = [audit(name, inputs["warmup_pairs"]) for name in models]
        return ops, warmup
    if kind == "saturate":
        models = [
            lm.RateModel(name=f"pair-{s['n']}", n=s["n"],
                         basis=tuple(np.array(g, dtype=float) for g in s["generators"]))
            for s in inputs["sets"]
        ]

        def saturate(model):
            return lambda: lm.lie_closure(lm.span_basis(model))

        ops = [(f"saturate.n{m.n}", saturate(m)) for m in models]
        return ops, [ops[0][1]]
    if kind == "cli":
        for cmd in inputs["commands"].values():
            if "--model" in cmd:
                lm.zoo_model(cmd[cmd.index("--model") + 1])
        ops = [(name, _cli_op(lm, cmd, inputs["in_process"]))
               for name, cmd in inputs["commands"].items()]
        return ops, [ops[-1][1]]
    raise ValueError(f"unknown workload kind {kind!r}")


def _cli_op(lm, cmd, in_process):
    if in_process:
        import liemarkov.cli

        def run():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = lm.cli.main(list(cmd))
            return {"code": code, "stdout": buf.getvalue()}
    else:
        def run():
            proc = subprocess.run([sys.executable, "-m", "liemarkov", *cmd], capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S, check=False)
            if proc.returncode not in (0, 2, 3):
                raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return {"code": proc.returncode, "stdout": proc.stdout}
    return run


def plain(out):
    """JSON-ready form of an operation's result, made outside the timed region."""
    if hasattr(out, "to_dict"):
        return out.to_dict()
    if isinstance(out, list):
        return [np.asarray(b).tolist() for b in out]
    return out


def measure(ops, seconds: float, reference: list[str], after_round=None) -> dict:
    """Whole rounds of every operation until `seconds` pass, at least two rounds."""
    times = {name: [] for name, _ in ops}
    norm = {name: [] for name, _ in ops}
    ref_before = reference_task(reference)
    refs = [ref_before]
    first, keys = {}, {}
    mismatches, failed, errors = Counter(), 0, []
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - start < seconds:
        t_round = time.perf_counter()
        for name, fn in ops:
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # an operation that fails is counted, the run goes on
                failed += 1
                errors.append(f"{name}: {exc!r}"[:500])
                continue
            dt = time.perf_counter() - t0
            ref_after = reference_task(reference)
            times[name].append(dt)
            norm[name].append(dt / (0.5 * (ref_before + ref_after)))
            ref_before = ref_after
            refs.append(ref_after)
            out = plain(out)
            key = json.dumps(out, sort_keys=True)
            if name not in first:
                first[name], keys[name] = out, key
            elif key != keys[name]:
                mismatches[name] += 1
        rounds += 1
        if after_round:
            after_round(rounds, time.perf_counter() - t_round)
    return {"rounds": rounds, "times": times, "norm": norm, "reference_s": refs, "outputs": first,
            "mismatches": dict(mismatches), "failed": failed, "errors": errors[:10]}


def main() -> int:
    mode, seconds = sys.argv[1], float(sys.argv[2])
    inputs = json.load(sys.stdin)
    if mode == "setup":
        build(inputs)
        return 0
    if mode == "run":
        ops, warmup = build(inputs)
        for fn in warmup:
            fn()
        result = measure(ops, seconds, inputs["reference"])
    elif mode == "trace":
        import liemarkov

        from tracer import Tracer

        tracer = Tracer(liemarkov)
        tracer.enabled = True
        ops, warmup = build(inputs)
        snaps = {"setup": tracer.snapshot()}
        tracer.enabled = False
        for fn in warmup:
            fn()
        tracer.enabled = tracer.capturing = True

        def after_round(done, _):
            if done == 1:
                snaps["first"] = tracer.snapshot()
                tracer.capturing = False

        result = measure(ops, seconds, inputs["reference"], after_round)
        snaps["end"] = tracer.snapshot()
        result["trace"] = snaps
        result["captured"] = tracer.captured
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    # Peak memory of this process and of the CLI processes it waited for.
    result["peak_rss_kib"] = max(resource.getrusage(who).ru_maxrss
                                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
