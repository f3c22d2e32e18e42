"""Regenerate the pinned CLI reports and the per-pair audit goldens in tests/golden/.

    PYTHONPATH=src python tests/golden/regenerate.py [--check]

Run from the repository root. With --check, every file is recomputed in
memory and nothing is written: the script lists each file whose JSON
would change at all (exact equality, not tests/test_golden.py's 1e-12),
or that would be added or removed, and exits 1 if there is one. It is
meant for changes that promise bit-identical reports. It is not a CI
step, since another BLAS may round the last bits differently.

Each command below runs in process through liemarkov.cli.main with
--no-timestamp; its file holds the argv, the exit code and the parsed
JSON stdout. The README's error cases run the
same way, some with a model file on stdin (`--model -`); their files
hold the argv, that stdin, the exit code and the `error:` line, the last
line of stderr, and they print nothing to stdout. The n = 61
equal-input model is fed on stdin too, but its file (1.1 MB) is built
by conftest.equal_input_doc, CI's recipe, and its pins record only n:
export's 2.5 MB of stdout is pinned by its byte length and sha256, and
a 20-pair check by its `error:` line (every one of its first 11 pairs
exhausts its sampler, each stream read about 61 000 words deep).
tests/test_golden.py compares the current program against these files.

The files in audit/ hold what a per-pair audit finds, one file per
(model, seed) at 150 pairs and the default tolerance;
tests/test_closure.py checks the block audit against them. The loop
here shares none of the block audit's stack code: pair k draws q then
q' by sample_with_rng on pair_rng(seed, k), a pair with
s = ||q||_F + ||q'||_F > 0.65 becomes (t q, t q'), t = 0.65 / s
(conftest.audit_pair), and its log_product, checked against scipy's
logm to 1e-12, goes to model_residual. A pair whose sampler is
exhausted or whose product has no principal log is not tested. The
dimensions come from span_basis and lie_closure. "cyclic-6" and
"cyclic-8" are conftest.cyclic_model at scales 6 and 8, one-dimensional
and so closed, whose raw products lie close to singular.

A change that regenerates these files should say which fields moved
and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm, logm

from liemarkov import PrincipalLogError, SamplingError, lie_closure, log_product, model_residual, span_basis, zoo_model
from liemarkov.cli import main
from liemarkov.linalg import DEFAULT_MEMBERSHIP_TOL
from liemarkov.model import model_to_dict
from liemarkov.zoo import zoo_names

HERE = Path(__file__).resolve().parent
# The audit pairs come from the tests' own helpers, in the directory above.
sys.path.insert(0, str(HERE.parent))
from conftest import audit_pair, cyclic_model, equal_input_doc, pair_rng

AUDIT_DIR = HERE / "audit"
AUDIT_MODELS = (*zoo_names(), "cyclic-6", "cyclic-8")
AUDIT_SEEDS = (7, 2024)
AUDIT_SAMPLES = 150
MAX_WITNESSES = 10


def commands() -> dict[str, list[str]]:
    """File stem -> argv of every pinned command."""
    cmds = {}
    for model in zoo_names():
        for seed in (7, 42):
            for samples in (100, 1000):
                cmds[f"check-{model}-seed{seed}-{samples}"] = [
                    "check", "--model", model, "--seed", str(seed), "--samples", str(samples)]
        cmds[f"closure-{model}"] = ["closure", "--model", model]
        cmds[f"sample-{model}"] = ["sample", "--model", model, "--seed", "7", "--samples", "5"]
    cmds["repro-paper"] = ["repro-paper"]
    cmds = {stem: argv + ["--no-timestamp"] for stem, argv in cmds.items()}
    # export writes the bare model file, which has no timestamp and takes no --no-timestamp.
    for model in zoo_names():
        cmds[f"export-{model}"] = ["export", "--model", model]
    return cmds


def _model_text(model: str = "jc", **fields) -> str:
    """A model file: the zoo model as export writes it (jc by default), with fields replaced or added."""
    return json.dumps({**model_to_dict(zoo_model(model)), **fields})


# The README's error cases: file stem -> (argv, model file on stdin or None). Each exits 1.
ERRORS = {
    "error-unknown-flag": (["check", "--no-such-flag"], None),
    "error-flag-not-taken": (["export", "--model", "jc", "--seed", "7"], None),
    "error-tol-nan": (["check", "--model", "jc", "--tol", "nan", "--no-timestamp"], None),
    "error-index-beyond-n": (["check", "--model", "-", "--no-timestamp"], json.dumps(
        {"name": "index-beyond-n", "n": 3,
         "constraints": [{"terms": [{"coeff": 1.0, "monomial": [[1, 4]]}]}]})),
    "error-index-not-an-integer": (["check", "--model", "-"], _model_text(
        constraints=[{"terms": [{"coeff": 1.0, "monomial": [[1, "2"]]}]}])),
    "error-range-count": (["check", "--model", "-", "--no-timestamp"],
                          _model_text(parameter_ranges=[[0.001, 0.05], [0.001, 0.05]])),
    "error-constraints-not-a-list": (["check", "--model", "-", "--no-timestamp"], _model_text(constraints=5)),
    "error-infinite-range": (["check", "--model", "-", "--no-timestamp"],
                             _model_text(parameter_ranges=[[0.001, float("inf")]])),
    "error-parameterization-misses-model": (["check", "--model", "-", "--no-timestamp"],
                                            _model_text(parameterization="k2p",
                                                        parameter_ranges=[[0.001, 0.05], [0.001, 0.05]])),
    "error-range-below-zero": (["export", "--model", "-"], _model_text(parameter_ranges=[[-0.01, 0.05]])),
    "error-model-cannot-be-sampled": (["check", "--model", "-"], json.dumps(
        {"name": "bare", "n": 4, "constraints": [{"terms": [{"coeff": 1.0, "monomial": [[1, 2]]}]}]})),
    # hky's export with its first coefficient written as the string "1.0".
    "error-coefficient-not-a-number": (["check", "--model", "-"],
                                       _model_text("hky").replace('"coeff": 1.0', '"coeff": "1.0"', 1)),
}


# Commands on the n = 61 equal-input model: file stem -> (argv, n of the model fed on stdin).
EQUAL_INPUT = {
    "export-equal-input-61": (["export", "--model", "-"], 61),
    "check-equal-input-61-seed7-20": (
        ["check", "--model", "-", "--seed", "7", "--samples", "20", "--no-timestamp"], 61),
}


def run(argv: list[str], stdin: str | None = None, equal_input: int | None = None) -> dict:
    """The pinned record of one command: argv, stdin if any, exit code, then parsed stdout or the error line.

    With equal_input = n, stdin is conftest.equal_input_doc(n), recorded
    as that n, and stdout is recorded by its byte length and sha256.
    """
    if equal_input is not None:
        stdin = json.dumps(equal_input_doc(equal_input))
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    record = {"argv": argv}
    if equal_input is not None:
        record["stdin_equal_input"] = equal_input
    elif stdin is not None:
        record["stdin"] = stdin
    record["exit_code"] = code
    if out.getvalue() and equal_input is not None:
        data = out.getvalue().encode("utf-8")
        record["stdout_bytes"], record["stdout_sha256"] = len(data), hashlib.sha256(data).hexdigest()
    elif out.getvalue():
        record["stdout"] = json.loads(out.getvalue())
    else:
        record["error"] = err.getvalue().splitlines()[-1]
    return record


def audit_model(name: str):
    return cyclic_model(float(name.split("-")[1])) if name.startswith("cyclic-") else zoo_model(name)


def audit(name: str, seed: int) -> dict:
    """The per-pair audit of one model and seed, as an audit golden record."""
    model, tol = audit_model(name), DEFAULT_MEMBERSHIP_TOL
    failures, tested = [], 0
    for k in range(AUDIT_SAMPLES):
        try:
            q, q_prime = audit_pair(model, pair_rng(seed, k), tol)
            log = log_product(q, q_prime)
        except (SamplingError, PrincipalLogError):
            continue
        reference = logm(expm(q) @ expm(q_prime))
        error = np.linalg.norm(log - reference.real) / np.linalg.norm(reference.real)
        if np.abs(reference.imag).max() >= 1e-12 or error > 1e-12:
            raise AssertionError(f"{name} seed {seed} pair {k}: log_product is {error:.2e} from scipy's logm")
        tested += 1
        residual = model_residual(model, log)
        if residual > tol:
            failures.append({"pair_index": k, "residual": residual})
    if len(failures) > MAX_WITNESSES:
        # The first failure, the worst (the first of equals), then the earliest others, in pair order.
        worst = max(range(len(failures)), key=lambda i: failures[i]["residual"])
        keep = sorted({*range(MAX_WITNESSES - (worst >= MAX_WITNESSES)), worst})
        failures = [failures[i] for i in keep]
    base = span_basis(model)
    span_dim, lie_dim = len(base), len(lie_closure(base))
    if failures:
        verdict = "not_closed"
    elif model.basis and lie_dim == span_dim:
        verdict = "closed"
    else:
        verdict = "inconclusive"
    return {"model": name, "seed": seed, "samples": AUDIT_SAMPLES, "tolerance": tol,
            "mult_closed_verdict": verdict, "samples_tested": tested, "span_dim": span_dim,
            "lie_closure_dim": lie_dim, "witnesses": failures}


def dumps(record: dict) -> str:
    """Indented JSON with each innermost list of numbers, a matrix row, on one line."""
    text = json.dumps(record, indent=1)
    return re.sub(r"\[[^\[\]{}\"]*\]", lambda m: " ".join(m.group(0).split()), text) + "\n"


def records() -> dict[Path, str]:
    """The text of every pinned file, by path, computed in memory."""
    out = {HERE / f"{stem}.json": dumps(run(argv)) for stem, argv in commands().items()}
    out.update({HERE / f"{stem}.json": dumps(run(argv, stdin)) for stem, (argv, stdin) in ERRORS.items()})
    out.update({HERE / f"{stem}.json": dumps(run(argv, equal_input=n)) for stem, (argv, n) in EQUAL_INPUT.items()})
    for name in AUDIT_MODELS:
        for seed in AUDIT_SEEDS:
            out[AUDIT_DIR / f"{name}-seed{seed}.json"] = dumps(audit(name, seed))
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; list the files that would change and exit 1 if any would")
    check = parser.parse_args().check
    fresh = records()
    old = {path: path.read_text(encoding="utf-8") for path in (*HERE.glob("*.json"), *AUDIT_DIR.glob("*.json"))}
    if check:
        changed = sorted(path for path in fresh.keys() | old.keys() if fresh.get(path) != old.get(path))
        for path in changed:
            state = "added" if path not in old else "removed" if path not in fresh else "changed"
            print(f"{state}: {path.relative_to(HERE)}")
        print(f"{len(changed)} of {len(fresh)} files would change")
        sys.exit(1 if changed else 0)
    for path in old:
        path.unlink()
    AUDIT_DIR.mkdir(exist_ok=True)
    for path, text in fresh.items():
        path.write_text(text, encoding="utf-8")
    print(f"wrote {len(commands()) + len(ERRORS) + len(EQUAL_INPUT)} files to {HERE} "
          f"and {len(AUDIT_MODELS) * len(AUDIT_SEEDS)} to {AUDIT_DIR}")
