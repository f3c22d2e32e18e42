"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload end to end on tiny inputs, requires its checks to
pass, then corrupts one output per workload (a perturbed log-product, a
flipped verdict, a dropped basis element, a wrong exit code, a second
run that differs) and requires the checks to reject each corruption.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import json
import sys

import numpy as np

import run

SEED = 3


def _perturb_witness(result):
    w = result["outputs"]["audit.hky"]["witnesses"][0]
    w["log_product"][0][1] += 1e-6


def _flip_gtr_verdict(result):
    result["outputs"]["audit.gtr"]["mult_closed_verdict"] = "closed"


def _drop_span_element(result):
    result["outputs"]["audit.lm88"]["span_dim"] -= 1


def _flip_k2p_verdict(result):
    result["outputs"]["audit.k2p"]["mult_closed_verdict"] = "inconclusive"


def _drop_basis_element(result):
    result["outputs"]["saturate.n5"].pop()


def _rotate_basis(result):
    basis = np.array(result["outputs"]["saturate.n4"])
    basis[0] = basis[0] + 1e-6 * basis[1]
    result["outputs"]["saturate.n4"] = basis.tolist()


def _wrong_exit_code(result):
    result["outputs"]["cli.check.hky"]["code"] = 0


def _differing_rerun(result):
    result["mismatches"]["cli.repro-paper"] = 1


def _perturb_repro(result):
    doc = json.loads(result["outputs"]["cli.repro-paper"]["stdout"])
    doc["computed_log_product"][2][3] += 2e-5
    result["outputs"]["cli.repro-paper"]["stdout"] = json.dumps(doc)


CORRUPTIONS = {
    "audit-constraint": [_perturb_witness, _flip_gtr_verdict],
    "audit-span": [_drop_span_element, _flip_k2p_verdict],
    "saturate": [_drop_basis_element, _rotate_basis],
    "cli": [_wrong_exit_code, _differing_rerun, _perturb_repro],
}


def main() -> int:
    failures = []
    for workload, corruptions in CORRUPTIONS.items():
        inputs = run.make_inputs(workload, SEED, tiny=True)
        result = run.collect(inputs, 0.0, trace=False)
        errors = run.check(inputs, result, SEED) + result["errors"]
        status = "ok" if not errors else f"FAILED: {errors[:3]}"
        print(f"{workload}: {result['rounds']} rounds, checks {status}")
        if errors:
            failures.append(workload)
            continue
        for corrupt in corruptions:
            bad = copy.deepcopy(result)
            corrupt(bad)
            caught = run.check(inputs, bad, SEED)
            print(f"  {corrupt.__name__.lstrip('_')}: "
                  + (f"rejected ({caught[0]})" if caught else "NOT rejected"))
            if not caught:
                failures.append(f"{workload}/{corrupt.__name__}")
    print("selftest", "passed" if not failures else f"failed: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
