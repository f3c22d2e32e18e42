#!/usr/bin/env python3
"""Audit every built-in model and print a verdict table."""

import argparse
import time

from liemarkov import check_scaling_closure, multiplicative_closure_check, zoo_model, zoo_names


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tol", type=float, default=1e-8)
    args = parser.parse_args()

    header = f"{'model':<6} {'span':>4} {'lie':>4} {'scaling':>8} {'verdict':>14} {'witnesses':>9} {'secs':>6}"
    print(header)
    print("-" * len(header))
    for name in zoo_names():
        model = zoo_model(name)
        start = time.perf_counter()
        scaling = check_scaling_closure(model)
        report = multiplicative_closure_check(
            model, samples=args.samples, seed=args.seed, tol=args.tol
        )
        elapsed = time.perf_counter() - start
        print(
            f"{name:<6} {report.span_dim:>4} {report.lie_closure_dim:>4} "
            f"{str(scaling):>8} {report.mult_closed_verdict:>14} "
            f"{len(report.witnesses):>9} {elapsed:>6.2f}"
        )


if __name__ == "__main__":
    main()
