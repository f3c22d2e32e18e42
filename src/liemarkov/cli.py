"""Command-line front end.

Subcommands: check (closure audit with exit code 0/2/3 for
closed/not_closed/inconclusive), closure (bracket-saturated basis),
sample (seeded generator draws), repro-paper (recompute the built-in
reference example) and export (write a model file). Reports are JSON
by default; text mode prints numbers to 6 significant figures.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

import numpy as np

from .closure import _algebra_at, log_product, multiplicative_closure_check
from .linalg import DEFAULT_MEMBERSHIP_TOL
from .model import (
    SamplingError,
    _sample_stochastic_stack,
    check_scaling_closure,
    load_model,
    model_to_dict,
)
from .zoo import (
    _ROW_PAIRS,
    REFERENCE_ALPHAS,
    REFERENCE_LOG_PRODUCT,
    kappa_witness,
    reference_pair,
    zoo_model,
    zoo_names,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CLOSED = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {"closed": EXIT_OK, "not_closed": EXIT_NOT_CLOSED, "inconclusive": EXIT_INCONCLUSIVE}


class CliError(Exception):
    pass


_FLAGS = {
    "--model": {"default": "hky", "help": "zoo model name (%s), a model file path, or '-' for stdin"
                % ", ".join(zoo_names())},
    "--seed": {"type": int, "default": 42, "help": "RNG seed, 0 <= seed < 2**128 (default 42)"},
    "--samples": {"type": int, "default": 100, "help": "sample count (default 100)"},
    "--tol": {"type": float, "default": DEFAULT_MEMBERSHIP_TOL,
              "help": "membership tolerance (default %(default)g)"},
    "--output": {"default": "-", "help": "output path, '-' for stdout (default)"},
    "--format": {"choices": ("json", "text"), "default": "json"},
    "--no-timestamp": {"action": "store_true", "help": "omit the timestamp field"},
}
_REPORT = ("--output", "--format", "--no-timestamp")
# Each subcommand takes only the flags it uses, except that closure and
# repro-paper still accept --samples, which they ignore, for existing command lines.
_SUBCOMMANDS = {
    "check": ("run the full multiplicative-closure audit",
              ("--model", "--seed", "--samples", "--tol", *_REPORT)),
    "closure": ("print the bracket-saturated span basis", ("--model", "--seed", "--samples", *_REPORT)),
    "sample": ("emit seeded generator samples", ("--model", "--seed", "--samples", *_REPORT)),
    "repro-paper": ("recompute the built-in reference example", ("--samples", *_REPORT)),
    "export": ("write the model in the model file format", ("--model", "--output")),
}
# A report's config block lists those of these that its subcommand takes, in this order.
_CONFIG_KEYS = ("model", "seed", "samples", "tol", "format", "output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liemarkov",
        description="Closure audits for continuous-time Markov substitution models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def _resolve_model(ref: str):
    if ref in zoo_names():
        return zoo_model(ref)
    if ref == "-":
        return load_model(sys.stdin)
    try:
        return load_model(ref)
    except OSError as exc:
        raise CliError(f"cannot read model {ref!r}: {exc}") from exc


def _config_dict(args) -> dict:
    given = vars(args)
    return {"command": args.command, **{key: given[key] for key in _CONFIG_KEYS if key in given}}


def _emit(args, payload: dict, text: str = "") -> None:
    body = text if getattr(args, "format", "json") == "text" else json.dumps(payload, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(body)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)


def _report(args, body: dict, lines: list[str], code: int) -> int:
    """Emit a subcommand's report and return its exit code.

    The JSON report is the command, its config block and the body, then
    a timestamp unless --no-timestamp is given; text mode prints lines.
    """
    payload = {"command": args.command, "config": _config_dict(args), **body}
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    _emit(args, payload, "\n".join(lines) + "\n")
    return code


def _fmt_matrix(m) -> str:
    return "\n".join("  " + "  ".join(f"{x:12.6g}" for x in row) for row in np.asarray(m))


def _cmd_check(args) -> tuple[dict, list[str], int]:
    model = _resolve_model(args.model)
    scaling = check_scaling_closure(model)
    homogeneous = all(c.homogeneous for c in model.constraints) if model.constraints else None
    report = multiplicative_closure_check(model, samples=args.samples, seed=args.seed, tol=args.tol)
    body = {
        "model": model.name,
        "scaling_closed": scaling,
        "constraints_homogeneous": homogeneous,
        "closure": report.to_dict(),
    }
    lines = [
        f"model: {model.name}",
        f"scaling closed: {'undecided' if scaling is None else scaling}",
        f"span dim: {report.span_dim}   lie closure dim: {report.lie_closure_dim}   "
        f"ambient dim: {report.ambient_dim}",
        f"verdict: {report.mult_closed_verdict} "
        f"({report.samples_tested} pairs tested at tol {report.tolerance:.6g})",
    ]
    if report.witnesses:
        worst = max(report.witnesses, key=lambda w: w.residual)
        lines.append(
            f"witnesses: {len(report.witnesses)} (worst residual {worst.residual:.6g}, "
            f"pair {worst.pair_index})"
        )
        lines.append("worst log-product:")
        lines.append(_fmt_matrix(worst.log_product))
    return body, lines, _VERDICT_EXIT[report.mult_closed_verdict]


def _cmd_closure(args) -> tuple[dict, list[str], int]:
    model = _resolve_model(args.model)
    # The model's algebra at --seed, which moves a sampled model's span; _algebra holds seed 0's.
    span, closed = _algebra_at(model, args.seed)[:2]
    body = {
        "model": model.name,
        "span_dim": len(span),
        "lie_closure_dim": len(closed),
        "basis": [b.tolist() for b in closed],
    }
    lines = [
        f"model: {model.name}",
        f"span dim: {len(span)}   lie closure dim: {len(closed)}",
    ]
    for k, b in enumerate(closed):
        lines.append(f"basis element {k}:")
        lines.append(_fmt_matrix(b))
    return body, lines, EXIT_OK


def _cmd_sample(args) -> tuple[dict, list[str], int]:
    if args.samples < 1:
        raise CliError("samples must be at least 1")
    model = _resolve_model(args.model)
    # Sample i is sample_with_rng on stream i, Generator(Philox(key=seed, counter=i << 128)).
    mats = _sample_stochastic_stack(model, args.seed, args.samples)
    body = {"model": model.name, "matrices": [m.tolist() for m in mats]}
    lines = [f"model: {model.name}"]
    for i, m in enumerate(mats):
        lines.append(f"sample {i} (stream {i} of seed {args.seed}):")
        lines.append(_fmt_matrix(m))
    return body, lines, EXIT_OK


def _cmd_repro_paper(args) -> tuple[dict, list[str], int]:
    q1, q2 = reference_pair()
    computed = log_product(q1, q2)
    expected = np.asarray(REFERENCE_LOG_PRODUCT)
    deviation = float(np.max(np.abs(computed - expected)))
    kappas = kappa_witness(computed)
    alphas = [float(computed[slot]) for slot, _ in _ROW_PAIRS]
    body = {
        "computed_log_product": computed.tolist(),
        "reference_log_product": expected.tolist(),
        "max_deviation": deviation,
        "alphas": alphas,
        "reference_alphas": list(REFERENCE_ALPHAS),
        "kappas": kappas,
        "within_tolerance": deviation <= 1e-5,
    }
    lines = [
        "log(exp(Q1) exp(Q2)), computed:",
        _fmt_matrix(computed),
        "reference:",
        _fmt_matrix(expected),
        f"max entrywise deviation: {deviation:.6g}",
        "alphas: " + "  ".join(f"{a:.6g}" for a in alphas),
        "kappas: " + "  ".join(f"{k:.6g}" for k in kappas),
    ]
    return body, lines, EXIT_OK if deviation <= 1e-5 else EXIT_NOT_CLOSED


# Each returns (body, text lines, exit code); export writes the bare model dict instead.
_HANDLERS = {
    "check": _cmd_check,
    "closure": _cmd_closure,
    "sample": _cmd_sample,
    "repro-paper": _cmd_repro_paper,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on a usage error, which is also EXIT_NOT_CLOSED.
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        if args.command == "export":
            _emit(args, model_to_dict(_resolve_model(args.model)))
            return EXIT_OK
        return _report(args, *_HANDLERS[args.command](args))
    except (CliError, ValueError, SamplingError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
