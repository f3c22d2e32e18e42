"""Mutation gate: named one-line mutants of src/, each run against tier-1 in a temporary copy.

    python tests/mutants.py [--must-kill] [NAME ...]

The script copies the repository (without .git and caches) to a
temporary directory once, checks that tier-1 passes
there unmutated, and then, for each mutant in turn, writes the mutated
file, runs `python -m pytest -x -q` on the copy and restores the file.
It prints, for each mutant, killed or survived and the seconds taken,
and exits 1 when a mutant marked "must kill" survives. It exits 1
before running anything when a mutant's text no longer occurs exactly
once in its file (the table is stale). NAME arguments run only those mutants; --must-kill runs only
the must-kill ones. A full run skips the mutants listed in EQUIVALENT:
no input found tells them apart from the program, and each says why.
Naming one runs it, to confirm that it still survives.

It is a tool, not a tier-1 test: a full run takes minutes (a killed
mutant stops at its first failing test, a survivor runs all of them).
Only the staleness check runs in tier-1 (tests/test_mutant_table.py,
which the mutated copies skip), so an edit to src/ that strands a
mutant fails at once.
Each change to src/ adds mutants for what it changes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/liemarkov
    old: str  # must occur exactly once in the file
    new: str
    reason: str
    must_kill: bool = True


MUTANTS = [
    Mutant("verdict-ge", "closure.py",
           "elif model.basis and lie_dim == span_dim:", "elif model.basis and lie_dim >= span_dim:",
           "a span that is not bracket-closed would audit closed when no pair fails"),
    Mutant("audit-dims-span-twice", "closure.py",
           "span_dim, lie_dim = len(model._algebra.span), len(model._algebra.closure)",
           "span_dim, lie_dim = len(model._algebra.span), len(model._algebra.span)",
           "the audit would report the span as its own Lie closure and certify any span model"),
    Mutant("span-rows-unprojected", "closure.py",
           "return _zero_sum(_svd_range(stack, rel_tol).reshape(-1, *stack.shape[1:]))",
           "return _svd_range(stack, rel_tol).reshape(-1, *stack.shape[1:])",
           "a thin span row or generator of two nearly parallel matrices fails lie_closure's zero-sum check"),
    Mutant("first-level-every-pair", "closure.py",
           "operands = [(gens[i], gens[i + 1:]) for i in range(d - 1)]",
           "operands = [(g, gens) for g in gens]",
           "the first level would bracket each pair twice and each generator with itself"),
    Mutant("scaling-ignores-basis", "model.py",
           "return True if model.basis or all(c.homogeneous for c in model.constraints) else None",
           "return True if all(c.homogeneous for c in model.constraints) else None",
           "a span model that also declares an inhomogeneous constraint would leave scaling undecided"),
    Mutant("closure-reads-seed-0", "cli.py",
           "span, closed = _algebra_at(model, args.seed)[:2]", "span, closed = model._algebra[:2]",
           "closure --seed would have no effect on a sampled model"),
    Mutant("column-means-not-in-basis", "closure.py",
           "flat[:n].reshape(n, n, n)[np.arange(n), :, np.arange(n)] = 1.0 / math.sqrt(n)", "pass",
           "the projection would no longer remove column means, so rounding would leave brackets and "
           "directions off the zero-sum space"),
    Mutant("directions-not-reprojected", "closure.py",
           "flat[n + d:n + d + k] = new - (new @ known.T) @ known", "flat[n + d:n + d + k] = new",
           "a direction with a small singular value would keep eps/sigma of the basis and of the column means"),
    Mutant("transposed-svd-read-by-rows", "closure.py",
           "new = u[:, :k].T", "new = u[:k]",
           "the new directions are the leading columns of the left factor of the block's transpose, not its rows"),
    Mutant("gate-shortcut-10x", "closure.py",
           "if bound <= DEFAULT_BRACKET_GATE:", "if bound <= 10 * DEFAULT_BRACKET_GATE:",
           "a bracket block just above the gate would be dropped without its SVD"),
    Mutant("zero-sum-check-1e-6", "model.py",
           "if not _zero_sums(stack, 1e-10 * scale).all():", "if not _zero_sums(stack, 1e-6 * scale).all():",
           "models and lie_closure would take generators that are not rate matrices"),
    Mutant("acceptance-residual-1e-6", "model.py",
           "(model._residual(q) <= 1e-10)", "(model._residual(q) <= 1e-6)",
           "a parameterization just off the model's span would pass its draws"),
    Mutant("derived-takes-the-lock", "model.py",
           "    def __get__(self, instance, owner=None):", "    def _get(self, instance, owner=None):",
           "before Python 3.12, two threads filling _residual and _algebra of two models deadlock",
           must_kill=sys.version_info < (3, 12)),
    Mutant("no-bch-scaling", "closure.py",
           "t = _BCH_DOMAIN / np.maximum(norms[0::2] + norms[1::2], _BCH_DOMAIN)",
           "t = np.ones(count)",
           "pairs outside the BCH domain would refute closure unsoundly"),
    Mutant("tested-mask-is-sampled", "closure.py",
           "return pairs[:, 0], pairs[:, 1], logs, sampled, ok",
           "return pairs[:, 0], pairs[:, 1], logs, sampled, sampled",
           "products beyond the log's radius would count as tested pairs"),
    Mutant("refused-log-rows-kept", "linalg.py",
           "series[refused] = np.nan", "pass",
           "a log refused beyond its radius would return a finite wrong-branch row"),
    Mutant("offset-not-advanced", "model.py",
           "        offset += width", "        offset += 0",
           "a redraw would reread the words of the attempt before it"),
    Mutant("skip-ignored", "model.py",
           "[:, skip:skip + m]", "[:, :m]",
           "a draw at an offset that is not a multiple of four would read the wrong words"),
    Mutant("first-attempt-at-width", "model.py",
           "q, accept = draw(pending, 0, count)", "q, accept = draw(pending, width, count)",
           "every pair would skip its stream's first candidate"),
    Mutant("philox-counter-not-preincremented", "model.py",
           "x[0] = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)",
           "x[0] = np.arange(first, first + blocks, dtype=np.uint64)",
           "the streams would not be numpy's Philox streams"),
    Mutant("philox-key-words-swapped", "model.py",
           "words = np.array([seed & _MASK64, seed >> 64 & _MASK64], dtype=np.uint64)",
           "words = np.array([seed >> 64 & _MASK64, seed & _MASK64], dtype=np.uint64)",
           "the streams would not be numpy's Philox streams"),
]

EQUIVALENT = [
    Mutant("singular-retry-det-eq-0", "linalg.py",
           "singular = ~(np.abs(np.linalg.det(a)) > 0.0)", "singular = np.linalg.det(a) == 0.0",
           "numpy's det is exactly 0 whenever LU meets a zero pivot, the only case in which solve "
           "raises; all 2 x 2 and 3 x 3 non-finite matrices over {inf, NaN, 0, 1} were searched",
           must_kill=False),
    Mutant("log-one-block-floor", "linalg.py",
           "blocks = max(-(-int(terms.max(initial=0)) // 4), 2)",
           "blocks = max(-(-int(terms.max(initial=0)) // 4), 1)",
           "the floor of two blocks only keeps a one-block table's contraction a matrix product; "
           "no test sees the rounding of the other path", must_kill=False),
]


def stale_mutants() -> list[str]:
    """The names of the mutants, equivalent ones included, whose text is not in their file exactly once."""
    return [m.name for m in MUTANTS + EQUIVALENT
            if (ROOT / "src" / "liemarkov" / m.path).read_text(encoding="utf-8").count(m.old) != 1]


def _run_tier1(copy: Path) -> bool:
    """Whether tier-1 passes in the copy, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    # The table check would fail on every mutated copy, whose source no longer holds the mutant's text.
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           "--ignore", str(copy / "tests" / "test_mutant_table.py")],
                          cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--must-kill", action="store_true", help="run only the must-kill mutants")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS + EQUIVALENT}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    named = [m for m in MUTANTS + EQUIVALENT if m.name in args.names]
    chosen = [m for m in named or MUTANTS if m.must_kill or not args.must_kill]
    stale = stale_mutants()
    if stale:
        print(f"stale table: the text of {', '.join(stale)} is not in its file exactly once", flush=True)
        return 1
    for m in EQUIVALENT:
        print(f"equivalent  {m.name}: {m.reason}", flush=True)
    with tempfile.TemporaryDirectory(prefix="liemarkov-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        caches = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT, copy, ignore=caches)
        start = time.perf_counter()
        if not _run_tier1(copy):
            print("tier-1 fails on the unmutated copy; no mutant can be judged", flush=True)
            return 1
        print(f"unmutated   tier-1 passes ({time.perf_counter() - start:.0f} s)", flush=True)
        failed = killed = 0
        for m in chosen:
            path = copy / "src" / "liemarkov" / m.path
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                survived = _run_tier1(copy)
            finally:
                path.write_text(source, encoding="utf-8")
            seconds = time.perf_counter() - start
            killed += not survived
            failed += survived and m.must_kill
            status = ("SURVIVED" if m.must_kill else "survived") if survived else "killed"
            print(f"{status:11s} {m.name} ({seconds:.0f} s): {m.reason}", flush=True)
    print(f"{killed} of {len(chosen)} mutants killed, {len(EQUIVALENT)} listed as equivalent", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
