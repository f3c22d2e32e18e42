"""Mutation gate: named one-line mutants of src/, each run against tier-1 in a temporary copy.

    python tests/mutants.py [--must-kill] [NAME ...]

The script copies the repository (without .git and caches) to a
temporary directory once, checks that tier-1 passes
there unmutated, and then, for each mutant in turn, writes the mutated
file, runs `python -m pytest -x -q` on the copy and restores the file.
A mutant of src/liemarkov/<module>.py runs tests/test_<module>.py first,
which shortens kills; a survivor still runs all of tier-1.
A mutant's run is stopped once it has taken four times as long as the
unmutated run, and never before 60 s: a mutant can loop forever, and
hypothesis can shrink a failing example for minutes. The run is its
own session, so the whole process group is killed, pytest and any
child it started. It prints, for each mutant, killed, timeout or
survived and the seconds taken; a timeout counts as a kill. It exits
1 when a mutant marked "must kill" survives. It exits 1
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
import signal
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
           "span_dim, lie_dim = len(model._span), len(model._algebra.closure)",
           "span_dim, lie_dim = len(model._span), len(model._span)",
           "the audit would report the span as its own Lie closure and certify any span model"),
    Mutant("span-rows-unprojected", "model.py",
           "return _zero_sum(_svd_range(stack, DEFAULT_RANK_RTOL).reshape(-1, *stack.shape[1:]))",
           "return _svd_range(stack, DEFAULT_RANK_RTOL).reshape(-1, *stack.shape[1:])",
           "a thin span row or generator of two nearly parallel matrices fails lie_closure's zero-sum check"),
    Mutant("first-level-every-pair", "closure.py",
           "operands = [(gens[i], gens[i + 1:]) for i in range(d - 1)]",
           "operands = [(g, gens) for g in gens]",
           "the first level would bracket each pair twice and each generator with itself"),
    Mutant("lie-closure-cuts-at-the-gate", "closure.py",
           "return list(_saturate(_generators(stack))[0])",
           "from .linalg import _svd_range\n    from .model import _zero_sum\n"
           "    return list(_saturate(_zero_sum(_svd_range(stack, DEFAULT_BRACKET_GATE)"
           ".reshape(-1, *stack.shape[1:])))[0])",
           "lie_closure would cut its generators at the bracket gate and disagree with the model's record "
           "on nearly parallel inputs"),
    Mutant("generators-cut-at-the-gate", "model.py",
           "_svd_range(stack, DEFAULT_RANK_RTOL)", "_svd_range(stack, 1e-8)",
           "a span of two nearly parallel matrices would lose its thin direction"),
    Mutant("saturate-empty-level", "closure.py",
           "if d > level else []", "if d >= level else []",
           "a level that adds nothing would be followed by empty levels forever; the first test of "
           "test_closure.py fails when lie_closure of a closed span takes 10 s"),
    Mutant("one-pair-refused", "closure.py",
           "if samples < 1:", "if samples <= 1:",
           "an audit of exactly one pair would be refused"),
    Mutant("tie-blames-exhaustion", "closure.py",
           "if exhausted > far else", "if exhausted >= far else",
           "a tie of the two failure causes would be blamed on the sampler"),
    Mutant("hky-kappa-scale-dropped", "zoo.py",
           "_hky_constraints(), scales=(_TRANSITIONS,)),", "_hky_constraints()),",
           "HKY's transitions would not be scaled by kappa, and HKY would be F81"),
    Mutant("gtr-weights-not-normalized", "zoo.py",
           "factors = factors / total[:, None]", "pass",
           "GTR's rates would scale by the raw weights rather than by the frequencies pi"),
    Mutant("scaling-ignores-basis", "model.py",
           "return True if model.basis or all(c.homogeneous for c in model.constraints) else None",
           "return True if all(c.homogeneous for c in model.constraints) else None",
           "a span model that also declares an inhomogeneous constraint would leave scaling undecided"),
    Mutant("closure-reads-seed-0", "cli.py",
           "span = _span_rows(model, args.seed)", "span = model._span",
           "closure --seed would have no effect on a sampled model"),
    Mutant("residual-reads-the-closure", "model.py",
           "span = self._span.reshape(-1, n * n)",
           "span = self._algebra.closure[:len(self._span)].reshape(-1, n * n)",
           "the same rows, bit for bit, but membership would wait on the whole bracket saturation"),
    Mutant("span-basis-redraws-at-seed-0", "closure.py",
           "model._span if model.basis or seed == 0 else", "model._span if model.basis else",
           "a sampled model would draw 4 n^2 generators and take an SVD on every span_basis call"),
    Mutant("negative-range-loads", "model.py",
           "                if lo < 0:", "                if False:",
           "a range below zero would load, and a negative draw give a non-stochastic matrix with no error: "
           "this is the only check of a parameter's sign"),
    Mutant("constraint-index-unchecked", "model.py",
           "if i > n or j > n:", "if False:",
           "a constraint index beyond n would read another entry, or the constant 1, instead of being refused"),
    Mutant("seed-exemption-restored", "model.py",
           "        seed = _check_seed(seed)\n",
           "        seed = _check_seed(seed) if count > 0 else operator.index(seed)\n",
           "a seed outside the Philox key range would pass unchecked when no stream is drawn"),
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
           "(self._residual(q) <= 1e-10)", "(self._residual(q) <= 1e-6)",
           "a parameterization just off the model's span would be built, and every draw leave the model"),
    Mutant("landing-check-skipped", "model.py",
           "if not np.all(lands):", "if False:",
           "a parameterization that misses its model would be built, and its draws never judged"),
    Mutant("basis-draw-tolerance-absolute", "model.py",
           "return is_stochastic_rate(q, 1e-12 * np.maximum(1.0, _fro_rows(q)))",
           "return is_stochastic_rate(q, 1e-12)",
           "a basis-only sampler of large rates would reject draws inside the cone for their rounding"),
    Mutant("constraint-values-at-q", "model.py",
           "unit = q / np.where(nrm > 0.0, nrm, 1.0)[:, None, None]", "unit = q.copy()",
           "a constraint residual would change with the units of time, and a large non-member read as a member"),
    Mutant("inhomogeneous-rows-unit-scaled", "model.py",
           "np.where(raw, values(q), values(unit))", "np.where(raw, values(unit), values(unit))",
           "an inhomogeneous constraint, which has no scale, would be judged at q / ||q||_F"),
    Mutant("norm-overflow-unguarded", "linalg.py",
           'with np.errstate(over="ignore"):', "with np.errstate():",
           "a norm past 1.3e154 would warn of the overflow that _fro_rows mends, and no caller guards it"),
    Mutant("audit-exp-log-unguarded", "closure.py",
           'with np.errstate(over="ignore", invalid="ignore"):', "with np.errstate():",
           "a pair tested as drawn whose exponential overflows would warn before the log refuses it"),
    Mutant("parameterized-draws-at-width", "model.py",
           "random(np.arange(rows), 0, count * width)", "random(np.arange(rows), width, count * width)",
           "every parameterized pair would skip its stream's first candidate"),
    Mutant("sampled-span-reads-residual", "model.py",
           "        return q.reshape(rows, count, n, n), np.ones(rows, dtype=bool)",
           "        return q.reshape(rows, count, n, n), (model._residual(q) <= 1e-10).reshape(rows, count)"
           ".all(axis=1)",
           "parameterized draws would be judged again, and a sampled model's span would read its "
           "residual: before Python 3.12 a deadlock with a span model's residual, which reads its span"),
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
           "pending, offset = np.arange(rows), 0", "pending, offset = np.arange(rows), width",
           "every basis-only pair would skip its stream's first candidate"),
    Mutant("philox-counter-not-preincremented", "model.py",
           "x[0] = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)",
           "x[0] = np.arange(first, first + blocks, dtype=np.uint64)",
           "the streams would not be numpy's Philox streams"),
    Mutant("sampler-gate-dropped", "model.py",
           "if model.parameterization is None and not model.basis:", "if False:",
           "a model with neither a parameterization nor a basis would draw zero matrices silently"),
    Mutant("closure-seed-unchecked", "model.py",
           "    _check_seed(seed)\n    stack =", "    stack =",
           "closure on a declared basis would take a seed that every other seeded command refuses"),
    Mutant("column-sums-by-row", "model.py",
           'np.einsum("...ij->...j", q)', 'np.einsum("...ij->...i", q)',
           "the zero-sum checks and the zoo's diagonal would read row sums, not column sums"),
    Mutant("diagonal-summed-unzeroed", "zoo.py",
           "    diag[...] = 0.0\n", "",
           "an input diagonal would be summed into the column sums that fill the diagonal"),
    Mutant("philox-key-words-swapped", "model.py",
           "words = np.array([seed & _MASK64, seed >> 64 & _MASK64], dtype=np.uint64)",
           "words = np.array([seed >> 64 & _MASK64, seed & _MASK64], dtype=np.uint64)",
           "the streams would not be numpy's Philox streams"),
    Mutant("cli-runtime-error-uncaught", "cli.py",
           "except (CliError, ValueError, RuntimeError, OSError) as exc:",
           "except (CliError, ValueError, OSError) as exc:",
           "a SamplingError or PrincipalLogError would end a command in a traceback instead of one error line"),
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
    Mutant("column-sums-by-axis-reduction", "model.py",
           'np.einsum("...ij->...j", q)', "q.sum(axis=-2)",
           "every caller passes a fresh array or check_matrices' output, on which the two give the "
           "same bits; only a transposed view tells them apart, in the last bit", must_kill=False),
]


def stale_mutants() -> list[str]:
    """The names of the mutants, equivalent ones included, whose text is not in their file exactly once."""
    return [m.name for m in MUTANTS + EQUIVALENT
            if (ROOT / "src" / "liemarkov" / m.path).read_text(encoding="utf-8").count(m.old) != 1]


def _run_tier1(copy: Path, limit: float | None = None, module: str | None = None) -> str:
    """"passed" or "failed" for tier-1 in the copy, stopping at the first failure, or "timeout" after limit s.

    The test file of module (a file name under src/liemarkov), tests/test_<module>.py, runs
    first, where a mutant of that module is most likely to fail, then every other test file.
    """
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    # pytest runs files in the order given, but folds a file into a directory that holds it, so
    # every file is named.
    files = sorted((copy / "tests").glob("test_*.py"), key=lambda f: (f.name != f"test_{module}", f.name))
    # The table check would fail on every mutated copy, whose source no longer holds the mutant's text.
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *(str(f) for f in files if f.name != "test_mutant_table.py")],
                            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=limit) == 0 else "failed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        if proc.poll() is None:
            # The session's group holds pytest and every child it started.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


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
        if _run_tier1(copy) != "passed":
            print("tier-1 fails on the unmutated copy; no mutant can be judged", flush=True)
            return 1
        unmutated = time.perf_counter() - start
        limit = max(60.0, 4 * unmutated)
        print(f"unmutated   tier-1 passes ({unmutated:.0f} s); each mutant stops at {limit:.0f} s", flush=True)
        failed = killed = timeouts = 0
        for m in chosen:
            path = copy / "src" / "liemarkov" / m.path
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                result = _run_tier1(copy, limit, m.path)
            finally:
                path.write_text(source, encoding="utf-8")
            seconds = time.perf_counter() - start
            survived = result == "passed"
            killed += not survived
            timeouts += result == "timeout"
            failed += survived and m.must_kill
            if survived:
                status = "SURVIVED" if m.must_kill else "survived"
            else:
                status = "killed" if result == "failed" else "timeout"
            print(f"{status:11s} {m.name} ({seconds:.0f} s): {m.reason}", flush=True)
    print(f"{killed} of {len(chosen)} mutants killed ({timeouts} by timeout), "
          f"{len(EQUIVALENT)} listed as equivalent", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
