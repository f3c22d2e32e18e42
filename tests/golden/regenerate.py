"""Regenerate the pinned CLI reports in tests/golden/.

    PYTHONPATH=src python tests/golden/regenerate.py

Run from the repository root. Each command below runs in process through
liemarkov.cli.main with --no-timestamp; its file holds the argv, the
exit code and the parsed JSON stdout. tests/test_golden.py compares the
current program against these files. A change that regenerates them
should say which fields moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

from liemarkov.cli import main
from liemarkov.zoo import zoo_names

HERE = Path(__file__).resolve().parent


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


def run(argv: list[str]) -> dict:
    """The pinned record of one command: argv, exit code and parsed stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": argv, "exit_code": code, "stdout": json.loads(out.getvalue())}


def dumps(record: dict) -> str:
    """Indented JSON with each innermost list of numbers, a matrix row, on one line."""
    text = json.dumps(record, indent=1)
    return re.sub(r"\[[^\[\]{}\"]*\]", lambda m: " ".join(m.group(0).split()), text) + "\n"


if __name__ == "__main__":
    for old in HERE.glob("*.json"):
        old.unlink()
    for stem, argv in commands().items():
        (HERE / f"{stem}.json").write_text(dumps(run(argv)), encoding="utf-8")
    print(f"wrote {len(commands())} files to {HERE}")
