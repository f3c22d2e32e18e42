"""The pinned CLI reports of tests/golden/, compared structurally.

Verdicts, indices, dimensions, keys, strings and exit codes must match
exactly; floats to 1e-12 relative, since another numpy or BLAS may round
differently. A closure basis is compared by the span it projects onto,
because another LAPACK may rotate singular vectors within a repeated
singular value. An error case feeds its pinned stdin, prints nothing to
stdout, and its last stderr line must be the pinned `error:` line. A pin
of the n = 61 equal-input model feeds conftest.equal_input_doc(61) on
stdin, and its stdout, when pinned, must match in byte length and
sha256. tests/golden/regenerate.py rewrites the files.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from liemarkov.cli import main

from conftest import equal_input_doc

GOLDEN = Path(__file__).resolve().parent / "golden"
FILES = sorted(GOLDEN.glob("*.json"))
RTOL = 1e-12


def _compare(got, want, path: str) -> None:
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            _compare(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for k, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{k}]")
    elif isinstance(want, float):
        assert abs(got - want) <= RTOL * abs(want), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def _projector(basis: list) -> np.ndarray:
    v = np.reshape(basis, (len(basis), -1))
    return v.T @ v


def test_every_pinned_command_has_a_file():
    assert len(FILES) == 57
    assert sum(p.stem.startswith("error-") for p in FILES) == 12
    assert sum("equal-input-61" in p.stem for p in FILES) == 2


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_report_matches_pin(path, monkeypatch):
    pin = json.loads(path.read_text(encoding="utf-8"))
    stdin = pin.get("stdin", "")
    if "stdin_equal_input" in pin:
        stdin = json.dumps(equal_input_doc(pin["stdin_equal_input"]))
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(pin["argv"]))
    assert code == pin["exit_code"]
    if "error" in pin:
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1] == pin["error"]
        return
    if "stdout_sha256" in pin:
        data = out.getvalue().encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (pin["stdout_bytes"], pin["stdout_sha256"])
        return
    got, want = json.loads(out.getvalue()), pin["stdout"]
    if pin["argv"][0] == "closure":
        got_basis, want_basis = got.pop("basis"), want.pop("basis")
        assert len(got_basis) == len(want_basis)
        assert np.abs(_projector(got_basis) - _projector(want_basis)).max() <= RTOL
    _compare(got, want, pin["argv"][0])


def test_comparison_is_structural():
    doc = {"verdict": "closed", "index": 3, "value": 0.25, "rows": [[1.0, -2.0]]}
    _compare(json.loads(json.dumps(doc)), doc, "doc")
    _compare({**doc, "value": 0.25 * (1 + 1e-13)}, doc, "doc")
    for changed in ({**doc, "value": 0.25 * (1 + 1e-11)}, {**doc, "index": 3.0},
                    {**doc, "verdict": "not_closed"}, {**doc, "rows": [[1.0]]},
                    {"index": 3, **doc}):
        with pytest.raises(AssertionError):
            _compare(changed, doc, "doc")
