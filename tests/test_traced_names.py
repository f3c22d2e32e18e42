"""Every package name the benchmark uses must resolve.

perfbench/tracer.py replaces the functions of its TRACED table, by name,
at every module attribute that holds them, and also wraps
PolynomialConstraint.evaluate and the registered parameterizations. The
benchmark's workers and reference checks call package-level names as
``lm.<name>``. A rename, deletion or un-export of any of them breaks
every benchmark run, so the names are read from the benchmark's own
files and checked here.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import liemarkov
from liemarkov import model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_traced_names_resolve():
    table = _traced_table()
    assert table
    missing = [
        f"liemarkov.{module}.{name}"
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"liemarkov.{module}"), name, None))
    ]
    assert missing == []


def test_other_tracer_hooks_resolve():
    importlib.import_module("liemarkov.config")
    assert callable(model.PolynomialConstraint.evaluate)
    assert isinstance(model._PARAMETERIZATIONS, dict) and model._PARAMETERIZATIONS


def test_benchmark_package_names_resolve():
    importlib.import_module("liemarkov.cli")
    used = {
        name
        for path in PERFBENCH.glob("*.py")
        for name in re.findall(r"\blm\.(\w+)", path.read_text(encoding="utf-8"))
    }
    assert {"RateModel", "span_basis", "cli"} <= used
    assert sorted(name for name in used if not hasattr(liemarkov, name)) == []
