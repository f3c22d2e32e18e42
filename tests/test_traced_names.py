"""Every package name the benchmark tracer wraps must resolve.

perfbench/tracer.py replaces the functions of its TRACED table, by name,
at every module attribute that holds them, and also wraps
PolynomialConstraint.evaluate and the registered parameterizations. A
rename or deletion of any of them breaks every traced benchmark run, so
the table is read from the tracer itself and checked here.
"""

import importlib
import importlib.util
from pathlib import Path

from liemarkov import model

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
