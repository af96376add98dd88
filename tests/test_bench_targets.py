"""Every function the bench tracer wraps is still where ``bench/spans.py`` looks for it."""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_spans", os.path.join(ROOT, "bench", "spans.py"))
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "name, module, attr, scope", spans.TARGETS, ids=[f"{name}:{m}.{a}" for name, m, a, _ in spans.TARGETS]
)
def test_target_resolves(name, module, attr, scope):
    assert callable(getattr(importlib.import_module(module), attr))
