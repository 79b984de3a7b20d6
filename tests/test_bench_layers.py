"""The benchmark's traced run wraps package functions by module attribute;
a renamed or deleted layer function must fail here, not only there."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_resolves_to_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for name, module, attr in spans.LAYERS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"traced layer {name}: {module}.{attr} is not callable"
