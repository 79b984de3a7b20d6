"""The benchmark's traced run wraps package functions by module attribute;
a renamed or deleted layer function must fail here, not only there, and
so must a sweep that stops reaching the layers it is traced through."""

import functools
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import entconform.cli as cli

from synth import make_task, write_dataset_csv

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    """``perfbench/spans.py``, loaded without writing into ``perfbench/``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable(spans):
    assert spans.LAYERS
    for name, module, attr in spans.LAYERS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"traced layer {name}: {module}.{attr} is not callable"


def test_a_tuned_sweep_reaches_its_traced_layers(spans, monkeypatch, tmp_path):
    # every layer is counted under each name an entconform module holds it
    # by, as the traced run rebinds them; a sweep that calls a private twin
    # in place of a layer leaves that layer at 0 calls
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, module_name, attr in spans.LAYERS:
        fn = getattr(importlib.import_module(module_name), attr)
        wrapper = counted(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "entconform" or mod_name.startswith("entconform.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)

    csv_path = tmp_path / "logits.csv"
    write_dataset_csv(str(csv_path), make_task(200, num_classes=5, seed=2))
    config = {
        "input_path": str(csv_path),
        "methods": [{"score": "entmax", "tune": True, "gamma_grid": [1.3, 1.7]}],
        "alphas": [0.1, 0.2],
        "n_splits": 1,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert set(calls) == {
        "cli.main",
        "harness.load_dataset",
        "harness.write_report",
        "harness.emit_plot_data",
        "tuning.split",
        "conformal.calibrate",
        "conformal.conformal_quantile",
        "scores.true_label_scores",
        "scores.descending_order",
        "metrics.compute_report",
    }
