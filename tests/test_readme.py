"""The README's Python API example, run as written, so that it cannot call
names that the package no longer has; and its list of removed names, none
of which may come back."""

import importlib
import re
from pathlib import Path

import pytest

from synth import make_task

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    task = make_task(600, num_classes=10, seed=3)
    namespace = {
        "cal_logits": task.logits[:300],
        "cal_labels": task.labels[:300],
        "test_logits": task.logits[300:],
    }
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["one_row"] == namespace["sets"][0]


def removed_names() -> list[str]:
    """The names that open each bullet of the README's "Removed" list: the
    backquoted identifiers before the first backquote-colon."""
    text = README.read_text(encoding="utf-8")
    listing = text.split("\nRemoved, ", 1)[1].split("\n\n", 2)[1]
    bullets = re.split(r"^- ", listing, flags=re.MULTILINE)[1:]
    return [name for bullet in bullets for name in re.findall(r"`(\w+)", bullet.split("`:", 1)[0])]


def test_removed_list_names_the_removed_api():
    names = removed_names()
    for name in ("threshold_masks", "empirical_coverage", "avg_set_size", "singleton_stats",
                 "size_stratified_coverage", "score_raps", "EntmaxConfig", "sscv"):
        assert name in names


@pytest.mark.parametrize("module", ["entconform", "entconform.scores", "entconform.metrics"])
def test_removed_names_do_not_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in removed_names() if hasattr(mod, name)] == []
