"""The README's Python API example, run as written, so that it cannot call
names that the package no longer has."""

import re
from pathlib import Path

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
