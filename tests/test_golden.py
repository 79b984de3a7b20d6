"""Golden outputs: a small seeded sweep must reproduce recorded bytes.

The other determinism tests compare two runs of the same code, so a
refactor that changes the bytes of ``report.json`` or ``plotdata.csv``
would still pass them.  This test pins the sha256 of both files, recorded
before the score and ``ScoreKind`` serialization refactor, and so catches
any change of output.  The digests were recorded with numpy 2.4.6 on
Python 3.11; another numpy build may round differently and need a fresh
recording, which must then be justified by the numpy change alone.
"""

import hashlib
import json

from entconform.cli import main

from synth import make_task, write_dataset_csv

GOLDEN_CONFIG = {
    "input_path": "logits.csv",
    "methods": [
        {"score": "sparsemax"},
        {"score": "entmax", "gamma": 1.5},
        {"score": "log_margin"},
        {"score": "inv_prob"},
        {"score": "raps", "lambda_reg": 0.01, "k_reg": 2},
        {"score": "raps", "lambda_reg": 0.1, "k_reg": 1, "randomized": True,
         "rng_seed": 3, "name": "raps-rand"},
        {"score": "entmax", "tune": True},
        {"score": "raps", "tune": True, "k_grid": [1, 2, 5], "name": "raps-tuned"},
    ],
    "alphas": [0.1, 0.2],
    "n_splits": 2,
    "cal_fraction": 0.5,
    "base_seed": 4,
}

GOLDEN_SHA256 = {
    "report.json": "d02c9edacb8194dab2ff29274f43b36bd5eb8b9032c0e624438bfe1962b77c86",
    "plotdata.csv": "178c5e5299a1e31aabcb35e2e9c01f8cf1e0dbdd054cc315eeb647e60fe6cb99",
}


def test_sweep_outputs_match_recorded_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_dataset_csv("logits.csv", make_task(400, num_classes=6, seed=13, radius=4.0))
    with open("config.json", "w", encoding="utf-8") as fh:
        json.dump(GOLDEN_CONFIG, fh)
    assert main(["sweep", "--config", "config.json", "--out-dir", "out"]) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
