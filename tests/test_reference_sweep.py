"""Every cell of a sweep equals the cell rebuilt from the public functions.

The sweep sorts its input once and reads every split, method, alpha and
grid point from that one sort.  The reference route never sees it: for
each split it calls ``split`` on the dataset, then ``calibrate`` (or
``tune_gamma`` / ``tune_raps`` with the split's seed), then ``set_masks``
on the test logits, ``EvaluationRun`` and ``compute_report``, each of
which sorts fresh row blocks.  The sweep reads its own CSV, so nothing it
does to its input can reach the reference's arrays.
"""

import numpy as np
import pytest

from entconform import (
    EvaluationRun,
    ExperimentConfig,
    LabeledLogitDataset,
    SizeBins,
    SplitSpec,
    calibrate,
    compute_report,
    run_experiment,
    set_masks,
    split,
    tune_gamma,
    tune_raps,
)

from synth import make_task, write_dataset_csv

METHODS = [
    {"score": "sparsemax"},
    {"score": "entmax", "gamma": 1.5},
    {"score": "log_margin"},
    {"score": "inv_prob"},
    {"score": "raps", "lambda_reg": 0.01, "k_reg": 5},
    {"score": "raps", "lambda_reg": 0.1, "k_reg": 2, "randomized": True, "rng_seed": 3,
     "name": "raps-randomized"},
    {"score": "entmax", "tune": True, "gamma_grid": [1.2, 1.6, 1.9]},
    {"score": "raps", "tune": True, "lambda_grid": [0.01, 0.1], "k_grid": [1, 5],
     "name": "raps-tuned"},
]
ALPHAS = (0.02, 0.1, 0.2)
N_SPLITS = 3
CAL_FRACTION = 0.5
BASE_SEED = 7


def _tied(data: LabeledLogitDataset) -> LabeledLogitDataset:
    """The logits rounded to integers, so that many labels tie in a row."""
    return LabeledLogitDataset(np.round(data.logits), data.labels)


INPUTS = {
    "k10": lambda: make_task(400, num_classes=10, seed=31),
    "k100": lambda: make_task(240, num_classes=100, seed=32),
    "k1000": lambda: make_task(100, num_classes=1000, seed=33),
    "k10-tied": lambda: _tied(make_task(400, num_classes=10, seed=34)),
    "k100-tied": lambda: _tied(make_task(240, num_classes=100, seed=35)),
}


def _reference_cells(data: LabeledLogitDataset, cfg: ExperimentConfig, seed: int):
    """``(method name, alpha, report, tuning result or None)`` of one split,
    from the public functions on datasets."""
    cal, test = split(data, SplitSpec((cfg.cal_fraction, 1.0 - cfg.cal_fraction), seed))
    bins = SizeBins.default(data.num_classes)
    for method in cfg.methods:
        for alpha in cfg.alphas:
            tuning = None
            if method.tune and method.score == "entmax":
                tuning = tune_gamma(cal, alpha, grid=method.gamma_grid, seed=seed)
            elif method.tune:
                tuning = tune_raps(cal, alpha, method.lambda_grid, method.k_grid, seed=seed)
            pred = tuning.predictor if tuning else calibrate(cal, method.kind, alpha)
            run = EvaluationRun(sets=set_masks(test.logits, pred), labels=test.labels, alpha=alpha)
            yield method.name, alpha, compute_report(run, bins), tuning


@pytest.mark.parametrize("make", INPUTS.values(), ids=list(INPUTS))
def test_every_sweep_cell_equals_the_public_route(make, tmp_path):
    data = make()
    path = tmp_path / "logits.csv"
    write_dataset_csv(str(path), data)
    cfg = ExperimentConfig.from_dict({
        "input_path": str(path),
        "methods": METHODS,
        "alphas": list(ALPHAS),
        "n_splits": N_SPLITS,
        "cal_fraction": CAL_FRACTION,
        "base_seed": BASE_SEED,
    })
    report = run_experiment(cfg)
    assert report.split_seeds == tuple(BASE_SEED + s for s in range(N_SPLITS))
    checked = 0
    for s, seed in enumerate(report.split_seeds):
        for name, alpha, want, tuning in _reference_cells(data, cfg, seed):
            cell = report.cells[name][alpha][s]
            assert cell.report.to_json_dict() == want.to_json_dict(), (name, alpha, seed)
            if tuning is None:
                assert cell.tuning is None
            else:
                got = cell.tuning.to_json_dict()
                assert got["chosen"] == tuning.to_json_dict()["chosen"], (name, alpha, seed)
                assert got["objective"] == tuning.objective, (name, alpha, seed)
                assert got == tuning.to_json_dict()
                assert cell.tuning.predictor == tuning.predictor
            checked += 1
    assert checked == len(METHODS) * len(ALPHAS) * N_SPLITS
