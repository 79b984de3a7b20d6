"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria execute.
"""

import json
import time

import numpy as np
import pytest

from entconform import (
    EvaluationRun,
    ExperimentConfig,
    PredictionSet,
    ScoreKind,
    SizeBins,
    all_label_scores,
    compute_report,
    entmax,
    run_experiment,
    support_sets_via_entmax,
    true_label_scores,
    tune_gamma,
    tune_raps,
)
from entconform.cli import main as cli_main
from entconform.conformal import LabeledLogitDataset
from entconform.scores import descending_order
from entconform.tuning import DEFAULT_GAMMA_GRID, DEFAULT_K_GRID, DEFAULT_LAMBDA_GRID

from oracles import project_simplex_bruteforce
from synth import make_task, write_dataset_csv


class criterion:
    """Prints the criterion's verdict whether it passes or raises."""

    def __init__(self, name):
        self.name = name
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        detail = f" ({self.detail})" if self.detail else ""
        print(f"[acceptance] {self.name}: {verdict}{detail}", flush=True)
        return False


METHODS = (
    {"score": "sparsemax"},
    {"score": "entmax", "gamma": 1.5},
    {"score": "log_margin"},
    {"score": "inv_prob"},
    {"score": "raps", "lambda_reg": 0.01, "k_reg": 5},
)
ALPHA_GRID = tuple(round(0.01 * i, 2) for i in range(1, 11))


def one_row(z, gamma):
    """gamma-entmax of the single score vector ``z``: a batch of one row."""
    return entmax(np.asarray(z)[None], gamma)[0]


@pytest.fixture(scope="module")
def synthetic_report(tmp_path_factory):
    """One 10-class experiment shared by the coverage and efficiency checks:
    5000 instances split 40/60 (2000 calibration / 3000 test), 5 seeds."""
    data = make_task(5000, num_classes=10, seed=7, radius=5.0, align=0.7, noise=1.0)
    path = tmp_path_factory.mktemp("synth") / "logits.csv"
    write_dataset_csv(str(path), data)
    cfg = ExperimentConfig.from_dict(
        {
            "input_path": str(path),
            "methods": list(METHODS),
            "alphas": list(ALPHA_GRID),
            "n_splits": 5,
            "cal_fraction": 0.4,
            "base_seed": 100,
        }
    )
    return run_experiment(cfg)


def test_criterion_1_temperature_equivalence():
    with criterion("1. conformal sets equal entmax supports (160k cases, <30s)"):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        ks = rng.integers(2, 11, size=10000)
        group_sizes = {k: int((ks == k).sum()) for k in range(2, 11)}
        checked = 0
        for gamma in (1.25, 1.5, 1.75, 2.0):
            delta = 1.0 / (gamma - 1.0)
            kind = ScoreKind.sparsemax() if gamma == 2.0 else ScoreKind.entmax(gamma)
            for q_hat in (0.1, 0.5, 1.0, 3.0):
                for k, n_k in group_sizes.items():
                    Z = rng.uniform(-5.0, 5.0, size=(n_k, k))
                    while True:
                        scores = all_label_scores(Z, kind)
                        near = np.abs(scores - q_hat).min(axis=1) < 1e-9
                        if not near.any():
                            break
                        Z[near] = rng.uniform(-5.0, 5.0, size=(int(near.sum()), k))
                    conformal_masks = scores <= q_hat
                    supports = support_sets_via_entmax(Z, delta / q_hat, gamma)
                    for i, sup in enumerate(supports):
                        assert set(sup.labels) == set(
                            np.flatnonzero(conformal_masks[i])
                        ), f"gamma={gamma} q_hat={q_hat} z={Z[i]!r}"
                        checked += 1
        elapsed = time.monotonic() - start
        assert checked == 160000
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_projection_oracle():
    with criterion("2. sparsemax matches exhaustive simplex projection (1e-9)"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            z = rng.uniform(-4.0, 4.0, size=k)
            expected = project_simplex_bruteforce(z)
            np.testing.assert_allclose(one_row(z, 2.0), expected, atol=1e-9)


def test_criterion_3_bisection_fidelity():
    with criterion("3. bisection normalizes to 1e-8 and meets sparsemax at 2-1e-6"):
        rng = np.random.default_rng(13)
        gammas = [round(1.0 + 0.1 * i, 1) for i in range(1, 10)]
        for _ in range(1000):
            k = int(rng.integers(2, 11))
            z = rng.uniform(-6.0, 6.0, size=k)
            for gamma in gammas:
                p = one_row(z, gamma)
                assert abs(p.sum() - 1.0) <= 1e-8
                assert np.all(p >= 0.0)
            near_two = one_row(z, 2.0 - 1e-6)
            np.testing.assert_allclose(near_two, one_row(z, 2.0), atol=1e-3)


def test_criterion_4_marginal_coverage(synthetic_report):
    with criterion("4. mean coverage within +/-0.02 of nominal, never 0.015 below"):
        report = synthetic_report
        for method in report.method_names:
            for alpha in (0.01, 0.1):
                covs = [c.report.coverage for c in report.cells[method][alpha]]
                assert len(covs) == 5
                mean_cov = float(np.mean(covs))
                nominal = 1.0 - alpha
                assert abs(mean_cov - nominal) <= 0.02, (
                    f"{method} alpha={alpha}: mean coverage {mean_cov:.4f}"
                )
                assert mean_cov >= nominal - 0.015, (
                    f"{method} alpha={alpha}: mean coverage {mean_cov:.4f}"
                )


def test_criterion_5_efficiency_monotonicity(synthetic_report):
    with criterion("5. avg set size non-increasing in alpha (<=1 small inversion)"):
        report = synthetic_report
        for method in report.method_names:
            for s in range(5):
                sizes = [
                    report.cells[method][alpha][s].report.avg_set_size
                    for alpha in ALPHA_GRID
                ]
                inversions = [
                    later - earlier
                    for earlier, later in zip(sizes, sizes[1:])
                    if later > earlier + 1e-12
                ]
                assert len(inversions) <= 1, f"{method} split {s}: {sizes}"
                assert all(v < 0.02 for v in inversions), f"{method} split {s}: {sizes}"


def pair_score(z, y, kind):
    return true_label_scores(z[None, :], [y], kind)[0]


def family_score(z, y, gamma):
    """The rank-gap score at gamma in (1, 2]: the sparsemax kind at gamma = 2."""
    return pair_score(z, y, ScoreKind.sparsemax() if gamma == 2.0 else ScoreKind.entmax(gamma))


def test_criterion_6_score_family_limits():
    # For the c = rank(y) - 1 gaps of label y, ||g||_inf <= ||g||_delta <=
    # c**(1/delta) * ||g||_inf, and the upper bound is attained at tied gaps.
    # Here lm < 20 (logits in [-10, 10]) and c <= 9 (K <= 10), so at
    # delta = 64 the delta-norm may exceed the log-margin by up to
    # 20 * (9**(1/64) - 1) ~ 0.70, and the envelope itself is asserted there.
    # Being within 1e-3 of the log-margin needs 20 * (9**(1/delta) - 1) <=
    # 1e-3, i.e. delta >= ln 9 / ln(1 + 1e-3/20) ~ 43,946; delta = 2**16
    # meets it, and gamma = 1 + 2**-16 is exact in binary. An unscaled
    # gaps**(2**16) would overflow, so this also checks the max-gap scaling.
    with criterion(
        "6. lm <= l64 <= lm*c**(1/64) (+1e-12); "
        "delta=2**16 within 1e-3 of log-margin; gamma=2 bitwise"
    ) as crit:
        rng = np.random.default_rng(64)
        worst_64 = 0.0
        for _ in range(1000):
            k = int(rng.integers(2, 11))
            z = rng.uniform(-10.0, 10.0, size=k)
            y = int(rng.integers(0, k))
            assert family_score(z, y, 2.0) == pair_score(z, y, ScoreKind.sparsemax())
            lm = pair_score(z, y, ScoreKind.log_margin())
            c = max(1, int(np.flatnonzero(descending_order(z) == y)[0]))  # rank(y) - 1
            s64 = family_score(z, y, 1.0 + 1.0 / 64.0)
            assert lm <= s64 <= lm * c ** (1.0 / 64.0) + 1e-12, (
                f"z={z!r} y={y}: l64={s64!r} lm={lm!r} c={c}"
            )
            s_far = family_score(z, y, 1.0 + 2.0**-16)
            assert abs(s_far - lm) <= 1e-3, (
                f"z={z!r} y={y}: l65536={s_far!r} lm={lm!r}"
            )
            worst_64 = max(worst_64, s64 - lm)
        crit.detail = f"max l64 - lm = {worst_64:.4f}"


def test_criterion_7_tuning_protocol():
    with criterion("7. full tuning grids, minimum attained, deterministic"):
        rng = np.random.default_rng(17)
        wide = LabeledLogitDataset(
            rng.normal(size=(400, 60)) + 3.0 * np.eye(60)[rng.integers(0, 60, 400)],
            rng.integers(0, 60, 400),
        )
        raps_a = tune_raps(wide, 0.1, DEFAULT_LAMBDA_GRID, DEFAULT_K_GRID, seed=3)
        raps_b = tune_raps(wide, 0.1, DEFAULT_LAMBDA_GRID, DEFAULT_K_GRID, seed=3)
        assert len(raps_a.table) == 16
        assert raps_a.objective == min(raps_a.table.values())
        assert raps_a.table[raps_a.chosen] == raps_a.objective
        assert raps_a == raps_b

        narrow = make_task(400, num_classes=10, seed=21, radius=5.0, align=0.7)
        gamma_a = tune_gamma(narrow, 0.1, DEFAULT_GAMMA_GRID, seed=3)
        gamma_b = tune_gamma(narrow, 0.1, DEFAULT_GAMMA_GRID, seed=3)
        assert len(gamma_a.table) == 9
        assert list(gamma_a.table) == list(DEFAULT_GAMMA_GRID)
        assert gamma_a.objective == min(gamma_a.table.values())
        assert gamma_a.table[gamma_a.chosen] == gamma_a.objective
        assert gamma_a == gamma_b


def test_criterion_8_metric_identities():
    with criterion("8. bin counts, coverage recomposition (1e-12), sscv zeros"):
        rng = np.random.default_rng(88)
        bins = SizeBins.default(10)
        for _ in range(10000):
            n = int(rng.integers(1, 26))
            sets = []
            for _ in range(n):
                size = int(rng.integers(0, 11))
                sets.append(
                    PredictionSet(tuple(sorted(rng.choice(10, size, replace=False))))
                )
            run = EvaluationRun(
                sets=tuple(sets), labels=rng.integers(0, 10, size=n), alpha=0.25
            )
            report = compute_report(run, bins)
            stats = report.stratified
            assert sum(s.n for s in stats) == run.n
            recomposed = (
                sum(s.n * s.coverage for s in stats if s.coverage is not None) / run.n
            )
            assert abs(recomposed - report.coverage) <= 1e-12

        # every nonempty bin at exactly 1 - alpha = 3/4 forces sscv == 0
        bin_sizes = {0: 1, 1: 2, 2: 4, 3: 8}
        for _ in range(200):
            chosen_bins = [b for b in range(4) if rng.random() < 0.7] or [0]
            sets, labels = [], []
            for b in chosen_bins:
                size = bin_sizes[b]
                member = tuple(range(size))
                for covered in (True, True, True, False):
                    sets.append(PredictionSet(member))
                    labels.append(0 if covered else 9)
            run = EvaluationRun(
                sets=tuple(sets), labels=np.asarray(labels), alpha=0.25
            )
            assert compute_report(run, bins).sscv == 0.0


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion("9. sweep twice: byte-identical report.json and plotdata.csv"):
        data = make_task(400, num_classes=6, seed=9, radius=4.0, align=0.8)
        csv_path = tmp_path / "logits.csv"
        write_dataset_csv(str(csv_path), data)
        cfg = {
            "input_path": str(csv_path),
            "methods": [
                {"score": "sparsemax"},
                {"score": "entmax", "tune": True, "gamma_grid": [1.3, 1.5, 1.7]},
                {"score": "raps", "lambda_reg": 0.01, "k_reg": 2},
            ],
            "alphas": [0.05, 0.1, 0.2],
            "n_splits": 3,
            "cal_fraction": 0.4,
            "base_seed": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_a)]) == 0
        assert cli_main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_b)]) == 0
        report_a = (out_a / "report.json").read_bytes()
        report_b = (out_b / "report.json").read_bytes()
        assert report_a == report_b
        assert (out_a / "plotdata.csv").read_bytes() == (out_b / "plotdata.csv").read_bytes()
        assert json.loads(report_a)["provenance"]["split_seeds"] == [5, 6, 7]
