import math

import numpy as np
import pytest

from entconform import (
    InsufficientData,
    InvalidFractions,
    InvalidInput,
    LabeledLogitDataset,
    RapsParams,
    ScoreKind,
    SplitSpec,
    calibrate,
    split,
    tune_gamma,
    tune_raps,
)
from entconform import scores
from entconform.tuning import DEFAULT_GAMMA_GRID, DEFAULT_K_GRID, DEFAULT_LAMBDA_GRID

from oracles import delta_norm, gap_vector, order_statistic
from synth import make_task


def random_dataset(rng, n=40, k=4):
    return LabeledLogitDataset(rng.normal(size=(n, k)), rng.integers(0, k, n))


class TestSplit:
    def test_sizes_forty_sixty(self):
        rng = np.random.default_rng(1)
        parts = split(random_dataset(rng, n=10), SplitSpec((0.4, 0.6), seed=3))
        assert [p.n for p in parts] == [4, 6]

    def test_floor_rule_remainder_to_last(self):
        rng = np.random.default_rng(2)
        parts = split(random_dataset(rng, n=5), SplitSpec((0.5, 0.5), seed=3))
        assert [p.n for p in parts] == [2, 3]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, n=23)
        a = split(data, SplitSpec((0.6, 0.4), seed=11))
        b = split(data, SplitSpec((0.6, 0.4), seed=11))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.logits, pb.logits)
            np.testing.assert_array_equal(pa.labels, pb.labels)

    def test_partition_is_disjoint_permutation(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, n=31)
        parts = split(data, SplitSpec((0.3, 0.3, 0.4), seed=7))
        rows = np.vstack([p.logits for p in parts])
        # every original row appears exactly once across the parts
        original = {tuple(r) for r in data.logits}
        recovered = [tuple(r) for r in rows]
        assert len(recovered) == data.n
        assert set(recovered) == original

    def test_invalid_fractions(self):
        with pytest.raises(InvalidFractions):
            SplitSpec((0.5, 0.6), seed=0)
        with pytest.raises(InvalidFractions):
            SplitSpec((1.0, 0.0), seed=0)
        with pytest.raises(InvalidFractions):
            SplitSpec((1.0,), seed=0)

    def test_too_few_instances(self):
        rng = np.random.default_rng(5)
        with pytest.raises(InsufficientData):
            split(random_dataset(rng, n=2), SplitSpec((0.3, 0.3, 0.4), seed=0))

    def test_view_parts_match_dataset_parts(self):
        # a sorted view splits as its dataset does: each part is a gather
        # of the view holding the dataset part's rows, in order, with each
        # row's label rank
        rng = np.random.default_rng(6)
        logits = np.concatenate([rng.normal(size=(20, 5)), rng.integers(0, 3, (17, 5))])
        data = LabeledLogitDataset(logits, rng.integers(0, 5, 37))
        spec = SplitSpec((0.3, 0.3, 0.4), seed=9)
        parts = split(data, spec)
        gathers = split(scores._sort_rows(data.logits, data.labels), spec)
        assert [g.n for g in gathers] == [p.n for p in parts] == [11, 11, 15]
        for part, gather in zip(parts, gathers):
            assert isinstance(gather, scores._SortedRows)
            np.testing.assert_array_equal(gather.Z[gather.idx], part.logits)
            ranks = [len(gap_vector(z, y)) for z, y in zip(part.logits, part.labels)]
            np.testing.assert_array_equal(gather.rank, ranks)


def gamma_toy_dataset():
    """Six instances scoring exactly 1 for every gamma, four whose label-2
    set membership depends on gamma (two gaps 0.9 and 0.8: in for the
    near-max norm, out for the near-sum norm)."""
    pinned = ([2.0, 1.0, -3.0], 1)
    discriminator = ([2.0, 1.9, 1.1], 0)
    rows = [pinned] * 6 + [discriminator] * 4
    return LabeledLogitDataset(
        np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    )


def oracle_tune_gamma_table(data, alpha, grid, spec):
    """Re-derive the tuning table from first principles.

    Uses the same seeded permutation contract as the library split, then
    computes every score, quantile, and set size with the independent
    oracle helpers.
    """
    n = data.n
    perm = np.random.default_rng(spec.seed).permutation(n)
    n_cal = int(math.floor(n * spec.fractions[0] + 1e-9))
    cal_idx, tune_idx = perm[:n_cal], perm[n_cal:]
    table = {}
    for gamma in grid:
        delta = 1.0 / (gamma - 1.0)
        cal_scores = [
            delta_norm(gap_vector(data.logits[i], int(data.labels[i])), delta)
            for i in cal_idx
        ]
        r = math.ceil((len(cal_scores) + 1) * (1.0 - alpha))
        q_hat = math.inf if r > len(cal_scores) else order_statistic(cal_scores, r)
        sizes = []
        for i in tune_idx:
            z = data.logits[i]
            members = [
                y
                for y in range(z.size)
                if delta_norm(gap_vector(z, y), delta) <= q_hat
            ]
            sizes.append(len(members))
        table[gamma] = float(np.mean(sizes))
    return table


class TestTuneGamma:
    def test_single_element_grid(self):
        rng = np.random.default_rng(6)
        result = tune_gamma(random_dataset(rng), 0.2, grid=[1.5], seed=1)
        assert result.chosen == 1.5
        assert list(result.table) == [1.5]

    def test_handbuilt_discrimination(self):
        # seed 0 puts two discriminators in each part; the near-sum norm
        # (gamma=1.9) excludes their third label, the near-max norm keeps it
        data = gamma_toy_dataset()
        spec = SplitSpec((0.6, 0.4), seed=0)
        result = tune_gamma(data, 0.5, grid=[1.1, 1.9], seed=spec.seed)
        expected = oracle_tune_gamma_table(data, 0.5, [1.1, 1.9], spec)
        assert result.table == pytest.approx(expected)
        assert expected[1.9] < expected[1.1]
        assert result.chosen == 1.9
        assert result.objective == pytest.approx(expected[1.9])

    def test_table_covers_whole_grid(self):
        rng = np.random.default_rng(7)
        result = tune_gamma(
            random_dataset(rng, n=60),
            0.2,
            grid=DEFAULT_GAMMA_GRID,
            seed=2,
        )
        assert list(result.table) == list(DEFAULT_GAMMA_GRID)
        assert result.objective == min(result.table.values())

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, n=30, k=5)
        spec = SplitSpec((0.6, 0.4), seed=4)
        grid = [1.2, 1.5, 1.8]
        result = tune_gamma(data, 0.3, grid=grid, seed=spec.seed)
        expected = oracle_tune_gamma_table(data, 0.3, grid, spec)
        assert result.table == pytest.approx(expected)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, n=50)
        a = tune_gamma(data, 0.2, seed=5)
        b = tune_gamma(data, 0.2, seed=5)
        assert a == b

    def test_bad_grid(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng)
        with pytest.raises(InvalidInput):
            tune_gamma(data, 0.2, grid=[], seed=0)
        with pytest.raises(InvalidInput):
            tune_gamma(data, 0.2, grid=[2.0], seed=0)

    def test_insufficient_data(self):
        rng = np.random.default_rng(11)
        with pytest.raises(InsufficientData):
            tune_gamma(random_dataset(rng, n=1), 0.2, grid=[1.5], seed=0)


class TestTuneRaps:
    def test_one_by_one_grid(self):
        rng = np.random.default_rng(12)
        result = tune_raps(
            random_dataset(rng),
            0.2,
            lambda_grid=[0.1],
            k_grid=[2],
            seed=1,
        )
        assert result.chosen == (0.1, 2)

    def test_tie_breaks_lexicographically(self):
        # with k_reg = K the penalty never binds, so every lambda ties;
        # the smallest (lambda, k) pair must win
        rng = np.random.default_rng(13)
        data = random_dataset(rng, n=40, k=4)
        result = tune_raps(
            data,
            0.2,
            lambda_grid=[0.0, 0.5, 1.0],
            k_grid=[4],
            seed=2,
        )
        objectives = list(result.table.values())
        assert objectives.count(result.objective) == 3
        assert result.chosen == (0.0, 4)

    def test_full_grid_has_sixteen_entries(self):
        rng = np.random.default_rng(14)
        data = random_dataset(rng, n=200, k=60)
        result = tune_raps(
            data,
            0.1,
            lambda_grid=DEFAULT_LAMBDA_GRID,
            k_grid=DEFAULT_K_GRID,
            seed=3,
        )
        assert len(result.table) == 16
        assert result.table[result.chosen] == result.objective
        assert result.objective == min(result.table.values())

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        data = random_dataset(rng, n=60)
        assert tune_raps(data, 0.2, seed=6, k_grid=[1, 2]) == tune_raps(
            data, 0.2, seed=6, k_grid=[1, 2]
        )


class TestGridEntries:
    @pytest.mark.parametrize(
        "grids",
        [
            {"k_grid": [2.9]},
            {"k_grid": [True]},
            {"k_grid": ["2"]},
            {"lambda_grid": [True]},
            {"lambda_grid": ["0.1"]},
        ],
        ids=["k-real", "k-bool", "k-str", "lambda-bool", "lambda-str"],
    )
    def test_raps_rejects_mistyped_entry(self, grids):
        grids = {"lambda_grid": [0.01], "k_grid": [2], **grids}
        with pytest.raises(InvalidInput):
            tune_raps(make_task(200, 5), 0.1, **grids)

    @pytest.mark.parametrize("entry", [True, "1.5"])
    def test_gamma_rejects_mistyped_entry(self, entry):
        with pytest.raises(InvalidInput):
            tune_gamma(make_task(200, 5), 0.1, grid=[1.5, entry])

    def test_numpy_entries_keep_python_keys(self):
        data = make_task(200, 5)
        result = tune_raps(data, 0.1, np.array([0.01]), np.array([2]))
        assert result == tune_raps(data, 0.1, [0.01], [2])
        assert [type(v) for v in result.chosen] == [float, int]


class TestChosenPredictor:
    """The grid's calibration at the chosen parameter is the final predictor."""

    def test_tune_gamma_predictor(self):
        data = make_task(300, 8, seed=4)
        spec = SplitSpec((0.6, 0.4), seed=5)
        result = tune_gamma(data, 0.1, grid=[1.2, 1.5, 1.8], seed=spec.seed)
        want = calibrate(split(data, spec)[0], ScoreKind.entmax(result.chosen), 0.1)
        assert result.predictor == want

    def test_tune_raps_predictor(self):
        data = make_task(300, 8, seed=6)
        spec = SplitSpec((0.6, 0.4), seed=7)
        result = tune_raps(data, 0.1, lambda_grid=[0.01, 0.1], k_grid=[1, 3], seed=spec.seed)
        lam, k = result.chosen
        kind = ScoreKind.raps(RapsParams(lambda_reg=lam, k_reg=k))
        assert result.predictor == calibrate(split(data, spec)[0], kind, 0.1)


class TestTuningHygiene:
    def test_parts_never_overlap(self):
        # tuning scores and tuning evaluation must use disjoint data
        rng = np.random.default_rng(16)
        data = LabeledLogitDataset(
            np.arange(60, dtype=float).reshape(20, 3), rng.integers(0, 3, 20)
        )
        cal_part, tune_part = split(data, SplitSpec((0.6, 0.4), seed=7))
        cal_rows = {tuple(r) for r in cal_part.logits}
        tune_rows = {tuple(r) for r in tune_part.logits}
        assert not cal_rows & tune_rows
        assert len(cal_rows | tune_rows) == 20

    def test_json_serialization(self):
        rng = np.random.default_rng(17)
        result = tune_raps(
            random_dataset(rng),
            0.2,
            lambda_grid=[0.1],
            k_grid=[1, 2],
            seed=1,
        )
        doc = result.to_json_dict()
        assert doc["chosen"] == list(result.chosen)
        assert len(doc["table"]) == 2
        assert {"param", "objective"} == set(doc["table"][0])
