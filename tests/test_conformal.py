import itertools
import json
import math
import warnings

import numpy as np
import pytest

from entconform import (
    CalibratedPredictor,
    DimensionMismatch,
    EmptyCalibration,
    EvaluationRun,
    ExperimentConfig,
    InvalidGamma,
    InvalidInput,
    LabeledLogitDataset,
    LabelOutOfRange,
    MethodSpec,
    PredictionSet,
    RapsParams,
    ScoreKind,
    SizeBins,
    SplitSpec,
    all_label_scores,
    calibrate,
    compute_report,
    conformal_quantile,
    entmax,
    predict_sets,
    set_masks,
    support_sets_via_entmax,
    true_label_scores,
    tune_gamma,
    tune_raps,
)
from entconform import conformal, scores
from entconform.tuning import DEFAULT_GAMMA_GRID

from oracles import order_statistic
from synth import make_task

Z5 = np.array([1.0, -1.0, -0.2, 0.4, -0.5])
ALL_KINDS = [
    ScoreKind.sparsemax(),
    ScoreKind.log_margin(),
    ScoreKind.inv_prob(),
    ScoreKind.raps(RapsParams(0.01, 2)),
    ScoreKind.raps(RapsParams(0.01, 2, randomized=True, rng_seed=3)),
    *(ScoreKind.entmax(gamma) for gamma in (1.1, 1.5, 1.9)),
]
ALL_KIND_IDS = ["sparsemax", "log_margin", "inv_prob", "raps", "raps-randomized", "1.1", "1.5", "1.9"]


def predict_one(z, pred):
    return predict_sets(np.asarray(z)[None, :], pred)[0]


def support_one(z, beta, gamma):
    return support_sets_via_entmax(np.asarray(z)[None, :], beta, gamma)[0]


class TestConformalQuantile:
    def test_order_statistic_case(self):
        scores = [0.1, 0.2, 0.3, 0.4]
        # r = ceil(5 * 0.5) = 3
        assert conformal_quantile(scores, 0.5) == order_statistic(scores, 3) == 0.3

    def test_infinite_when_rank_exceeds_n(self):
        assert conformal_quantile([0.1, 0.2, 0.3, 0.4], 0.1) == math.inf

    def test_single_point_cannot_certify(self):
        assert conformal_quantile([7.0], 0.4) == math.inf

    def test_duplicates_counted(self):
        # r = ceil(4 * 0.5) = 2: the second smallest is the duplicate
        assert conformal_quantile([1.0, 1.0, 2.0], 0.5) == 1.0

    def test_empty_calibration(self):
        with pytest.raises(EmptyCalibration):
            conformal_quantile([], 0.1)

    def test_bad_alpha(self):
        with pytest.raises(InvalidInput):
            conformal_quantile([1.0, 2.0], 0.0)
        with pytest.raises(InvalidInput):
            conformal_quantile([1.0, 2.0], 1.0)

    def test_matches_bruteforce_on_random_inputs(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            scores = rng.uniform(0.0, 5.0, size=n)
            alpha = float(rng.uniform(0.01, 0.99))
            r = math.ceil((n + 1) * (1.0 - alpha))
            expected = math.inf if r > n else order_statistic(scores, r)
            assert conformal_quantile(scores, alpha) == expected


class TestOneSortForEveryAlpha:
    """A sweep scores a kind once and reads each alpha's q_hat from that
    score vector through conformal_quantile; it must be the order statistic
    of the sorted vector."""

    ALPHAS = (0.001, 0.01, 0.05, 0.1, 0.2, 0.25, 0.5, 0.9, 0.99)

    def test_order_statistic_of_the_sorted_vector(self):
        rng = np.random.default_rng(73)
        draws = [
            rng.uniform(0.0, 5.0, size=40),
            rng.integers(0, 3, size=40).astype(float),  # ties everywhere
            np.zeros(25),
            np.concatenate([np.zeros(9), rng.uniform(size=9)]),
            np.array([2.0]),
            rng.normal(size=7) ** 2 * 1e-300,
        ]
        for s in draws:
            ordered = np.sort(s)
            for alpha in self.ALPHAS:
                index = math.ceil((s.size + 1) * (1.0 - alpha)) - 1
                want = math.inf if index >= s.size else ordered[index]
                got = conformal_quantile(s, alpha)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                if alpha < 1.0 / (s.size + 1):
                    assert got == math.inf

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=ALL_KIND_IDS)
    def test_view_calibrates_every_alpha_like_the_dataset(self, kind, monkeypatch):
        # a sorted view scores each kind once, whatever the number of alphas
        rng = np.random.default_rng(74)
        Z = np.concatenate([rng.normal(size=(30, 6)), rng.integers(0, 3, (30, 6))])
        cal = LabeledLogitDataset(Z, rng.integers(0, 6, 60))
        view = scores._sort_rows(cal.logits, cal.labels)
        calls = []
        true_scores = conformal.true_label_scores

        def counted(Z, *args, **kwargs):
            calls.append(Z)
            return true_scores(Z, *args, **kwargs)

        monkeypatch.setattr(conformal, "true_label_scores", counted)
        for alpha in self.ALPHAS:
            got, want = calibrate(view, kind, alpha), calibrate(cal, kind, alpha)
            assert np.float64(got.q_hat).tobytes() == np.float64(want.q_hat).tobytes()
            assert got == want
        assert sum(Z is view for Z in calls) == 1
        assert len(calls) == 1 + len(self.ALPHAS)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=ALL_KIND_IDS)
    def test_rank_order_cells_equal_label_order_cells(self, kind):
        # a test cell built from the rank-order mask and the label ranks has
        # the sizes and coverage of the label-order mask and the labels
        data = make_task(300, num_classes=7, seed=4)
        cal, test = data.subset(range(120)), data.subset(range(120, 300))
        view = scores._sort_rows(test.logits, test.labels)
        for alpha in (0.005, 0.1, 0.3):
            pred = calibrate(cal, kind, alpha)
            rank_run = EvaluationRun(sets=set_masks(view, pred), labels=view.rank, alpha=alpha)
            run = EvaluationRun(sets=set_masks(test.logits, pred), labels=test.labels, alpha=alpha)
            np.testing.assert_array_equal(rank_run.sizes, run.sizes)
            np.testing.assert_array_equal(rank_run.covered, run.covered)

    def test_a_view_is_checked_as_a_batch(self):
        # a view's K is checked against the predictor, and its ranks
        # against K, as an array's are
        data = make_task(20, num_classes=5, seed=4)
        view = scores._sort_rows(data.logits, data.labels)
        with pytest.raises(DimensionMismatch):
            set_masks(view, CalibratedPredictor(ScoreKind.sparsemax(), 0.1, 1.0, 5, 4))
        with pytest.raises(LabelOutOfRange):
            true_label_scores(view, view.rank + 5, ScoreKind.sparsemax())
        with pytest.raises(InvalidInput):
            true_label_scores(view, view.rank[:3], ScoreKind.sparsemax())


def toy_dataset():
    logits = np.tile(Z5, (4, 1))
    labels = np.array([3, 0, 2, 4])
    return LabeledLogitDataset(logits, labels)


class TestCalibrate:
    def test_sparsemax_toy_by_hand(self):
        # per-instance gap sums: 0.6, 0.0, 1.8, 2.7; r = ceil(5*0.5) = 3
        cal = toy_dataset()
        hand_scores = list(true_label_scores(cal.logits, cal.labels, ScoreKind.sparsemax()))
        assert hand_scores == pytest.approx([0.6, 0.0, 1.8, 2.7])
        pred = calibrate(cal, ScoreKind.sparsemax(), 0.5)
        assert pred.q_hat == order_statistic(hand_scores, 3)
        assert pred.beta_inv == pred.q_hat  # delta = 1
        assert pred.calib_n == 4

    def test_vacuous_alpha_gives_full_sets(self):
        cal = toy_dataset()
        pred = calibrate(cal, ScoreKind.sparsemax(), 0.01)
        assert pred.q_hat == math.inf
        s = predict_one(np.array([9.0, 1.0, 2.0, 3.0, -1.0]), pred)
        assert s.labels == (0, 1, 2, 3, 4)

    def test_entmax_beta_inv(self):
        # all calibration pairs have a single unit gap, so every member of
        # the family scores exactly 1 and any quantile is 1
        logits = np.tile([2.0, 1.0, -3.0], (4, 1))
        cal = LabeledLogitDataset(logits, np.array([1, 1, 1, 1]))
        pred = calibrate(cal, ScoreKind.entmax(1.5), 0.5)
        assert pred.q_hat == pytest.approx(1.0)
        assert pred.beta_inv == pytest.approx(0.5)  # (gamma - 1) * q_hat

    def test_no_temperature_for_other_kinds(self):
        cal = toy_dataset()
        for kind in (
            ScoreKind.log_margin(),
            ScoreKind.inv_prob(),
            ScoreKind.raps(RapsParams(lambda_reg=0.0, k_reg=1)),
        ):
            assert calibrate(cal, kind, 0.5).beta_inv is None

    def test_empty_dataset(self):
        empty = LabeledLogitDataset(np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(EmptyCalibration):
            calibrate(empty, ScoreKind.sparsemax(), 0.5)

    def test_randomized_raps_is_seed_deterministic(self):
        rng = np.random.default_rng(72)
        cal = LabeledLogitDataset(rng.normal(size=(30, 4)), rng.integers(0, 4, 30))
        kind = ScoreKind.raps(RapsParams(lambda_reg=0.01, k_reg=2, randomized=True, rng_seed=9))
        assert calibrate(cal, kind, 0.3).q_hat == calibrate(cal, kind, 0.3).q_hat
        # prediction draws its own seeded stream, so repeat calls agree too
        pred = calibrate(cal, kind, 0.3)
        test = rng.normal(size=(20, 4))
        assert predict_sets(test, pred) == predict_sets(test, pred)


class TestPredictSet:
    def test_zero_threshold_gives_argmax_singleton(self):
        pred = CalibratedPredictor(
            ScoreKind.sparsemax(), alpha=0.5, q_hat=0.0, calib_n=4, num_classes=5
        )
        assert predict_one(Z5, pred).labels == (0,)

    def test_worked_threshold(self):
        # scores per label: 0, 4.7, 1.8, 0.6, 2.7 -> only 0 and 3 pass 0.7
        pred = CalibratedPredictor(
            ScoreKind.sparsemax(), alpha=0.5, q_hat=0.7, calib_n=4, num_classes=5
        )
        assert predict_one(Z5, pred).labels == (0, 3)
        # cross-check: the sparsemax support at beta = 1/0.7 is the same set
        assert support_one(Z5, 1.0 / 0.7, 2.0).labels == (0, 3)

    def test_argmax_always_included_for_family_scores(self):
        rng = np.random.default_rng(73)
        cal = LabeledLogitDataset(rng.normal(size=(25, 6)), rng.integers(0, 6, 25))
        for kind in (ScoreKind.sparsemax(), ScoreKind.entmax(1.5), ScoreKind.log_margin()):
            pred = calibrate(cal, kind, 0.25)
            for _ in range(50):
                z = rng.normal(size=6)
                assert int(np.argmax(z)) in predict_one(z, pred)

    def test_dimension_mismatch(self):
        cal = toy_dataset()
        pred = calibrate(cal, ScoreKind.sparsemax(), 0.5)
        with pytest.raises(DimensionMismatch):
            predict_one(np.array([1.0, 2.0]), pred)

    def test_monotone_in_q_hat(self):
        rng = np.random.default_rng(74)
        for _ in range(30):
            z = rng.uniform(-4.0, 4.0, size=6)
            previous = None
            for q in (0.0, 0.3, 1.0, 2.5, 10.0):
                pred = CalibratedPredictor(
                    ScoreKind.entmax(1.5), alpha=0.5, q_hat=q, calib_n=9, num_classes=6
                )
                labels = set(predict_one(z, pred).labels)
                if previous is not None:
                    assert previous <= labels
                previous = labels

    def test_nested_in_alpha(self):
        rng = np.random.default_rng(75)
        data = LabeledLogitDataset(rng.normal(size=(60, 5)), rng.integers(0, 5, 60))
        test = rng.normal(size=(40, 5))
        for kind in (ScoreKind.sparsemax(), ScoreKind.inv_prob()):
            q_prev = None
            sets_prev = None
            for alpha in (0.05, 0.2, 0.5):
                pred = calibrate(data, kind, alpha)
                sets = predict_sets(test, pred)
                if q_prev is not None:
                    assert pred.q_hat <= q_prev
                    for small, big in zip(sets, sets_prev):
                        assert set(small.labels) <= set(big.labels)
                q_prev, sets_prev = pred.q_hat, sets


    def test_set_masks_rows_are_predict_sets(self):
        rng = np.random.default_rng(76)
        data = LabeledLogitDataset(rng.normal(size=(60, 5)), rng.integers(0, 5, 60))
        test = rng.normal(size=(40, 5))
        params = RapsParams(lambda_reg=0.1, k_reg=1, randomized=True, rng_seed=4)
        for kind, alpha in ((ScoreKind.raps(params), 0.2), (ScoreKind.sparsemax(), 0.01)):
            pred = calibrate(data, kind, alpha)
            mask = set_masks(test, pred)
            assert mask.dtype == bool and mask.shape == test.shape
            assert [PredictionSet.from_mask(row) for row in mask] == predict_sets(test, pred)
        assert pred.q_hat == math.inf and mask.all()
        u = np.random.default_rng(params.rng_seed + 1).uniform(size=40)
        pred = calibrate(data, ScoreKind.raps(params), 0.2)
        expected = all_label_scores(test, pred.score_kind, u=u) <= pred.q_hat
        np.testing.assert_array_equal(set_masks(test, pred), expected)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=ALL_KIND_IDS)
    def test_u_checked_at_an_infinite_q_hat(self, kind):
        # every set comes from one builder, which checks u before its
        # q_hat = inf shortcut, so the u that a finite q_hat rejects is
        # rejected there too
        Z = np.zeros((3, 5))
        for q_hat in (math.inf, 1.0):
            pred = CalibratedPredictor(kind, alpha=0.1, q_hat=q_hat, calib_n=4, num_classes=5)
            with pytest.raises(InvalidInput):
                set_masks(Z, pred, u=5.0)
        assert set_masks(Z, CalibratedPredictor(kind, 0.1, math.inf, 4, 5), u=0.5).all()

    def test_randomized_draw_spans_every_row_block(self, monkeypatch):
        # without u, the set stream draws one weight per row of the whole
        # batch, however the rows are blocked
        rng = np.random.default_rng(77)
        Z = rng.normal(size=(50, 6))
        kind = ScoreKind.raps(RapsParams(0.01, 2, randomized=True, rng_seed=3))
        pred = calibrate(LabeledLogitDataset(Z, rng.integers(0, 6, 50)), kind, 0.3)
        u = np.random.default_rng(3 + 1).uniform(size=50)
        monkeypatch.setattr(scores, "_CHUNK_CELLS", 7 * 6)
        expected = all_label_scores(Z, kind, u=u) <= pred.q_hat
        np.testing.assert_array_equal(set_masks(Z, pred), expected)


class TestSupportSetViaEntmax:
    def test_sparsemax_case(self):
        assert support_one(Z5, 1.0 / 0.7, 2.0).labels == (0, 3)

    def test_large_beta_saturates_to_argmax(self):
        assert support_one(Z5, 1e6, 1.5).labels == (0,)

    def test_tiny_beta_gives_full_set(self):
        assert support_one(Z5, 1e-9, 1.5).labels == (0, 1, 2, 3, 4)

    def test_invalid_gamma(self):
        for gamma in (1.0, 2.5):
            with pytest.raises(InvalidGamma):
                support_one(Z5, 1.0, gamma)

    def test_invalid_beta(self):
        for beta in (0.0, -0.5, math.inf):
            with pytest.raises(InvalidInput):
                support_one(Z5, beta, 1.5)

    @pytest.mark.parametrize("gamma", ["1.5", None, True, [1.5]], ids=["text", "none", "bool", "list"])
    def test_gamma_of_another_type_rejected(self, gamma):
        # numpy raised a bare TypeError comparing the text with a float
        with pytest.raises(InvalidInput, match="gamma must be of type float"):
            support_sets_via_entmax([[3.0, 1.0, 0.0]], 1.0, gamma)

    @pytest.mark.parametrize(
        "beta, gamma", [(1e308, 2.0), (1e308, 1.5), ("x", 2.0)],
        ids=["overflow-sparsemax", "overflow-entmax", "text"],
    )
    def test_beta_that_breaks_the_product_rejected(self, beta, gamma):
        # 1e308 * Z overflows: the sparsemax route returned empty sets and
        # the bisection sets out of NaN arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInput):
                support_sets_via_entmax([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5]], beta, gamma)

    @pytest.mark.parametrize(
        "z, labels", [([3e16, 1.0, 0.0], (0,)), ([1e16, 1e16, 0.0], (0, 1))],
        ids=["large-logit", "large-tied"],
    )
    def test_sparsemax_beyond_2_to_53(self, z, labels):
        # the top label is in every support; the unshifted sums lost the
        # 1 of the threshold test and returned an empty set
        assert support_one(z, 1.0, 2.0).labels == labels

    @pytest.mark.parametrize(
        "z", [[2e13, 2e13 - 0.5, 2e13 - 5.0], [1e16, 1e16, 0.0]], ids=["offset-2e13", "tied-1e16"],
    )
    def test_entmax_support_at_large_magnitudes(self, z):
        # a support cut scaled by max|(gamma-1) z| reached 1 here, above
        # every ramp, so only the argmax was kept; with the row max
        # subtracted first and no cut, both rows have the support of their
        # shifted twin and of the score route
        z = np.array(z)
        twin = z - z.max()
        assert support_one(z, 1.0, 1.5).labels == (0, 1)
        assert support_one(twin, 1.0, 1.5).labels == (0, 1)
        pred = _entmax_predictor(1.5, 2.0, 3)  # q_hat = delta / beta
        assert predict_one(z, pred).labels == (0, 1)
        np.testing.assert_array_equal(entmax(z[None], 1.5), entmax(twin[None], 1.5))

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e13], ids=["0", "1e6", "1e13"])
    @pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9, 2.0])
    def test_shift_invariant_bit_for_bit(self, gamma, offset):
        # the row max is subtracted before any scaling, so a row and its
        # shifted twin give the same bits and the same supports
        rng = np.random.default_rng(int(gamma * 10))
        for k, scale in itertools.product((2, 57, 300), (3.0, 0.1)):
            Z = offset + scale * rng.normal(size=(40, k))
            twin = Z - Z.max(axis=1, keepdims=True)
            assert entmax(Z, gamma).tobytes() == entmax(twin, gamma).tobytes()
            for beta in (1.0, 3.0, 0.7):
                assert support_sets_via_entmax(Z, beta, gamma) == support_sets_via_entmax(
                    twin, beta, gamma
                )

    @pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9, 2.0])
    def test_supports_match_the_score_route_at_large_offsets(self, gamma):
        # rows near 1e13: only labels whose score ties q_hat (within 1e-9
        # relative) may fall on different sides in the two routes
        rng = np.random.default_rng(321)
        kind = ScoreKind.sparsemax() if gamma == 2.0 else ScoreKind.entmax(gamma)
        delta = 1.0 / (gamma - 1.0)
        for k in (5, 57, 300):
            Z = 1e13 + 3.0 * rng.normal(size=(60, k))
            s = all_label_scores(Z, kind)
            true_scores = s[np.arange(60), rng.integers(0, k, size=60)]
            for q_hat in np.quantile(true_scores, [0.3, 0.6, 0.9]):
                got = np.zeros_like(s, dtype=bool)
                for i, sup in enumerate(support_sets_via_entmax(Z, delta / q_hat, gamma)):
                    got[i, list(sup.labels)] = True
                differ = (got != (s <= q_hat)) & (np.abs(s - q_hat) > 1e-9 * q_hat)
                assert not differ.any()

    @pytest.mark.parametrize("gamma", [1.5, 2.0])
    def test_row_whose_span_overflows_the_shift(self, gamma):
        # 1e308 - (-1e308) is beyond the float range: that gap is -inf, of
        # weight 0, and no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert support_one([1e308, -1e308, 0.0], 1.0, gamma).labels == (0,)

    def test_gap_sum_condition_matches_sparsemax_support(self):
        # at gamma = 2 membership is exactly "gap sum below 1/beta"
        rng = np.random.default_rng(81)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            z = rng.uniform(-5.0, 5.0, size=k)
            beta = float(rng.uniform(0.05, 5.0))
            support = set(support_one(z, beta, 2.0).labels)
            scores = all_label_scores(z[None, :], ScoreKind.sparsemax())[0]
            by_condition = {j for j in range(k) if scores[j] < 1.0 / beta}
            assert support == by_condition


class TestTemperatureEquivalence:
    """Conformal sets through the score inequality match entmax supports."""

    GAMMAS = (1.25, 1.5, 1.75, 2.0)
    Q_HATS = (0.1, 0.5, 1.0, 3.0)

    def _draw_clear_batch(self, rng, n, kind, q_hat, margin=1e-9):
        """Random logits whose scores all sit clear of the threshold."""
        k = int(rng.integers(2, 11))
        Z = rng.uniform(-5.0, 5.0, size=(n, k))
        while True:
            s = all_label_scores(Z, kind)
            bad = np.abs(s - q_hat).min(axis=1) < margin
            if not bad.any():
                return Z
            Z[bad] = rng.uniform(-5.0, 5.0, size=(int(bad.sum()), k))

    def test_sets_match_exactly(self):
        rng = np.random.default_rng(82)
        for gamma in self.GAMMAS:
            delta = 1.0 / (gamma - 1.0)
            kind = ScoreKind.sparsemax() if gamma == 2.0 else ScoreKind.entmax(gamma)
            for q_hat in self.Q_HATS:
                Z = self._draw_clear_batch(rng, 100, kind, q_hat)
                scores = all_label_scores(Z, kind)
                conformal_sets = [set(np.flatnonzero(row <= q_hat)) for row in scores]
                supports = support_sets_via_entmax(Z, delta / q_hat, gamma)
                for cs, sup in zip(conformal_sets, supports):
                    assert cs == set(sup.labels)


class TestTieSemantics:
    """Behaviour pinned where a score equals q_hat or logits are tied."""

    @pytest.mark.parametrize("gamma", [2.0, 1.5])
    def test_score_at_q_hat_in_set_but_not_in_support(self, gamma):
        # label 1 has one gap, 3 - 1 = 2, so its score is 2.0 for every gamma.
        # The threshold is closed, so the score route keeps it; at
        # beta = delta / q_hat its entmax probability is exactly 0.
        z = np.array([3.0, 1.0, 0.0, 0.0])
        kind = ScoreKind.sparsemax() if gamma == 2.0 else ScoreKind.entmax(gamma)
        delta = 1.0 / (gamma - 1.0)
        q_hat = 2.0
        assert all_label_scores(z[None, :], kind)[0, 1] == q_hat
        pred = CalibratedPredictor(kind, alpha=0.1, q_hat=q_hat, calib_n=10, num_classes=4)
        assert predict_one(z, pred).labels == (0, 1)
        assert support_one(z, delta / q_hat, gamma).labels == (0,)

    def test_tied_logits_get_equal_rank_gap_scores(self):
        z = np.array([[2.0, 1.0, 1.0, 0.0]])
        for kind in (ScoreKind.sparsemax(), ScoreKind.entmax(1.5), ScoreKind.log_margin()):
            s = all_label_scores(z, kind)[0]
            assert s[1] == s[2]
            pred = CalibratedPredictor(kind, alpha=0.1, q_hat=s[1], calib_n=10, num_classes=4)
            assert predict_one(z[0], pred).labels == (0, 1, 2)

    def test_raps_breaks_ties_lower_index_first(self):
        # labels 1 and 2 are tied; label 1 is ranked first, so its RAPS
        # score stops short of label 2's own mass and the later twin is left out
        z = np.array([[2.0, 1.0, 1.0, 0.0]])
        kind = ScoreKind.raps(RapsParams(lambda_reg=0.0, k_reg=1))
        s = all_label_scores(z, kind)[0]
        assert s[1] < s[2]
        pred = CalibratedPredictor(kind, alpha=0.1, q_hat=s[1], calib_n=10, num_classes=4)
        assert predict_one(z[0], pred).labels == (0, 1)

    @pytest.mark.parametrize(
        "kind",
        [
            ScoreKind.sparsemax(),
            ScoreKind.entmax(1.5),
            ScoreKind.log_margin(),
            ScoreKind.inv_prob(),
            ScoreKind.raps(RapsParams(lambda_reg=0.01, k_reg=2)),
            ScoreKind.raps(RapsParams(lambda_reg=0.01, k_reg=2, randomized=True, rng_seed=3)),
        ],
        ids=["sparsemax", "entmax", "log_margin", "inv_prob", "raps", "raps-randomized"],
    )
    def test_calibration_rows_fed_back_keep_their_labels(self, kind):
        # a calibration row is a test row like any other: the row whose score
        # is q_hat, and every row below it, must be covered by its own set
        rng = np.random.default_rng(77)
        draws = [
            lambda k: rng.normal(size=(80, k)) * 3.0,
            lambda k: rng.integers(-20, 21, size=(80, k)) * 0.1,  # tie-heavy
            lambda k: rng.normal(size=(80, k)) + 1e6,
        ]
        for trial in range(12):
            k = (10, 60, 150, 40)[trial % 4]
            cal = LabeledLogitDataset(draws[trial % 3](k), rng.integers(0, k, 80))
            pred = calibrate(cal, kind, 0.2)
            u = None
            if kind.variant == "raps" and kind.raps_params.randomized:
                u = np.random.default_rng(kind.raps_params.rng_seed).uniform(size=cal.n)
            s = true_label_scores(cal.logits, cal.labels, kind, u=u)
            covered = set_masks(cal.logits, pred, u=u)[np.arange(cal.n), cal.labels]
            np.testing.assert_array_equal(covered, s <= pred.q_hat)


def _logit_draws(rng, n, k):
    """Gaussian, tie-heavy integer and 1e6-offset logits."""
    return (
        rng.normal(size=(n, k)) * 3.0,
        rng.integers(0, 4, size=(n, k)).astype(float),
        rng.normal(size=(n, k)) + 1e6,
    )


def _spy_full_rows(monkeypatch):
    """Count the rows that the full-row entmax route scores, call by call."""
    seen = []
    full_rows = scores._entmax_all_sorted

    def spy(zs, delta):
        seen.append(zs.shape[0])
        return full_rows(zs, delta)

    monkeypatch.setattr(scores, "_entmax_all_sorted", spy)
    return seen


def _entmax_predictor(gamma, q_hat, k):
    return CalibratedPredictor(
        ScoreKind.entmax(gamma), alpha=0.1, q_hat=q_hat, calib_n=10, num_classes=k
    )


class TestRankSearch:
    """Entmax sets come from a certified rank search; they must equal the
    threshold of the full score rows bit for bit."""

    @pytest.mark.parametrize("gamma", DEFAULT_GAMMA_GRID)
    def test_matches_full_rows(self, gamma):
        rng = np.random.default_rng(int(gamma * 10))
        kind = ScoreKind.entmax(gamma)
        for k, n in ((2, 60), (3, 60), (10, 60), (57, 30), (300, 10), (1000, 2)):
            for Z in _logit_draws(rng, n, k):
                full = all_label_scores(Z, kind)
                s = true_label_scores(Z, rng.integers(0, k, n), kind)
                for q_hat in (0.0, float(np.median(s)), float(s.max())):
                    masks = set_masks(Z, _entmax_predictor(gamma, q_hat, k))
                    np.testing.assert_array_equal(masks, full <= q_hat)

    @pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9])
    def test_gallop_runs_off_the_end(self, gamma, monkeypatch):
        # a finite q_hat at or above every score: every set reaches K, so
        # each row's gallop is clamped at rank K - 1 and never brackets.
        # Then rows of near-equal logits (every label) batched with rows of
        # one far lead (one label): rows end at both ends of the ranks
        rng = np.random.default_rng(int(gamma * 100))
        kind = ScoreKind.entmax(gamma)
        seen = _spy_full_rows(monkeypatch)
        for k in (2, 3, 57, 300):
            for Z in _logit_draws(rng, 20, k):
                full = all_label_scores(Z, kind)
                top = float(full.max())
                for q_hat in (top, 2.0 * top + 1.0):
                    seen.clear()
                    masks = set_masks(Z, _entmax_predictor(gamma, q_hat, k))
                    np.testing.assert_array_equal(masks, full <= q_hat)
                    assert masks.all()
                    if q_hat > top:
                        assert seen == []
            Z = np.empty((12, k))
            Z[0::2] = 1e-3 * rng.normal(size=(6, k))
            Z[1::2] = rng.normal(size=(6, k)) + 100.0 * (np.arange(k) == 0)
            full = all_label_scores(Z, kind)
            q_hat = 2.0 * float(full[0::2].max())
            seen.clear()
            masks = set_masks(Z, _entmax_predictor(gamma, q_hat, k))
            np.testing.assert_array_equal(masks, full <= q_hat)
            assert masks.sum(axis=1).tolist() == [k, 1] * 6
            assert seen == []

    def test_probes_read_only_the_ranks_they_reach(self, monkeypatch):
        # every probe norms the first w sorted columns only, w at most
        # 2 s_max + 1, and the gallop and bisection take O(log s_max)
        # probes; a full-row fallback passes all K ranks at once and is
        # no probe
        task = make_task(200, 1000, seed=2)
        pred = calibrate(
            LabeledLogitDataset(task.logits[:100], task.labels[:100]),
            ScoreKind.entmax(1.5), 0.1,
        )
        widths = []
        kernel = scores._entmax_at

        def spy(zs, r, delta):
            if r.shape[1] == 1:
                widths.append(zs.shape[1])
            return kernel(zs, r, delta)

        monkeypatch.setattr(scores, "_entmax_at", spy)
        masks = set_masks(task.logits, pred)
        np.testing.assert_array_equal(masks, all_label_scores(task.logits, pred.score_kind) <= pred.q_hat)
        s_max = int(masks.sum(axis=1).max())
        assert s_max < 100
        assert widths
        assert max(widths) <= min(1000, 2 * s_max + 1)
        assert len(widths) <= 2 * math.ceil(math.log2(s_max + 1)) + 2

    def test_fed_back_calibration_rows_take_the_fallback(self, monkeypatch):
        # the row whose score set q_hat sits exactly on the threshold: no
        # certificate holds there, so it is scored in full, and only rows
        # with a score within a few kernel error bounds of q_hat are
        seen = _spy_full_rows(monkeypatch)
        rng = np.random.default_rng(5)
        for k in (10, 57, 300):
            for Z in _logit_draws(rng, 100, k):
                cal = LabeledLogitDataset(Z, rng.integers(0, k, 100))
                pred = calibrate(cal, ScoreKind.entmax(1.5), 0.2)
                full = all_label_scores(Z, pred.score_kind)
                seen.clear()
                masks = set_masks(Z, pred)
                np.testing.assert_array_equal(masks, full <= pred.q_hat)
                assert sum(seen) >= 1
                near = np.abs(full - pred.q_hat) <= 3 * scores._kernel_eps(k) * pred.q_hat
                assert sum(seen) <= np.count_nonzero(near.any(axis=1))

    def test_row_blocks_change_no_bit(self, monkeypatch):
        # every kind's sets, the randomized RAPS one with a weight per row
        # among them, are the same in one block or in eight
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(50, 57))
        cal = LabeledLogitDataset(Z, rng.integers(0, 57, 50))
        u = rng.uniform(size=50)
        kinds = [
            ScoreKind.sparsemax(),
            ScoreKind.log_margin(),
            ScoreKind.inv_prob(),
            ScoreKind.raps(RapsParams(0.01, 2)),
            ScoreKind.raps(RapsParams(0.01, 2, randomized=True)),
            *(ScoreKind.entmax(gamma) for gamma in (1.1, 1.5, 1.9)),
        ]
        preds = [calibrate(cal, kind, 0.3) for kind in kinds]
        wholes = [set_masks(Z, pred, u) for pred in preds]
        sorts = []
        sort = scores.descending_order

        def counted_sort(z):
            sorts.append(z.shape[0])
            return sort(z)

        monkeypatch.setattr(scores, "descending_order", counted_sort)
        monkeypatch.setattr(scores, "_CHUNK_CELLS", 7 * 57)
        for pred, whole in zip(preds, wholes):
            sorts.clear()
            np.testing.assert_array_equal(set_masks(Z, pred, u), whole)
            assert sorts == [7] * 7 + [1], pred.score_kind
            full = all_label_scores(Z, pred.score_kind, u=u)
            np.testing.assert_array_equal(whole, full <= pred.q_hat)

    def test_certificate_catches_a_non_monotone_kernel(self, monkeypatch):
        # lower every odd rank's score by 4 ulps.  In [3, 2, 1, 1] ranks 2
        # and 3 are tied, so rank 3 now scores below rank 2, and a q_hat at
        # rank 3's score gives a set that is no prefix of the ranks: the
        # search alone would miss label 3.  The row far from q_hat keeps
        # its certificate.
        kernel = scores._entmax_at

        def skewed(zs, r, delta):
            return kernel(zs, r, delta) * np.where(r % 2 == 1, 1.0 - 2.0**-50, 1.0)

        monkeypatch.setattr(scores, "_entmax_at", skewed)
        Z = np.array([[3.0, 2.0, 1.0, 1.0], [9.0, 0.0, 0.0, 0.0]])
        full = all_label_scores(Z, ScoreKind.entmax(1.5))
        q_hat = float(full[0, 3])
        assert full[0, 2] > q_hat
        expected = full <= q_hat
        assert expected[0].tolist() == [True, True, False, True]
        seen = _spy_full_rows(monkeypatch)
        np.testing.assert_array_equal(set_masks(Z, _entmax_predictor(1.5, q_hat, 4)), expected)
        assert seen == [1]


class TestSerialization:
    def test_field_names_and_roundtrip(self):
        cal = toy_dataset()
        pred = calibrate(cal, ScoreKind.entmax(1.5), 0.5)
        doc = pred.to_json_dict()
        assert set(doc) == {
            "score_kind", "alpha", "q_hat", "beta_inv", "calib_n", "num_classes"
        }
        assert doc["score_kind"] == {"score": "entmax", "gamma": 1.5}
        back = CalibratedPredictor.from_json_dict(json.loads(json.dumps(doc)))
        assert back == pred

    def test_infinite_q_hat_serialized_as_string(self):
        cal = toy_dataset()
        pred = calibrate(cal, ScoreKind.sparsemax(), 0.01)
        doc = pred.to_json_dict()
        assert doc["q_hat"] == "inf"
        assert doc["beta_inv"] == "inf"
        back = CalibratedPredictor.from_json_dict(doc)
        assert back.q_hat == math.inf

    def test_raps_params_nested(self):
        cal = toy_dataset()
        kind = ScoreKind.raps(RapsParams(lambda_reg=0.01, k_reg=2, randomized=True, rng_seed=5))
        doc = calibrate(cal, kind, 0.5).to_json_dict()
        assert set(doc) == {"score_kind", "alpha", "q_hat", "calib_n", "num_classes"}
        assert doc["score_kind"] == {
            "score": "raps",
            "lambda_reg": 0.01,
            "k_reg": 2,
            "randomized": True,
            "rng_seed": 5,
        }
        back = CalibratedPredictor.from_json_dict(doc)
        assert back.score_kind == kind

    @pytest.mark.parametrize("q_hat", [math.inf, 0.5], ids=["inf", "finite"])
    def test_raps_k_reg_beyond_classes_rejected(self, q_hat):
        # no row can be scored with k_reg > K, so whatever q_hat is, the
        # predictor itself is invalid
        kind = ScoreKind.raps(RapsParams(lambda_reg=0.01, k_reg=50))
        with pytest.raises(InvalidInput, match="k_reg = 50"):
            CalibratedPredictor(kind, 0.1, q_hat, 10, 10)
        doc = CalibratedPredictor(kind, 0.1, q_hat, 10, 50).to_json_dict()
        doc["num_classes"] = 10
        with pytest.raises(InvalidInput, match="k_reg = 50"):
            CalibratedPredictor.from_json_dict(doc)
        assert CalibratedPredictor(kind, 0.1, q_hat, 10, 50).num_classes == 50

    def test_other_kinds_omit_optional_fields(self):
        cal = toy_dataset()
        doc = calibrate(cal, ScoreKind.inv_prob(), 0.5).to_json_dict()
        assert set(doc) == {"score_kind", "alpha", "q_hat", "calib_n", "num_classes"}
        assert doc["score_kind"] == {"score": "inv_prob"}


class TestDatasetValidation:
    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            LabeledLogitDataset(np.zeros((2, 3)), np.array([0, 3]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LabeledLogitDataset(np.zeros((2, 3)), np.array([0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            LabeledLogitDataset(np.array([[1.0, math.nan]]), np.array([0]))

    def test_subset_preserves_pairs(self):
        rng = np.random.default_rng(91)
        data = LabeledLogitDataset(rng.normal(size=(10, 3)), rng.integers(0, 3, 10))
        sub = data.subset([7, 2, 5])
        np.testing.assert_array_equal(sub.logits, data.logits[[7, 2, 5]])
        np.testing.assert_array_equal(sub.labels, data.labels[[7, 2, 5]])


SPARSEMAX_METHOD = MethodSpec("sparsemax", kind=ScoreKind.sparsemax())


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: LabeledLogitDataset(np.zeros((2, 3)), [0.7, 1.2]), LabelOutOfRange),
        (lambda: LabeledLogitDataset(np.zeros((2, 3)), [math.nan, 1.0]), LabelOutOfRange),
        (lambda: EvaluationRun(np.ones((2, 3), dtype=bool), [0.5, 1], 0.1), LabelOutOfRange),
        (lambda: EvaluationRun((PredictionSet((0,)),), [0.5], 0.1), LabelOutOfRange),
        (lambda: true_label_scores(np.zeros((2, 3)), [0.5, 1.0], ScoreKind.sparsemax()),
         LabelOutOfRange),
        (lambda: true_label_scores(np.zeros((2, 3)), [math.nan, 1.0], ScoreKind.inv_prob()),
         LabelOutOfRange),
        (lambda: RapsParams(0.1, 2.5), InvalidInput),
        (lambda: RapsParams(0.1, 2, randomized=1), InvalidInput),
        (lambda: RapsParams("0.1", 2), InvalidInput),
        (lambda: SplitSpec((0.5, 0.5), 1.5), InvalidInput),
        (lambda: SplitSpec(("0.5", 0.5), 0), InvalidInput),
        (lambda: ScoreKind.entmax("1.5"), InvalidInput),
        (lambda: calibrate(toy_dataset(), ScoreKind.sparsemax(), "x"), InvalidInput),
        (lambda: calibrate(toy_dataset(), ScoreKind.sparsemax(), "0.1"), InvalidInput),
        (lambda: conformal_quantile([0.5, 1.0], "0.1"), InvalidInput),
        (lambda: tune_gamma(make_task(40, num_classes=4, seed=1), "0.2"), InvalidInput),
        (lambda: EvaluationRun(np.ones((2, 3), dtype=bool), [0, 1], "0.1"), InvalidInput),
        (lambda: EvaluationRun((PredictionSet((0,)),), [0], "0.1"), InvalidInput),
        (lambda: ExperimentConfig("in.csv", (MethodSpec("sparsemax", kind=ScoreKind.sparsemax()),),
                                  ("0.1",)), InvalidInput),
        (lambda: MethodSpec("entmax", tune=True, gamma_grid=5), InvalidInput),
        (lambda: MethodSpec("raps", tune=True, lambda_grid=0.01), InvalidInput),
        (lambda: tune_gamma(make_task(40, num_classes=4, seed=1), 0.2, grid=5), InvalidInput),
        (lambda: tune_raps(make_task(40, num_classes=4, seed=1), 0.2, k_grid=np.array(2)),
         InvalidInput),
        (lambda: entmax(np.zeros((2, 3, 4)), 1.5), InvalidInput),
        (lambda: CalibratedPredictor.from_json_dict([]), InvalidInput),
        (lambda: conformal_quantile(np.zeros((2, 2)), 0.1), InvalidInput),
        (lambda: conformal_quantile([0.5, math.nan], 0.1), InvalidInput),
        (lambda: MethodSpec("entmax", tune=True, kind=ScoreKind.entmax(1.5)), InvalidInput),
        (lambda: MethodSpec("sparsemax"), InvalidInput),
        (lambda: MethodSpec.from_dict({"name": "x"}), InvalidInput),
        (lambda: ExperimentConfig("in.csv", (), (0.1,)), InvalidInput),
        (lambda: ExperimentConfig("in.csv", (SPARSEMAX_METHOD,), ()), InvalidInput),
        (lambda: ExperimentConfig("in.csv", (SPARSEMAX_METHOD,), (0.1,), n_splits=0),
         InvalidInput),
        (lambda: ExperimentConfig("in.csv", (SPARSEMAX_METHOD,), (0.1,), cal_fraction=1.0),
         InvalidInput),
        (lambda: ExperimentConfig("in.csv", (SPARSEMAX_METHOD,), (0.1,), base_seed=-1),
         InvalidInput),
        (lambda: SizeBins(()), InvalidInput),
        (lambda: SizeBins(((0, 1), (2, 1))), InvalidInput),
        (lambda: EvaluationRun((PredictionSet((0,)),), [0, 1], 0.1), InvalidInput),
        (lambda: RapsParams(0.1, 2, rng_seed=-1), InvalidInput),
        (lambda: ScoreKind("sparsemax", raps_params=RapsParams(0.1, 2)), InvalidInput),
        (lambda: true_label_scores(np.zeros((2, 3)), [0], ScoreKind.sparsemax()), InvalidInput),
        (lambda: SplitSpec((0.5, 0.5), -1), InvalidInput),
    ],
    ids=[
        "dataset-fractional-label", "dataset-nan-label", "mask-run-fractional-label",
        "set-run-fractional-label", "scores-fractional-label", "scores-nan-label",
        "raps-fractional-k", "raps-int-randomized", "raps-str-lambda",
        "split-fractional-seed", "split-str-fraction", "entmax-str-gamma",
        "calibrate-word-alpha", "calibrate-str-alpha", "quantile-str-alpha",
        "tune-gamma-str-alpha", "mask-run-str-alpha", "set-run-str-alpha", "config-str-alpha",
        "method-int-gamma-grid", "method-real-lambda-grid", "tune-gamma-int-grid",
        "tune-raps-0d-k-grid", "entmax-3d-logits", "predictor-doc-not-object",
        "quantile-2d-scores", "quantile-nan-score", "method-tuned-with-kind",
        "method-untuned-without-kind", "method-doc-without-score", "config-no-methods",
        "config-no-alphas", "config-zero-splits", "config-cal-fraction-1",
        "config-negative-seed", "bins-empty", "bin-lo-above-hi", "set-run-count-mismatch",
        "raps-negative-seed", "kind-foreign-raps-params", "scores-label-count",
        "split-negative-seed",
    ],
)
def test_python_api_rejects_what_the_file_boundaries_reject(build, error):
    # a label must be a whole number and every field must have its type, as
    # the CSV and JSON readers already demand, not be truncated or coerced;
    # and every other documented precondition raises its class
    with pytest.raises(error):
        build()


SPARSEMAX_PRED_2 = CalibratedPredictor(ScoreKind.sparsemax(), 0.1, 1.0, 5, 2)


@pytest.mark.parametrize("logits", [[["a", "b"]], [[1.0, 2.0], [3.0]]], ids=["text", "ragged"])
@pytest.mark.parametrize(
    "call",
    [
        lambda Z: entmax(Z, 1.5),
        lambda Z: set_masks(Z, SPARSEMAX_PRED_2),
        lambda Z: predict_sets(Z, SPARSEMAX_PRED_2),
        lambda Z: all_label_scores(Z, ScoreKind.sparsemax()),
        lambda Z: true_label_scores(Z, [0] * len(Z), ScoreKind.sparsemax()),
        lambda Z: support_sets_via_entmax(Z, 1.0, 1.5),
        lambda Z: LabeledLogitDataset(Z, [0] * len(Z)),
    ],
    ids=["entmax", "set-masks", "predict-sets", "all-label-scores", "true-label-scores",
         "support-sets", "dataset"],
)
def test_logits_that_are_no_number_array_rejected(call, logits):
    # numpy's conversion raised a bare ValueError
    with pytest.raises(InvalidInput):
        call(logits)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CalibratedPredictor("sparsemax", 0.1, 1.0, 5, 3),
        lambda: calibrate(toy_dataset(), "sparsemax", 0.1),
        lambda: calibrate(scores._sort_rows(toy_dataset().logits, toy_dataset().labels),
                          "sparsemax", 0.1),
        lambda: all_label_scores(np.zeros((2, 3)), "sparsemax"),
        lambda: true_label_scores(np.zeros((2, 3)), [0, 1], "sparsemax"),
        lambda: set_masks(np.zeros((2, 3)), calibrate(toy_dataset(), ScoreKind.sparsemax(),
                                                      0.1).to_json_dict()),
        lambda: compute_report(EvaluationRun(np.ones((2, 3), dtype=bool), [0, 1], 0.1), None),
        lambda: compute_report(None, SizeBins.default(3)),
        lambda: EvaluationRun([[0]] * 2, [0, 1], 0.1),
    ],
    ids=["predictor-str-kind", "calibrate-str-kind", "calibrate-view-str-kind",
         "all-label-scores-str-kind", "true-label-scores-str-kind", "set-masks-dict-predictor",
         "report-no-bins", "report-no-run", "run-of-label-lists"],
)
def test_package_object_of_another_type_rejected(build):
    # each was accepted and failed later with a bare AttributeError
    with pytest.raises(InvalidInput):
        build()


class TestPredictionSet:
    def test_from_mask_sorted(self):
        s = PredictionSet.from_mask(np.array([True, False, True, True]))
        assert s.labels == (0, 2, 3)
        assert s.size == 3
        assert 2 in s and 1 not in s


def _raps(randomized=False, rng_seed=0):
    return ScoreKind.raps(
        RapsParams(lambda_reg=0.01, k_reg=2, randomized=randomized, rng_seed=rng_seed)
    )


class TestCoverageLaw:
    """The exact law of split conformal coverage for tie-free scores (Vovk,
    2012; Angelopoulos & Bates, 2021, arXiv 2107.07511).

    Given n calibration scores, the coverage of a fresh test point is
    Beta(n+1-l, l) with l = floor((n+1) alpha), whose mean is
    ceil((n+1)(1-alpha))/(n+1).  Each trial calibrates on n fresh rows and
    measures coverage on m fresh rows, which adds binomial noise.  A
    quantile index one off moves the mean by 1/(n+1): about eleven
    standard errors at these sizes, which the mean-coverage bounds
    elsewhere cannot resolve.
    """

    TRIALS, N, M, ALPHA = 2000, 100, 100, 0.1

    @pytest.mark.parametrize(
        "kind_of_trial",
        [
            lambda t: ScoreKind.sparsemax(),
            lambda t: ScoreKind.entmax(1.5),
            lambda t: ScoreKind.log_margin(),
            lambda t: ScoreKind.inv_prob(),
            lambda t: _raps(),
            # the guarantee holds over the u-draw, so every trial draws anew
            lambda t: _raps(randomized=True, rng_seed=2 * t),
        ],
        ids=["sparsemax", "entmax-1.5", "log-margin", "inv-prob", "raps", "raps-randomized"],
    )
    def test_mean_and_variance_match_the_beta_law(self, kind_of_trial):
        T, n, m, alpha = self.TRIALS, self.N, self.M, self.ALPHA
        pool = make_task(T * (n + m), num_classes=10, seed=41)
        logits = pool.logits.reshape(T, n + m, -1)
        labels = pool.labels.reshape(T, n + m)
        coverage = np.empty(T)
        for t in range(T):
            cal = LabeledLogitDataset(logits[t, :n], labels[t, :n])
            pred = calibrate(cal, kind_of_trial(t), alpha)
            masks = set_masks(logits[t, n:], pred)
            coverage[t] = masks[np.arange(m), labels[t, n:]].mean()

        l = math.floor((n + 1) * alpha)
        a, b = n + 1 - l, l
        beta_var = a * b / ((a + b) ** 2 * (a + b + 1))
        mean = math.ceil((n + 1) * (1 - alpha)) / (n + 1)
        # law of total variance: the Beta spread plus the binomial test noise
        var = beta_var + (mean - mean**2 - beta_var) / m

        z_mean = (coverage.mean() - mean) / math.sqrt(var / T)
        assert abs(z_mean) < 5.0, f"mean {coverage.mean():.5f} vs {mean:.5f}, z = {z_mean:.2f}"
        centered = coverage - coverage.mean()
        sample_var = centered.var(ddof=1)
        var_se = math.sqrt((np.mean(centered**4) - sample_var**2) / T)
        z_var = (sample_var - var) / var_se
        assert abs(z_var) < 5.0, f"variance {sample_var:.3e} vs {var:.3e}, z = {z_var:.2f}"

    @pytest.mark.parametrize(
        "kind_of_trial",
        [
            lambda t: ScoreKind.sparsemax(),
            lambda t: ScoreKind.entmax(1.5),
            lambda t: ScoreKind.log_margin(),
            lambda t: ScoreKind.inv_prob(),
            lambda t: _raps(),
            lambda t: _raps(randomized=True, rng_seed=2 * t),
        ],
        ids=["sparsemax", "entmax-1.5", "log-margin", "inv-prob", "raps", "raps-randomized"],
    )
    def test_ties_keep_the_lower_bound(self, kind_of_trial):
        # integer logits tie labels within a row and scores across rows;
        # a closed threshold keeps every tie at q_hat, so coverage can only
        # rise above the law's mean, and only that lower bound is asserted
        T, n, m, alpha = 1000, self.N, self.M, self.ALPHA
        pool = make_task(T * (n + m), num_classes=10, seed=43)
        logits = np.round(pool.logits).reshape(T, n + m, -1)
        labels = pool.labels.reshape(T, n + m)
        coverage = np.empty(T)
        for t in range(T):
            cal = LabeledLogitDataset(logits[t, :n], labels[t, :n])
            pred = calibrate(cal, kind_of_trial(t), alpha)
            masks = set_masks(logits[t, n:], pred)
            coverage[t] = masks[np.arange(m), labels[t, n:]].mean()

        law = math.ceil((n + 1) * (1 - alpha)) / (n + 1)
        se = coverage.std(ddof=1) / math.sqrt(T)
        assert coverage.mean() >= law - 5 * se, f"mean {coverage.mean():.5f} vs {law:.5f}"
