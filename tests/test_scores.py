import math
import tracemalloc

import numpy as np
import pytest

from entconform import (
    InvalidGamma,
    InvalidInput,
    LabelOutOfRange,
    RapsParams,
    ScoreKind,
    all_label_scores,
    true_label_scores,
)
import entconform.scores as scores_mod
from entconform.conformal import CalibratedPredictor, set_masks
from entconform.scores import descending_order

from oracles import delta_norm, gap_vector, raps_scores_per_row

Z5 = np.array([1.0, -1.0, -0.2, 0.4, -0.5])
SPARSEMAX = ScoreKind.sparsemax()
LOG_MARGIN = ScoreKind.log_margin()
INV_PROB = ScoreKind.inv_prob()


def score_one(kind, z, y, u=None):
    """The score of one (z, y) pair, through the batch function."""
    return true_label_scores(np.asarray(z, dtype=float)[None, :], [y], kind, u=u)[0]


def predictor_at(kind, q, k):
    """A predictor whose sets are ``all_label_scores(Z, kind) <= q``."""
    return CalibratedPredictor(kind, alpha=0.1, q_hat=float(q), calib_n=10, num_classes=k)


def family_kind(gamma):
    """The rank-gap kind of ``gamma`` in (1, 2]: sparsemax at gamma = 2."""
    return ScoreKind.sparsemax() if gamma == 2.0 else ScoreKind.entmax(gamma)


def rank_of(z, y):
    """1-based rank of label y in the package's descending order."""
    return int(np.flatnonzero(descending_order(np.asarray(z, dtype=float)) == y)[0]) + 1


def random_tie_free(rng, low=-5.0, high=5.0, kmax=10):
    """Logits with distinct entries, so rank-based identities are exact."""
    while True:
        z = rng.uniform(low, high, size=rng.integers(2, kmax + 1))
        if np.unique(z).size == z.size:
            return z


class TestRankOfLabel:
    def test_argmax_is_rank_one(self):
        assert rank_of(Z5, 0) == 1

    def test_sorted_by_hand(self):
        # descending: 1, 0.4, -0.2, -0.5, -1
        assert rank_of(Z5, 3) == 2
        assert rank_of(Z5, 2) == 3
        assert rank_of(Z5, 4) == 4
        assert rank_of(Z5, 1) == 5

    def test_tie_broken_by_lower_index(self):
        assert rank_of([5.0, 5.0], 0) == 1
        assert rank_of([5.0, 5.0], 1) == 2

    def test_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            score_one(SPARSEMAX, Z5, 5)
        with pytest.raises(LabelOutOfRange):
            score_one(SPARSEMAX, Z5, -1)


class TestSparsemaxScore:
    def test_top_label_is_zero(self):
        assert score_one(SPARSEMAX, Z5, 0) == 0.0

    def test_rank_two(self):
        assert score_one(SPARSEMAX, Z5, 3) == pytest.approx(0.6)

    def test_rank_three(self):
        # (1 - (-0.2)) + (0.4 - (-0.2)) = 1.2 + 0.6
        assert score_one(SPARSEMAX, Z5, 2) == pytest.approx(1.8)


class TestEntmaxScore:
    def test_euclidean_norm_case(self):
        # gamma=1.5 -> delta=2; gaps (1.2, 0.6): sqrt(1.8)
        assert score_one(ScoreKind.entmax(1.5), Z5, 2) == pytest.approx(math.sqrt(1.8), abs=1e-12)

    def test_argmax_is_zero_any_gamma(self):
        for gamma in (1.1, 1.5, 1.9, 2.0):
            assert score_one(family_kind(gamma), Z5, 0) == 0.0

    def test_matches_direct_delta_norm(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            z = random_tie_free(rng)
            y = int(rng.integers(0, z.size))
            gamma = float(rng.uniform(1.05, 2.0))
            expected = delta_norm(gap_vector(z, y), 1.0 / (gamma - 1.0))
            assert score_one(family_kind(gamma), z, y) == pytest.approx(expected, rel=1e-12)

    def test_invalid_gamma(self):
        for gamma in (1.0, 0.9, 2.1):
            with pytest.raises(InvalidGamma):
                ScoreKind.entmax(gamma)


class TestLogMarginScore:
    def test_top_label(self):
        assert score_one(LOG_MARGIN, Z5, 0) == 0.0

    def test_rank_two(self):
        assert score_one(LOG_MARGIN, Z5, 3) == pytest.approx(0.6)

    def test_bottom_label(self):
        assert score_one(LOG_MARGIN, Z5, 1) == pytest.approx(2.0)


class TestInvProbScore:
    def test_uniform_two_class(self):
        assert score_one(INV_PROB, [0.0, 0.0], 0) == pytest.approx(0.5)

    @pytest.mark.parametrize("c", [0.0, -7.0, 3.0])
    def test_log_three_ratio(self, c):
        assert score_one(INV_PROB, [c, c + math.log(3.0)], 1) == pytest.approx(0.25)

    def test_dominant_label_scores_near_zero(self):
        assert score_one(INV_PROB, [50.0, 0.0, 0.0], 0) == pytest.approx(0.0, abs=1e-12)


class TestRapsScore:
    def test_aps_reduction_top_label(self):
        # lambda=0, u=1, y at rank 1: just that label's own softmax mass
        z = np.log(np.array([0.5, 0.3, 0.2]))
        params = RapsParams(lambda_reg=0.0, k_reg=1)
        assert score_one(ScoreKind.raps(params), z, 0, u=1.0) == pytest.approx(0.5)

    def test_regularized_worked_example(self):
        # softmax [0.5, 0.3, 0.2], y at rank 3: 1.0 + 0.1 * max(0, 3-1)
        z = np.log(np.array([0.5, 0.3, 0.2]))
        params = RapsParams(lambda_reg=0.1, k_reg=1)
        assert score_one(ScoreKind.raps(params), z, 2, u=1.0) == pytest.approx(1.2)

    def test_randomized_lower_edge(self):
        z = np.log(np.array([0.5, 0.3, 0.2]))
        params = RapsParams(lambda_reg=0.0, k_reg=1)
        assert score_one(ScoreKind.raps(params), z, 0, u=0.0) == pytest.approx(0.0)

    def test_u_out_of_range(self):
        params = RapsParams(lambda_reg=0.0, k_reg=1)
        with pytest.raises(InvalidInput):
            score_one(ScoreKind.raps(params), Z5, 0, u=1.5)

    @pytest.mark.parametrize("u", [[0.5] * 3, np.ones((5, 1)), "half"], ids=["short", "column", "text"])
    @pytest.mark.parametrize(
        "kind", [ScoreKind.raps(RapsParams(0.01, 2)), ScoreKind.sparsemax()], ids=["raps", "sparsemax"]
    )
    def test_misshaped_u_rejected(self, kind, u):
        # u is a scalar or one weight per row, checked by every entry point
        # for every kind, not left to fail in numpy's broadcasting
        Z = np.zeros((5, 4))
        with pytest.raises(InvalidInput):
            all_label_scores(Z, kind, u=u)
        with pytest.raises(InvalidInput):
            true_label_scores(Z, [0] * 5, kind, u=u)
        with pytest.raises(InvalidInput):
            set_masks(Z, predictor_at(kind, 0.5, 4), u=u)

    def test_k_reg_beyond_classes(self):
        params = RapsParams(lambda_reg=0.1, k_reg=9)
        with pytest.raises(InvalidInput):
            score_one(ScoreKind.raps(params), Z5, 0)

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidInput):
            RapsParams(lambda_reg=-0.1, k_reg=1)
        with pytest.raises(InvalidInput):
            RapsParams(lambda_reg=0.1, k_reg=0)


class TestRapsOracle:
    """Every RAPS route against the per-row reference, bit for bit."""

    @pytest.mark.parametrize("rows", ["gaussian", "tied", "offset"])
    @pytest.mark.parametrize("k", [2, 10, 1000])
    def test_every_route_is_the_per_row_reference(self, k, rows):
        rng = np.random.default_rng(k + len(rows))
        n = 12 if k == 1000 else 40
        Z = {
            "gaussian": rng.normal(size=(n, k)),
            "tied": rng.integers(-2, 3, size=(n, k)).astype(float),
            "offset": 1e6 + rng.normal(size=(n, k)),
        }[rows]
        labels = rng.integers(0, k, size=n)
        view = scores_mod._sort_rows(Z, labels)
        for u in (None, rng.uniform(size=n)):
            for k_reg in [r for r in (1, 5, k) if r <= k]:
                for lambda_reg in (0.0, 0.01, 1.0):
                    kind = ScoreKind.raps(RapsParams(lambda_reg, k_reg))
                    expected = raps_scores_per_row(Z, lambda_reg, k_reg, u)
                    at_label = expected[np.arange(n), labels]
                    assert all_label_scores(Z, kind, u).tobytes() == expected.tobytes()
                    assert true_label_scores(Z, labels, kind, u).tobytes() == at_label.tobytes()
                    got = true_label_scores(view, view.rank, kind, u)
                    assert got.tobytes() == at_label.tobytes()
                    pred = predictor_at(kind, np.median(expected), k)
                    ranked = np.take_along_axis(expected <= pred.q_hat, view.order, axis=1)
                    np.testing.assert_array_equal(set_masks(view, pred, u), ranked)
                    np.testing.assert_array_equal(set_masks(Z, pred, u), expected <= pred.q_hat)


class TestScalarRoutesThroughBatch:
    def test_nan_u_rejected(self):
        with pytest.raises(InvalidInput):
            score_one(ScoreKind.raps(RapsParams(lambda_reg=0.0, k_reg=1)), Z5, 0, u=math.nan)


class TestScoreKind:
    def test_entmax_gamma_must_be_interior(self):
        for gamma in (1.0, 2.0, 0.5):
            with pytest.raises(InvalidGamma):
                ScoreKind.entmax(gamma)
        assert ScoreKind.entmax(1.5).gamma == 1.5

    def test_delta_inv(self):
        assert ScoreKind.sparsemax().delta_inv() == 1.0
        assert ScoreKind.entmax(1.5).delta_inv() == pytest.approx(0.5)
        assert ScoreKind.log_margin().delta_inv() is None
        assert ScoreKind.inv_prob().delta_inv() is None

    def test_dict_roundtrip(self):
        for kind in ALL_KINDS + [ScoreKind.raps(RapsParams(0.5, 3, True, 7))]:
            assert ScoreKind.from_dict(kind.to_dict()) == kind
        assert ScoreKind.raps(RapsParams(0.5, 3, True, 7)).to_dict() == {
            "score": "raps", "lambda_reg": 0.5, "k_reg": 3, "randomized": True,
            "rng_seed": 7,
        }

    def test_from_dict_keeps_values_untyped(self):
        # an integer lambda_reg must echo back as an integer
        doc = {"score": "raps", "lambda_reg": 0, "k_reg": 2}
        back = ScoreKind.from_dict(doc).to_dict()
        assert back == {**doc, "randomized": False, "rng_seed": 0}
        assert type(back["lambda_reg"]) is int

    @pytest.mark.parametrize(
        "doc",
        [
            ["score", "sparsemax"],
            {},
            {"score": "softmax"},
            {"score": ["entmax"]},
            {"score": "entmax"},
            {"score": "entmax", "gamma": "1.5"},
            {"score": "entmax", "gamma": True},
            {"score": "sparsemax", "gamma": 1.5},
            {"score": "raps", "k_reg": 2},
            {"score": "raps", "lambda_reg": 0.1, "k_reg": 2.0},
            {"score": "raps", "lambda_reg": 0.1, "k_reg": 2, "randomized": 1},
            {"score": "raps", "lambda_reg": 0.1, "k_reg": 2, "rng_seed": "3"},
        ],
    )
    def test_from_dict_rejects(self, doc):
        with pytest.raises(InvalidInput):
            ScoreKind.from_dict(doc)

    def test_mismatched_fields_rejected(self):
        with pytest.raises(InvalidInput):
            ScoreKind("sparsemax", gamma=1.5)
        with pytest.raises(InvalidInput):
            ScoreKind("raps")
        with pytest.raises(InvalidInput):
            ScoreKind("unknown")


ALL_KINDS = [
    ScoreKind.sparsemax(),
    ScoreKind.entmax(1.25),
    ScoreKind.entmax(1.5),
    ScoreKind.entmax(1.75),
    ScoreKind.log_margin(),
    ScoreKind.inv_prob(),
    ScoreKind.raps(RapsParams(lambda_reg=0.01, k_reg=2)),
]


class TestVectorizedAgainstScalar:
    """The batch paths must agree with scoring one (z, y) pair at a time."""

    def test_all_label_scores(self):
        rng = np.random.default_rng(51)
        Z = rng.uniform(-5.0, 5.0, size=(40, 6))
        for kind in ALL_KINDS:
            got = all_label_scores(Z, kind)
            for i in range(Z.shape[0]):
                for y in range(Z.shape[1]):
                    assert got[i, y] == pytest.approx(
                        score_one(kind, Z[i], y), rel=1e-12, abs=1e-12
                    )

    def test_true_label_scores(self):
        # calibration and the prediction sets must score a label identically
        rng = np.random.default_rng(52)
        inputs = [
            rng.uniform(-5.0, 5.0, size=(60, 7)),
            rng.integers(-2, 3, size=(60, 40)).astype(float),  # tie-heavy
            rng.normal(size=(60, 40)) + 1e6,
        ]
        for Z in inputs:
            labels = rng.integers(0, Z.shape[1], size=60)
            u = rng.uniform(size=60)
            for kind in ALL_KINDS:
                got = true_label_scores(Z, labels, kind, u=u)
                want = all_label_scores(Z, kind, u=u)[np.arange(60), labels]
                np.testing.assert_array_equal(got, want)

    def test_chunked_entmax_path(self):
        # force several row blocks through the O(K^2) gap-norm code
        rng = np.random.default_rng(53)
        Z = rng.uniform(-5.0, 5.0, size=(30, 5))
        kind = ScoreKind.entmax(1.5)
        full = all_label_scores(Z, kind)
        old = scores_mod._CHUNK_CELLS
        try:
            scores_mod._CHUNK_CELLS = 100
            np.testing.assert_array_equal(all_label_scores(Z, kind), full)
        finally:
            scores_mod._CHUNK_CELLS = old


    @pytest.mark.parametrize(
        "kind, per_row_u",
        [
            (ScoreKind.sparsemax(), False),
            (ScoreKind.log_margin(), False),
            (ScoreKind.inv_prob(), False),
            (ScoreKind.raps(RapsParams(0.01, 2)), False),
            (ScoreKind.raps(RapsParams(0.01, 2, randomized=True)), True),
            *((ScoreKind.entmax(gamma), False) for gamma in (1.1, 1.5, 1.9)),
        ],
        ids=[
            "sparsemax", "log_margin", "inv_prob", "raps", "raps-randomized",
            "1.1", "1.5", "1.9",
        ],
    )
    def test_entmax_true_label_blocks_change_no_bit(self, kind, per_row_u, monkeypatch):
        # every kind gives the same bits through every entry point whether
        # its rows are sorted in one block or in eight
        rng = np.random.default_rng(61)
        Z = np.concatenate([rng.normal(size=(25, 57)), rng.integers(0, 4, (25, 57))])
        labels = rng.integers(0, 57, size=50)
        u = rng.uniform(size=50) if per_row_u else None
        q = float(np.median(true_label_scores(Z, labels, kind, u=u)))
        calls = {
            "all_label_scores": lambda: all_label_scores(Z, kind, u=u),
            "true_label_scores": lambda: true_label_scores(Z, labels, kind, u=u),
            "set_masks": lambda: set_masks(Z, predictor_at(kind, q, 57), u=u),
        }
        whole = {name: call() for name, call in calls.items()}
        sorts = []
        sort = scores_mod.descending_order

        def counted_sort(z):
            sorts.append(z.shape[0])
            return sort(z)

        monkeypatch.setattr(scores_mod, "descending_order", counted_sort)
        monkeypatch.setattr(scores_mod, "_CHUNK_CELLS", 7 * 57)
        for name, call in calls.items():
            sorts.clear()
            blocked = call()
            assert sorts == [7] * 7 + [1], name
            assert blocked.tobytes() == whole[name].tobytes(), name

    @pytest.mark.parametrize(
        "kind, per_row_u",
        [
            (ScoreKind.sparsemax(), False),
            (ScoreKind.log_margin(), False),
            (ScoreKind.inv_prob(), False),
            (ScoreKind.raps(RapsParams(0.01, 2)), False),
            (ScoreKind.raps(RapsParams(0.01, 2, randomized=True)), True),
            *((ScoreKind.entmax(gamma), False) for gamma in (1.1, 1.5, 1.9)),
        ],
        ids=[
            "sparsemax", "log_margin", "inv_prob", "raps", "raps-randomized",
            "1.1", "1.5", "1.9",
        ],
    )
    @pytest.mark.parametrize("softmax_first", [False, True], ids=["gathered", "softmax-first"])
    def test_gathered_view_scores_like_a_fresh_sort(self, kind, per_row_u, softmax_first):
        # a split part is row indices into the sweep's one sort, and a
        # tuning part's indices compose with its split part's, whether or
        # not the view holds its softmax; their scores and sets must be
        # those of sorting the subset afresh, bit for bit
        rng = np.random.default_rng(67)
        Z = np.concatenate([rng.normal(size=(40, 57)), rng.integers(0, 4, (40, 57))])
        labels = rng.integers(0, 57, size=80)
        u = rng.uniform(size=80) if per_row_u else np.ones(80)
        outer = rng.permutation(80)[:64]
        inner = rng.permutation(64)[:48]
        idx = outer[inner]
        view = scores_mod._sort_rows(Z, labels)
        if softmax_first:
            assert view.probs is view.probs
        fresh = scores_mod._sort_rows(Z[idx], labels[idx])
        outer_part = view.subset(outer)
        if softmax_first:
            assert outer_part.zs is outer_part.zs and outer_part.probs is outer_part.probs
        composed = outer_part.subset(inner)
        np.testing.assert_array_equal(composed.idx, view.subset(idx).idx)
        for part in (view.subset(idx), composed):
            np.testing.assert_array_equal(part.zs, fresh.zs)
            assert part.probs.tobytes() == fresh.probs.tobytes()
            np.testing.assert_array_equal(part.rank, fresh.rank)
            got = true_label_scores(part, part.rank, kind, u=u[idx])
            assert got.tobytes() == true_label_scores(fresh, fresh.rank, kind, u=u[idx]).tobytes()
            want = true_label_scores(Z[idx], labels[idx], kind, u=u[idx])
            assert got.tobytes() == want.tobytes()
            for q in np.quantile(got, [0.0, 0.3, 0.9]):
                pred = predictor_at(kind, q, 57)
                sets = set_masks(part, pred, u=u[idx])
                np.testing.assert_array_equal(sets, set_masks(fresh, pred, u=u[idx]))
                np.testing.assert_array_equal(
                    sets.sum(axis=1), set_masks(Z[idx], pred, u=u[idx]).sum(axis=1)
                )

    @pytest.mark.parametrize(
        "kind, n",
        [
            (ScoreKind.sparsemax(), 4000),
            (ScoreKind.log_margin(), 4000),
            (ScoreKind.raps(RapsParams(0.01, 5)), 4000),
            (ScoreKind.entmax(1.5), 4000),
            (ScoreKind.inv_prob(), 8000),
        ],
        ids=["sparsemax", "log_margin", "raps", "1.5", "inv_prob"],
    )
    def test_block_bounds_peak_memory(self, kind, n):
        # numpy reports its buffers to tracemalloc.  Beside the n x 1000
        # input (32 MB at n = 4000), which the caller holds, a call keeps a
        # few 8 MB block temporaries and its output; scoring the input whole
        # held several input-sized ones
        rng = np.random.default_rng(66)
        Z = rng.normal(size=(n, 1000))
        labels = rng.integers(0, 1000, size=n)
        tracemalloc.start()
        try:
            s = true_label_scores(Z, labels, kind)
            true_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            set_masks(Z, predictor_at(kind, float(np.median(s)), 1000))
            mask_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert true_peak <= 80 * 2**20
        assert mask_peak <= 80 * 2**20
        if kind.variant == "raps":
            # a sorted view keeps its softmax and prefix mass (32 MB each
            # here), both built in row blocks; the rest stays block-sized
            view = scores_mod._sort_rows(Z, labels)
            tracemalloc.start()
            try:
                mask = set_masks(view, predictor_at(kind, float(np.median(s)), 1000))
                view_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = view.probs.nbytes + view.below.nbytes + mask.nbytes
            assert view_peak - kept <= 40 * 2**20


class TestFamilyProperties:
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
    def test_sparsemax_sorted_row_nonnegative_and_nondecreasing(self, offset):
        # exact, with no tolerance: the running sum of nonnegative steps
        # neither dips below 0 nor decreases, even where offsets cancel
        rng = np.random.default_rng(60)
        for k in (10, 100, 300):
            Z = np.concatenate(
                [
                    rng.integers(-20, 21, size=(50, k)) * 0.1,  # tie-heavy decimals
                    rng.normal(size=(50, k)),
                ]
            ) + offset
            order = np.argsort(-Z, axis=1, kind="stable")
            ranked = np.take_along_axis(all_label_scores(Z, ScoreKind.sparsemax()), order, axis=1)
            assert np.all(ranked >= 0.0)
            assert np.all(np.diff(ranked, axis=1) >= 0.0)

    def test_rank_monotonicity(self):
        rng = np.random.default_rng(61)
        kinds = [ScoreKind.sparsemax(), ScoreKind.entmax(1.3), ScoreKind.log_margin()]
        for _ in range(100):
            z = random_tie_free(rng)
            order = np.argsort(-z, kind="stable")
            for kind in kinds:
                s = all_label_scores(z[None, :], kind)[0]
                ranked = s[order]
                assert np.all(np.diff(ranked) >= -1e-12)

    def test_nonnegative_and_zero_iff_top(self):
        rng = np.random.default_rng(62)
        kinds = [ScoreKind.sparsemax(), ScoreKind.entmax(1.6), ScoreKind.log_margin()]
        for _ in range(100):
            z = random_tie_free(rng)
            top = int(np.argmax(z))
            for kind in kinds:
                s = all_label_scores(z[None, :], kind)[0]
                assert np.all(s >= 0.0)
                assert s[top] == 0.0
                assert np.all(s[np.arange(z.size) != top] > 0.0)

    def test_shift_invariance_all_kinds(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            z = random_tie_free(rng)
            c = float(rng.uniform(-30.0, 30.0))
            for kind in ALL_KINDS:
                if kind.variant == "raps" and kind.raps_params.k_reg > z.size:
                    continue
                np.testing.assert_allclose(
                    all_label_scores((z + c)[None, :], kind)[0],
                    all_label_scores(z[None, :], kind)[0],
                    atol=1e-9,
                )

    def test_positive_homogeneity_of_family_scores(self):
        # score(beta * z) = beta * score(z): the reason quantile
        # calibration doubles as temperature selection
        rng = np.random.default_rng(64)
        kinds = [ScoreKind.sparsemax(), ScoreKind.entmax(1.4), ScoreKind.log_margin()]
        for _ in range(50):
            z = random_tie_free(rng)
            beta = float(rng.uniform(0.1, 10.0))
            for kind in kinds:
                np.testing.assert_allclose(
                    all_label_scores((beta * z)[None, :], kind)[0],
                    beta * all_label_scores(z[None, :], kind)[0],
                    rtol=1e-10,
                    atol=1e-12,
                )

    def test_large_delta_approaches_log_margin(self):
        # the delta-norm decreases toward the max norm as delta grows and
        # is within the m**(1/delta) envelope of it
        rng = np.random.default_rng(65)
        for _ in range(100):
            z = random_tie_free(rng, low=-10.0, high=10.0)
            y = int(rng.integers(0, z.size))
            lm = score_one(LOG_MARGIN, z, y)
            m = rank_of(z, y) - 1
            prev = math.inf
            for delta in (4.0, 16.0, 64.0):
                s = score_one(ScoreKind.entmax(1.0 + 1.0 / delta), z, y)
                assert lm <= s <= prev + 1e-12
                assert s <= lm * max(1, m) ** (1.0 / delta) + 1e-12
                prev = s
