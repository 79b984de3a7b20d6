import numpy as np
import pytest

from entconform import (
    EmptyRun,
    EvaluationRun,
    InvalidInput,
    MetricsReport,
    PredictionSet,
    SizeBins,
    compute_report,
)

BINS = SizeBins.default(10)


def make_run(label_sets, labels, alpha=0.1):
    return EvaluationRun(
        sets=tuple(PredictionSet(tuple(sorted(s))) for s in label_sets),
        labels=np.asarray(labels),
        alpha=alpha,
    )


def random_run(rng, n=50, k=10, alpha=0.1):
    sets = []
    for _ in range(n):
        size = int(rng.integers(0, k + 1))
        sets.append(tuple(sorted(rng.choice(k, size=size, replace=False))))
    labels = rng.integers(0, k, size=n)
    return make_run(sets, labels, alpha=alpha)


class TestEmpiricalCoverage:
    def test_hand_count(self):
        run = make_run([{1}, {1, 2}, {3}], [1, 3, 3])
        assert compute_report(run, BINS).coverage == pytest.approx(2 / 3)

    def test_full_sets_cover_everything(self):
        run = make_run([set(range(5))] * 4, [0, 1, 2, 4])
        assert compute_report(run, BINS).coverage == 1.0

    def test_empty_sets_cover_nothing(self):
        run = make_run([set(), set()], [0, 1])
        assert compute_report(run, BINS).coverage == 0.0

    def test_empty_run(self):
        with pytest.raises(EmptyRun):
            compute_report(make_run([], []), BINS)


class TestAvgSetSize:
    def test_hand_mean(self):
        run = make_run([{0}, {0, 1}, {0, 1, 2}], [0, 0, 0])
        assert compute_report(run, BINS).avg_set_size == 2.0

    def test_all_singletons(self):
        run = make_run([{3}] * 5, [3, 3, 3, 0, 1])
        assert compute_report(run, BINS).avg_set_size == 1.0

    def test_all_full(self):
        run = make_run([set(range(10))] * 3, [0, 1, 2])
        assert compute_report(run, BINS).avg_set_size == 10.0


class TestSingletonStats:
    def test_hand_count(self):
        report = compute_report(make_run([{1}, {1, 2}], [1, 0]), BINS)
        assert report.singleton_ratio == 0.5
        assert report.singleton_coverage == 1.0

    def test_no_singletons_coverage_absent(self):
        report = compute_report(make_run([{1, 2}, set()], [1, 0]), BINS)
        assert report.singleton_ratio == 0.0
        assert report.singleton_coverage is None

    def test_all_correct_singletons(self):
        report = compute_report(make_run([{2}, {4}], [2, 4]), BINS)
        assert (report.singleton_ratio, report.singleton_coverage) == (1.0, 1.0)


class TestSizeBins:
    def test_default_for_large_k(self):
        assert SizeBins.default(1000).edges == ((0, 1), (2, 3), (4, 6), (7, 10), (11, 1000))

    def test_default_clamps_to_small_k(self):
        assert SizeBins.default(10).edges == ((0, 1), (2, 3), (4, 6), (7, 10))
        assert SizeBins.default(5).edges == ((0, 1), (2, 3), (4, 5))
        assert SizeBins.default(2).edges == ((0, 1), (2, 2))

    def test_rejects_gaps_and_disorder(self):
        with pytest.raises(InvalidInput):
            SizeBins(((0, 1), (3, 4)))
        with pytest.raises(InvalidInput):
            SizeBins(((1, 2),))
        with pytest.raises(InvalidInput):
            SizeBins(((0, 3), (2, 5)))

    @pytest.mark.parametrize(
        "edges", [5, ((0, 1, 2),), ((0,),), "01", ((0, 1), 2)],
        ids=["int", "triple", "single", "str", "pair-and-int"],
    )
    def test_rejects_edges_that_are_not_pairs(self, edges):
        with pytest.raises(InvalidInput, match=r"\[lo, hi\] pairs"):
            SizeBins(edges)

    @pytest.mark.parametrize("edge", [1.5, 1.0, True, "1"])
    def test_rejects_non_integer_edges(self, edge):
        with pytest.raises(InvalidInput):
            SizeBins(((0, edge), (2, 3)))


class TestSizeStratifiedCoverage:
    def test_hand_binning(self):
        run = make_run([{0}, {0, 1}, {0, 1, 2, 3, 4}], [0, 0, 0])
        stats = compute_report(run, BINS).stratified
        assert [(s.lo, s.hi, s.n, s.coverage) for s in stats] == [
            (0, 1, 1, 1.0),
            (2, 3, 1, 1.0),
            (4, 6, 1, 1.0),
            (7, 10, 0, None),
        ]

    def test_empty_bin_reported_as_none(self):
        run = make_run([{0}], [0])
        stats = compute_report(run, BINS).stratified
        assert stats[0].n == 1
        assert all(s.n == 0 and s.coverage is None for s in stats[1:])

    def test_single_bin_reproduces_empirical_coverage(self):
        rng = np.random.default_rng(5)
        run = random_run(rng)
        report = compute_report(run, SizeBins(((0, 10),)))
        assert report.stratified[0].coverage == pytest.approx(report.coverage)


class TestSscv:
    def test_exact_conditional_coverage_is_zero(self):
        # one bin, coverage 0.9, alpha 0.1
        sets = [{0}] * 9 + [{1}]
        labels = [0] * 9 + [2]
        run = make_run(sets, labels, alpha=0.1)
        assert compute_report(run, SizeBins(((0, 10),))).sscv == pytest.approx(0.0)

    def test_max_deviation_over_bins(self):
        # bin {0-1}: 19 of 20 covered (0.95); bin {2-3}: 7 of 10 (0.7)
        sets = [{0}] * 20 + [{0, 1}] * 10
        labels = [0] * 19 + [5] + [0] * 7 + [5] * 3
        run = make_run(sets, labels, alpha=0.1)
        assert compute_report(run, SizeBins.default(10)).sscv == pytest.approx(0.2)

    def test_only_nonempty_bins_count(self):
        sets = [{0, 1}] * 4
        labels = [0, 0, 0, 5]
        run = make_run(sets, labels, alpha=0.25)
        assert compute_report(run, SizeBins.default(10)).sscv == pytest.approx(0.0)


class TestMetricIdentities:
    def test_stratified_consistency(self):
        rng = np.random.default_rng(6)
        bins = SizeBins.default(10)
        for _ in range(200):
            run = random_run(rng, n=int(rng.integers(1, 60)))
            report = compute_report(run, bins)
            stats = report.stratified
            assert sum(s.n for s in stats) == run.n
            recomposed = (
                sum(s.n * s.coverage for s in stats if s.coverage is not None) / run.n
            )
            assert recomposed == pytest.approx(report.coverage, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        run = random_run(rng, n=30)
        perm = rng.permutation(30)
        shuffled = EvaluationRun(
            sets=tuple(run.sets[i] for i in perm),
            labels=run.labels[perm],
            alpha=run.alpha,
        )
        before, after = compute_report(run, BINS), compute_report(shuffled, BINS)
        assert after.coverage == before.coverage
        assert after.avg_set_size == before.avg_set_size
        assert after.singleton_ratio == before.singleton_ratio
        assert after.singleton_coverage == before.singleton_coverage
        assert after.sscv == before.sscv


class TestReport:
    def test_compute_report_fields(self):
        rng = np.random.default_rng(8)
        run = random_run(rng, n=40)
        report = compute_report(run, SizeBins.default(10))
        assert isinstance(report, MetricsReport)
        assert report.coverage == float(run.covered.mean())
        assert report.avg_set_size == float(run.sizes.mean())
        assert sum(s.n for s in report.stratified) == 40

    def test_json_omits_absent_metrics(self):
        run = make_run([{0, 1}], [0])
        doc = compute_report(run, SizeBins.default(5)).to_json_dict()
        assert "singleton_coverage" not in doc
        assert "sscv" in doc

    def test_metric_items_sorted_and_filtered(self):
        run = make_run([{0, 1}, {2}], [0, 2])
        items = compute_report(run, SizeBins.default(5)).metric_items()
        names = [name for name, _ in items]
        assert names == sorted(names)
        assert "singleton_coverage" in names


    def test_metric_items_are_the_json_metrics(self):
        # sizes 1, 1, 2 with the second set missing its label
        run = make_run([{0}, {2}, {0, 1}], [0, 1, 0], alpha=0.1)
        report = compute_report(run, SizeBins.default(5))
        items = report.metric_items()
        assert [name for name, _ in items] == [
            "avg_set_size", "coverage", "singleton_coverage", "singleton_ratio", "sscv"
        ]
        assert dict(items) == pytest.approx({
            "avg_set_size": 4 / 3, "coverage": 2 / 3, "singleton_coverage": 0.5,
            "singleton_ratio": 2 / 3, "sscv": 0.4,
        })
        doc = report.to_json_dict()
        assert dict(items) == {k: v for k, v in doc.items() if k != "stratified"}


def mask_run(mask, labels, alpha=0.1):
    return EvaluationRun(sets=mask, labels=labels, alpha=alpha)


def sets_of(mask):
    return tuple(PredictionSet.from_mask(row) for row in mask)


class TestMaskRun:
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_mask_and_sets_agree(self, k):
        rng = np.random.default_rng(k)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            mask = rng.random((n, k)) < rng.random()
            mask[rng.random(n) < 0.2] = False
            mask[rng.random(n) < 0.2] = True
            labels = rng.integers(0, k, size=n)
            by_mask = mask_run(mask, labels)
            by_sets = make_run([s.labels for s in sets_of(mask)], labels)
            np.testing.assert_array_equal(by_mask.sizes, by_sets.sizes)
            np.testing.assert_array_equal(by_mask.covered, by_sets.covered)
            assert by_mask.sizes.dtype == np.int64 and by_mask.covered.dtype == bool
            bins = SizeBins.default(k)
            assert compute_report(by_mask, bins) == compute_report(by_sets, bins)

    def test_empty_and_full_rows(self):
        mask = np.array([[False, False], [True, True], [True, False]])
        run = mask_run(mask, [0, 1, 1])
        assert run.sizes.tolist() == [0, 2, 1]
        assert run.covered.tolist() == [False, True, False]

    @pytest.mark.parametrize(
        "mask, labels",
        [
            (np.zeros((2, 3), dtype=np.int64), [0, 1]),
            (np.zeros(3, dtype=bool), [0, 1, 2]),
            (np.zeros((2, 3, 1), dtype=bool), [0, 1]),
            (np.zeros((3, 3), dtype=bool), [0, 1]),
            (np.zeros((2, 3), dtype=bool), [0, -1]),
            (np.zeros((2, 3), dtype=bool), [3, 0]),
        ],
        ids=["int-mask", "1-d", "3-d", "row-count", "label-negative", "label-k"],
    )
    def test_invalid_mask_rejected(self, mask, labels):
        with pytest.raises(InvalidInput):
            mask_run(mask, np.asarray(labels))

    def test_bins_short_of_a_set_size(self):
        mask = np.array([[True, False, False], [True, True, True]])
        bins = SizeBins(((0, 1), (2, 2)))
        with pytest.raises(InvalidInput, match="set size 3"):
            compute_report(mask_run(mask, [0, 1]), bins)
