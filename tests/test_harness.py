import dataclasses
import io
import json

import numpy as np
import pytest

import entconform.harness as harness_mod
import entconform.tuning as tuning_mod
from entconform import (
    EmptyCalibration,
    ExperimentConfig,
    InconsistentWidth,
    InvalidInput,
    LabeledLogitDataset,
    LabelOutOfRange,
    MethodSpec,
    ParseError,
    RapsParams,
    ScoreKind,
    SplitSpec,
    calibrate,
    emit_plot_data,
    load_dataset,
    run_experiment,
    split,
)
from entconform.harness import report_json, run_sweep

from oracles import read_logits_csv_per_row
from synth import make_task, write_dataset_csv


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadDataset:
    def test_small_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "label,z0,z1\n1,0.5,-0.5\n0,1.25,3.0\n")
        data = load_dataset(p)
        assert data.n == 2
        assert data.num_classes == 2
        np.testing.assert_array_equal(data.labels, [1, 0])
        np.testing.assert_array_equal(data.logits, [[0.5, -0.5], [1.25, 3.0]])
        # numpy's reductions sum in an order that depends on memory layout
        assert data.logits.dtype == np.float64 and data.logits.flags.c_contiguous
        assert data.labels.dtype == np.int64

    def test_row_order_preserved(self, tmp_path):
        rows = "".join(f"0,{i}.0,0.0\n" for i in range(20))
        data = load_dataset(write_csv(tmp_path / "d.csv", "label,z0,z1\n" + rows))
        np.testing.assert_array_equal(data.logits[:, 0], np.arange(20.0))

    def test_inconsistent_width_reports_line(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "label,z0,z1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(InconsistentWidth) as err:
            load_dataset(p)
        assert err.value.line == 3

    def test_bad_value_reports_line(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "label,z0,z1\n0,oops,2.0\n")
        with pytest.raises(ParseError) as err:
            load_dataset(p)
        assert err.value.line == 2

    def test_label_out_of_range(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "label,z0,z1\n2,1.0,2.0\n")
        with pytest.raises(LabelOutOfRange):
            load_dataset(p)

    def test_bad_header(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "z0,z1\n1.0,2.0\n")
        with pytest.raises(ParseError):
            load_dataset(p)

    def test_nonfinite_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "label,z0,z1\n0,nan,2.0\n")
        with pytest.raises(ParseError):
            load_dataset(p)

    def test_empty_after_header_fails_downstream(self, tmp_path):
        data = load_dataset(write_csv(tmp_path / "d.csv", "label,z0,z1\n"))
        assert data.n == 0
        with pytest.raises(EmptyCalibration):
            calibrate(data, ScoreKind.sparsemax(), 0.1)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_dataset("/nonexistent/nowhere.csv")



def _outcome(parse):
    """The bits and labels ``parse()`` returns, or its error's class, line
    and message."""
    try:
        logits, labels = parse()
    except Exception as exc:  # every parse error is compared, not raised
        return type(exc), getattr(exc, "line", None), str(exc)
    assert logits.dtype == np.float64 and logits.flags.c_contiguous
    bits = (logits.shape, logits.view(np.int64).tobytes())
    if labels is None:
        return bits, None
    assert labels.dtype == np.int64
    return bits, labels.tolist()


_ODD_TOKENS = (
    "1_0", "\uff11.\uff15", "\u0663", "nan", "inf", "-inf", "1e309", "-0.0", "5e-324",
    "1e-400", "+1.5", ".5", "5.", " 2.5 ", "\t1", "0x10", "1d5", "", " ", "1.0\x00",
    "\u20281.0", "2\x1c", "\x1f2", "\x1d", "\xa03", "\u30002\x85", "'1'", "1 0", "NaN", "Infinity",
)
_ODD_LABELS = ("3.0", "3_0", "\u0663", "+3", " 1 ", "-0", "00", "-1", "1e0", "", "9" * 5000)
_ODD_LINES = ("", " ", "\t", "#", "# 0,1,2", ",", ",,", '"', '""')


def _random_csv(rng, labeled: bool, k: int) -> list:
    lines = []
    for _ in range(rng.integers(0, 9)):
        label = str(rng.integers(0, k)) if labeled else None
        values = [repr(float(v)) for v in rng.normal(size=k) * 10.0 ** rng.integers(-8, 8, k)]
        roll = rng.random()
        if roll < 0.1:
            values[rng.integers(k)] = str(rng.choice(_ODD_TOKENS))
        elif roll < 0.15 and labeled:
            label = str(rng.choice(_ODD_LABELS))
        elif roll < 0.2:
            lines.append(str(rng.choice(_ODD_LINES)))
            continue
        elif roll < 0.23:
            values.append("")  # a trailing comma
        elif roll < 0.26:
            j = rng.integers(k)
            values[j] = f'"{values[j]}"' if rng.random() < 0.5 else f'"{values[j]}\n"'
        lines.append(",".join(([label] if labeled else []) + values))
    return lines


class TestParserMatchesPerRowReference:
    """The block parser against the per-row parser it replaced
    (``oracles.read_logits_csv_per_row``), on the same text, with blocks
    of 1 to 3 rows so that errors fall on block edges."""

    HEADERS = {True: "label,z0,z1,z2", False: "z0,z1,z2"}
    FIXED = (
        [],
        ["", "0,1.0,2.0,3.0", "", "   ", "1,1,2,3"],
        ["0,1.0,2.0,3.0", "#0,1,2,3"],
        ["0,1.0,2.0,3.0", '1,"4.0",5.0,6.0', "2,7.0,8.0,9.0"],
        ['0,"1.0', '",2.0,3.0', "1,4.0,5.0,6.0", "2,7.0,x,9.0"],
        ["0,1.0,2.0,3.0,", "1,1.0,2.0,3.0"],
        ["0,-0.0,5e-324,1e-400", "1,1e309,0,0"],
        ["3.0,1,2,3"], ["3_0,1,2,3"], ["\u0663,1,2,3"], ["+2,1,2,3"], ["3,1,2,3"],
        ["0,1_0,2,3", "1,\uff11.\uff15,2,3", "2,\u0663,2,3"],
        ["0,1,2,3", "x,nan,2,3"], ["0,1,2,3", "1,nan,2,3,4"],
        ["0,1,2", "1,1,2,3", "1,1,2,3,4"],
        ["0,1,2,3"] * 7 + ["0,1,2,nan"],
    )

    @pytest.fixture(params=[1, 2, 3, None], ids=["rows1", "rows2", "rows3", "default"])
    def block_rows(self, request):
        """Block size in rows (None: the package's own)."""
        return request.param

    def check(self, lines, labeled, ending, block_rows, monkeypatch, tmp_path):
        text = ending.join([self.HEADERS[labeled], *lines]) + ending
        width = 4 if labeled else 3
        if block_rows is not None:
            monkeypatch.setattr(harness_mod, "_BLOCK_CELLS", block_rows * width)

        def stream():  # how transform reads stdin
            return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")

        expected = _outcome(lambda: read_logits_csv_per_row(stream()))
        assert _outcome(lambda: harness_mod._read_logits_csv(stream())) == expected
        if labeled:
            path = tmp_path / "d.csv"
            path.write_bytes(text.encode())

            def reference():
                with open(path, encoding="utf-8", newline="") as fh:
                    return read_logits_csv_per_row(fh, labeled=True)

            def loaded():
                data = load_dataset(str(path))
                return data.logits, data.labels

            assert _outcome(loaded) == _outcome(reference)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "bare"])
    def test_fixed_inputs(self, labeled, ending, block_rows, monkeypatch, tmp_path):
        for lines in self.FIXED:
            if not labeled:
                lines = [line.split(",", 1)[-1] for line in lines]
            self.check(lines, labeled, ending, block_rows, monkeypatch, tmp_path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "bare"])
    def test_random_inputs(self, labeled, ending, block_rows, monkeypatch, tmp_path):
        rng = np.random.default_rng(14 + 2 * labeled + len(ending))
        for _ in range(60):
            lines = _random_csv(rng, labeled, 3)
            self.check(lines, labeled, ending, block_rows, monkeypatch, tmp_path)

    def test_every_token_alone(self, block_rows, monkeypatch, tmp_path):
        for token in _ODD_TOKENS:
            self.check([f"0,1.0,{token},2.0"], True, "\n", block_rows, monkeypatch, tmp_path)
        for label in _ODD_LABELS:
            self.check([f"{label},1.0,2.0,3.0"], True, "\n", block_rows, monkeypatch, tmp_path)

    def test_large_file_is_bit_identical(self, tmp_path):
        data = make_task(700, num_classes=37, seed=3, radius=4.0, align=0.8)
        path = str(tmp_path / "big.csv")
        write_dataset_csv(path, data)
        with open(path, encoding="utf-8", newline="") as fh:
            logits, labels = read_logits_csv_per_row(fh, labeled=True)
        loaded = load_dataset(path)
        assert loaded.logits.tobytes() == logits.tobytes()
        np.testing.assert_array_equal(loaded.labels, labels)


class TestConfig:
    def config_doc(self, **overrides):
        doc = {
            "input_path": "in.csv",
            "methods": [{"score": "sparsemax"}, {"score": "entmax", "gamma": 1.5}],
            "alphas": [0.05, 0.1],
            "n_splits": 2,
            "cal_fraction": 0.4,
            "base_seed": 7,
            "output_path": "out",
        }
        doc.update(overrides)
        return doc

    def test_roundtrip(self):
        cfg = ExperimentConfig.from_dict(self.config_doc())
        assert cfg.methods[1].name == "1.5-entmax"
        assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_unsorted_alphas_rejected(self):
        with pytest.raises(InvalidInput):
            ExperimentConfig.from_dict(self.config_doc(alphas=[0.1, 0.05]))

    def test_duplicate_alphas_rejected(self):
        # two cells of one alpha would merge into one list of 2 * n_splits
        # entries, mislabelled as splits
        with pytest.raises(InvalidInput, match="strictly ascending"):
            ExperimentConfig.from_dict(self.config_doc(alphas=[0.1, 0.1]))
        with pytest.raises(InvalidInput, match="strictly ascending"):
            ExperimentConfig.from_dict(self.config_doc(alphas=[0.05, 0.1, 0.1]))

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidInput):
            ExperimentConfig.from_dict(self.config_doc(typo=1))

    def test_duplicate_method_names_rejected(self):
        with pytest.raises(InvalidInput):
            ExperimentConfig.from_dict(
                self.config_doc(methods=[{"score": "sparsemax"}, {"score": "sparsemax"}])
            )

    def test_custom_bins_roundtrip(self):
        cfg = ExperimentConfig.from_dict(
            self.config_doc(bins=[[0, 1], [2, 4]])
        )
        assert cfg.bins.edges == ((0, 1), (2, 4))
        assert cfg.to_dict()["bins"] == [[0, 1], [2, 4]]

    def test_method_defaults(self):
        assert MethodSpec.from_dict({"score": "log_margin"}).name == "log-margin"
        assert MethodSpec.from_dict({"score": "entmax", "tune": True}).name == "opt-entmax"
        raps = MethodSpec.from_dict(
            {"score": "raps", "lambda_reg": 0.01, "k_reg": 5}
        )
        assert raps.name == "raps"
        with pytest.raises(InvalidInput):
            MethodSpec.from_dict({"score": "raps"})
        with pytest.raises(InvalidInput):
            MethodSpec.from_dict({"score": "sparsemax", "tune": True})

    def test_tuned_grids_are_kept_as_tuples(self):
        method = MethodSpec.from_dict({"score": "raps", "tune": True, "k_grid": [1, 2]})
        assert method.k_grid == (1, 2) and method.lambda_grid == tuning_mod.DEFAULT_LAMBDA_GRID
        assert method == MethodSpec("raps", tune=True, k_grid=(1, 2))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MethodSpec("entmax", tune=True, k_grid=(0,)),
            lambda: MethodSpec("raps", tune=True, gamma_grid=(1.5,)),
            lambda: MethodSpec("sparsemax", kind=ScoreKind.sparsemax(), gamma_grid=(1.2,)),
            lambda: MethodSpec("raps", kind=ScoreKind.raps(RapsParams(0.01, 2)), k_grid=(1,)),
        ],
        ids=["tuned-entmax-k-grid", "tuned-raps-gamma-grid", "untuned-gamma-grid", "untuned-k-grid"],
    )
    def test_python_method_with_a_grid_it_does_not_search_rejected(self, build):
        # the same grids in a sweep config exit 2, so the Python route must
        # reject them too
        with pytest.raises(InvalidInput, match="does not search"):
            build()

    def test_only_searched_grids_are_filled(self):
        entmax = MethodSpec("entmax", tune=True)
        assert entmax.gamma_grid == tuning_mod.DEFAULT_GAMMA_GRID
        assert entmax.lambda_grid is None and entmax.k_grid is None
        fixed = MethodSpec("sparsemax", kind=ScoreKind.sparsemax())
        assert (fixed.gamma_grid, fixed.lambda_grid, fixed.k_grid) == (None, None, None)


def tiny_experiment(tmp_path, n=200, methods=None, alphas=(0.1, 0.2), n_splits=2):
    data = make_task(n, num_classes=4, seed=3, radius=4.0, align=0.8)
    csv_path = tmp_path / "logits.csv"
    write_dataset_csv(str(csv_path), data)
    if methods is None:
        methods = ({"score": "sparsemax"}, {"score": "inv_prob"})
    return ExperimentConfig.from_dict(
        {
            "input_path": str(csv_path),
            "methods": list(methods),
            "alphas": list(alphas),
            "n_splits": n_splits,
            "cal_fraction": 0.4,
            "base_seed": 11,
            "output_path": str(tmp_path),
        }
    )


class TestRunExperiment:
    def test_aggregates_over_n_splits(self, tmp_path):
        cfg = tiny_experiment(tmp_path, n_splits=5)
        report = run_experiment(cfg)
        assert report.split_seeds == (11, 12, 13, 14, 15)
        doc = report.to_json_dict()
        cell = doc["aggregates"]["sparsemax"]["0.1"]["coverage"]
        assert set(cell) == {"mean", "std"}
        assert cell["std"] is not None
        values = [
            e["coverage"] for e in doc["per_split"]["sparsemax"]["0.1"]
        ]
        assert len(values) == 5
        assert cell["mean"] == pytest.approx(float(np.mean(values)))
        assert cell["std"] == pytest.approx(float(np.std(values, ddof=1)))

    def test_single_split_std_is_null(self, tmp_path):
        cfg = tiny_experiment(tmp_path, n_splits=1)
        doc = run_experiment(cfg).to_json_dict()
        assert doc["aggregates"]["sparsemax"]["0.1"]["coverage"]["std"] is None

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        assert report_json(run_experiment(cfg)) == report_json(run_experiment(cfg))

    def test_tuned_methods_record_choice(self, tmp_path):
        cfg = tiny_experiment(
            tmp_path,
            n=300,
            methods=(
                {"score": "entmax", "tune": True, "gamma_grid": [1.3, 1.7]},
                {"score": "raps", "tune": True, "lambda_grid": [0.01], "k_grid": [1, 2]},
            ),
            alphas=(0.2,),
            n_splits=1,
        )
        doc = run_experiment(cfg).to_json_dict()
        chosen = doc["per_split"]["opt-entmax"]["0.2"][0]["tuning"]["chosen"]
        assert chosen in (1.3, 1.7)
        raps_cell = doc["per_split"]["raps"]["0.2"][0]["tuning"]
        assert raps_cell["chosen"][0] == 0.01

    @pytest.mark.parametrize(
        "method",
        [
            {"score": "entmax", "tune": True, "gamma_grid": [1.3, 1.7]},
            {"score": "raps", "tune": True, "lambda_grid": [0.01], "k_grid": [1, 2]},
        ],
        ids=["entmax", "raps"],
    )
    def test_tuned_cell_splits_once_for_tuning(self, tmp_path, monkeypatch, method):
        # one split for cal/test and one inside the grid search, shared by
        # both alphas; the grid's predictor is reused, so no second tuning
        # split is made
        calls = []
        split_indices = tuning_mod._split_indices

        def counted(n, spec):
            calls.append(spec)
            return split_indices(n, spec)

        cfg = tiny_experiment(tmp_path, n=300, methods=(method,), alphas=(0.1, 0.2), n_splits=1)
        monkeypatch.setattr(tuning_mod, "_split_indices", counted)
        run_experiment(cfg)
        assert calls == [SplitSpec((0.4, 0.6), seed=11), SplitSpec((0.6, 0.4), seed=11)]

    def test_each_row_is_sorted_once_per_split(self, tmp_path, monkeypatch):
        # the sweep sorts its input once: every part of every split, and
        # every tuning part, is a row gather of that one sorted view, read
        # by every method, alpha and grid point
        import entconform.scores as scores_mod

        rows = []
        sort = scores_mod.descending_order

        def counted_sort(z):
            rows.append(z.shape[0])
            return sort(z)

        cfg = tiny_experiment(
            tmp_path,
            n=300,
            methods=(
                {"score": "entmax", "tune": True},
                {"score": "raps", "tune": True, "k_grid": [1, 2, 3]},
                {"score": "entmax", "gamma": 1.5},
                {"score": "inv_prob"},
                {"score": "raps", "lambda_reg": 0.01, "k_reg": 2, "randomized": True,
                 "name": "raps-randomized"},
            ),
            alphas=(0.1, 0.2),
            n_splits=2,
        )
        monkeypatch.setattr(scores_mod, "descending_order", counted_sort)
        run_experiment(cfg)
        assert sum(rows) == 300

    def test_splits_are_gathers_not_copies(self, tmp_path, monkeypatch):
        # every split, the sweep's and the grid's, goes through split on a
        # sorted view, so no part is copied out of the dataset, validated
        # or sorted again
        import entconform.scores as scores_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a part of a split was copied out of the dataset")

        views = []
        real_split = tuning_mod.split

        def spied(data, spec):
            assert isinstance(data, scores_mod._SortedRows)
            views.append(data)
            return real_split(data, spec)

        for module in (harness_mod, tuning_mod):
            monkeypatch.setattr(module, "split", spied)
        monkeypatch.setattr(LabeledLogitDataset, "subset", refuse)
        cfg = tiny_experiment(
            tmp_path,
            methods=({"score": "sparsemax"}, {"score": "raps", "tune": True, "k_grid": [1, 2]}),
            n_splits=3,
        )
        assert len(run_experiment(cfg).split_seeds) == 3
        # per seed, a split of the one sorted input, then the grid's split
        # of its calibration part
        assert len(views) == 6
        assert all(v is views[0] for v in views[0::2])
        # every part indexes the one sort: no part copies its arrays
        assert all(v.Z is views[0].Z and v.order is views[0].order for v in views)

    def test_avg_size_non_increasing_in_alpha(self, tmp_path):
        alphas = tuple(round(0.02 * i, 2) for i in range(1, 8))
        cfg = tiny_experiment(tmp_path, n=400, alphas=alphas, n_splits=2)
        report = run_experiment(cfg)
        for method in report.method_names:
            for s in range(2):
                sizes = [
                    report.cells[method][a][s].report.avg_set_size for a in alphas
                ]
                assert all(b <= a + 1e-12 for a, b in zip(sizes, sizes[1:]))

    def test_protocol_hygiene(self, tmp_path, monkeypatch):
        # within a split, neither tuning nor calibration may ever see a
        # row of that split's test part: not the views the harness
        # calibrates on or tunes on, nor the parts a grid search gathers
        seen = []

        def spy(module, name):
            real = getattr(module, name)

            def spied(view, *args):
                seen.append((f"{module.__name__}.{name}", view))
                return real(view, *args)

            monkeypatch.setattr(module, name, spied)

        spy(harness_mod, "calibrate")
        spy(harness_mod, "_grid_search")
        spy(tuning_mod, "calibrate")
        spy(tuning_mod, "_view_sets")

        for seed in (11, 12):
            cfg = tiny_experiment(
                tmp_path,
                methods=(
                    {"score": "sparsemax"},
                    {"score": "entmax", "tune": True, "gamma_grid": [1.5]},
                ),
                n_splits=1,
            )
            cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "base_seed": seed})
            data = load_dataset(cfg.input_path)
            spec = SplitSpec((0.4, 0.6), seed=seed)
            test_rows = {tuple(r) for r in split(data, spec)[1].logits}
            seen.clear()
            run_experiment(cfg)
            assert {name for name, _ in seen} == {
                "entconform.harness.calibrate",
                "entconform.harness._grid_search",
                "entconform.tuning.calibrate",
                "entconform.tuning._view_sets",
            }
            for _, view in seen:
                # a part's rows are its indices into the one sort
                rows = view.Z[view.idx]
                assert len(rows) == view.n
                assert not ({tuple(r) for r in rows} & test_rows)


def tie_dataset(n=60, k=3, seed=0):
    """Top-two logits tied, so family prediction sets are never singletons."""
    rng = np.random.default_rng(seed)
    logits = np.tile([1.0, 1.0, 0.0], (n, 1))
    labels = rng.integers(0, 2, size=n)
    return LabeledLogitDataset(logits, labels)


class TestEmitPlotData:
    def test_cardinality_without_singletons(self, tmp_path):
        csv_path = tmp_path / "ties.csv"
        write_dataset_csv(str(csv_path), tie_dataset())
        cfg = ExperimentConfig.from_dict(
            {
                "input_path": str(csv_path),
                "methods": [{"score": "sparsemax"}, {"score": "log_margin"}],
                "alphas": [0.05, 0.1, 0.2],
                "n_splits": 5,
                "base_seed": 2,
            }
        )
        report = run_experiment(cfg)
        out = tmp_path / "plotdata.csv"
        emit_plot_data(report, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,alpha,split,metric,value"
        # 2 methods x 3 alphas x 5 splits x 4 always-present metrics
        assert len(lines) - 1 == 120
        assert not any("singleton_coverage" in line for line in lines)

    def test_rows_sorted_and_formatted(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        report = run_experiment(cfg)
        out = tmp_path / "plotdata.csv"
        emit_plot_data(report, str(out))
        lines = out.read_text().strip().splitlines()[1:]
        keys = []
        for line in lines:
            method, alpha, split_idx, metric, value = line.split(",")
            assert len(alpha.split(".")[1]) == 6
            assert len(value.split(".")[1]) == 6
            keys.append((method, alpha, int(split_idx), metric))
        assert keys == sorted(keys)

    def test_singleton_coverage_rows_present_when_singletons_exist(self, tmp_path):
        cfg = tiny_experiment(tmp_path, alphas=(0.2,), n_splits=1)
        report = run_experiment(cfg)
        out = tmp_path / "plotdata.csv"
        emit_plot_data(report, str(out))
        text = out.read_text()
        assert "singleton_coverage" in text


class TestSweep:
    def test_outputs_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_experiment(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_sweep(cfg, str(out_a))
        run_sweep(cfg, str(out_b))
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "plotdata.csv").read_bytes() == (out_b / "plotdata.csv").read_bytes()
        report = json.loads((out_a / "report.json").read_text())
        assert set(report) == {"aggregates", "per_split", "provenance"}

    def test_numpy_grid_writes_the_report(self, tmp_path):
        # a grid given as a numpy array echoes in the report's config as the
        # same grid given as a list does, each entry of its own type
        cfg = tiny_experiment(tmp_path, n=300, alphas=(0.2,), n_splits=1)

        def sweep(method, out):
            run_sweep(dataclasses.replace(cfg, methods=(method,)), str(tmp_path / out))
            return (tmp_path / out / "report.json").read_bytes()

        grids = {"lambda_grid": [0.001, 0.01], "k_grid": [1, 2]}
        from_lists = sweep(MethodSpec("raps", tune=True, **grids), "lists")
        arrays = {key: np.array(grid) for key, grid in grids.items()}
        assert sweep(MethodSpec("raps", tune=True, **arrays), "arrays") == from_lists
        config = json.loads(from_lists)["provenance"]["config"]["methods"][0]
        assert config["lambda_grid"] == [0.001, 0.01] and config["k_grid"] == [1, 2]
        whole = MethodSpec("raps", tune=True, lambda_grid=np.array([0, 1])).to_dict()
        assert whole["lambda_grid"] == [0, 1]
        assert [type(v) for v in whole["lambda_grid"]] == [int, int]
