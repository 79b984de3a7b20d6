import io
import json
import warnings

import pytest

from entconform import (
    PredictionSet, ScoreKind, calibrate, harness, scores, set_masks, tune_gamma, tune_raps
)
from entconform.cli import main
from entconform.tuning import DEFAULT_GAMMA_GRID

from synth import make_task, write_dataset_csv


@pytest.fixture
def dataset_csv(tmp_path):
    data = make_task(300, num_classes=4, seed=5, radius=4.0, align=0.8)
    path = tmp_path / "logits.csv"
    write_dataset_csv(str(path), data)
    return str(path)


def canonical_json(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


class TestTransform:
    def run(self, argv, stdin_text, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(argv)
        return code, capsys.readouterr().out

    def test_sparsemax_distribution(self, monkeypatch, capsys):
        code, out = self.run(
            ["transform", "--gamma", "2.0", "--beta", "1.0"],
            "z0,z1,z2,z3,z4\n1.0,-1.0,-0.2,0.4,-0.5\n",
            monkeypatch,
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p0,p1,p2,p3,p4"
        assert lines[1] == "0.800000,0.000000,0.000000,0.200000,0.000000"

    def test_accepts_labeled_format_and_beta(self, monkeypatch, capsys):
        code, out = self.run(
            ["transform", "--gamma", "1.5", "--beta", "0.0"],
            "label,z0,z1\n0,5.0,-5.0\n",
            monkeypatch,
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "0.500000,0.500000"

    def test_bad_header_exits_2(self, monkeypatch, capsys):
        code, _ = self.run(
            ["transform", "--gamma", "1.5"], "a,b\n1,2\n", monkeypatch, capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "stdin_text, beta",
        [
            ("z0,z1\n1.0,nan\n", "1.0"),
            ("z0,z1\n1.0,2.0\ninf,0.0\n", "1.0"),
            ("label,z0,z1\n7,1.0,2.0\n", "1.0"),
            ("label,z0,z1\nx,1.0,2.0\n", "1.0"),
            ("label,a,b\n0,1.0,2.0\n", "1.0"),
            ("z0,z1\n1.0,2.0,3.0\n", "1.0"),
            # finite rows that overflow once scaled by beta
            ("z0,z1\n10,1\n", "1e308"),
            ("z0,z1\n1.0,2.0\n", "-0.5"),
            ("z0,z1\n1.0,2.0\n", "inf"),
        ],
        ids=[
            "nan", "inf", "label-out-of-range", "label-str", "label-bad-names", "width",
            "beta-overflow", "beta-negative", "beta-inf",
        ],
    )
    def test_bad_input_exits_2_before_output(self, monkeypatch, capsys, stdin_text, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = self.run(
                ["transform", "--gamma", "1.5", "--beta", beta], stdin_text, monkeypatch, capsys
            )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("gamma", ["2.5", "0.5", "nan"])
    def test_bad_gamma_exits_2_before_output(self, monkeypatch, capsys, gamma):
        code, out = self.run(["transform", "--gamma", gamma], "z0,z1\n1,0\n", monkeypatch, capsys)
        assert code == 2
        assert out == ""

    def test_nonconvergence_exits_3_before_output(self, monkeypatch, capsys):
        # a single halving cannot normalize a tied pair; the header must
        # not go out ahead of the error
        monkeypatch.setattr("entconform.activations._MAX_ITERS", 1)
        code, out = self.run(["transform", "--gamma", "1.5"], "z0,z1\n0,0\n", monkeypatch, capsys)
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize(
        "gamma, stdin_text, beta, row",
        [
            ("1.5", "z0,z1,z2\n3e16,1,0\n", "1.0", "1.000000,0.000000,0.000000"),
            ("1.5", "z0,z1\n1,0\n", "1e17", "1.000000,0.000000"),
            ("1.5", "z0,z1,z2\n1e16,1e16,0\n", "1.0", "0.500000,0.500000,0.000000"),
            ("1.5", "z0,z1,z2\n2e13,19999999999999.5,19999999999995\n", "1.0",
             "0.673993,0.326007,0.000000"),
            ("2", "z0,z1,z2\n3e16,1,0\n", "1.0", "1.000000,0.000000,0.000000"),
            ("2", "z0,z1,z2\n1e16,1e16,0\n", "1.0", "0.500000,0.500000,0.000000"),
            ("2", "z0,z1\n1,0\n", "1e17", "1.000000,0.000000"),
            # the span overflows the shift: that gap is -inf, of weight 0
            ("1.5", "z0,z1,z2\n1e308,-1e308,0\n", "1", "1.000000,0.000000,0.000000"),
            ("1.5", "z0,z1,z2\n1e308,-1e308,0\n", "0", "0.333333,0.333333,0.333333"),
            ("2", "z0,z1,z2\n1e308,-1e308,0\n", "1", "1.000000,0.000000,0.000000"),
            ("2", "z0,z1,z2\n1e308,-1e308,0\n", "0", "0.333333,0.333333,0.333333"),
        ],
        ids=["large-logit", "large-beta", "large-tied", "large-offset", "sparsemax-large-logit",
             "sparsemax-large-tied", "sparsemax-large-beta", "span-overflow",
             "span-overflow-beta-0", "sparsemax-span-overflow", "sparsemax-span-overflow-beta-0"],
    )
    def test_scaled_maximum_beyond_2_to_53(self, monkeypatch, capsys, gamma, stdin_text, beta, row):
        # (gamma-1) * max(z) - 1 rounds back to (gamma-1) * max(z) here, so
        # a threshold found on the unshifted scores is lost; sparsemax's
        # sums printed zeros and warned of a division by zero, and a
        # support cut scaled by max|(gamma-1) z| kept only the argmax.  The
        # rows are now shifted by their max before beta and (gamma-1) scale
        # them, and the support is every positive ramp
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(["transform", "--gamma", gamma, "--beta", beta])
        out, err = capsys.readouterr()
        assert code == 0
        assert out.strip().splitlines()[1] == row
        assert err == ""


# Inputs that ended in a traceback (exit 1) before the parser mapped them
# to ParseError, with the line of the record.
MALFORMED_BYTES = {
    "field-over-limit": (b"label,z0,z1\n0,1.0," + b"1" * 140_000 + b"\n", 2),
    "finite-field-over-limit": (b"label,z0,z1\n0,1.0,0." + b"0" * 140_000 + b"1\n", 2),
    "not-utf8": (b"label,z0,z1\n0,1.0,2.0\n\xff\n", 3),
    "not-utf8-in-value": (b"label,z0,z1\n0,1.0,2.0\n1,\xe9,2.0\n", 3),
    "empty": (b"", 1),
}


@pytest.mark.parametrize("data, line", MALFORMED_BYTES.values(), ids=list(MALFORMED_BYTES))
class TestMalformedBytesExit2:
    def test_calibrate(self, tmp_path, capsys, data, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        code = main(
            ["calibrate", "--input", str(path), "--score", "sparsemax", "--alpha", "0.1",
             "--out", str(tmp_path / "pred.json")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: ")
        assert not (tmp_path / "pred.json").exists()

    def test_transform(self, monkeypatch, capsys, data, line):
        # a byte stream decoded strictly, as the interpreter's stdin is
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code = main(["transform", "--gamma", "1.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: ")


class TestCalibrateEvaluate:
    def test_calibrate_then_evaluate(self, tmp_path, dataset_csv, capsys):
        pred_path = str(tmp_path / "pred.json")
        code = main(
            [
                "calibrate",
                "--input", dataset_csv,
                "--score", "entmax",
                "--gamma", "1.5",
                "--alpha", "0.1",
                "--seed", "3",
                "--out", pred_path,
            ]
        )
        assert code == 0
        doc = json.loads(open(pred_path).read())
        assert set(doc) == {
            "score_kind", "alpha", "q_hat", "beta_inv", "calib_n", "num_classes"
        }
        # both commands write the sweep's canonical JSON bytes
        assert open(pred_path, "rb").read() == canonical_json(doc)
        assert doc["score_kind"] == {"score": "entmax", "gamma": 1.5}
        assert doc["num_classes"] == 4

        report_path = str(tmp_path / "report.json")
        code = main(
            ["evaluate", "--predictor", pred_path, "--input", dataset_csv,
             "--out", report_path]
        )
        assert code == 0
        report = json.loads(open(report_path).read())
        assert open(report_path, "rb").read() == canonical_json(report)
        # evaluating on the calibration data itself: coverage must be at
        # least the nominal level by construction of the quantile
        assert report["coverage"] >= 0.9
        assert report["alpha"] == 0.1
        capsys.readouterr()

    def test_calibrate_raps(self, tmp_path, dataset_csv, capsys):
        pred_path = str(tmp_path / "pred.json")
        code = main(
            [
                "calibrate",
                "--input", dataset_csv,
                "--score", "raps",
                "--alpha", "0.2",
                "--lambda-reg", "0.01",
                "--k-reg", "2",
                "--out", pred_path,
            ]
        )
        assert code == 0
        doc = json.loads(open(pred_path).read())
        assert set(doc) == {"score_kind", "alpha", "q_hat", "calib_n", "num_classes"}
        assert doc["score_kind"] == {
            "score": "raps", "lambda_reg": 0.01, "k_reg": 2, "randomized": False,
            "rng_seed": 0,
        }
        capsys.readouterr()

    def test_entmax_without_gamma_exits_2(self, tmp_path, dataset_csv, capsys):
        code = main(
            ["calibrate", "--input", dataset_csv, "--score", "entmax",
             "--alpha", "0.1", "--out", str(tmp_path / "p.json")]
        )
        assert code == 2
        capsys.readouterr()

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,z0,z1\n0,1.0\n")
        code = main(
            ["calibrate", "--input", str(bad), "--score", "sparsemax",
             "--alpha", "0.1", "--out", str(tmp_path / "p.json")]
        )
        assert code == 2
        capsys.readouterr()


def calibrate_entmax(tmp_path, dataset_csv):
    pred_path = tmp_path / "pred.json"
    assert main(
        ["calibrate", "--input", dataset_csv, "--score", "entmax", "--gamma", "1.5",
         "--alpha", "0.1", "--out", str(pred_path)]
    ) == 0
    return pred_path


def _without(key):
    def edit(doc):
        del doc[key]
    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _set_kind(key, value):
    def edit(doc):
        doc["score_kind"][key] = value
    return edit


def _del_gamma(doc):
    del doc["score_kind"]["gamma"]


def _flat_layout(doc):
    # the layout before the score kind was nested: the kind's fields at top level
    doc.update(doc.pop("score_kind"))
    doc["score_kind"] = doc.pop("score")


class TestPredictorFile:
    @pytest.mark.parametrize(
        "edit",
        [
            _del_gamma,
            _set_kind("gamma", "abc"),
            _set_kind("gamma", 2.0),
            _set_kind("lambda_reg", 0.1),
            _set_kind("score", "softmax"),
            _set("score_kind", "entmax"),
            _flat_layout,
            _set("alpha", "x"),
            _set("alpha", 1.5),
            _set("q_hat", -1.0),
            _set("q_hat", "nan"),
            _set("q_hat", None),
            _set("calib_n", 0),
            _set("calib_n", 2.5),
            _set("calib_n", True),
            _set("num_classes", "4"),
            _set("num_classes", 1),
            _set("num_classes", None),
            _set("extra", 1),
            _without("q_hat"),
            _without("num_classes"),
            lambda doc: [doc],
        ],
        ids=[
            "missing-gamma", "gamma-str", "gamma-2", "foreign-field", "unknown-score",
            "kind-not-object", "flat-layout", "alpha-str", "alpha-range", "q-hat-negative",
            "q-hat-nan", "q-hat-null", "calib-n-zero", "calib-n-real", "calib-n-bool",
            "num-classes-str", "num-classes-1", "num-classes-null", "unknown-key", "missing-q-hat",
            "missing-num-classes", "top-level-list",
        ],
    )
    def test_malformed_predictor_exits_2(self, tmp_path, dataset_csv, capsys, edit):
        pred_path = calibrate_entmax(tmp_path, dataset_csv)
        doc = json.loads(pred_path.read_text())
        doc = edit(doc) or doc
        pred_path.write_text(json.dumps(doc))
        code = main(["evaluate", "--predictor", str(pred_path), "--input", dataset_csv,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("q_hat", ["inf", 0.5])
    def test_raps_k_reg_beyond_classes_exits_2(self, tmp_path, dataset_csv, capsys, q_hat):
        pred_path = tmp_path / "pred.json"
        assert main(["calibrate", "--input", dataset_csv, "--score", "raps", "--alpha", "0.1",
                     "--lambda-reg", "0.01", "--k-reg", "2", "--out", str(pred_path)]) == 0
        doc = json.loads(pred_path.read_text())
        doc["score_kind"]["k_reg"], doc["q_hat"] = 5, q_hat
        pred_path.write_text(json.dumps(doc))
        code = main(["evaluate", "--predictor", str(pred_path), "--input", dataset_csv,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "k_reg = 5" in capsys.readouterr().err

    def test_not_json_exits_2(self, tmp_path, dataset_csv, capsys):
        pred_path = tmp_path / "pred.json"
        pred_path.write_text("{")
        code = main(["evaluate", "--predictor", str(pred_path), "--input", dataset_csv,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        capsys.readouterr()

    def test_class_count_mismatch_exits_2(self, tmp_path, capsys):
        cal_csv, test_csv = str(tmp_path / "k10.csv"), str(tmp_path / "k20.csv")
        write_dataset_csv(cal_csv, make_task(200, num_classes=10, seed=1))
        write_dataset_csv(test_csv, make_task(50, num_classes=20, seed=2))
        pred_path = str(tmp_path / "pred.json")
        assert main(["calibrate", "--input", cal_csv, "--score", "sparsemax",
                     "--alpha", "0.1", "--out", pred_path]) == 0
        code = main(["evaluate", "--predictor", pred_path, "--input", test_csv,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "K=10" in capsys.readouterr().err

    def test_missing_predictor_exits_2(self, tmp_path, dataset_csv, capsys):
        missing = str(tmp_path / "absent.json")
        code = main(["evaluate", "--predictor", missing, "--input", dataset_csv,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert missing in capsys.readouterr().err


class TestOutputErrors:
    def test_unwritable_calibrate_out_exits_3(self, tmp_path, dataset_csv, capsys):
        out = str(tmp_path / "no-such-dir" / "pred.json")
        code = main(["calibrate", "--input", dataset_csv, "--score", "sparsemax",
                     "--alpha", "0.1", "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert "IoError" in err and out in err

    def test_unwritable_evaluate_out_exits_3(self, tmp_path, dataset_csv, capsys):
        pred_path = calibrate_entmax(tmp_path, dataset_csv)
        out = str(tmp_path / "no-such-dir" / "report.json")
        code = main(["evaluate", "--predictor", str(pred_path), "--input", dataset_csv,
                     "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert "IoError" in err and out in err


class TestSweepCommand:
    def test_end_to_end(self, tmp_path, dataset_csv, capsys):
        cfg = {
            "input_path": dataset_csv,
            "methods": [
                {"score": "sparsemax"},
                {"score": "raps", "lambda_reg": 0.01, "k_reg": 2},
            ],
            "alphas": [0.1, 0.2],
            "n_splits": 2,
            "cal_fraction": 0.4,
            "base_seed": 1,
            "output_path": str(tmp_path / "default_out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report["per_split"]) == {"sparsemax", "raps"}
        assert (out_dir / "plotdata.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "path, value",
        [
            ((0, "gamma"), "x"),
            ((0, "gamma"), True),
            ((1, "k_reg"), "5"),
            ((1, "lambda_reg"), [0.1]),
            ((1, "randomized"), "yes"),
            ((1, "rng_seed"), 1.5),
            ((1, "gamma"), 1.5),
            ((2, "tune"), "yes"),
            ((2, "gamma"), 1.5),
            ((2, "gamma_grid"), 1.5),
            ((2, "gamma_grid"), ["x"]),
            ((2, "gamma_grid"), None),
            ((2, "k_grid"), [1]),
            (("methods",), [{"score": "sparsemax", "gamma_grid": [1.5]}]),
            (("methods",), [{"score": "sparsemax", "gamma_grid": None}]),
            (("methods",), [{"score": "raps", "tune": True, "k_grid": [1], "gamma_grid": [1.5]}]),
            ((0, "name"), 7),
            (("n_splits",), "2"),
            (("n_splits",), True),
            (("alphas",), 0.1),
            (("alphas",), ["0.1"]),
            (("cal_fraction",), "0.4"),
            (("base_seed",), 1.5),
            (("methods",), {"score": "sparsemax"}),
            (("methods",), [5]),
            (("input_path",), 5),
            (("bins",), 5),
            (("bins",), [["a", 1]]),
            (("bins",), [[0]]),
            (("bins",), [[0, 1.5], [2, 4]]),
            (("methods",), []),
            (("methods",), [{"name": "x"}]),
            (("alphas",), []),
            (("n_splits",), 0),
            (("cal_fraction",), 1.0),
            (("base_seed",), -1),
            (("bins",), []),
            (("bins",), [[0, -1]]),
            ((1, "rng_seed"), -1),
        ],
        ids=[
            "gamma-str", "gamma-bool", "k-reg-str", "lambda-list", "randomized-str",
            "rng-seed-real", "foreign-gamma", "tune-str", "tuned-with-gamma",
            "grid-scalar", "grid-str", "grid-null", "tuned-entmax-k-grid", "untuned-grid",
            "untuned-null-grid", "tuned-raps-gamma-grid", "name-int", "n-splits-str", "n-splits-bool",
            "alphas-scalar", "alpha-str", "cal-fraction-str", "base-seed-real",
            "methods-object", "method-int", "input-path-int", "bins-scalar",
            "bin-edge-str", "bin-single-edge", "bin-edge-real", "no-methods",
            "method-without-score", "no-alphas", "zero-splits", "cal-fraction-1",
            "negative-base-seed", "bins-empty", "bin-lo-above-hi", "negative-rng-seed",
        ],
    )
    def test_mistyped_config_exits_2(self, tmp_path, dataset_csv, capsys, path, value):
        cfg = {
            "input_path": dataset_csv,
            "methods": [
                {"score": "entmax", "gamma": 1.5},
                {"score": "raps", "lambda_reg": 0.01, "k_reg": 2},
                {"score": "entmax", "tune": True, "gamma_grid": [1.3, 1.6]},
            ],
            "alphas": [0.2],
            "n_splits": 1,
            "cal_fraction": 0.5,
            "base_seed": 1,
        }
        target = cfg["methods"][path[0]] if len(path) == 2 else cfg
        target[path[-1]] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_bins_short_of_set_sizes_exit_2(self, tmp_path, dataset_csv, capsys):
        cfg = {
            "input_path": dataset_csv,
            "methods": [{"score": "inv_prob"}],
            "alphas": [0.05],
            "n_splits": 1,
            "bins": [[0, 0]],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "not covered by bins" in capsys.readouterr().err

    def test_bins_short_of_k_exit_2_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # on this easy input no set reaches size 4, but a full set of 10
        # labels could: bins that stop below K fail on every input, before
        # the input is sorted
        csv_path = tmp_path / "easy.csv"
        write_dataset_csv(str(csv_path), make_task(400, 10, seed=13, radius=6.0))
        cfg = {
            "input_path": str(csv_path),
            "methods": [{"score": "sparsemax"}, {"score": "inv_prob"}],
            "alphas": [0.1],
            "n_splits": 1,
            "bins": [[0, 1], [2, 3]],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))

        def unsorted(*args):
            raise AssertionError("the input was sorted")

        monkeypatch.setattr(harness, "_sort_rows", unsorted)
        code = main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "set size 10 not covered by bins" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alphas", [[0.1, 0.1], [0.05, 0.1, 0.1]], ids=["pair", "tail"])
    def test_duplicate_alphas_exit_2(self, tmp_path, dataset_csv, capsys, alphas):
        # one alpha twice would merge its cells into one list, reported as
        # twice the splits
        cfg = {
            "input_path": dataset_csv,
            "methods": [{"score": "sparsemax"}],
            "alphas": alphas,
            "n_splits": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 2
        assert "strictly ascending" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_no_per_row_set_objects(self, tmp_path, dataset_csv, capsys, monkeypatch):
        # sweeps, tuning and evaluate keep sets as one bool mask per batch
        def refuse(cls, mask):
            raise AssertionError("built a PredictionSet")

        monkeypatch.setattr(PredictionSet, "from_mask", classmethod(refuse))
        cfg = {
            "input_path": dataset_csv,
            "methods": [
                {"score": "entmax", "gamma": 1.5},
                {"score": "raps", "lambda_reg": 0.1, "k_reg": 1, "randomized": True},
                {"score": "entmax", "tune": True, "gamma_grid": [1.3, 1.6]},
                {"score": "raps", "tune": True, "k_grid": [1, 2], "name": "raps-tuned"},
            ],
            "alphas": [0.1, 0.2],
            "n_splits": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        pred_path = calibrate_entmax(tmp_path, dataset_csv)
        assert main(["evaluate", "--predictor", str(pred_path), "--input", dataset_csv,
                     "--out", str(tmp_path / "e.json")]) == 0
        capsys.readouterr()

    def test_entmax_sets_build_no_gap_matrix(self, tmp_path, dataset_csv, capsys, monkeypatch):
        # entmax sets come from the rank search; on held-out rows, where no
        # score sits at q_hat, the O(K^2) full score rows are never built
        def refuse(zs, delta):
            raise AssertionError("built an entmax gap matrix")

        monkeypatch.setattr(scores, "_entmax_all_sorted", refuse)
        data = make_task(400, num_classes=20, seed=9)
        cal, test = data.subset(range(200)), data.subset(range(200, 400))
        pred = calibrate(cal, ScoreKind.entmax(1.5), 0.1)
        assert set_masks(test.logits, pred).any(axis=1).all()
        tune_gamma(cal, 0.1, DEFAULT_GAMMA_GRID)
        cfg = {
            "input_path": dataset_csv,
            "methods": [{"score": "entmax", "gamma": 1.5}, {"score": "entmax", "tune": True}],
            "alphas": [0.1, 0.2],
            "n_splits": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_rank_order_sets_build_no_all_label_scores(
        self, tmp_path, dataset_csv, capsys, monkeypatch
    ):
        # every kind's sets threshold its rank-order rows block by block; the
        # all-label score matrix is a public route that no set goes through
        def refuse(*args, **kwargs):
            raise AssertionError("built an all-label score matrix")

        monkeypatch.setattr(scores, "all_label_scores", refuse)
        data = make_task(400, num_classes=20, seed=9)
        cal, test = data.subset(range(200)), data.subset(range(200, 400))
        raps = {"score": "raps", "lambda_reg": 0.1, "k_reg": 2}
        methods = [{"score": "sparsemax"}, {"score": "log_margin"}, raps, {**raps, "randomized": True}]
        for method in methods:
            set_masks(test.logits, calibrate(cal, ScoreKind.from_dict(method), 0.1))
        tune_raps(cal, 0.1, k_grid=(1, 5))
        cfg = {
            "input_path": dataset_csv,
            "methods": [
                *methods[:3],
                {**methods[3], "name": "raps-randomized"},
                {"score": "raps", "tune": True, "k_grid": [1, 2], "name": "raps-tuned"},
            ],
            "alphas": [0.1, 0.2],
            "n_splits": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "method, message",
        [
            ({"score": "entmax", "tune": True, "gamma_grid": [2.5]}, "strictly inside (1, 2)"),
            ({"score": "entmax", "tune": True, "gamma_grid": []}, "gamma grid is empty"),
            ({"score": "raps", "tune": True, "k_grid": []}, "RAPS grids must be nonempty"),
            ({"score": "raps", "tune": True, "lambda_grid": [-0.1]}, "lambda_reg must be nonnegative"),
        ],
        ids=["gamma-outside", "gamma-empty", "k-empty", "lambda-negative"],
    )
    def test_bad_grid_exits_2_before_the_input_is_read(self, tmp_path, capsys, method, message):
        # a tuned method's grid is checked with the config, not mid-sweep:
        # the missing input is never opened
        cfg = {"input_path": str(tmp_path / "missing.csv"), "methods": [method], "alphas": [0.1]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "cannot open" not in err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"methods": []}))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        capsys.readouterr()

    def test_unwritable_output_exits_3(self, tmp_path, dataset_csv, capsys):
        cfg = {
            "input_path": dataset_csv,
            "methods": [{"score": "sparsemax"}],
            "alphas": [0.2],
            "n_splits": 1,
            "base_seed": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(target)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["report.json", "plotdata.csv"])
    def test_output_file_that_is_a_directory_exits_3(self, tmp_path, dataset_csv, capsys, name):
        cfg = {"input_path": dataset_csv, "methods": [{"score": "sparsemax"}], "alphas": [0.2],
               "n_splits": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        blocked = tmp_path / "out" / name
        blocked.mkdir(parents=True)
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "IoError" in err and str(blocked) in err
