"""Experiment driver: logits ingestion, seeded multi-split runs, reports.

The driver reproduces the usual evaluation protocol for conformal
classifiers on pre-exported model outputs: split the pooled data into
calibration and test parts with a seeded shuffle, calibrate every
configured method at every confidence level, evaluate on the test part,
and repeat over several seeded splits.  Everything downstream of the
input file and the configuration is deterministic, including the bytes
of the emitted report and plot data.

Input format: UTF-8 CSV with header ``label,z0,...,z{K-1}``, one instance
per row, label first, then the raw (untransformed) label scores.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .conformal import LabeledLogitDataset, calibrate, set_masks
from .errors import (
    InconsistentWidth,
    InvalidInput,
    IoError,
    LabelOutOfRange,
    ParseError,
    checked,
)
from .metrics import EvaluationRun, MetricsReport, SizeBins, compute_report
from .scores import ScoreKind
from .tuning import (
    DEFAULT_GAMMA_GRID,
    DEFAULT_K_GRID,
    DEFAULT_LAMBDA_GRID,
    SplitSpec,
    TuningResult,
    split,
    tune_gamma,
    tune_raps,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "MethodSpec",
    "emit_plot_data",
    "load_dataset",
    "report_json",
    "run_experiment",
    "run_sweep",
    "write_report",
]


def load_dataset(path: str) -> LabeledLogitDataset:
    """Parse a ``label,z0,...,z{K-1}`` CSV into a dataset.

    Row order is preserved.  Malformed rows raise with their 1-based line
    number; a header-only file yields an empty dataset (calibration will
    refuse it downstream).
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        logits, labels = _read_logits_csv(fh, labeled=True)
    return LabeledLogitDataset(logits, labels)


def _read_logits_csv(fh, labeled: bool = False):
    """``(logits, labels)`` from CSV text with a ``label,z0,...,z{K-1}``
    header, or, unless ``labeled``, a bare ``z0,...,z{K-1}`` one, whose
    labels are None.  Malformed rows raise with their 1-based line number.
    """
    reader = csv.reader(fh)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty input: missing header", line=1) from None
    offset = 1 if header[:1] == ["label"] else 0
    k = len(header) - offset
    names_ok = header[offset:] == [f"z{i}" for i in range(k)]
    if k < 2 or not names_ok or (labeled and not offset):
        form = "label,z0,...,z{K-1}" if labeled else "[label,]z0,...,z{K-1}"
        raise ParseError(f"header must be {form} with K >= 2, got {header!r}", line=1)
    width = k + offset
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise InconsistentWidth(f"expected {width} fields, got {len(row)}", line=lineno)
        if offset:
            try:
                label = int(row[0])
            except ValueError:
                raise ParseError(f"bad label {row[0]!r}", line=lineno) from None
            if not 0 <= label < k:
                raise LabelOutOfRange(f"line {lineno}: label {label} outside [0, {k})")
            labels.append(label)
        try:
            values = [float(v) for v in row[offset:]]
        except ValueError:
            raise ParseError(f"bad score value in {row[offset:]!r}", line=lineno) from None
        if not all(math.isfinite(v) for v in values):
            raise ParseError("non-finite score value", line=lineno)
        rows.append(values)
    logits = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, k))
    return logits, np.asarray(labels, dtype=np.int64) if offset else None


def read_json_object(path: str) -> dict:
    """Parse a file holding one JSON object; any failure is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return doc


_GRID_TYPES = {"gamma_grid": float, "lambda_grid": float, "k_grid": int}
# The grids each tunable score searches; no other method takes a grid.
_GRIDS = {"entmax": ("gamma_grid",), "raps": ("lambda_grid", "k_grid")}


@dataclass(frozen=True)
class MethodSpec:
    """One conformal method to run: a fixed score kind, or a score to tune.

    ``kind`` is the score kind of an untuned method and None for a tuned
    one, whose kind comes from the grid search of every cell.
    """

    score: str
    name: str = ""
    kind: Optional[ScoreKind] = None
    tune: bool = False
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    k_grid: tuple[int, ...] = DEFAULT_K_GRID

    def __post_init__(self):
        checked(self.name, str, "method name")
        if checked(self.tune, bool, "tune"):
            if self.score not in ("entmax", "raps"):
                raise InvalidInput(f"{self.score} has nothing to tune")
            if self.kind is not None:
                raise InvalidInput("a tuned method takes no fixed score kind")
        elif self.kind is None or self.kind.variant != self.score:
            raise InvalidInput(f"untuned {self.score} method needs its score kind")
        if not self.name:
            object.__setattr__(self, "name", self._default_name())

    def _default_name(self) -> str:
        if self.score == "entmax":
            return "opt-entmax" if self.tune else f"{self.kind.gamma:g}-entmax"
        return self.score.replace("_", "-")

    @classmethod
    def from_dict(cls, doc: dict) -> "MethodSpec":
        """Method options (name, tune, grids) plus a score kind's fields,
        of which a tuned method gives only ``score``.  Only a tuned method
        takes grids, and only those its score searches."""
        if not isinstance(doc, dict):
            raise InvalidInput(f"a method entry must be a JSON object, got {doc!r}")
        if "score" not in doc:
            raise InvalidInput("method entry is missing 'score'")
        options = {k: v for k, v in doc.items() if k in ("name", "tune", *_GRID_TYPES)}
        kind_doc = {k: v for k, v in doc.items() if k not in options}
        for key, kind in _GRID_TYPES.items():
            if key in options:
                grid = checked(options[key], list, key)
                options[key] = tuple(checked(v, kind, f"{key} entry") for v in grid)
        if options.get("tune") is True:
            if set(kind_doc) != {"score"}:
                raise InvalidInput(
                    f"a tuned method takes no {sorted(set(kind_doc) - {'score'})}"
                )
            method = cls(score=doc["score"], **options)
        else:
            kind = ScoreKind.from_dict(kind_doc)
            method = cls(score=kind.variant, kind=kind, **options)
        searched = _GRIDS[method.score] if method.tune else ()
        stray = sorted(set(options) & set(_GRID_TYPES) - set(searched))
        if stray:
            raise InvalidInput(f"method {method.name!r} does not search {stray}")
        return method

    def to_dict(self) -> dict:
        if not self.tune:
            return {**self.kind.to_dict(), "name": self.name}
        doc = {"score": self.score, "name": self.name, "tune": True}
        return {**doc, **{key: list(getattr(self, key)) for key in _GRIDS[self.score]}}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; mirrors the JSON config field for field."""

    input_path: str
    methods: tuple[MethodSpec, ...]
    alphas: tuple[float, ...]
    n_splits: int = 5
    cal_fraction: float = 0.4
    base_seed: int = 0
    bins: Optional[SizeBins] = None
    output_path: str = "."

    def __post_init__(self):
        checked(self.input_path, str, "input_path")
        checked(self.output_path, str, "output_path")
        if not self.methods:
            raise InvalidInput("config needs at least one method")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise InvalidInput(f"duplicate method names: {names}")
        alphas = tuple(float(checked(a, float, "alpha")) for a in self.alphas)
        if not alphas:
            raise InvalidInput("config needs at least one alpha")
        if any(not 0.0 < a < 1.0 for a in alphas):
            raise InvalidInput("every alpha must lie in (0, 1)")
        if list(alphas) != sorted(alphas):
            raise InvalidInput("alphas must be sorted ascending")
        object.__setattr__(self, "alphas", alphas)
        if checked(self.n_splits, int, "n_splits") < 1:
            raise InvalidInput("n_splits must be at least 1")
        if not 0.0 < checked(self.cal_fraction, float, "cal_fraction") < 1.0:
            raise InvalidInput("cal_fraction must lie in (0, 1)")
        if checked(self.base_seed, int, "base_seed") < 0:
            raise InvalidInput("base_seed must be nonnegative")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInput(f"unknown config fields: {sorted(unknown)}")
        for required in ("input_path", "methods", "alphas"):
            if required not in doc:
                raise InvalidInput(f"config is missing '{required}'")
        kwargs = dict(doc)
        kwargs["methods"] = tuple(
            MethodSpec.from_dict(m) for m in checked(doc["methods"], list, "methods")
        )
        kwargs["alphas"] = tuple(checked(doc["alphas"], list, "alphas"))
        if doc.get("bins") is not None:
            edges = checked(doc["bins"], list, "bins")
            if not all(isinstance(e, list) and len(e) == 2 for e in edges):
                raise InvalidInput(f"bins must be [lo, hi] pairs, got {edges!r}")
            kwargs["bins"] = SizeBins(tuple(map(tuple, edges)))
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(read_json_object(path))

    def to_dict(self) -> dict:
        doc = {
            "input_path": self.input_path,
            "methods": [m.to_dict() for m in self.methods],
            "alphas": list(self.alphas),
            "n_splits": self.n_splits,
            "cal_fraction": self.cal_fraction,
            "base_seed": self.base_seed,
            "output_path": self.output_path,
        }
        if self.bins is not None:
            doc["bins"] = [list(edge) for edge in self.bins.edges]
        return doc


@dataclass(frozen=True)
class Cell:
    """Results of one (method, alpha, split) evaluation."""

    report: MetricsReport
    tuning: Optional[TuningResult] = None


@dataclass(frozen=True)
class ExperimentReport:
    """Per-split metrics plus across-split aggregates and provenance."""

    config: dict
    split_seeds: tuple[int, ...]
    cells: dict  # method name -> alpha -> list[Cell], splits in order
    method_names: tuple[str, ...]
    alphas: tuple[float, ...]

    def aggregates(self) -> dict:
        """Mean and sample std of each metric over splits.

        Metrics absent in some split (singleton coverage with no
        singletons) are aggregated only when present in every split.  The
        std is None for a single split.
        """
        out: dict = {}
        n = len(self.split_seeds)
        for method in self.method_names:
            out[method] = {}
            for alpha in self.alphas:
                per_metric: dict = {}
                rows = [cell.report.metric_items() for cell in self.cells[method][alpha]]
                common = set.intersection(*(set(dict(r)) for r in rows))
                for metric in sorted(common):
                    values = [dict(r)[metric] for r in rows]
                    per_metric[metric] = {
                        "mean": float(np.mean(values)),
                        "std": float(np.std(values, ddof=1)) if n > 1 else None,
                    }
                out[method][_alpha_key(alpha)] = per_metric
        return out

    def to_json_dict(self) -> dict:
        per_split: dict = {}
        for method in self.method_names:
            per_split[method] = {}
            for alpha in self.alphas:
                entries = []
                for s, cell in enumerate(self.cells[method][alpha]):
                    entry = dict(cell.report.to_json_dict())
                    entry["split"] = s
                    if cell.tuning is not None:
                        entry["tuning"] = {
                            "chosen": cell.tuning.to_json_dict()["chosen"],
                            "objective": cell.tuning.objective,
                        }
                    entries.append(entry)
                per_split[method][_alpha_key(alpha)] = entries
        return {
            "provenance": {
                "config": self.config,
                "split_seeds": list(self.split_seeds),
            },
            "per_split": per_split,
            "aggregates": self.aggregates(),
        }


def _alpha_key(alpha: float) -> str:
    return repr(float(alpha))


def _resolve_cell(cal, method: MethodSpec, alpha: float, seed: int):
    """Calibrate one method on the calibration part, tuning first if asked.

    Tuned methods re-split the calibration part with ``seed``, choose the
    parameter on the tuning part, and keep the grid's predictor for it,
    calibrated on the other part only; keeping the tuning data out
    preserves exchangeability with the test part.
    """
    if not method.tune:
        return calibrate(cal, method.kind, alpha), None
    if method.score == "entmax":
        result = tune_gamma(cal, alpha, method.gamma_grid, seed)
    else:
        result = tune_raps(cal, alpha, method.lambda_grid, method.k_grid, seed)
    return result.predictor, result


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (method, alpha) over ``n_splits`` seeded splits of the
    dataset at ``cfg.input_path``.

    Split ``s`` uses seed ``base_seed + s`` for its calibration/test
    shuffle (and for any tuning sub-split).
    """
    data = load_dataset(cfg.input_path)
    bins = cfg.bins if cfg.bins is not None else SizeBins.default(data.num_classes)
    seeds = tuple(cfg.base_seed + s for s in range(cfg.n_splits))
    cells: dict = {m.name: {alpha: [] for alpha in cfg.alphas} for m in cfg.methods}
    for seed in seeds:
        spec = SplitSpec((cfg.cal_fraction, 1.0 - cfg.cal_fraction), seed=seed)
        cal, test = split(data, spec)
        for method in cfg.methods:
            for alpha in cfg.alphas:
                pred, tuning = _resolve_cell(cal, method, alpha, seed)
                run = EvaluationRun(
                    sets=set_masks(test.logits, pred), labels=test.labels, alpha=alpha
                )
                cells[method.name][alpha].append(
                    Cell(report=compute_report(run, bins), tuning=tuning)
                )
    return ExperimentReport(
        config=cfg.to_dict(),
        split_seeds=seeds,
        cells=cells,
        method_names=tuple(m.name for m in cfg.methods),
        alphas=cfg.alphas,
    )


def report_json(report: ExperimentReport) -> str:
    """Canonical JSON text for a report; identical runs give identical bytes."""
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def write_report(report: ExperimentReport, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report_json(report))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def emit_plot_data(report: ExperimentReport, path: str) -> None:
    """Long-format CSV: method, alpha, split, metric, value.

    Rows are sorted by (method, alpha, split, metric); reals are fixed
    6-decimal; metrics absent from a split (singleton coverage with no
    singletons) are omitted.
    """
    rows = []
    for method in sorted(report.method_names):
        for alpha in report.alphas:
            for s, cell in enumerate(report.cells[method][alpha]):
                for metric, value in cell.report.metric_items():
                    rows.append((method, f"{alpha:.6f}", s, metric, f"{value:.6f}"))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["method", "alpha", "split", "metric", "value"])
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def run_sweep(cfg: ExperimentConfig, out_dir: str) -> tuple[str, str]:
    """Full experiment: write ``report.json`` and ``plotdata.csv``."""
    report = run_experiment(cfg)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    report_path = os.path.join(out_dir, "report.json")
    plot_path = os.path.join(out_dir, "plotdata.csv")
    write_report(report, report_path)
    emit_plot_data(report, plot_path)
    return report_path, plot_path
