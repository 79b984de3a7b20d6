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
import io
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .conformal import LabeledLogitDataset, _check_alpha, _view_sets, calibrate
from .errors import (
    InconsistentWidth,
    InvalidInput,
    IoError,
    LabelOutOfRange,
    ParseError,
    checked,
)
from .metrics import EvaluationRun, MetricsReport, SizeBins, compute_report
from .scores import ScoreKind, _sort_rows
from .tuning import (
    DEFAULT_GAMMA_GRID,
    DEFAULT_K_GRID,
    DEFAULT_LAMBDA_GRID,
    SplitSpec,
    TuningResult,
    _gamma_kinds,
    _grid_search,
    _raps_kinds,
    split,
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
        raw = open(path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with raw:
        rows = None
        if raw.seekable():
            # Every record but the last ends in a newline, and so does the
            # header: the count bounds the data rows.
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: raw.read(1 << 20), b""))
            raw.seek(0)
        fh = io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape", newline="")
        logits, labels = _read_logits_csv(fh, labeled=True, rows=rows)
    return LabeledLogitDataset(logits, labels)


# Cells per block of lines handed to numpy's tokenizer, so that a block's
# text and its parsed rows stay small beside the output at any K.
_BLOCK_CELLS = 1 << 16
_BLANK = ("\n", "\r\n", "\r")
# Separators that numpy strips around a number as whitespace and float()
# does not.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"
# The lone surrogates that ``errors="surrogateescape"`` decodes bad bytes to.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _read_logits_csv(fh, labeled: bool = False, rows: Optional[int] = None):
    """``(logits, labels)`` from CSV text with a ``label,z0,...,z{K-1}``
    header, or, unless ``labeled``, a bare ``z0,...,z{K-1}`` one, whose
    labels are None.  Malformed rows raise with their 1-based record
    number; the first error in file order wins.

    ``rows``, an upper bound on the data records when it is known, lets
    the logits be allocated once; otherwise the blocks are joined at the
    end.  The logits are C-contiguous float64 and the labels int64.
    """
    _, header = next(_records(fh, 1), (1, None))
    if header is None:
        raise ParseError("empty input: missing header", line=1)
    _check_decoded(header, 1)
    header = [h.strip() for h in header]
    offset = 1 if header[:1] == ["label"] else 0
    k = len(header) - offset
    names_ok = header[offset:] == [f"z{i}" for i in range(k)]
    if k < 2 or not names_ok or (labeled and not offset):
        form = "label,z0,...,z{K-1}" if labeled else "[label,]z0,...,z{K-1}"
        raise ParseError(f"header must be {form} with K >= 2, got {header!r}", line=1)
    logits = np.empty((rows or 0, k))
    filled = 0
    spill, label_parts = [], []
    for values, labels in _blocks(fh, k + offset, offset):
        if not spill and filled + len(values) <= len(logits):
            logits[filled : filled + len(values)] = values
            filled += len(values)
        else:
            spill.append(values)
        label_parts.append(labels)
    logits = np.concatenate([logits[:filled], *spill]) if spill else logits[:filled]
    labels = np.concatenate([np.empty(0, dtype=np.int64), *label_parts])
    return logits, labels if offset else None


def _blocks(fh, width: int, offset: int):
    """``(values, labels)`` for each block of lines after the header.

    A block goes to numpy's tokenizer, and to the row loop where that
    rejects it.  A quoted field may span lines, so from the first block
    with a quote the row loop reads the rest of the input.
    """
    size = max(1, _BLOCK_CELLS // width)
    lineno = 2
    while lines := list(itertools.islice(fh, size)):
        if any('"' in line for line in lines):
            yield _parse_rows(itertools.chain(lines, fh), lineno, width, offset)
            return
        parsed = _parse_block(lines, width, offset)
        yield parsed if parsed is not None else _parse_rows(lines, lineno, width, offset)
        lineno += len(lines)


def _parse_block(lines, width: int, offset: int):
    """``(values, labels)`` of unquoted lines by numpy's tokenizer, or None
    where :func:`_parse_rows` must judge them.

    Where numpy accepts a token it gives ``float()``'s bits.  Where the two
    differ, numpy rejects (underscores, non-ASCII digits, whitespace-only
    lines), or the block is screened out first: a field longer than the
    csv module allows, or a separator in ``_NOT_FLOAT_SPACE``.  Labels are
    parsed by ``int()``, which rejects ``"3.0"``.  Any rejection or failed
    check returns None, so the row loop reports the first error in its own
    words.
    """
    limit = csv.field_size_limit()
    if any(len(line) > limit or any(c in line for c in _NOT_FLOAT_SPACE) for line in lines):
        return None
    data = [line for line in lines if line not in _BLANK]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(data, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
        if table.shape != (len(data), width) or not np.isfinite(table[:, offset:]).all():
            return None
        labels = [int(line[: line.index(",")]) for line in data] if offset else []
    except (ValueError, Warning):
        return None
    if labels and not 0 <= min(labels) <= max(labels) < width - offset:
        return None
    return table[:, offset:], np.asarray(labels, dtype=np.int64)


def _parse_rows(lines, lineno: int, width: int, offset: int):
    """``(values, labels)`` of the CSV records in ``lines``, the first of
    which is record ``lineno``, parsed one row at a time; the first
    malformed record raises with its number.  Blank records are skipped.
    """
    k = width - offset
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, row in _records(lines, lineno):
        if not row:
            continue
        _check_decoded(row, lineno)
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
    return np.asarray(rows, dtype=np.float64).reshape(-1, k), np.asarray(labels, dtype=np.int64)


def _records(lines, lineno: int):
    """``(number, row)`` for each CSV record in ``lines``, numbered from
    ``lineno``; the csv module's errors (a field over its size limit) raise
    ParseError with the number of the record they hit."""
    reader = csv.reader(lines)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(str(exc), line=lineno) from None
        yield lineno, row
        lineno += 1


def _check_decoded(row: list, lineno: int) -> None:
    if any(map(_UNDECODABLE.search, row)):
        raise ParseError(f"bytes that are not UTF-8 in {row!r}", line=lineno)


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
    one, whose kind comes from the grid search of every cell over
    ``grid_kinds``, its checked ``{param: ScoreKind}`` grid (None untuned).
    """

    score: str
    name: str = ""
    kind: Optional[ScoreKind] = None
    tune: bool = False
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    grid_kinds: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        checked(self.name, str, "method name")
        if checked(self.tune, bool, "tune"):
            if self.score not in ("entmax", "raps"):
                raise InvalidInput(f"{self.score} has nothing to tune")
            if self.kind is not None:
                raise InvalidInput("a tuned method takes no fixed score kind")
            if self.score == "entmax":
                kinds = _gamma_kinds(self.gamma_grid)
            else:
                kinds = _raps_kinds(self.lambda_grid, self.k_grid)
            object.__setattr__(self, "grid_kinds", kinds)
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
        alphas = tuple(_check_alpha(a) for a in self.alphas)
        if not alphas:
            raise InvalidInput("config needs at least one alpha")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise InvalidInput(f"alphas must be strictly ascending, got {list(alphas)}")
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


def _calibrate_cells(cal_view, method: MethodSpec, alphas, seed: int) -> list:
    """``(predictor, tuning result or None)`` of one method at every alpha,
    calibrated on the sorted view of the calibration part, tuning first if
    asked.

    Tuned methods re-split the calibration part with ``seed``, choose the
    parameter on the tuning part, and keep the grid's predictor for it,
    calibrated on the other part only; keeping the tuning data out
    preserves exchangeability with the test part.
    """
    if not method.tune:
        return [(calibrate(cal_view, method.kind, alpha), None) for alpha in alphas]
    results = _grid_search(cal_view, alphas, seed, method.grid_kinds)
    return [(result.predictor, result) for result in results]


def _split_cells(cal, test, cfg: ExperimentConfig, seed: int, bins: SizeBins):
    """``(method name, alpha, Cell)`` for every cell of one split.

    Each part is sorted once, into a view that every method, alpha and grid
    point reads; the calibration view is dropped before the test view is
    built.  A test cell counts its sets in rank order, with each row's
    label rank standing in for its label, so nothing is un-sorted.
    """
    cal_view = _sort_rows(cal.logits, cal.labels)
    calibrated = [_calibrate_cells(cal_view, m, cfg.alphas, seed) for m in cfg.methods]
    del cal, cal_view
    test_view = _sort_rows(test.logits, test.labels)
    for method, cells in zip(cfg.methods, calibrated):
        for alpha, (pred, tuning) in zip(cfg.alphas, cells):
            run = EvaluationRun(sets=_view_sets(test_view, pred), labels=test_view.rank, alpha=alpha)
            yield method.name, alpha, Cell(report=compute_report(run, bins), tuning=tuning)


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
        for name, alpha, cell in _split_cells(*split(data, spec), cfg, seed, bins):
            cells[name][alpha].append(cell)
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
