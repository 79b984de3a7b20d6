"""Command-line interface.

Subcommands:
  transform  print gamma-entmax distributions for logits read from stdin
  calibrate  fit a conformal threshold on a calibration CSV
  evaluate   score a calibrated predictor on a test CSV
  sweep      run a full multi-split experiment from a JSON config

Exit codes: 0 success, 2 parse/validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .activations import EntmaxConfig, entmax
from .conformal import CalibratedPredictor, calibrate, set_masks
from .errors import EntconformError, IoError, ValidationError
from .harness import (
    ExperimentConfig,
    _read_logits_csv,
    load_dataset,
    read_json_object,
    run_sweep,
)
from .metrics import EvaluationRun, SizeBins, compute_report
from .scores import ScoreKind

_SCORE_CHOICES = ("sparsemax", "entmax", "log-margin", "inv-prob", "raps")


def _kind_from_args(args) -> ScoreKind:
    """``--score`` and the flags whose ``dest`` is one of its fields; an
    unset ``--gamma`` counts as missing, other scores' flags are ignored."""
    score = args.score.replace("-", "_")
    fields = {k: getattr(args, k) for k in ScoreKind.field_types(score)}
    return ScoreKind.from_dict(
        {"score": score, **{k: v for k, v in fields.items() if v is not None}}
    )


def _write_json(path: str, doc: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _cmd_transform(args) -> int:
    logits, _ = _read_logits_csv(sys.stdin)
    cfg = EntmaxConfig(gamma=args.gamma)
    if args.beta < 0.0:
        raise ValidationError(f"beta must be nonnegative, got {args.beta}")
    with np.errstate(over="ignore", invalid="ignore"):
        Zb = args.beta * logits
    if not np.all(np.isfinite(Zb)):
        raise ValidationError(f"beta * logits is not finite for beta = {args.beta}")
    print(",".join(f"p{i}" for i in range(logits.shape[1])))
    for row in Zb:
        dist = entmax(row, cfg)
        print(",".join(f"{p:.6f}" for p in dist.probs))
    return 0


def _cmd_calibrate(args) -> int:
    data = load_dataset(args.input)
    kind = _kind_from_args(args)
    pred = calibrate(data, kind, args.alpha)
    _write_json(args.out, pred.to_json_dict())
    print(f"calibrated {kind.variant} on n={pred.calib_n}: q_hat={pred.q_hat}")
    return 0


def _cmd_evaluate(args) -> int:
    pred = CalibratedPredictor.from_json_dict(read_json_object(args.predictor))
    data = load_dataset(args.input)
    run = EvaluationRun(sets=set_masks(data.logits, pred), labels=data.labels, alpha=pred.alpha)
    report = compute_report(run, SizeBins.default(data.num_classes))
    doc = {
        "method": pred.score_kind.variant,
        "alpha": pred.alpha,
        "n": data.n,
        **report.to_json_dict(),
    }
    _write_json(args.out, doc)
    print(f"coverage={report.coverage:.4f} avg_set_size={report.avg_set_size:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    out_dir = args.out_dir if args.out_dir is not None else cfg.output_path
    report_path, plot_path = run_sweep(cfg, out_dir)
    print(f"wrote {report_path} and {plot_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entconform",
        description="Conformal prediction sets from sparse activations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="print entmax distributions for stdin logits")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("calibrate", help="fit a conformal threshold")
    p.add_argument("--input", required=True)
    p.add_argument("--score", required=True, choices=_SCORE_CHOICES)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", dest="rng_seed", type=int, default=0)
    p.add_argument("--lambda-reg", dest="lambda_reg", type=float, default=0.01)
    p.add_argument("--k-reg", dest="k_reg", type=int, default=5)
    p.add_argument("--randomized", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("evaluate", help="evaluate a calibrated predictor")
    p.add_argument("--predictor", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="run a full experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EntconformError, OSError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
