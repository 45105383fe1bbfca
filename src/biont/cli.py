"""Command-line entry point.

    biont preprocess --config c.json --out instances.jsonl
    biont train      --config c.json --in instances.jsonl --model model.json
    biont evaluate   --model model.json --in instances.jsonl --out metrics.tsv
    biont predict    --model model.json --in instances.jsonl --out preds.jsonl

Exit codes: 0 success, 1 validation/usage error, 2 data error (including a
data file that is missing, cannot be opened or written, or is not UTF-8,
and an array the config or model sizes that cannot be allocated).
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import load_config
from .errors import ConfigError, DataError
from .pipeline import cmd_evaluate, cmd_predict, cmd_preprocess, cmd_train


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not argparse's exit 2
    def error(self, message: str):
        raise ConfigError(message)


def _threshold(text: str) -> float:
    # float() takes "nan", and no probability is >= NaN, so a NaN threshold
    # would label every instance negative; values outside [0, 1] stay valid
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"threshold must be a number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="biont", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    preprocess = sub.add_parser("preprocess", help="corpus -> instances JSON-lines")
    preprocess.add_argument("--config", required=True)
    preprocess.add_argument("--out", required=True, help="instances file to write")
    preprocess.add_argument("--report", help="diagnostics TSV (default: <out>.report.tsv)")

    train = sub.add_parser("train", help="instances -> model file + history TSV")
    train.add_argument("--config", required=True)
    train.add_argument("--in", dest="instances", required=True)
    train.add_argument("--model", required=True, help="model file to write")
    train.add_argument("--history", help="history TSV (default: <model>.history.tsv)")

    evaluate = sub.add_parser("evaluate", help="score a model on labeled instances")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--in", dest="instances", required=True)
    evaluate.add_argument("--out", required=True, help="metrics TSV to write")
    evaluate.add_argument("--threshold", type=_threshold, default=0.5)

    predict = sub.add_parser("predict", help="write per-instance probabilities")
    predict.add_argument("--model", required=True)
    predict.add_argument("--in", dest="instances", required=True)
    predict.add_argument("--out", required=True, help="predictions JSON-lines to write")
    predict.add_argument("--threshold", type=_threshold, default=0.5)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "preprocess":
            config = load_config(args.config)
            instances, _ = cmd_preprocess(config, args.out, args.report)
            print(f"wrote {len(instances)} instances to {args.out}")
        elif args.command == "train":
            config = load_config(args.config)
            _, history = cmd_train(config, args.instances, args.model, args.history)
            final = history[-1] if history else {"train_loss": 0.0, "dev_f": 0.0}
            print(
                f"trained {len(history)} epochs; final loss "
                f"{final['train_loss']:.6f}, dev F {final['dev_f']:.4f}"
            )
        elif args.command == "evaluate":
            metrics = cmd_evaluate(args.model, args.instances, args.out, args.threshold)
            print(
                f"precision {metrics.precision:.4f} recall {metrics.recall:.4f} "
                f"f_score {metrics.f_score:.4f}"
            )
        elif args.command == "predict":
            predictions = cmd_predict(args.model, args.instances, args.out, args.threshold)
            print(f"wrote {len(predictions)} predictions to {args.out}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
