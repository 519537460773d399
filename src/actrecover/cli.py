"""Pipeline commands: gen, train, recover, eval, compare.

Exit codes: 0 on success, 2 on usage or configuration problems, 1 when an
internal invariant is violated. File-level config values are overridden by
flags, and every command echoes its effective configuration into its
outputs for reproducibility.

Each command runs with Python's cyclic garbage collector paused, and the
caller's setting is restored however it ends. A command makes no reference
cycles, so reference counting frees all its garbage and the collector would
only re-walk live objects: about a tenth of bulk scoring's time.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
from dataclasses import asdict, fields as dataclass_fields
from itertools import product, zip_longest

import numpy as np

from .activities import ACTIVITY_CATEGORIES
from .data import (
    AlignmentError,
    ParseError,
    align_subsequence,
    read_days,
    read_samples,
    read_sequences,
    write_samples,
    write_sequences,
)
from .generator import ConfigError, GeneratorConfig, config_values, generate_population, make_samples
from .metrics import InputSide, activity_distribution, compare_transitions, score, top_patterns, transition_analysis
from .model import CapacityError, CompatibilityError, LengthError, ModelConfig, VocabularyError, load_checkpoint
from .tensor import NumericError, ShapeError
from .training import TrainConfig, train

# Faults in the input (files, flags, configs): exit 2 with the message.
_USAGE_ERRORS = (
    ConfigError,
    ParseError,
    AlignmentError,
    CompatibilityError,
    VocabularyError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)
# Breaches of an internal invariant: exit 1 with the message.
_INTERNAL_ERRORS = (ShapeError, CapacityError, NumericError)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_config_object(path):
    """The JSON a config file holds; text that is not UTF-8 JSON is a ``ConfigError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # not UTF-8, not JSON, or an integer of more digits than Python converts
        raise ConfigError(f"not UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("JSON nested too deeply") from exc


def _layered_configs(args, *classes) -> list:
    """One instance of each config dataclass: field defaults, then the ``--config`` file, then flags.

    The file's values are built on their own first, so every refusal of a
    file value names the file. A flag's destination is the field it sets.
    """
    names = [[f.name for f in dataclass_fields(c)] for c in classes]

    def build(values: dict) -> list:
        return [c(**{k: values[k] for k in keys if k in values}) for c, keys in zip(classes, names)]

    values = {}
    if args.config is not None:
        try:
            values = config_values(read_config_object(args.config), *classes)
            build(values)
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}") from exc
    values.update((k, getattr(args, k)) for keys in names for k in keys if getattr(args, k, None) is not None)
    return build(values)


def cmd_gen(args) -> int:
    (cfg,) = _layered_configs(args, GeneratorConfig)
    sequences = generate_population(cfg)
    samples = make_samples(sequences, cfg.p_remove, cfg.seed)
    write_samples(args.out, samples)
    counts = [len(s.complete) for s in samples]
    summary = {
        "config": asdict(cfg),
        "n_days": len(samples),
        "mean_daily_activities": float(np.mean(counts)),
        "total_activities": int(np.sum(counts)),
        "total_removed": int(sum(len(s.removed_positions) for s in samples)),
    }
    _write_json(str(args.out) + ".summary.json", summary)
    print(f"gen: wrote {len(samples)} samples to {args.out} "
          f"(mean daily activities {summary['mean_daily_activities']:.3f})")
    return 0


def cmd_train(args) -> int:
    samples = read_samples(args.data)
    if not samples:
        raise ConfigError(f"{args.data}: dataset is empty")
    model_config, train_config = _layered_configs(args, ModelConfig, TrainConfig)
    model, report = train(samples, model_config, train_config, checkpoint_path=args.out, resume=args.resume)
    payload = {**asdict(report), "flavor": "vsnit" if model_config.use_vsn else "baseline",
               "model_config": asdict(model_config), "train_config": asdict(train_config)}
    _write_json(str(args.out) + ".report.json", payload)
    print(f"train: {report.steps} steps, final loss "
          f"{report.losses[-1] if report.losses else float('nan'):.4f}, "
          f"checkpoint {args.out}")
    return 0


def _recovery_summary(outcomes, max_rounds: int) -> dict:
    """Deterministic decode statistics: no timings, so reruns compare byte for byte."""
    return {
        "n_sequences": len(outcomes),
        "max_rounds": max_rounds,
        "rounds_histogram": np.bincount([o.rounds for o in outcomes], minlength=1).tolist(),
        "truncated": sum(o.truncated for o in outcomes),
        "insertions_per_round": [sum(n) for n in zip_longest(*(o.inserted for o in outcomes), fillvalue=0)],
    }


def cmd_recover(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    samples = read_samples(args.data)
    max_rounds = model.config.max_rounds if args.max_rounds is None else args.max_rounds
    outcomes = model.recover_batch([s.incomplete for s in samples], max_rounds=max_rounds)
    for i, (sample, outcome) in enumerate(zip(samples, outcomes)):
        try:
            align_subsequence(sample.incomplete.labels(), outcome.sequence.labels())
        except AlignmentError as exc:
            print(
                f"recover: invariant breach on sample {i}: input tokens are not "
                f"a subsequence of the hypothesis ({exc})",
                file=sys.stderr,
            )
            return 1
    hypotheses = [o.sequence for o in outcomes]
    write_sequences(args.out, hypotheses)
    _write_json(str(args.out) + ".summary.json", _recovery_summary(outcomes, max_rounds))
    print(f"recover: wrote {len(hypotheses)} hypotheses to {args.out}")
    return 0


def _score(side, hypotheses, hyp_path):
    """``score``, naming ``hyp_path`` if its days do not pair with or contain the inputs."""
    try:
        return score(side, hypotheses)
    except AlignmentError as exc:
        raise AlignmentError(f"{hyp_path}: {exc}") from exc


def cmd_eval(args) -> int:
    data = read_days(args.data, samples=True)
    hypotheses = read_days(args.hyp)
    side = InputSide(data)
    report, patterns = _score(side, hypotheses, args.hyp)
    _write_json(str(args.out) + ".metrics.json", report.to_json_dict())
    hyp_counts = activity_distribution(hypotheses)
    target_counts = activity_distribution(data)
    _write_csv(
        str(args.out) + ".distribution.csv",
        ["label", "hypothesis", "target"],
        [[label, hyp_counts[label], target_counts[label]] for label in ACTIVITY_CATEGORIES],
    )
    _write_csv(
        str(args.out) + ".patterns.csv",
        ["pattern", "count"],
        [["|".join(pattern), count] for pattern, count in top_patterns(patterns, k=20)],
    )
    table = transition_analysis(side, hypotheses)
    _write_json(
        str(args.out) + ".transitions.json",
        {
            "labels": list(ACTIVITY_CATEGORIES),
            "broken": table.broken.tolist(),
            "inserted": table.inserted.tolist(),
        },
    )
    for kind, grid in (("broken", table.broken), ("inserted", table.inserted)):
        _write_csv(
            str(args.out) + f".transitions_{kind}.csv",
            ["from", "to", "count"],
            [[a, b, n] for (a, b), n in zip(product(ACTIVITY_CATEGORIES, repeat=2), grid.ravel().tolist())],
        )
    print(f"eval: wrote metrics and tables with prefix {args.out}")
    return 0


def cmd_compare(args) -> int:
    data = read_days(args.data, samples=True)
    hyp_a = read_days(args.hyp_a)
    hyp_b = read_days(args.hyp_b)
    side = InputSide(data)
    metrics_a = _score(side, hyp_a, args.hyp_a)[0]
    metrics_b = _score(side, hyp_b, args.hyp_b)[0]
    verdicts = compare_transitions(transition_analysis(side, hyp_a), transition_analysis(side, hyp_b))
    payload = {
        "metrics_a": metrics_a.to_json_dict(),
        "metrics_b": metrics_b.to_json_dict(),
        "transition_wins_a": verdicts["wins_a"],
        "transition_wins_b": verdicts["wins_b"],
        "transition_ties": verdicts["ties"],
        "cells": verdicts["cells"],
    }
    _write_json(args.out, payload)
    print(
        f"compare: A wins {verdicts['wins_a']}, B wins {verdicts['wins_b']}, "
        f"ties {verdicts['ties']} (of 162 cells)"
    )
    return 0


class _Flavor(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, value == "vsnit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actrecover", description="Activity sequence recovery pipeline."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic recovery dataset")
    gen.add_argument("--out", required=True, help="output dataset (JSONL)")
    gen.add_argument("--config", default=None, help="generator config JSON")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--n-days", type=int, default=None)
    gen.add_argument("--p-remove", type=float, default=None)
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train a model on a recovery dataset")
    tr.add_argument("--data", required=True, help="samples JSONL")
    tr.add_argument("--out", required=True, help="checkpoint path")
    tr.add_argument("--flavor", dest="use_vsn", choices=("vsnit", "baseline"), action=_Flavor,
                    help="sets use_vsn: vsnit (true) or baseline (false)")
    tr.add_argument("--config", default=None, help="train/model config JSON")
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--batch-size", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--d-m", type=int, default=None)
    tr.add_argument("--heads", dest="n_heads", type=int, default=None)
    tr.add_argument("--n-layers", type=int, default=None)
    tr.add_argument("--dropout", type=float, default=None)
    tr.add_argument("--max-len", type=int, default=None)
    tr.add_argument("--max-rounds", type=int, default=None)
    tr.add_argument("--checkpoint-interval", type=int, default=None)
    tr.add_argument("--resume", action="store_true", help="continue from the checkpoint at --out")
    tr.set_defaults(func=cmd_train)

    rec = sub.add_parser("recover", help="recover sequences with a trained model")
    rec.add_argument("--checkpoint", required=True)
    rec.add_argument("--data", required=True, help="samples JSONL (incomplete inputs)")
    rec.add_argument("--out", required=True, help="hypotheses JSONL")
    rec.add_argument("--max-rounds", type=int, default=None)
    rec.add_argument("--seed", type=int, default=0, help="accepted for interface uniformity")
    rec.set_defaults(func=cmd_recover)

    ev = sub.add_parser("eval", help="score hypotheses against their samples")
    ev.add_argument("--data", required=True, help="samples JSONL")
    ev.add_argument("--hyp", required=True, help="hypotheses JSONL")
    ev.add_argument("--out", required=True, help="output prefix")
    ev.add_argument("--seed", type=int, default=0, help="accepted for interface uniformity")
    ev.set_defaults(func=cmd_eval)

    cmp_ = sub.add_parser("compare", help="compare two hypothesis sets")
    cmp_.add_argument("--data", required=True, help="samples JSONL")
    cmp_.add_argument("--hyp-a", required=True)
    cmp_.add_argument("--hyp-b", required=True)
    cmp_.add_argument("--out", required=True, help="comparison JSON")
    cmp_.add_argument("--seed", type=int, default=0, help="accepted for interface uniformity")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # a command makes no reference cycles (module docstring)
    try:
        return args.func(args)
    except LengthError as exc:  # a day of the --data file; train and recover raise it
        print(f"{args.command}: {args.data}: {exc}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except _INTERNAL_ERRORS as exc:
        print(f"{args.command}: internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
