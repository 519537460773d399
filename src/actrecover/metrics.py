"""Recovery quality metrics.

Hypothesis and target are each anchored against the shared incomplete
source with the same leftmost-greedy alignment, so insertions and removals
can be bucketed by source slot. The position-dependent block caps matches
per slot (and per slot-and-label for the strict count); the
order-independent block pools label counts over the whole dataset and
ignores positions. Distribution, insertion-pattern, and transition tables
mirror the same bucketing. All functions are pure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .activities import ACTIVITY_CATEGORIES, LABEL_TO_ID, N_ACTIVITIES
from .data import AlignmentError, DaySequence, RecoverySample, align_subsequence, slot_fills

__all__ = [
    "MetricsReport",
    "TransitionTable",
    "precision_recall_f1",
    "position_metrics",
    "order_independent_metrics",
    "evaluate",
    "activity_distribution",
    "average_daily_activities",
    "insertion_pattern_topk",
    "transition_analysis",
    "compare_transitions",
]


@dataclass
class MetricsReport:
    total_inserted: int = 0
    total_removed: int = 0
    avg_daily_hypothesis: float = 0.0
    avg_daily_target: float = 0.0
    avg_correct_location_pct: float = 0.0
    avg_correct_location_pct_missing_only: float = 0.0
    correct_inserted: int = 0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    oi_correct: int = 0
    oi_precision: float = 0.0
    oi_recall: float = 0.0
    oi_f1: float = 0.0

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def precision_recall_f1(correct: int, inserted: int, removed: int) -> tuple[float, float, float]:
    """Ratios from raw counts; zero denominators yield zero."""
    precision = correct / inserted if inserted else 0.0
    recall = correct / removed if removed else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _bucket(i: int, source: list[str], full: list[str]) -> list[tuple[int, str]]:
    """(source slot, label) of each item ``full`` adds to ``source``, in order.

    An alignment failure names sample ``i``.
    """
    try:
        fills = slot_fills(full, align_subsequence(source, full))
    except AlignmentError as exc:
        raise AlignmentError(f"sample {i}: {exc}") from exc
    return [(slot, label) for slot, fill in enumerate(fills) for label in fill]


def _check_pairing(samples: Sequence[RecoverySample], hypotheses: Sequence[DaySequence]) -> None:
    if len(samples) != len(hypotheses):
        raise AlignmentError(f"{len(samples)} samples but {len(hypotheses)} hypotheses")


def evaluate(
    samples: Sequence[RecoverySample], hypotheses: Sequence[DaySequence]
) -> MetricsReport:
    """Both metric blocks in one report, from one pass over the pairs.

    Position-dependent block: slot-capped matches and count ratios. A sample
    with no insertions scores location percentage 1.0 when nothing was
    removed either, and 0.0 otherwise; the dataset ratios aggregate raw
    counts, not per-sample ratios. Order-independent block: label overlap
    pooled over the whole dataset, ignoring positions.
    """
    _check_pairing(samples, hypotheses)
    report = MetricsReport(
        avg_daily_hypothesis=float(np.mean([len(h) for h in hypotheses])) if hypotheses else 0.0,
        avg_daily_target=float(np.mean([len(s.complete) for s in samples])) if samples else 0.0,
    )
    location_pcts: list[float] = []
    missing_only_pcts: list[float] = []
    inserted_labels: Counter = Counter()
    removed_labels: Counter = Counter()
    for i, (sample, hyp) in enumerate(zip(samples, hypotheses)):
        source = sample.incomplete.labels()
        inserted = _bucket(i, source, hyp.labels())
        removed = _bucket(i, source, sample.complete.labels())
        n_ins, n_rem = len(inserted), len(removed)
        ins_by_slot = Counter(slot for slot, _ in inserted)
        rem_by_slot = Counter(slot for slot, _ in removed)
        location_correct = sum(
            min(count, rem_by_slot.get(slot, 0)) for slot, count in ins_by_slot.items()
        )
        rem_slot_label = Counter(removed)
        strict_correct = sum(
            min(count, rem_slot_label.get(key, 0)) for key, count in Counter(inserted).items()
        )
        if n_ins == 0:
            pct = 1.0 if n_rem == 0 else 0.0
        else:
            pct = location_correct / n_ins
        location_pcts.append(pct)
        if n_rem > 0:
            missing_only_pcts.append(pct)
        report.total_inserted += n_ins
        report.total_removed += n_rem
        report.correct_inserted += strict_correct
        inserted_labels.update(label for _, label in inserted)
        removed_labels.update(label for _, label in removed)
    report.avg_correct_location_pct = float(np.mean(location_pcts)) if location_pcts else 0.0
    report.avg_correct_location_pct_missing_only = (
        float(np.mean(missing_only_pcts)) if missing_only_pcts else 0.0
    )
    report.precision, report.recall, report.f1 = precision_recall_f1(
        report.correct_inserted, report.total_inserted, report.total_removed
    )
    report.oi_correct = sum(
        min(count, removed_labels.get(label, 0)) for label, count in inserted_labels.items()
    )
    report.oi_precision, report.oi_recall, report.oi_f1 = precision_recall_f1(
        report.oi_correct, report.total_inserted, report.total_removed
    )
    return report


# Each block is a part of the one pass; the names stay for callers that ask for one block.
position_metrics = evaluate
order_independent_metrics = evaluate


def activity_distribution(sequences: Sequence[DaySequence]) -> dict[str, int]:
    """Label histogram over a set of sequences; always all nine keys."""
    counts = dict.fromkeys(ACTIVITY_CATEGORIES, 0)
    for seq in sequences:
        for label in seq.labels():
            counts[label] += 1
    return counts


def average_daily_activities(sequences: Sequence[DaySequence]) -> float:
    if not sequences:
        raise ValueError("average over an empty set of sequences is undefined")
    return float(np.mean([len(s) for s in sequences]))


def insertion_pattern_topk(
    samples: Sequence[RecoverySample],
    hypotheses: Sequence[DaySequence],
    k: int = 20,
) -> list[tuple[tuple[str, ...], int]]:
    """The k most common ordered insertion patterns (empty pattern counted)."""
    _check_pairing(samples, hypotheses)
    patterns: Counter = Counter()
    for i, (sample, hyp) in enumerate(zip(samples, hypotheses)):
        inserted = _bucket(i, sample.incomplete.labels(), hyp.labels())
        patterns[tuple(label for _, label in inserted)] += 1
    ranked = sorted(patterns.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


@dataclass
class TransitionTable:
    """Adjacent-pair multiset differences: lost by removal, added by insertion."""

    broken: np.ndarray = field(default_factory=lambda: np.zeros((N_ACTIVITIES, N_ACTIVITIES), dtype=int))
    inserted: np.ndarray = field(default_factory=lambda: np.zeros((N_ACTIVITIES, N_ACTIVITIES), dtype=int))


def _pair_counts(labels: list[str]) -> Counter:
    return Counter(zip(labels, labels[1:]))


def _pair_difference(a: Counter, b: Counter) -> Counter:
    return Counter({key: count - b.get(key, 0) for key, count in a.items() if count > b.get(key, 0)})


def transition_analysis(
    samples: Sequence[RecoverySample], hypotheses: Sequence[DaySequence]
) -> TransitionTable:
    """Per-sample pair differences, accumulated over the dataset."""
    _check_pairing(samples, hypotheses)
    table = TransitionTable()
    for sample, hyp in zip(samples, hypotheses):
        inc_pairs = _pair_counts(sample.incomplete.labels())
        for (a, b), count in _pair_difference(_pair_counts(sample.complete.labels()), inc_pairs).items():
            table.broken[LABEL_TO_ID[a], LABEL_TO_ID[b]] += count
        for (a, b), count in _pair_difference(_pair_counts(hyp.labels()), inc_pairs).items():
            table.inserted[LABEL_TO_ID[a], LABEL_TO_ID[b]] += count
    return table


def compare_transitions(table_a: TransitionTable, table_b: TransitionTable) -> dict:
    """Per-cell closer/tie verdicts between two models' insertion tables.

    The 81 directed pairs are judged in both presentation roles (activity as
    first, activity as second member of the pair), giving 162 cells; a model
    is closer in a cell when its |inserted - broken| gap is strictly smaller.
    """
    if not np.array_equal(table_a.broken, table_b.broken):
        raise ValueError("transition tables were built against different targets")
    broken = table_a.broken
    cells = []
    wins_a = wins_b = ties = 0
    for role in ("as_first", "as_second"):
        for i, first in enumerate(ACTIVITY_CATEGORIES):
            for j, second in enumerate(ACTIVITY_CATEGORIES):
                gap_a = abs(int(table_a.inserted[i, j]) - int(broken[i, j]))
                gap_b = abs(int(table_b.inserted[i, j]) - int(broken[i, j]))
                if gap_a < gap_b:
                    verdict = "a"
                    wins_a += 1
                elif gap_b < gap_a:
                    verdict = "b"
                    wins_b += 1
                else:
                    verdict = "tie"
                    ties += 1
                cells.append(
                    {
                        "role": role,
                        "from": first,
                        "to": second,
                        "broken": int(broken[i, j]),
                        "inserted_a": int(table_a.inserted[i, j]),
                        "inserted_b": int(table_b.inserted[i, j]),
                        "verdict": verdict,
                    }
                )
    return {"wins_a": wins_a, "wins_b": wins_b, "ties": ties, "cells": cells}
