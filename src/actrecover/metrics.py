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
    "InputSide",
    "TransitionTable",
    "precision_recall_f1",
    "position_metrics",
    "order_independent_metrics",
    "evaluate",
    "activity_distribution",
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


def _added(i: int, source: list[str], full: list[str]) -> list[tuple[int, list[str]]]:
    """(source slot, items) of each slot ``full`` adds items to, in slot order.

    An alignment failure names sample ``i``.
    """
    try:
        fills = slot_fills(full, align_subsequence(source, full))
    except AlignmentError as exc:
        raise AlignmentError(f"sample {i}: {exc}") from exc
    return [(slot, fill) for slot, fill in enumerate(fills) if fill]


def _pair_keys(days: Sequence[list[str]]) -> np.ndarray:
    """One int64 key ``81*day + 9*a + b`` per adjacent label pair ``(a, b)`` of each day."""
    ids = np.array([LABEL_TO_ID[label] for labels in days for label in labels], dtype=np.int64)
    day = np.repeat(np.arange(len(days), dtype=np.int64), [len(labels) for labels in days])
    same = day[1:] == day[:-1]
    return (N_ACTIVITIES * N_ACTIVITIES * day[1:] + N_ACTIVITIES * ids[:-1] + ids[1:])[same]


def _excess_table(keys: np.ndarray, input_keys: np.ndarray) -> np.ndarray:
    """The 9x9 table of each day's pair counts in ``keys`` beyond its counts in ``input_keys``, clipped at 0."""
    unique, inverse = np.unique(np.concatenate([keys, input_keys]), return_inverse=True)
    excess = (np.bincount(inverse[:len(keys)], minlength=len(unique))
              - np.bincount(inverse[len(keys):], minlength=len(unique)))
    cells = np.repeat(unique % (N_ACTIVITIES * N_ACTIVITIES), np.maximum(excess, 0))
    return np.bincount(cells, minlength=N_ACTIVITIES * N_ACTIVITIES).reshape(N_ACTIVITIES, N_ACTIVITIES)


class InputSide:
    """What scoring needs of the samples alone, worked out once and shared by every hypothesis set.

    Per sample: the input labels and the removed activities' labels by input
    slot (from aligning the input to the complete day); over the dataset, the
    input's adjacent pairs as ``_pair_keys``, the removed label counts and the
    broken transition table. Each metric function takes this or the samples it
    is built from.
    """

    def __init__(self, samples: Sequence[RecoverySample]):
        self.samples = samples
        self.labels = [s.incomplete.labels() for s in samples]
        complete = [s.complete.labels() for s in samples]
        self.removed = [dict(_added(i, source, full))
                        for i, (source, full) in enumerate(zip(self.labels, complete))]
        self.removed_labels = Counter(label for removed in self.removed
                                      for fill in removed.values() for label in fill)
        self.input_keys = _pair_keys(self.labels)
        self.broken = _excess_table(_pair_keys(complete), self.input_keys)


def _input_side(samples: Sequence[RecoverySample] | InputSide, hypotheses: Sequence[DaySequence]) -> InputSide:
    """``samples`` as an ``InputSide``, checked to pair one to one with ``hypotheses``."""
    side = samples if isinstance(samples, InputSide) else InputSide(samples)
    if len(side.samples) != len(hypotheses):
        raise AlignmentError(f"{len(side.samples)} samples but {len(hypotheses)} hypotheses")
    return side


def evaluate(
    samples: Sequence[RecoverySample] | InputSide, hypotheses: Sequence[DaySequence]
) -> MetricsReport:
    """Both metric blocks in one report, from one pass over the pairs.

    Position-dependent block: slot-capped matches and count ratios. A sample
    with no insertions scores location percentage 1.0 when nothing was
    removed either, and 0.0 otherwise; the dataset ratios aggregate raw
    counts, not per-sample ratios. Order-independent block: label overlap
    pooled over the whole dataset, ignoring positions.
    """
    side = _input_side(samples, hypotheses)
    report = MetricsReport(
        avg_daily_hypothesis=float(np.mean([len(h) for h in hypotheses])) if hypotheses else 0.0,
        avg_daily_target=float(np.mean([len(s.complete) for s in side.samples])) if side.samples else 0.0,
    )
    location_pcts: list[float] = []
    missing_only_pcts: list[float] = []
    inserted_labels: list[str] = []
    for i, (source, removed, hyp) in enumerate(zip(side.labels, side.removed, hypotheses)):
        n_ins = location_correct = 0
        n_rem = sum(map(len, removed.values()))
        for slot, fill in _added(i, source, hyp.labels()):
            n_ins += len(fill)
            inserted_labels += fill
            lost = removed.get(slot)
            if lost:
                location_correct += min(len(fill), len(lost))
                report.correct_inserted += sum(min(fill.count(l), lost.count(l)) for l in set(fill))
        pct = location_correct / n_ins if n_ins else float(n_rem == 0)
        location_pcts.append(pct)
        if n_rem > 0:
            missing_only_pcts.append(pct)
        report.total_inserted += n_ins
        report.total_removed += n_rem
    report.avg_correct_location_pct = float(np.mean(location_pcts)) if location_pcts else 0.0
    report.avg_correct_location_pct_missing_only = (
        float(np.mean(missing_only_pcts)) if missing_only_pcts else 0.0
    )
    report.precision, report.recall, report.f1 = precision_recall_f1(
        report.correct_inserted, report.total_inserted, report.total_removed
    )
    report.oi_correct = sum((Counter(inserted_labels) & side.removed_labels).values())
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


def insertion_pattern_topk(
    samples: Sequence[RecoverySample] | InputSide,
    hypotheses: Sequence[DaySequence],
    k: int = 20,
) -> list[tuple[tuple[str, ...], int]]:
    """The k most common ordered insertion patterns (empty pattern counted)."""
    side = _input_side(samples, hypotheses)
    patterns: Counter = Counter()
    for i, (source, hyp) in enumerate(zip(side.labels, hypotheses)):
        patterns[tuple(label for _, fill in _added(i, source, hyp.labels()) for label in fill)] += 1
    ranked = sorted(patterns.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


@dataclass
class TransitionTable:
    """Adjacent-pair multiset differences: lost by removal, added by insertion."""

    broken: np.ndarray = field(default_factory=lambda: np.zeros((N_ACTIVITIES, N_ACTIVITIES), dtype=int))
    inserted: np.ndarray = field(default_factory=lambda: np.zeros((N_ACTIVITIES, N_ACTIVITIES), dtype=int))


def transition_analysis(
    samples: Sequence[RecoverySample] | InputSide, hypotheses: Sequence[DaySequence]
) -> TransitionTable:
    """Per-sample pair differences against the input, accumulated over the dataset."""
    side = _input_side(samples, hypotheses)
    inserted = _excess_table(_pair_keys([hyp.labels() for hyp in hypotheses]), side.input_keys)
    return TransitionTable(broken=side.broken.copy(), inserted=inserted)


def compare_transitions(table_a: TransitionTable, table_b: TransitionTable) -> dict:
    """Per-cell closer/tie verdicts between two models' insertion tables.

    Each of the 81 directed pairs is judged once and listed in both presentation
    roles (activity as first, activity as second member of the pair), giving 162
    cells; a model is closer when its |inserted - broken| gap is strictly smaller.
    """
    if not np.array_equal(table_a.broken, table_b.broken):
        raise ValueError("transition tables were built against different targets")
    broken = table_a.broken
    gap_a = np.abs(table_a.inserted - broken)
    gap_b = np.abs(table_b.inserted - broken)
    verdicts = np.where(gap_a < gap_b, "a", np.where(gap_b < gap_a, "b", "tie"))
    cells = [
        {
            "role": role,
            "from": first,
            "to": second,
            "broken": int(broken[i, j]),
            "inserted_a": int(table_a.inserted[i, j]),
            "inserted_b": int(table_b.inserted[i, j]),
            "verdict": str(verdicts[i, j]),
        }
        for role in ("as_first", "as_second")
        for i, first in enumerate(ACTIVITY_CATEGORIES)
        for j, second in enumerate(ACTIVITY_CATEGORIES)
    ]
    counts = Counter(cell["verdict"] for cell in cells)
    return {"wins_a": counts["a"], "wins_b": counts["b"], "ties": counts["tie"], "cells": cells}
