"""Recovery quality metrics.

Hypothesis and target are each anchored against the shared incomplete
source with the same leftmost-greedy alignment, so insertions and removals
can be bucketed by source slot. The position-dependent block caps matches
per slot (and per slot-and-label for the strict count); the
order-independent block pools label counts over the whole dataset and
ignores positions. Distribution, insertion-pattern, and transition tables
mirror the same bucketing. All functions are pure.

Scoring runs on label ids. Every function takes days as ``DaySequence``
objects or as the reader's ``Days`` columns, and gives labels as text
only in its results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .activities import ACTIVITY_CATEGORIES, LABEL_TO_ID, N_ACTIVITIES
from .data import AlignmentError, Days, DaySequence, RecoverySample, align_subsequence

__all__ = [
    "MetricsReport",
    "InputSide",
    "TransitionTable",
    "precision_recall_f1",
    "position_metrics",
    "order_independent_metrics",
    "evaluate",
    "score",
    "top_patterns",
    "activity_distribution",
    "insertion_pattern_topk",
    "transition_analysis",
    "compare_transitions",
]

# Days as objects or as the reader's columns
DaySet = Sequence[DaySequence] | Days
SampleSet = Sequence[RecoverySample] | Days


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


def _columns(days: DaySet) -> tuple[np.ndarray, np.ndarray]:
    """The label ids of ``days`` and the offsets of each day's ids."""
    if isinstance(days, Days):
        return days.labels, days.offsets
    ids = [LABEL_TO_ID[a.label] for day in days for a in day.activities]
    return np.array(ids, dtype=np.int64), np.cumsum([0, *map(len, days)], dtype=np.int64)


def _id_lists(ids: np.ndarray, offsets: np.ndarray) -> list[list[int]]:
    """Each day's label ids, as an int list cut from the column."""
    flat, bounds = ids.tolist(), offsets.tolist()
    return list(map(flat.__getitem__, map(slice, bounds, bounds[1:])))


def _added(i: int, source: list[int], full: list[int]) -> list[tuple[int, list[int]]]:
    """(source slot, ids) of each slot ``full`` adds ids to, in slot order.

    An alignment failure names sample ``i`` and the label that found no match.
    """
    try:
        anchors = align_subsequence(source, full)
    except AlignmentError:
        try:  # the labels fail alike, and their refusal shows the label
            align_subsequence(*([ACTIVITY_CATEGORIES[x] for x in ids] for ids in (source, full)))
        except AlignmentError as exc:
            raise AlignmentError(f"sample {i}: {exc}") from exc
    added, start = [], 0  # ``start``: where the slot before anchor ``slot`` starts
    for slot, anchor in enumerate(anchors):
        if anchor > start:
            added.append((slot, full[start:anchor]))
        start = anchor + 1
    if start < len(full):
        added.append((len(anchors), full[start:]))
    return added


def _pair_keys(ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """One int64 key ``81*day + 9*a + b`` per adjacent label pair ``(a, b)`` of each day."""
    day = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
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

    Per sample: the input's label ids and the removed activities' ids by
    input slot (from aligning the input to the complete day); over the
    dataset, the complete days' lengths, the input and removed label counts,
    the input's adjacent pairs as ``_pair_keys`` and the broken transition
    table. Each metric function takes this or the samples it is built from.
    """

    def __init__(self, samples: SampleSet):
        if isinstance(samples, Days):
            complete, source = (samples.labels, samples.offsets), samples.inputs()
        else:
            complete, source = _columns([s.complete for s in samples]), _columns([s.incomplete for s in samples])
        self.target_lengths = np.diff(complete[1])
        self.sources = _id_lists(*source)
        self.removed = [dict(_added(i, source_ids, full))
                        for i, (source_ids, full) in enumerate(zip(self.sources, _id_lists(*complete)))]
        self.n_removed = (self.target_lengths - np.diff(source[1])).tolist()
        self.source_counts = np.bincount(source[0], minlength=N_ACTIVITIES)
        self.removed_counts = np.bincount(complete[0], minlength=N_ACTIVITIES) - self.source_counts
        self.input_keys = _pair_keys(*source)
        self.broken = _excess_table(_pair_keys(*complete), self.input_keys)


def _input_side(samples: SampleSet | InputSide, hypotheses: DaySet) -> InputSide:
    """``samples`` as an ``InputSide``, checked to pair one to one with ``hypotheses``."""
    side = samples if isinstance(samples, InputSide) else InputSide(samples)
    if len(side.sources) != len(hypotheses):
        raise AlignmentError(f"{len(side.sources)} samples but {len(hypotheses)} hypotheses")
    return side


def score(samples: SampleSet | InputSide, hypotheses: DaySet) -> tuple[MetricsReport, Counter]:
    """``evaluate``'s report and the count of each insertion pattern (a tuple of label ids, the empty
    one counted), from one pass over the pairs.

    Position-dependent block: slot-capped matches and count ratios. A sample
    with no insertions scores location percentage 1.0 when nothing was
    removed either, and 0.0 otherwise; the dataset ratios aggregate raw
    counts, not per-sample ratios. Order-independent block: label overlap
    pooled over the whole dataset, ignoring positions.
    """
    side = _input_side(samples, hypotheses)
    ids, offsets = _columns(hypotheses)
    report = MetricsReport(
        avg_daily_hypothesis=float(np.mean(np.diff(offsets))) if len(hypotheses) else 0.0,
        avg_daily_target=float(np.mean(side.target_lengths)) if len(side.sources) else 0.0,
    )
    patterns: list[tuple[int, ...]] = []
    location_pcts: list[float] = []
    missing_only_pcts: list[float] = []
    for i, (source, removed, n_rem, hyp) in enumerate(
        zip(side.sources, side.removed, side.n_removed, _id_lists(ids, offsets))
    ):
        pattern: list[int] = []
        location_correct = 0
        for slot, fill in _added(i, source, hyp):
            pattern += fill
            lost = removed.get(slot)
            if lost:
                location_correct += min(len(fill), len(lost))
                report.correct_inserted += sum(min(fill.count(l), lost.count(l)) for l in set(fill))
        patterns.append(tuple(pattern))
        pct = location_correct / len(pattern) if pattern else float(n_rem == 0)
        location_pcts.append(pct)
        if n_rem > 0:
            missing_only_pcts.append(pct)
    report.total_inserted = len(ids) - int(side.source_counts.sum())
    report.total_removed = sum(side.n_removed)
    report.avg_correct_location_pct = float(np.mean(location_pcts)) if location_pcts else 0.0
    report.avg_correct_location_pct_missing_only = float(np.mean(missing_only_pcts)) if missing_only_pcts else 0.0
    report.precision, report.recall, report.f1 = precision_recall_f1(
        report.correct_inserted, report.total_inserted, report.total_removed
    )
    # every input is a subsequence of its hypothesis, so the labels inserted are the hypotheses' less the inputs'
    inserted = np.bincount(ids, minlength=N_ACTIVITIES) - side.source_counts
    report.oi_correct = int(np.minimum(inserted, side.removed_counts).sum())
    report.oi_precision, report.oi_recall, report.oi_f1 = precision_recall_f1(
        report.oi_correct, report.total_inserted, report.total_removed
    )
    return report, Counter(patterns)


def evaluate(samples: SampleSet | InputSide, hypotheses: DaySet) -> MetricsReport:
    """Both metric blocks in one report: ``score``'s."""
    return score(samples, hypotheses)[0]


# Each block is a part of the one pass; the names stay for callers that ask for one block.
position_metrics = evaluate
order_independent_metrics = evaluate


def activity_distribution(sequences: DaySet) -> dict[str, int]:
    """Label histogram over a set of sequences; always all nine keys."""
    counts = np.bincount(_columns(sequences)[0], minlength=N_ACTIVITIES)
    return dict(zip(ACTIVITY_CATEGORIES, counts.tolist()))


def top_patterns(patterns: Counter, k: int = 20) -> list[tuple[tuple[str, ...], int]]:
    """The ``k`` most common of ``score``'s patterns, as labels; equal counts rank by label text."""
    labeled = [(tuple(ACTIVITY_CATEGORIES[x] for x in pattern), n) for pattern, n in patterns.items()]
    return sorted(labeled, key=lambda item: (-item[1], item[0]))[:k]


def insertion_pattern_topk(
    samples: SampleSet | InputSide, hypotheses: DaySet, k: int = 20
) -> list[tuple[tuple[str, ...], int]]:
    """The k most common ordered insertion patterns (empty pattern counted)."""
    return top_patterns(score(samples, hypotheses)[1], k)


@dataclass
class TransitionTable:
    """Adjacent-pair multiset differences: lost by removal, added by insertion."""

    broken: np.ndarray = field(default_factory=lambda: np.zeros((N_ACTIVITIES, N_ACTIVITIES), dtype=int))
    inserted: np.ndarray = field(default_factory=lambda: np.zeros((N_ACTIVITIES, N_ACTIVITIES), dtype=int))


def transition_analysis(samples: SampleSet | InputSide, hypotheses: DaySet) -> TransitionTable:
    """Per-sample pair differences against the input, accumulated over the dataset."""
    side = _input_side(samples, hypotheses)
    inserted = _excess_table(_pair_keys(*_columns(hypotheses)), side.input_keys)
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
