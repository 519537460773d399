"""Person-day activity sequences, recovery samples, and dataset files.

A complete day is an ordered list of labeled activities with per-activity
covariates (arrival/departure bin, travel mode, trip distance) plus
day-level covariates (weekday, holiday) and four static tract codes.
Masking deletes positions — covariates leave with them — to form
(incomplete, complete) recovery pairs. Datasets persist as JSON lines,
one record per person-day.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .activities import (
    LABEL_TO_ID,
    MISSING_CODE,
    N_MODES,
    N_STATIC_LEVELS,
    N_TIME_BINS,
)

__all__ = [
    "Activity",
    "DaySequence",
    "RecoverySample",
    "AlignmentError",
    "ParseError",
    "mask_sequence",
    "align_subsequence",
    "slot_fills",
    "read_samples",
    "read_sequences",
    "write_samples",
    "write_sequences",
    "sequence_to_record",
    "sequence_from_record",
]


class AlignmentError(ValueError):
    """The shorter label list is not an order-preserving subsequence."""


class ParseError(ValueError):
    """A dataset line could not be decoded; the message names the line."""


@dataclass(slots=True)
class Activity:
    """One activity: label plus its per-activity covariates.

    ``observed`` is false for activities whose covariates are unavailable
    (deleted with a removed token, or attached to a decoder insertion); the
    model's encoder then ignores its codes and distance, which need only lie
    in range, ``MISSING_CODE`` included.
    """

    label: str
    arr: int = MISSING_CODE
    dep: int = MISSING_CODE
    mode: int = MISSING_CODE
    dist: float = 0.0
    observed: bool = False

    def validate(self) -> None:
        if self.label not in LABEL_TO_ID:
            raise ValueError(f"unknown activity label {self.label!r}")
        low = 1 if self.observed else MISSING_CODE
        if not (low <= self.arr <= N_TIME_BINS and low <= self.dep <= N_TIME_BINS):
            raise ValueError(f"time bins out of {low}..{N_TIME_BINS}: {self.arr}, {self.dep}")
        if self.observed and self.arr > self.dep:
            raise ValueError(f"arrival bin {self.arr} after departure bin {self.dep}")
        if not low <= self.mode <= N_MODES:
            raise ValueError(f"mode code out of {low}..{N_MODES}: {self.mode}")
        if not (math.isfinite(self.dist) and self.dist >= 0):
            raise ValueError(f"trip distance must be a finite number >= 0: {self.dist}")


@dataclass(slots=True)
class DaySequence:
    """All activities of one person on one day, with day/person covariates."""

    person_id: int
    date: int
    weekday: int  # 1..7
    holiday: int  # 0 or 1
    static: tuple[int, int, int, int]  # tract income/age/race/education, 1..5
    activities: list[Activity] = field(default_factory=list)

    def labels(self) -> list[str]:
        return [a.label for a in self.activities]

    def __len__(self) -> int:
        return len(self.activities)

    def validate(self) -> None:
        if not 1 <= self.weekday <= 7:
            raise ValueError(f"weekday out of 1..7: {self.weekday}")
        if self.holiday not in (0, 1):
            raise ValueError(f"holiday flag must be 0/1: {self.holiday}")
        if len(self.static) != 4 or any(not 1 <= c <= N_STATIC_LEVELS for c in self.static):
            raise ValueError(f"static codes must be four values in 1..{N_STATIC_LEVELS}")
        for act in self.activities:
            act.validate()


@dataclass(slots=True)
class RecoverySample:
    """A masking outcome: the complete day and the positions that left it.

    ``incomplete`` is the complete day without those positions; its
    activities are the complete day's own, shared, not copied.
    """

    complete: DaySequence
    removed_positions: list[int]
    incomplete: DaySequence = field(init=False)

    def __post_init__(self) -> None:
        gone, day = set(self.removed_positions), self.complete
        self.incomplete = DaySequence(day.person_id, day.date, day.weekday, day.holiday, day.static,
                                      [a for j, a in enumerate(day.activities) if j not in gone])


def mask_sequence(
    complete: DaySequence, p_remove: float, rng: np.random.Generator
) -> RecoverySample:
    """Remove each position independently with probability ``p_remove``.

    Zero and full removal are both legal outcomes; removed activities take
    their covariates with them.
    """
    if not complete.activities:
        raise ValueError("cannot mask an empty sequence")
    if not 0.0 <= p_remove <= 1.0:
        raise ValueError(f"p_remove out of [0, 1]: {p_remove}")
    drop = rng.random(len(complete.activities)) < p_remove
    removed = [i for i, d in enumerate(drop) if d]
    return RecoverySample(complete, removed)


def align_subsequence(sub: Sequence, full: Sequence) -> list[int]:
    """Leftmost-greedy anchor indices of ``sub`` inside ``full``.

    ``anchors[i]`` is the smallest index of ``full`` past ``anchors[i-1]``
    whose label equals ``sub[i]``.
    """
    anchors: list[int] = []
    j = 0
    for i, label in enumerate(sub):
        while j < len(full) and full[j] != label:
            j += 1
        if j == len(full):
            raise AlignmentError(f"element {i} ({label!r}) has no match left in the full sequence")
        anchors.append(j)
        j += 1
    return anchors


def slot_fills(full: Sequence, anchors: Sequence[int]) -> list[list]:
    """The items of ``full`` that fill each slot around ``anchors``.

    Slot ``s`` holds the items strictly between anchor ``s-1`` and anchor
    ``s``, with the two ends of ``full`` counting as anchors, so there are
    ``len(anchors) + 1`` slots. With anchors from ``align_subsequence(sub,
    full)``, interleaving ``sub`` with the slots gives back ``full``.
    """
    bounds = [-1, *anchors, len(full)]
    return [list(full[lo + 1 : hi]) for lo, hi in zip(bounds, bounds[1:])]


# -- JSON-lines persistence -------------------------------------------------

def sequence_to_record(seq: DaySequence) -> dict:
    return {
        "person_id": seq.person_id,
        "date": seq.date,
        "weekday": seq.weekday,
        "holiday": seq.holiday,
        "static": list(seq.static),
        "activities": [
            {
                "label": a.label,
                "arr": a.arr,
                "dep": a.dep,
                "mode": a.mode,
                "dist": a.dist,
                "observed": a.observed,
            }
            for a in seq.activities
        ],
    }


# A known label read from a file becomes the vocabulary's own string, so read days hold no copy of a label.
_LABELS = {label: label for label in LABEL_TO_ID}


def sequence_from_record(rec: dict) -> DaySequence:
    """The day a record holds; a field of the wrong JSON type or out of range is a ``ValueError``."""
    acts = []
    for a in rec["activities"]:
        label, arr, dep, mode = a["label"], a["arr"], a["dep"], a["mode"]
        dist, observed = a["dist"], a["observed"]
        if type(dist) is int:
            try:
                dist = float(dist)
            except OverflowError as exc:
                raise ValueError(f"activity {len(acts)}: trip distance is an integer too large "
                                 "for a float") from exc
        if not (type(arr) is type(dep) is type(mode) is int and type(dist) is float and type(observed) is bool):
            raise ValueError(f"activity {len(acts)}: arr, dep and mode must be integers, "
                             f"dist a number and observed a boolean: {a}")
        if type(label) is str:  # any other label, even an unhashable one, is refused later by ``validate``
            label = _LABELS.get(label, label)
        acts.append(Activity(label, arr, dep, mode, dist, observed))
    seq = DaySequence(
        rec["person_id"], rec["date"], rec["weekday"], rec["holiday"], tuple(rec["static"]), acts)
    if not (type(seq.person_id) is type(seq.date) is type(seq.weekday) is type(seq.holiday) is int
            and all(type(c) is int for c in seq.static)):
        raise ValueError("person_id, date, weekday, holiday and static codes must be integers")
    seq.validate()
    return seq


# ``json.dumps(rec, separators=(",", ":"))``'s bytes, without building an encoder per record
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _write_lines(path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_ENCODER.encode(rec))
            fh.write("\n")


def _read_records(path, decode) -> list:
    """``decode`` of each non-blank line's JSON value, one line at a time; a fault names the line.

    orjson parses a line first. A line that orjson refuses, whose value ``decode`` refuses, or that
    may nest deeply is read again by json, whose reading alone gives the record or the refusal. Where
    the parsers differ, orjson refuses (blank lines, NaN, a BOM, lone surrogates, bad UTF-8) or reads
    an integer beyond 64 bits as a float, which ``decode`` refuses or makes the distance json's
    integer makes. So every record read is json's, and so is every refusal.
    """
    import orjson  # not at module level: importing the package stays as cheap as without it

    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            # json refuses nesting past the recursion limit and orjson does not (3.8 even crashes on
            # objects nested 50,000 deep): a line of 256 brackets or more goes to json alone
            if raw.count(b"[") + raw.count(b"{") < 256:
                try:
                    records.append(decode(orjson.loads(raw)))
                    continue
                except (KeyError, TypeError, ValueError):
                    pass
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: line {lineno} is not UTF-8 text") from exc
            except json.JSONDecodeError as exc:  # not ``exc.colno``, which restarts past the line's newline
                raise ParseError(f"{path}: parse error at line {lineno}, column {exc.pos + 1}: "
                                 f"{exc.msg.removesuffix(' at')}") from exc
            except ValueError as exc:  # an integer of more digits than Python converts
                raise ParseError(f"{path}: parse error at line {lineno}: {exc}") from exc
            except RecursionError as exc:
                raise ParseError(f"{path}: parse error at line {lineno}: nested too deeply") from exc
            try:
                records.append(decode(record))
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}: invalid record at line {lineno}: {exc}") from exc
    return records


def write_sequences(path, sequences: Sequence[DaySequence]) -> None:
    _write_lines(path, (sequence_to_record(s) for s in sequences))


def read_sequences(path) -> list[DaySequence]:
    return _read_records(path, sequence_from_record)


def write_samples(path, samples: Sequence[RecoverySample]) -> None:
    """Persist samples as complete records plus their removed positions."""
    _write_lines(path, ({**sequence_to_record(s.complete), "removed_positions": list(s.removed_positions)}
                        for s in samples))


def _sample_from_record(rec: dict) -> RecoverySample:
    complete = sequence_from_record(rec)
    removed, n = sorted(rec["removed_positions"]), len(complete.activities)
    if not all(type(i) is int and 0 <= i < n for i in removed) or len(set(removed)) < len(removed):
        raise ValueError(f"removed positions must be distinct integers in [0, {n}): {removed}")
    return RecoverySample(complete, removed)


def read_samples(path) -> list[RecoverySample]:
    return _read_records(path, _sample_from_record)
