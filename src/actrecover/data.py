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
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .activities import (
    ACTIVITY_CATEGORIES,
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
        try:
            j = full.index(label, j)
        except ValueError:
            raise AlignmentError(f"element {i} ({label!r}) has no match left in the full sequence") from None
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


_JSON_TYPES = {str: "string", int: "integer", float: "float", bool: "boolean", list: "array", dict: "object",
               type(None): "null"}


def _wrong_type(fields) -> str:
    """The first of ``fields`` (name, value, type, what it must be) whose value is not of its type, named
    with the JSON type read; not the value, which may nest deeply."""
    name, value, wanted = next((name, value, wanted) for name, value, kind, wanted in fields if type(value) is not kind)
    return f"{name} must be {wanted}, not {_JSON_TYPES.get(type(value), type(value).__name__)}"


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
            raise ValueError(f"activity {len(acts)}: " + _wrong_type((
                ("arr", arr, int, "an integer"), ("dep", dep, int, "an integer"), ("mode", mode, int, "an integer"),
                ("dist", dist, float, "a number"), ("observed", observed, bool, "a boolean"))))
        if type(label) is str:  # any other label, even an unhashable one, is refused later by ``validate``
            label = _LABELS.get(label, label)
        acts.append(Activity(label, arr, dep, mode, dist, observed))
    seq = DaySequence(
        rec["person_id"], rec["date"], rec["weekday"], rec["holiday"], tuple(rec["static"]), acts)
    if not (type(seq.person_id) is type(seq.date) is type(seq.weekday) is type(seq.holiday) is int
            and all(type(c) is int for c in seq.static)):
        raise ValueError(_wrong_type((
            *((name, getattr(seq, name), int, "an integer") for name in ("person_id", "date", "weekday", "holiday")),
            *((f"static[{i}]", c, int, "an integer") for i, c in enumerate(seq.static)))))
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
    """``decode`` of each non-blank line's JSON value, parsed by json one line at a time; a fault names the line."""
    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
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


@dataclass(slots=True, eq=False)
class Days:
    """Days as columns: the form a data file is read into, which scoring reads without day objects.

    Day ``i``'s activities are rows ``offsets[i]:offsets[i + 1]`` of the per-activity columns: label
    ids, ``arr``, ``dep`` and ``mode`` (int64), ``dist`` (float64) and ``observed`` (bool). The day
    fields are Python ints, so ids of any size keep; ``static`` is (days, 4) int64. A samples file's
    days also hold their sorted removed positions, a sequences file's ``removed`` is None.
    """

    labels: np.ndarray
    arr: np.ndarray
    dep: np.ndarray
    mode: np.ndarray
    dist: np.ndarray
    observed: np.ndarray
    offsets: np.ndarray
    person_id: list[int]
    date: list[int]
    weekday: list[int]
    holiday: list[int]
    static: np.ndarray
    removed: list[list[int]] | None = None

    def __len__(self) -> int:
        return len(self.person_id)

    @classmethod
    def of(cls, days: Sequence[DaySequence], removed: list[list[int]] | None = None) -> "Days":
        """The columns of ``days``, with each sample's sorted ``removed`` positions if they are samples."""
        acts = [a for day in days for a in day.activities]
        return cls(
            np.array([LABEL_TO_ID[a.label] for a in acts], dtype=np.int64),
            *(np.array([getattr(a, name) for a in acts], dtype=np.int64) for name in ("arr", "dep", "mode")),
            np.array([a.dist for a in acts], dtype=np.float64),
            np.array([a.observed for a in acts], dtype=bool),
            np.cumsum([0, *map(len, days)], dtype=np.int64),
            *([getattr(day, name) for day in days] for name in ("person_id", "date", "weekday", "holiday")),
            np.array([day.static for day in days], dtype=np.int64).reshape(-1, 4),
            removed,
        )

    def inputs(self) -> tuple[np.ndarray, np.ndarray]:
        """The label ids and day offsets of a samples file's inputs: each day without its removed positions."""
        keep = np.ones(len(self.labels), dtype=bool)
        removed = np.fromiter(chain.from_iterable(self.removed), dtype=np.int64)
        keep[np.repeat(self.offsets[:-1], list(map(len, self.removed))) + removed] = False
        return self.labels[keep], np.concatenate([[0], np.cumsum(keep)])[self.offsets]

    def sequences(self) -> list[DaySequence]:
        acts = list(map(Activity, map(ACTIVITY_CATEGORIES.__getitem__, self.labels.tolist()), self.arr.tolist(),
                        self.dep.tolist(), self.mode.tolist(), self.dist.tolist(), self.observed.tolist()))
        bounds = self.offsets.tolist()
        return list(map(DaySequence, self.person_id, self.date, self.weekday, self.holiday,
                        map(tuple, self.static.tolist()), map(acts.__getitem__, map(slice, bounds, bounds[1:]))))

    def samples(self) -> list[RecoverySample]:
        return list(map(RecoverySample, self.sequences(), self.removed))


_DAY_KEYS = ("person_id", "date", "weekday", "holiday", "static", "removed_positions")
_ACTIVITY_KEYS = ("arr", "dep", "mode", "dist", "observed")
_FIELD = {key: operator.itemgetter(key) for key in ("label", "activities", *_DAY_KEYS, *_ACTIVITY_KEYS)}
_BLOCK = 1 << 14  # bytes of lines parsed at a time: few parsed records are held at once
# json refuses nesting past the recursion limit and orjson does not (3.8 even crashes on objects nested
# 50,000 deep): a file with a line of this many brackets or more is left to the scalar reader
_DEEP = 256
_NOT_BRACKETS = bytes(range(256)).translate(None, b"[{\n")  # the bytes dropped to count each line's brackets


def _only(values, *kinds) -> bool:
    """Every one of ``values`` is exactly one of ``kinds``: an int field takes no bool, which numpy would."""
    return set(map(type, values)) <= set(kinds)


def _read_columns(path, samples: bool) -> Days | None:
    """``path``'s days as columns, parsed by orjson and checked column by column.

    Lines of ASCII whitespace are skipped, and an integer distance becomes its float. None if a line
    may nest deeply, or if orjson or any check refuses anything, or if a sample's removed positions
    are out of order: the scalar reader then reads the file, to the refusal or to the days of a valid
    but unusual line (a value only json parses, say, or a blank line of other whitespace).
    """
    import orjson  # not at module level: importing the package stays as cheap as without it

    day_keys = _DAY_KEYS if samples else _DAY_KEYS[:-1]
    col = {key: [] for key in ("label", "sizes", *day_keys, *_ACTIVITY_KEYS)}
    try:
        with open(path, "rb") as fh:
            for lines in iter(lambda: fh.readlines(_BLOCK), []):
                lines = [line for line in lines if not line.isspace()]
                if max(map(len, b"".join(lines).translate(None, _NOT_BRACKETS).split(b"\n"))) >= _DEEP:
                    return None
                records = list(map(orjson.loads, lines))
                acts = list(map(_FIELD["activities"], records))
                if not _only(acts, list):  # the scalar reader takes, say, an empty object as a day of no activities
                    return None
                col["sizes"] += map(len, acts)
                acts = list(chain.from_iterable(acts))
                col["label"] += map(LABEL_TO_ID.__getitem__, map(_FIELD["label"], acts))
                for keys, rows in ((day_keys, records), (_ACTIVITY_KEYS, acts)):
                    for key in keys:
                        col[key] += map(_FIELD[key], rows)
        n, static, removed = len(col["label"]), col["static"], col.get("removed_positions", [])
        if not (_only(chain(*(col[key] for key in ("arr", "dep", "mode", "person_id", "date", "weekday", "holiday"))),
                      int)
                and _only(col["dist"], float, int) and _only(col["observed"], bool) and _only(static, list)
                and set(map(len, static)) <= {4} and _only(chain.from_iterable(static), int)
                and set(col["weekday"]) <= set(range(1, 8)) and set(col["holiday"]) <= {0, 1}
                and _only(removed, list) and _only(chain.from_iterable(removed), int)):
            return None
        days = Days(*(np.fromiter(col[key], np.int64, n) for key in ("label", "arr", "dep", "mode")),
                    np.fromiter(col["dist"], np.float64, n), np.fromiter(col["observed"], bool, n),
                    np.cumsum([0, *col["sizes"]], dtype=np.int64),
                    col["person_id"], col["date"], col["weekday"], col["holiday"],
                    np.fromiter(chain.from_iterable(static), np.int64, 4 * len(static)).reshape(-1, 4),
                    removed if samples else None)
        day = np.repeat(np.arange(len(removed)), list(map(len, removed)))
        at = np.fromiter(chain.from_iterable(removed), np.int64, len(day))
    except (KeyError, TypeError, ValueError, OverflowError):  # OverflowError: an integer beyond int64
        return None
    low = days.observed.astype(np.int64)  # an unobserved activity's codes may be MISSING_CODE
    ok = ((low <= days.arr) & (days.arr <= N_TIME_BINS) & (low <= days.dep) & (days.dep <= N_TIME_BINS)
          & (~days.observed | (days.arr <= days.dep)) & (low <= days.mode) & (days.mode <= N_MODES)
          & np.isfinite(days.dist) & (days.dist >= 0)).all()
    ok &= ((1 <= days.static) & (days.static <= N_STATIC_LEVELS)).all()
    # each day's removed positions inside it and increasing: sorted and distinct, as the scalar reader keeps them
    ok &= ((0 <= at) & (at < np.diff(days.offsets)[day])).all() and ((at[1:] > at[:-1]) | (day[1:] != day[:-1])).all()
    return days if ok else None


def read_days(path, samples: bool = False) -> Days:
    """``path``'s days as columns: by ``_read_columns``, or else from the days ``_read_records`` reads with json."""
    days = _read_columns(path, samples)
    if days is None:
        if samples:
            records = _read_records(path, _sample_from_record)
            days = Days.of([s.complete for s in records], [s.removed_positions for s in records])
        else:
            days = Days.of(_read_records(path, sequence_from_record))
    return days


def write_sequences(path, sequences: Sequence[DaySequence]) -> None:
    _write_lines(path, (sequence_to_record(s) for s in sequences))


def read_sequences(path) -> list[DaySequence]:
    return read_days(path, samples=False).sequences()


def write_samples(path, samples: Sequence[RecoverySample]) -> None:
    """Persist samples as complete records plus their removed positions."""
    _write_lines(path, ({**sequence_to_record(s.complete), "removed_positions": list(s.removed_positions)}
                        for s in samples))


def _sample_from_record(rec: dict) -> RecoverySample:
    complete = sequence_from_record(rec)
    removed, n = sorted(rec["removed_positions"]), len(complete.activities)
    if not all(type(i) is int for i in removed):
        raise ValueError(_wrong_type(("removed positions", i, int, "integers") for i in removed))
    if not all(0 <= i < n for i in removed) or len(set(removed)) < len(removed):
        raise ValueError(f"removed positions must be distinct integers in [0, {n}): {removed}")
    return RecoverySample(complete, removed)


def read_samples(path) -> list[RecoverySample]:
    return read_days(path, samples=True).samples()
