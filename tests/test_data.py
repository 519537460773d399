"""Masking, alignment, and the JSONL dataset format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrecover.activities import ACTIVITY_CATEGORIES, N_MODES, N_STATIC_LEVELS, N_TIME_BINS
from actrecover.data import (
    Activity,
    AlignmentError,
    DaySequence,
    ParseError,
    RecoverySample,
    align_subsequence,
    mask_sequence,
    read_samples,
    read_sequences,
    slot_fills,
    write_samples,
    write_sequences,
)


def make_sequence(labels, person_id=0, weekday=3, holiday=0):
    acts = []
    t = 1
    for label in labels:
        acts.append(Activity(label=label, arr=t, dep=t + 4, mode=1, dist=1.5, observed=True))
        t += 6
    return DaySequence(
        person_id=person_id, date=person_id, weekday=weekday, holiday=holiday,
        static=(1, 2, 3, 4), activities=acts,
    )


class TestVocabulary:
    def test_nine_label_vocabulary_is_closed(self):
        from actrecover.activities import ACTIVITY_CATEGORIES, LABEL_TO_ID

        assert len(ACTIVITY_CATEGORIES) == 9
        assert len(LABEL_TO_ID) == 9


class TestMaskSequence:
    def test_zero_removal_is_identity(self):
        seq = make_sequence(["HomeActivity", "WorkForPay", "HomeActivity"])
        sample = mask_sequence(seq, 0.0, np.random.default_rng(0))
        assert sample.removed_positions == []
        assert sample.incomplete.activities == seq.activities

    def test_full_removal_empties(self):
        seq = make_sequence(["HomeActivity", "WorkForPay"])
        sample = mask_sequence(seq, 1.0, np.random.default_rng(0))
        assert sample.incomplete.activities == []
        assert sample.removed_positions == [0, 1]

    def test_empirical_rate(self):
        rng = np.random.default_rng(42)
        total = removed = 0
        seq = make_sequence(["HomeActivity"] * 10)
        for _ in range(10_000):
            sample = mask_sequence(seq, 0.3, rng)
            total += 10
            removed += len(sample.removed_positions)
        assert removed / total == pytest.approx(0.3, abs=0.01)

    def test_deletion_reproduces_incomplete_exactly(self):
        rng = np.random.default_rng(7)
        seq = make_sequence(["HomeActivity", "EatOut", "WorkForPay", "GoShopping"])
        for _ in range(50):
            sample = mask_sequence(seq, 0.5, rng)
            removed = set(sample.removed_positions)
            kept = [a for i, a in enumerate(seq.activities) if i not in removed]
            assert kept == sample.incomplete.activities

    def test_empty_input_rejected(self):
        seq = make_sequence([])
        with pytest.raises(ValueError):
            mask_sequence(seq, 0.3, np.random.default_rng(0))

    def test_removal_rate_above_one_rejected(self):
        seq = make_sequence(["HomeActivity"])
        with pytest.raises(ValueError, match=r"p_remove out of \[0, 1\]: 1.5"):
            mask_sequence(seq, 1.5, np.random.default_rng(0))


class TestAlignSubsequence:
    def test_unique_alignment(self):
        assert align_subsequence(["A", "B"], ["A", "X", "B"]) == [0, 2]

    def test_leftmost_greedy_with_repeats(self):
        assert align_subsequence(["H", "H"], ["H", "W", "H", "H"]) == [0, 2]

    def test_empty_subsequence(self):
        assert align_subsequence([], ["A", "B"]) == []

    def test_not_a_subsequence(self):
        with pytest.raises(AlignmentError):
            align_subsequence(["B", "A"], ["A", "B"])

    def test_anchors_increasing_and_matching(self):
        rng = np.random.default_rng(11)
        labels = list("ABCD")
        for _ in range(200):
            full = [labels[i] for i in rng.integers(0, 4, size=rng.integers(1, 9))]
            keep = [x for x in full if rng.random() > 0.4]
            anchors = align_subsequence(keep, full)
            assert all(a < b for a, b in zip(anchors, anchors[1:]))
            assert all(full[a] == k for a, k in zip(anchors, keep))


class TestSlotFills:
    def test_items_between_anchors_with_ends_as_anchors(self):
        assert slot_fills(["H", "W", "E", "H", "S"], [0, 3]) == [[], ["W", "E"], ["S"]]

    def test_no_anchors_is_one_slot_holding_everything(self):
        assert slot_fills(["H", "W"], []) == [["H", "W"]]

    @settings(max_examples=200, deadline=None)
    @given(full=st.lists(st.sampled_from("HWES"), max_size=12), data=st.data())
    def test_interleaving_sub_with_its_slots_gives_back_full(self, full, data):
        keep = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
        sub = [x for x, k in zip(full, keep) if k]
        fills = slot_fills(full, align_subsequence(sub, full))
        assert len(fills) == len(sub) + 1
        rebuilt = list(fills[0])
        for item, fill in zip(sub, fills[1:]):
            rebuilt += [item, *fill]
        assert rebuilt == full


class TestDatasetIO:
    def test_sequence_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        seqs = []
        for i in range(1000):
            n = int(rng.integers(1, 6))
            labels = [
                ["HomeActivity", "WorkForPay", "EatOut", "GoShopping"][j]
                for j in rng.integers(0, 4, size=n)
            ]
            seqs.append(make_sequence(labels, person_id=i, weekday=int(rng.integers(1, 8))))
        path = tmp_path / "seqs.jsonl"
        write_sequences(path, seqs)
        assert read_sequences(path) == seqs

    def test_sample_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        seqs = [make_sequence(["HomeActivity", "WorkForPay", "HomeActivity"], person_id=i) for i in range(20)]
        samples = [mask_sequence(s, 0.4, rng) for s in seqs]
        path = tmp_path / "samples.jsonl"
        write_samples(path, samples)
        loaded = read_samples(path)
        assert loaded == samples

    def test_unobserved_activities_roundtrip(self, tmp_path):
        seq = make_sequence(["HomeActivity"])
        seq.activities.append(Activity(label="WorkForPay", observed=False))
        path = tmp_path / "hyp.jsonl"
        write_sequences(path, [seq])
        assert read_sequences(path) == [seq]

    def test_truncated_line_names_line_number(self, tmp_path):
        seq = make_sequence(["HomeActivity"])
        path = tmp_path / "bad.jsonl"
        write_sequences(path, [seq, seq])
        content = path.read_text()
        path.write_text(content[: len(content) - 20])
        with pytest.raises(ParseError, match="line 2"):
            read_sequences(path)

    def test_bad_label_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"person_id":0,"date":0,"weekday":1,"holiday":0,"static":[1,1,1,1],'
            '"activities":[{"label":"Nap","arr":1,"dep":2,"mode":1,"dist":0.0,"observed":true}]}\n'
        )
        with pytest.raises(ParseError, match="line 1"):
            read_sequences(path)

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_sequences(path) == []
        assert read_samples(path) == []


@st.composite
def drawn_activities(draw):
    label = draw(st.sampled_from(ACTIVITY_CATEGORIES))
    if not draw(st.booleans()):
        return Activity(label=label)
    arr = draw(st.integers(1, N_TIME_BINS))
    return Activity(
        label=label, arr=arr, dep=draw(st.integers(arr, N_TIME_BINS)), mode=draw(st.integers(1, N_MODES)),
        dist=draw(st.floats(0.0, 1e4, allow_nan=False)), observed=True,
    )


@st.composite
def drawn_samples(draw):
    acts = draw(st.lists(drawn_activities(), min_size=1, max_size=8))
    complete = DaySequence(
        person_id=draw(st.integers(0, 10**9)), date=draw(st.integers(0, 10**9)),
        weekday=draw(st.integers(1, 7)), holiday=draw(st.integers(0, 1)),
        static=tuple(draw(st.lists(st.integers(1, N_STATIC_LEVELS), min_size=4, max_size=4))),
        activities=acts,
    )
    return RecoverySample(complete, sorted(draw(st.sets(st.integers(0, len(acts) - 1)))))


@settings(max_examples=200, deadline=None)
@given(samples=st.lists(drawn_samples(), max_size=6))
def test_write_then_read_samples_gives_them_back(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("roundtrip") / "samples.jsonl"
    write_samples(path, samples)
    assert read_samples(path) == samples
    again = path.with_suffix(".again.jsonl")
    write_samples(again, read_samples(path))
    assert again.read_bytes() == path.read_bytes()
