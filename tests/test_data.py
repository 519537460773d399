"""Masking, alignment, and the JSONL dataset format."""

import copy
import dataclasses
import json
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrecover.activities import ACTIVITY_CATEGORIES, N_MODES, N_STATIC_LEVELS, N_TIME_BINS
from actrecover import data as data_module
from actrecover.data import (
    Activity,
    AlignmentError,
    Days,
    DaySequence,
    ParseError,
    RecoverySample,
    _read_records,
    _sample_from_record,
    align_subsequence,
    mask_sequence,
    read_days,
    read_samples,
    read_sequences,
    sequence_from_record,
    sequence_to_record,
    slot_fills,
    write_samples,
    write_sequences,
)
from actrecover.generator import default_config, generate_population, make_samples

from helpers import json_read_records


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

    def test_unobserved_codes_need_only_lie_in_range(self, tmp_path):
        seq = make_sequence(["HomeActivity"])
        seq.activities.append(Activity("WorkForPay", arr=N_TIME_BINS, dep=0, mode=N_MODES, dist=2.0))
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

    @pytest.mark.parametrize(
        "label, fault, problem",
        [  # a label is checked last: an unhashable one must not raise before the other checks
            (["x"], {"arr": 1.5}, "activity 0: arr must be an integer, not float"),
            (["x"], {"weekday": 9}, "weekday out of 1..7: 9"),
            (["x"], {}, "unhashable type: 'list'"),
            (7, {}, "unknown activity label 7"),
            ("Nap", {}, "unknown activity label 'Nap'"),
        ],
    )
    def test_a_label_is_checked_after_the_other_fields(self, tmp_path, label, fault, problem):
        rec = sequence_to_record(make_sequence(["HomeActivity"]))
        rec["activities"][0]["label"] = label
        (rec["activities"][0] if "arr" in fault else rec).update(fault)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError) as exc:
            read_sequences(path)
        assert str(exc.value).startswith(f"{path}: invalid record at line 1: {problem}")

    @pytest.mark.parametrize("edit, problem", [
        (lambda rec: rec["activities"][0].update(arr="1"), "activity 0: arr must be an integer, not string"),
        (lambda rec: rec["activities"][1].update(dep=None), "activity 1: dep must be an integer, not null"),
        (lambda rec: rec["activities"][0].update(mode=True), "activity 0: mode must be an integer, not boolean"),
        (lambda rec: rec["activities"][0].update(dist=[1.0]), "activity 0: dist must be a number, not array"),
        (lambda rec: rec["activities"][0].update(observed=1), "activity 0: observed must be a boolean, not integer"),
        (lambda rec: rec["activities"][0].update(observed="yes", arr=1.5),
         "activity 0: arr must be an integer, not float"),
        (lambda rec: rec["activities"][0].update(label=json.loads("[" * 900 + "]" * 900), dep={}),
         "activity 0: dep must be an integer, not object"),
        (lambda rec: rec.update(date=2.0), "date must be an integer, not float"),
        (lambda rec: rec.update(holiday=False), "holiday must be an integer, not boolean"),
        (lambda rec: rec.update(static=[1, "2", 3, 4]), "static[1] must be an integer, not string"),
        (lambda rec: rec.update(removed_positions=[json.loads("[" * 900 + "]" * 900)]),
         "removed positions must be integers, not array"),
    ], ids=["arr-string", "dep-null", "mode-boolean", "dist-array", "observed-integer", "first-of-two",
            "beside-a-900-deep-label", "date-float", "holiday-boolean", "static-string", "900-deep-removed"])
    def test_a_wrong_type_is_refused_naming_the_first_such_field_and_its_json_type(self, tmp_path, edit, problem):
        rec = {**sequence_to_record(make_sequence(["HomeActivity", "WorkForPay"])), "removed_positions": [1]}
        edit(rec)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError) as exc:
            read_samples(path)
        assert str(exc.value) == f"{path}: invalid record at line 1: {problem}"
        assert len(str(exc.value)) - len(str(path)) < 200

    def test_labels_read_are_the_vocabulary_s_own_strings(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_sequences(path, [make_sequence(list(ACTIVITY_CATEGORIES)) for _ in range(2)])
        read = [a.label for seq in read_sequences(path) for a in seq.activities]
        assert all(label is vocab for label, vocab in zip(read, 2 * ACTIVITY_CATEGORIES))

    def test_earlier_of_a_bad_record_and_an_unparsable_line_is_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = make_sequence(["HomeActivity"])
        write_sequences(path, [good])
        path.write_text('{"person_id": 0}\n' + path.read_text() + "{not json\n")
        with pytest.raises(ParseError, match=r"bad\.jsonl: invalid record at line 1"):
            read_sequences(path)

    def test_reading_samples_holds_one_line_at_a_time(self, tmp_path):
        cfg = default_config()
        cfg.n_days = 300
        path = tmp_path / "d.jsonl"
        write_samples(path, make_samples(generate_population(cfg, seed=2), 0.3, seed=2))
        read_samples(path)  # first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            samples = read_samples(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(samples) == 300
        # building the whole list of parsed lines first peaked at about 2.5x what is returned
        assert peak <= 1.5 * held, f"reading peaked at {peak / held:.2f}x the samples it returned"

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


# -- orjson into columns, json line by line for the rest: every line reads as json alone reads it --

def _base_records() -> list[dict]:
    cfg = default_config()
    cfg.n_days = 6
    return [{**sequence_to_record(s.complete), "removed_positions": s.removed_positions}
            for s in make_samples(generate_population(cfg, seed=5), 0.4, seed=5)]


BASE_RECORDS = _base_records()
GOOD = json.dumps(BASE_RECORDS[1], separators=(",", ":"))


@st.composite
def _digits(draw, low: int, high: int) -> str:
    """An integer of ``low`` to ``high`` digits, as JSON text; negative at times."""
    n = draw(st.integers(low, high))
    return ("-" if draw(st.booleans()) else "") + str(draw(st.integers(10 ** (n - 1), 10**n - 1)))


def _nested(depth: int, obj: bool) -> str:
    return '{"a":' * depth + "0" + "}" * depth if obj else "[" * depth + "]" * depth


EDGE_INTS = ["-0", "0", "1", "3", "-1", "1.0", "1e2", "-0.0", "true", "null",
             *map(str, [2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1])]
EDGE_FLOATS = ["-0", "-0.0", "0", "0e0", "-0e0", "NaN", "Infinity", "-Infinity", "1e400", "1e-400", "5e-324",
               "2.2250738585072011e-308", "0.1000000000000000055511151231257827", "9007199254740993",
               "1.7976931348623157e308", "1e16", "1e-05", "1" + "0" * 309, "9" * 309]
ODD_VALUES = [r'"\ud800"', r'"\udc00x"', r'"\ud83d\ude00"', '"HomeActivity"', '""', "[]", "{}", "[null]",
              '{"label":"HomeActivity"}', "1" + "0" * 5000]
# Depths on both sides of json's recursion limit and of the reader's bracket bound
DEPTHS = [1, 100, 254, 255, 256, 300, 900, 1100, 3000]
int_tokens = st.sampled_from(EDGE_INTS) | _digits(1, 3) | _digits(18, 21) | _digits(20, 309)
dist_tokens = (st.sampled_from(EDGE_FLOATS) | _digits(20, 309) | _digits(300, 330)
               | st.floats(0, 1e300, allow_nan=False).map(repr)
               | st.builds("{}.{}e{}".format, st.integers(0, 10**25), st.integers(0, 10**25), st.integers(-330, 310)))
odd_tokens = (int_tokens | dist_tokens | st.sampled_from(ODD_VALUES)
              | st.builds(_nested, st.sampled_from(DEPTHS), st.booleans()))
BLANK_LINES = [b"\n", b"\r\n", b"\x0c\n", b"\x1c\n", b" \t \n", b"\x0b\n", "\u3000\n".encode(), "\x85\n".encode(),
               b"\xef\xbb\xbf\n", b"\r"]
BYTES = [b"\x80", b"\xff", b"\xed\xa0\x80", b"\xc0\x80", b"\xf4\x90\x80\x80", b"\x00", b"\x0c", b"\x1c", b"\r",
         b"\t", b" ", b"\xc2\xa0", b"\xe3\x80\x80", b'"', b"{", b"[", b"]", b",", b":", b"\\", b"-", b"e", b"0"]


@st.composite
def data_lines(draw) -> bytes:
    """A gen record as a JSON line after up to three edits, each a field set to a drawn JSON text
    (an edge integer, an edge distance, an odd value, a deep nesting) or an unknown or duplicate key
    holding one; then at times a BOM, a cut or a few inserted bytes; and a line end. Or a blank line."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(BLANK_LINES))
    rec = copy.deepcopy(draw(st.sampled_from(BASE_RECORDS)))
    tokens = {}

    def put(obj, key, token: str) -> None:  # json.dumps writes "@i@", which becomes the token's text
        tokens[f'"@{len(tokens)}@"'] = token
        obj[key] = f"@{len(tokens) - 1}@"

    for _ in range(draw(st.integers(0, 3))):
        # an earlier edit may have put a token in place of the activities, or of the lists below
        acts = [a for a in rec["activities"] if type(a) is dict] if type(rec["activities"]) is list else []
        act = draw(st.sampled_from(acts)) if acts else rec
        edit = draw(st.sampled_from(("int", "dist", "odd", "key", "deep")))
        if edit == "int":
            lists = [rec[k] for k in ("static", "removed_positions") if type(rec[k]) is list]
            obj, key = draw(st.sampled_from([(rec, k) for k in ("person_id", "date", "weekday", "holiday")]
                                            + [(act, k) for k in ("arr", "dep", "mode")]
                                            + [(items, i) for items in lists for i in range(len(items))]))
            put(obj, key, draw(int_tokens))
        elif edit == "dist":
            put(act, "dist", draw(dist_tokens))
        elif edit == "odd":
            obj = draw(st.sampled_from((rec, act)))
            put(obj, draw(st.sampled_from(sorted(obj))), draw(odd_tokens))
        elif edit == "deep":
            depth = draw(st.sampled_from(DEPTHS))
            put(draw(st.sampled_from((rec, act))), "bogus", _nested(depth, draw(st.booleans())))
        else:  # an unknown key, or a key again: after the first, its value is the one read
            obj = draw(st.sampled_from((rec, act)))
            name = draw(st.sampled_from(("bogus", "")) | st.sampled_from(sorted(obj)))
            tokens[f'"@key{len(tokens)}@"'] = json.dumps(name)
            put(obj, f"@key{len(tokens) - 1}@", draw(odd_tokens))
    text = json.dumps(rec, separators=draw(st.sampled_from(((",", ":"), (", ", ": ")))))
    for placeholder, token in tokens.items():
        text = text.replace(placeholder, token, 1)
    line = text.encode()
    if draw(st.integers(0, 9)) == 0:
        line = b"\xef\xbb\xbf" + line
    if draw(st.integers(0, 4)) == 0:
        line = line[: draw(st.integers(0, len(line)))]
    for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 3)) == 0 else 0):
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from(BYTES) | st.binary(min_size=1, max_size=2)) + line[at:]
    return line + draw(st.sampled_from((b"\n", b"\r\n", b"")))


def _reading(read, path, decode) -> str:
    """What ``read`` makes of ``path``: the repr of its records, which tells floats apart bit for bit
    (``-0.0`` from ``0.0``) and ``1`` from ``1.0`` and ``True``, or its refusal's text."""
    try:
        return repr(read(path, decode))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _json_reading(path, decode) -> str:
    """``_reading`` of json alone, a JSON syntax error's refusal in today's form: with the column,
    and without json's trailing `` at``."""
    try:
        return repr(json_read_records(path, decode))
    except ParseError as exc:
        cause = exc.__cause__
        if type(cause) is json.JSONDecodeError:
            head = str(exc).removesuffix(f": {cause.msg}")
            return f"ParseError: {head}, column {cause.pos + 1}: {cause.msg.removesuffix(' at')}"
        return f"ParseError: {exc}"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestTwoParsers:
    """The columnar reader, which parses with orjson, and ``_read_records`` behind it, which parses with
    json, read every line as json alone reads it: the same records, or the same refusal but for a syntax
    error's column, which ``_read_records`` adds."""

    @staticmethod
    def assert_read_as_json_reads(path) -> None:
        """The scalar reader and the columnar one, whose days ``read_sequences`` and ``read_samples``
        build, both read ``path`` as json alone does."""
        for decode, read in ((sequence_from_record, read_sequences), (_sample_from_record, read_samples)):
            expected = _json_reading(path, decode)
            assert _reading(_read_records, path, decode) == expected
            assert _reading(lambda p, _: read(p), path, decode) == expected

    @pytest.fixture(scope="class")
    def line_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("parsers") / "lines.jsonl"

    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(data_lines(), min_size=1, max_size=3))
    def test_drawn_lines(self, line_file, lines):
        line_file.write_bytes(b"".join(lines))
        self.assert_read_as_json_reads(line_file)

    @pytest.mark.parametrize("line", [
        "\ufeff" + GOOD, GOOD.replace('"dist":', '"dist":NaN,"x":', 1),
        GOOD.replace('"dist":', '"dist":Infinity,"x":', 1), GOOD.replace('"dist":', '"dist":-0,"x":', 1),
        GOOD.replace('"dist":', f'"dist":{"7" * 300},"x":', 1), GOOD.replace('"date":', f'"date":{10**20},"x":', 1),
        GOOD.replace('"person_id":', f'"person_id":{2**64 - 1},"x":', 1),
        GOOD.replace('"weekday":', '"weekday":-0,"x":', 1), GOOD[:-1] + r',"bogus":"\ud800"}',
        GOOD[:-1] + f',"bogus":{"1" * 5000}}}', GOOD[:-1] + ',"bogus":NaN}', GOOD[:-1] + ',"weekday":5}',
        GOOD[:-1] + f',"bogus":{_nested(950, True)}}}', GOOD[:-1] + f',"bogus":{_nested(950, False)}}}',
        GOOD[:-1] + f',"bogus":{_nested(100_000, True)}}}', GOOD.replace('"observed":true', '"observed":1', 1),
        GOOD.replace('"arr":1,', '"arr":true,', 1), GOOD.replace('"weekday":1,', '"weekday":true,', 1),
        GOOD.replace('"mode":1,', '"mode":1.0,', 1),
    ], ids=["bom", "nan", "infinity", "minus-0-dist", "300-digit-dist", "20-digit-date", "u64-person-id",
            "minus-0-weekday", "lone-surrogate", "5000-digits", "unknown-nan", "duplicate-key",
            "950-deep-objects", "950-deep-arrays", "100000-deep-objects", "observed-one", "arr-true",
            "weekday-true", "mode-float"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("blank", ["\x0c", ""], ids=["blank-lines", "no-blank-lines"])
    def test_edge_lines(self, tmp_path, line, end, blank):
        """Each edge line as line 2 of three, the others good, with form-feed blank lines around them or
        without: both readers skip those, so the file is left to the columnar reader unless the edge
        line sends it to the scalar one."""
        path = tmp_path / "edge.jsonl"
        around = f"{blank}{end}" if blank else ""
        path.write_bytes(f"{GOOD}{end}{around}{line}{end}{around}{GOOD}{end}".encode())
        self.assert_read_as_json_reads(path)


def assert_same_columns(got: Days, want: Days) -> None:
    """Equal columns, of equal dtypes, floats bit for bit; equal day fields, of equal types."""
    for name in (f.name for f in dataclasses.fields(Days)):
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        else:
            assert repr(a) == repr(b), name


# Valid lines that the columnar reader leaves to the scalar one, each reading as the line it edits does
UNUSUAL_LINES = {
    # blank to ``str.strip``, but not ASCII whitespace, which is all the columnar reader skips
    "ideographic-space-blank-line": lambda line: line + "\n\u3000",
    "file-separator-blank-line": lambda line: line + "\n\x1c",
    "300-deep-unknown-key": lambda line: line[:-1] + f',"bogus":{_nested(300, False)}}}',
    "nan-in-unknown-key": lambda line: line[:-1] + ',"bogus":NaN}',
    "lone-surrogate-in-unknown-key": lambda line: line[:-1] + r',"bogus":"\ud800"}',
    "integer-beyond-floats-in-unknown-key": lambda line: line[:-1] + f',"bogus":{10**400}}}',
    # a samples file's removed positions out of order: the scalar reader sorts them
    "unsorted-removed-positions": lambda line: line.replace('"removed_positions":[0,3,5,6]',
                                                            '"removed_positions":[6,0,3,5]'),
}


# Integer distances beyond 2**53, which numpy must round to the float that ``float`` makes of each
BIG_DISTANCES = [2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1]


class TestColumnarReader:
    @pytest.fixture(scope="class")
    def good_lines(self):
        return [json.dumps(rec, separators=(",", ":")) for rec in BASE_RECORDS]

    @pytest.fixture
    def scalar_reads(self, monkeypatch):
        """The arguments of each call ``read_days`` makes to the scalar reader."""
        reads = []
        monkeypatch.setattr(data_module, "_read_records", lambda *args: reads.append(args) or _read_records(*args))
        return reads

    @pytest.mark.parametrize("kind, samples", [*((kind, True) for kind in sorted(UNUSUAL_LINES)),
                                               *((kind, False) for kind in sorted(UNUSUAL_LINES) if "removed" not in kind)])
    def test_an_unusual_line_reads_through_the_scalar_reader_to_the_same_columns(
        self, tmp_path, scalar_reads, good_lines, kind, samples
    ):
        good, unusual = tmp_path / "good.jsonl", tmp_path / "unusual.jsonl"
        good.write_text("\n".join(good_lines) + "\n")
        lines = list(good_lines)
        lines[3] = UNUSUAL_LINES[kind](lines[3])
        assert lines[3] != good_lines[3]
        unusual.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = read_days(good, samples)
        assert scalar_reads == []
        got = read_days(unusual, samples)
        assert len(scalar_reads) == 1
        assert_same_columns(got, want)

    @pytest.mark.parametrize("samples", [True, False], ids=["samples", "sequences"])
    def test_ascii_blank_lines_and_integer_distances_read_through_the_columns(self, tmp_path, scalar_reads, samples):
        """A file whose whole distances are written as integers, with blank lines of ASCII whitespace
        between its lines and a block of nothing else, reads to the columns of the plain file."""
        plain = copy.deepcopy(BASE_RECORDS)
        assert len(plain[2]["activities"]) >= len(BIG_DISTANCES)
        for act, big in zip(plain[2]["activities"], BIG_DISTANCES):
            act["dist"] = float(big)
        odd = copy.deepcopy(plain)
        for act in (act for rec in odd for act in rec["activities"]):
            if act["dist"].is_integer():
                act["dist"] = int(act["dist"])
        for act, big in zip(odd[2]["activities"], BIG_DISTANCES):
            act["dist"] = big
        blanks = ["", " \t", "\x0c", "\r", "\x0b", "\n" * 40_000]  # 40,000 blank lines fill a block or more
        plain_path, odd_path = tmp_path / "plain.jsonl", tmp_path / "odd.jsonl"
        plain_path.write_text("".join(json.dumps(rec) + "\n" for rec in plain))
        odd_path.write_text("".join(f"{blanks[i % len(blanks)]}\n{json.dumps(rec)}\n" for i, rec in enumerate(odd)))
        assert '"dist": 0,' in odd_path.read_text()
        assert_same_columns(read_days(odd_path, samples), read_days(plain_path, samples))
        assert scalar_reads == []

    def test_the_scalar_reader_parses_with_json_alone(self, tmp_path, monkeypatch, good_lines, scalar_reads):
        """Over a file the columnar reader leaves to it, the scalar reader never calls orjson."""
        lines = list(good_lines)
        lines[3] = UNUSUAL_LINES["nan-in-unknown-key"](lines[3])
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        read_days(path, True)
        assert len(scalar_reads) == 1
        parsed = []
        monkeypatch.setattr(orjson, "loads", lambda raw, loads=orjson.loads: parsed.append(raw) or loads(raw))
        for decode in (sequence_from_record, _sample_from_record):
            assert repr(_read_records(path, decode)) == repr(json_read_records(path, decode))
        assert parsed == []

    def test_a_day_read_from_columns_is_the_day_its_record_holds(self, tmp_path, good_lines):
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(good_lines) + "\n")
        assert read_samples(path) == [_sample_from_record(rec) for rec in BASE_RECORDS]
        assert read_sequences(path) == [sequence_from_record(rec) for rec in BASE_RECORDS]
        samples = read_samples(path)
        assert_same_columns(read_days(path, True), Days.of([s.complete for s in samples],
                                                           [s.removed_positions for s in samples]))
