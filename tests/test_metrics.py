"""Metric definitions against hand computations and a brute-force oracle.

The oracle in this file recomputes every quantity with explicit loops and
dict counting — including its own subsequence alignment — sharing no code
with the library implementation.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrecover.activities import ACTIVITY_CATEGORIES, LABEL_TO_ID
from actrecover.cli import main
from actrecover.data import (
    Activity,
    AlignmentError,
    DaySequence,
    RecoverySample,
    align_subsequence,
    read_days,
    slot_fills,
    write_samples,
    write_sequences,
)
from actrecover.metrics import (
    InputSide,
    TransitionTable,
    activity_distribution,
    compare_transitions,
    evaluate,
    insertion_pattern_topk,
    order_independent_metrics,
    position_metrics,
    precision_recall_f1,
    score,
    top_patterns,
    transition_analysis,
)

from helpers import (
    label_activity_distribution,
    label_evaluate,
    label_insertion_pattern_topk,
    label_transition_analysis,
    list_overlap,
    loop_align_subsequence,
    loop_compare_transitions,
)

H, W, E, S = "HomeActivity", "WorkForPay", "EatOut", "GoShopping"


def seq_of(labels) -> DaySequence:
    return DaySequence(
        person_id=0, date=0, weekday=3, holiday=0, static=(1, 1, 1, 1),
        activities=[Activity(label=l) for l in labels],
    )


def sample_of(complete_labels, removed_positions) -> RecoverySample:
    return RecoverySample(seq_of(complete_labels), sorted(removed_positions))


# -- independent oracle -------------------------------------------------------

def oracle_align(sub, full):
    anchors, j = [], 0
    for x in sub:
        while full[j] != x:
            j += 1
        anchors.append(j)
        j += 1
    return anchors


def oracle_extras(source, full):
    """(slot, label) of every non-anchored token, walking positions."""
    anchor_set = set(oracle_align(source, full))
    extras, slot = [], 0
    for pos, label in enumerate(full):
        if pos in anchor_set:
            slot += 1
        else:
            extras.append((slot, label))
    return extras


def oracle_reports(samples, hypotheses):
    total_ins = total_rem = strict = oi = 0
    pcts, missing_pcts = [], []
    ins_label_totals, rem_label_totals = {}, {}
    for smp, hyp in zip(samples, hypotheses):
        inc = [a.label for a in smp.incomplete.activities]
        comp = [a.label for a in smp.complete.activities]
        hyp_labels = [a.label for a in hyp.activities]
        ins = oracle_extras(inc, hyp_labels)
        rem = oracle_extras(inc, comp)
        loc = 0
        for slot in set(s for s, _ in ins):
            loc += min(sum(1 for s, _ in ins if s == slot), sum(1 for s, _ in rem if s == slot))
        for key in set(ins):
            strict += min(ins.count(key), rem.count(key))
        if not ins:
            pct = 1.0 if not rem else 0.0
        else:
            pct = loc / len(ins)
        pcts.append(pct)
        if rem:
            missing_pcts.append(pct)
        total_ins += len(ins)
        total_rem += len(rem)
        for _, label in ins:
            ins_label_totals[label] = ins_label_totals.get(label, 0) + 1
        for _, label in rem:
            rem_label_totals[label] = rem_label_totals.get(label, 0) + 1
    for label in ins_label_totals:
        oi += min(ins_label_totals[label], rem_label_totals.get(label, 0))
    return {
        "total_inserted": total_ins,
        "total_removed": total_rem,
        "correct_inserted": strict,
        "oi_correct": oi,
        "avg_pct": sum(pcts) / len(pcts) if pcts else 0.0,
        "avg_pct_missing": sum(missing_pcts) / len(missing_pcts) if missing_pcts else 0.0,
    }


def oracle_pairs(labels):
    pairs = {}
    for a, b in zip(labels, labels[1:]):
        pairs[(a, b)] = pairs.get((a, b), 0) + 1
    return pairs


def random_triples(rng, count, n_max=6, n_labels=4):
    labels = ACTIVITY_CATEGORIES[:n_labels]
    triples = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        comp = [labels[i] for i in rng.integers(0, n_labels, size=n)]
        removed = [i for i in range(n) if rng.random() < 0.45]
        smp = sample_of(comp, removed)
        hyp_labels = [a.label for a in smp.incomplete.activities]
        for _ in range(int(rng.integers(0, 4))):
            pos = int(rng.integers(0, len(hyp_labels) + 1))
            hyp_labels.insert(pos, labels[int(rng.integers(0, n_labels))])
        triples.append((smp, seq_of(hyp_labels)))
    return triples


class TestRatioArithmetic:
    @pytest.mark.parametrize(
        "correct,inserted,removed,expected",
        [
            (807, 4883, 5757, (0.165, 0.140, 0.152)),
            (1809, 4883, 5757, (0.370, 0.314, 0.340)),
            (459, 2106, 5757, (0.218, 0.080, 0.117)),
            (925, 2106, 5757, (0.439, 0.161, 0.235)),
        ],
    )
    def test_reference_count_ratios(self, correct, inserted, removed, expected):
        p, r, f1 = precision_recall_f1(correct, inserted, removed)
        assert (round(p, 3), round(r, 3), round(f1, 3)) == expected

    def test_zero_denominators(self):
        assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)
        assert precision_recall_f1(0, 5, 0) == (0.0, 0.0, 0.0)


class TestPositionMetrics:
    def test_perfect_single_insertion(self):
        smp = sample_of([H, W, H], [1])
        report = position_metrics([smp], [seq_of([H, W, H])])
        assert report.avg_correct_location_pct == 1.0
        assert report.correct_inserted == 1
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_wrong_slot_right_label_scores_zero_positionally(self):
        smp = sample_of([W, H, H], [0])
        report = evaluate([smp], [seq_of([H, W, H])])
        assert report.correct_inserted == 0
        assert report.oi_correct == 1

    def test_empty_action_sample_scores_one_only_without_removal(self):
        no_removal = sample_of([H, W], [])
        with_removal = sample_of([H, W, E], [2])
        hyps = [seq_of([H, W]), seq_of([H, W])]
        report = position_metrics([no_removal, with_removal], hyps)
        assert report.avg_correct_location_pct == pytest.approx(0.5)  # mean of 1.0 and 0.0
        assert report.avg_correct_location_pct_missing_only == 0.0

    def test_averages(self):
        smp = sample_of([H, W, H], [1])
        report = position_metrics([smp], [seq_of([H, W, H, E])])
        assert report.avg_daily_hypothesis == 4.0
        assert report.avg_daily_target == 3.0

    def test_hypothesis_must_contain_source(self):
        smp = sample_of([H, W], [])
        with pytest.raises(Exception, match="no match"):
            position_metrics([smp], [seq_of([E])])


class TestOrderIndependentMetrics:
    def test_pooled_across_samples(self):
        # W removed in one sample, inserted in the other: pooling counts it
        smp_a = sample_of([W, H], [0])
        smp_b = sample_of([H, H], [])
        hyps = [seq_of([H]), seq_of([H, W, H])]
        report = order_independent_metrics([smp_a, smp_b], hyps)
        assert report.oi_correct == 1
        assert report.total_inserted == 1 and report.total_removed == 1

    def test_perfect_recovery_recall_one(self):
        rng = np.random.default_rng(0)
        samples = [sample_of([H, W, E, S][: int(rng.integers(2, 5))], [0]) for _ in range(10)]
        hyps = [replace(s.complete) for s in samples]
        report = evaluate(samples, hyps)
        assert report.recall == 1.0 and report.oi_recall == 1.0
        assert report.avg_correct_location_pct == 1.0


@st.composite
def drawn_triples(draw, n_hypotheses=1, n_labels=4):
    """A drawn day and removal, and ``n_hypotheses`` hypotheses of drawn insertions: (sample, *hypotheses).

    Labels come from the first ``n_labels`` categories; fewer labels make more repeats."""
    labels = st.sampled_from(ACTIVITY_CATEGORIES[:n_labels])
    comp = draw(st.lists(labels, min_size=1, max_size=8))
    smp = sample_of(comp, draw(st.sets(st.integers(0, len(comp) - 1))))
    hyps = []
    for _ in range(n_hypotheses):
        hyp = smp.incomplete.labels()
        for _ in range(draw(st.integers(0, 4))):
            hyp.insert(draw(st.integers(0, len(hyp))), draw(labels))
        hyps.append(seq_of(hyp))
    return (smp, *hyps)


def assert_matches_oracle(samples, hyps):
    report = evaluate(samples, hyps)
    oracle = oracle_reports(samples, hyps)
    assert report.total_inserted == oracle["total_inserted"]
    assert report.total_removed == oracle["total_removed"]
    assert report.correct_inserted == oracle["correct_inserted"]
    assert report.oi_correct == oracle["oi_correct"]
    assert report.avg_correct_location_pct == pytest.approx(oracle["avg_pct"], abs=1e-12)
    assert report.avg_correct_location_pct_missing_only == pytest.approx(oracle["avg_pct_missing"], abs=1e-12)


class TestOracleEquivalence:
    def test_five_hundred_random_triples(self):
        triples = random_triples(np.random.default_rng(1234), 500)
        assert_matches_oracle([t[0] for t in triples], [t[1] for t in triples])

    @settings(max_examples=300, deadline=None)
    @given(triples=st.lists(drawn_triples(), min_size=1, max_size=10))
    def test_drawn_triples(self, triples):
        assert_matches_oracle([t[0] for t in triples], [t[1] for t in triples])

    def test_dominance_chain(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            triples = random_triples(rng, 10)
            report = evaluate([t[0] for t in triples], [t[1] for t in triples])
            assert report.correct_inserted <= report.oi_correct
            assert report.oi_correct <= min(report.total_inserted, report.total_removed)


class TestFrozenReferences:
    @settings(max_examples=200, deadline=None)
    @given(triples=st.lists(drawn_triples(n_labels=2), min_size=1, max_size=10))
    def test_overlap_counts_equal_the_list_walk(self, triples):
        samples, hyps = [t[0] for t in triples], [t[1] for t in triples]
        correct, inserted, removed = 0, [], []
        for smp, hyp in zip(samples, hyps):
            source = smp.incomplete.labels()
            lost, fills = (slot_fills(full, align_subsequence(source, full))
                           for full in (smp.complete.labels(), hyp.labels()))
            correct += sum(list_overlap(fill, owed) for fill, owed in zip(fills, lost))
            inserted += [label for fill in fills for label in fill]
            removed += [label for owed in lost for label in owed]
        report = evaluate(samples, hyps)
        assert report.correct_inserted == correct
        assert report.oi_correct == list_overlap(inserted, removed)

    @settings(max_examples=200, deadline=None)
    @given(tables=st.lists(st.lists(st.integers(0, 3), min_size=81, max_size=81), min_size=3, max_size=3))
    def test_compare_equals_the_per_cell_loop(self, tables):
        broken, inserted_a, inserted_b = (np.array(t, dtype=int).reshape(9, 9) for t in tables)
        table_a = TransitionTable(broken=broken, inserted=inserted_a)
        table_b = TransitionTable(broken=broken.copy(), inserted=inserted_b)
        got = compare_transitions(table_a, table_b)
        assert got == loop_compare_transitions(table_a, table_b)
        assert {type(v) for v in (got["wins_a"], got["wins_b"], got["ties"])} == {int}
        assert {type(v) for cell in got["cells"] for v in cell.values()} == {str, int}


class TestCompareParity:
    @settings(max_examples=100, deadline=None)
    @given(triples=st.lists(drawn_triples(n_hypotheses=2), min_size=1, max_size=10))
    def test_compare_equals_each_file_scored_on_its_own(self, triples):
        samples, hyp_a, hyp_b = (list(t) for t in zip(*triples))
        with tempfile.TemporaryDirectory() as tmp:
            data, a, b, out = (Path(tmp) / name for name in ("d.jsonl", "a.jsonl", "b.jsonl", "cmp.json"))
            write_samples(data, samples)
            write_sequences(a, hyp_a)
            write_sequences(b, hyp_b)
            assert main(["compare", "--data", str(data), "--hyp-a", str(a), "--hyp-b", str(b),
                         "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
        verdicts = compare_transitions(transition_analysis(samples, hyp_a), transition_analysis(samples, hyp_b))
        assert payload == {
            "metrics_a": evaluate(samples, hyp_a).to_json_dict(),
            "metrics_b": evaluate(samples, hyp_b).to_json_dict(),
            "transition_wins_a": verdicts["wins_a"],
            "transition_wins_b": verdicts["wins_b"],
            "transition_ties": verdicts["ties"],
            "cells": verdicts["cells"],
        }


class TestDistributionsAndPatterns:
    def test_distribution_counts(self):
        counts = activity_distribution([seq_of([H, W, H])])
        assert counts[H] == 2 and counts[W] == 1
        assert sum(counts.values()) == 3

    def test_distribution_empty(self):
        counts = activity_distribution([])
        assert set(counts) == set(ACTIVITY_CATEGORIES)
        assert all(v == 0 for v in counts.values())

    def test_no_insertion_collapses_to_empty_pattern(self):
        samples = [sample_of([H, W], []) for _ in range(4)]
        hyps = [replace(s.incomplete) for s in samples]
        assert insertion_pattern_topk(samples, hyps) == [((), 4)]

    def test_ranking_with_ties(self):
        samples = [sample_of([H, H], []) for _ in range(5)]
        hyps = [
            seq_of([W, H, H]), seq_of([W, H, H]), seq_of([W, H, H]),
            seq_of([W, H, H, H]), seq_of([W, H, H, H]),
        ]
        ranked = insertion_pattern_topk(samples, hyps)
        assert ranked == [((W,), 3), ((W, H), 2)]

    def test_k_larger_than_distinct(self):
        samples = [sample_of([H], [])]
        hyps = [seq_of([W, H])]
        assert len(insertion_pattern_topk(samples, hyps, k=100)) == 1


class TestTransitions:
    def test_worked_example_breaks_two_transitions(self):
        smp = sample_of([H, W, H], [1])
        table = transition_analysis([smp], [replace(smp.incomplete)])
        assert table.broken[LABEL_TO_ID[H], LABEL_TO_ID[W]] == 1
        assert table.broken[LABEL_TO_ID[W], LABEL_TO_ID[H]] == 1
        assert table.broken.sum() == 2
        assert table.inserted.sum() == 0

    def test_exact_reinsertion_matches_broken(self):
        smp = sample_of([H, W, H], [1])
        table = transition_analysis([smp], [seq_of([H, W, H])])
        np.testing.assert_array_equal(table.broken, table.inserted)

    def test_removal_created_pairs_are_excluded(self):
        # deleting W from [A, W, A] creates (A, A) in the incomplete sequence;
        # the multiset difference must not count it as broken
        smp = sample_of([E, W, E], [1])
        table = transition_analysis([smp], [replace(smp.incomplete)])
        assert table.broken[LABEL_TO_ID[E], LABEL_TO_ID[E]] == 0
        assert table.broken.sum() == 2

    def test_conservation_against_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            triples = random_triples(rng, 1)
            smp, hyp = triples[0]
            table = transition_analysis([smp], [hyp])
            comp = [a.label for a in smp.complete.activities]
            inc = [a.label for a in smp.incomplete.activities]
            comp_pairs, inc_pairs = oracle_pairs(comp), oracle_pairs(inc)
            created = sum(
                max(0, count - comp_pairs.get(key, 0)) for key, count in inc_pairs.items()
            )
            expected = (len(comp) - 1 if comp else 0) - (len(inc) - 1 if inc else 0) + created
            assert table.broken.sum() == expected

    def test_compare_identical_all_ties(self):
        smp = sample_of([H, W, H], [1])
        hyp = seq_of([H, W, H])
        result = compare_transitions(
            transition_analysis([smp], [hyp]), transition_analysis([smp], [hyp])
        )
        assert result["ties"] == 162
        assert result["wins_a"] == result["wins_b"] == 0

    def test_compare_targets_beat_inputs_wherever_broken(self):
        rng = np.random.default_rng(11)
        triples = random_triples(rng, 40)
        samples = [t[0] for t in triples]
        perfect = [replace(s.complete) for s in samples]
        lazy = [replace(s.incomplete) for s in samples]
        table_a = transition_analysis(samples, perfect)
        table_b = transition_analysis(samples, lazy)
        result = compare_transitions(table_a, table_b)
        broken_cells = 2 * int((table_a.broken > 0).sum())
        assert result["wins_a"] == broken_cells
        assert result["wins_b"] == 0
        assert result["wins_a"] + result["wins_b"] + result["ties"] == 162

    def test_compare_rejects_different_targets(self):
        smp_a = sample_of([H, W, H], [1])
        smp_b = sample_of([H, E, H], [1])
        with pytest.raises(ValueError):
            compare_transitions(
                transition_analysis([smp_a], [replace(smp_a.incomplete)]),
                transition_analysis([smp_b], [replace(smp_b.incomplete)]),
            )


@st.composite
def transition_triples(draw):
    """(sample, hypothesis): a day of 1 to 40 activities (often one), a removal that may take all of it,
    and a hypothesis that may run past 32 activities, over a drawn subset of the labels."""
    subset = draw(st.lists(st.sampled_from(ACTIVITY_CATEGORIES), min_size=1, max_size=9, unique=True))
    labels = st.sampled_from(subset)
    comp = draw(st.lists(labels, min_size=1, max_size=draw(st.sampled_from([1, 40]))))
    removed = set(range(len(comp))) if draw(st.booleans()) else draw(st.sets(st.integers(0, len(comp) - 1)))
    smp = sample_of(comp, removed)
    hyp = smp.incomplete.labels()
    for _ in range(draw(st.sampled_from([0, 3, 40]))):
        hyp.insert(draw(st.integers(0, len(hyp))), draw(labels))
    return smp, seq_of(hyp)


def oracle_excess_table(fulls, inputs):
    """Sum over days of each pair's count in the full day beyond its count in the input, clipped at 0."""
    table = np.zeros((len(ACTIVITY_CATEGORIES),) * 2, dtype=int)
    for full, source in zip(fulls, inputs):
        inp = oracle_pairs(source)
        for (a, b), count in oracle_pairs(full).items():
            table[LABEL_TO_ID[a], LABEL_TO_ID[b]] += max(0, count - inp.get((a, b), 0))
    return table


class TestTransitionTablesAgainstTheOracle:
    @settings(max_examples=200, deadline=None)
    @given(triples=st.lists(transition_triples(), min_size=1, max_size=12))
    def test_many_days_cell_for_cell(self, triples):
        samples, hyps = [t[0] for t in triples], [t[1] for t in triples]
        inputs, fulls = [s.incomplete.labels() for s in samples], [s.complete.labels() for s in samples]
        side = InputSide(samples)
        np.testing.assert_array_equal(side.broken, oracle_excess_table(fulls, inputs))
        np.testing.assert_array_equal(transition_analysis(side, hyps).inserted,
                                      oracle_excess_table([h.labels() for h in hyps], inputs))

    def test_a_pair_one_day_creates_does_not_cancel_a_pair_another_day_breaks(self):
        # day 0's removal creates (H, W); day 1's removal breaks (H, W)
        samples = [sample_of([H, E, W], [1]), sample_of([H, W, E], [0, 1])]
        table = transition_analysis(samples, [s.incomplete for s in samples])
        assert table.broken[LABEL_TO_ID[H], LABEL_TO_ID[W]] == 1
        assert table.broken.sum() == 4


# Labels whose ids (1, 3, 6) run against their text order, so equal pattern counts must rank by text
TEXT_ORDER_LABELS = ("Other", "GoToSchool", "EatOut")


@st.composite
def scoring_sets(draw):
    """(samples, hypotheses, k): up to eight days, over two or three labels (repeats leave the slot
    to the leftmost-greedy alignment) or all nine, some empty and some with every position removed;
    hypotheses that insert up to three labels; and at times a hypothesis that drops an input activity,
    or one hypothesis more or fewer than the samples, so the sets do not align."""
    labels = st.sampled_from(draw(st.sampled_from([TEXT_ORDER_LABELS[:2], TEXT_ORDER_LABELS, ACTIVITY_CATEGORIES])))
    samples = []
    for _ in range(draw(st.integers(0, 8))):
        comp = draw(st.lists(labels, max_size=6))
        every = draw(st.booleans()) and draw(st.booleans())
        removed = set(range(len(comp))) if every else draw(st.sets(st.integers(0, len(comp) - 1))) if comp else set()
        samples.append(sample_of(comp, removed))
    hyps = []
    for smp in samples:
        hyp = smp.incomplete.labels()
        for _ in range(draw(st.integers(0, 3))):
            hyp.insert(draw(st.integers(0, len(hyp))), draw(labels))
        hyps.append(seq_of(hyp))
    fault = draw(st.sampled_from(["none"] * 6 + ["drop", "more", "fewer"]))
    droppable = [i for i, smp in enumerate(samples) if len(smp.incomplete)]
    if fault == "drop" and droppable:
        i = draw(st.sampled_from(droppable))
        del hyps[i].activities[draw(st.integers(0, len(hyps[i]) - 1))]
    elif fault == "more":
        hyps.append(seq_of(draw(st.lists(labels, max_size=3))))
    elif fault == "fewer" and hyps:
        hyps.pop(draw(st.integers(0, len(hyps) - 1)))
    return samples, hyps, draw(st.sampled_from([1, 2, 20]))


def scoring(evaluate_fn, patterns_fn, transitions_fn, distribution_fn, samples, hyps, targets):
    """Everything eval writes, from one set of scoring functions; or the text of their refusal."""
    try:
        report = evaluate_fn(samples, hyps)
    except AlignmentError as exc:
        return str(exc)
    table = transitions_fn(samples, hyps)
    return (report, patterns_fn(samples, hyps), table.broken.tolist(), table.inserted.tolist(),
            distribution_fn(hyps), distribution_fn(targets))


class TestScoringAgainstTheLabelReference:
    """Scoring label ids, from objects or from the columns read from files, gives what scoring the
    label strings gave: the same reports, patterns and tables, or the same refusal."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=scoring_sets())
    def test_drawn_sets(self, drawn):
        samples, hyps, k = drawn
        expected = scoring(label_evaluate, lambda s, h: label_insertion_pattern_topk(s, h, k),
                           label_transition_analysis, label_activity_distribution,
                           samples, hyps, [s.complete for s in samples])
        assert scoring(evaluate, lambda s, h: insertion_pattern_topk(s, h, k), transition_analysis,
                       activity_distribution, samples, hyps, [s.complete for s in samples]) == expected
        with tempfile.TemporaryDirectory() as tmp:
            data, hyp, out = (Path(tmp) / name for name in ("d.jsonl", "h.jsonl", "ev"))
            write_samples(data, samples)
            write_sequences(hyp, hyps)
            days, hyp_days = read_days(data, samples=True), read_days(hyp)
            side = InputSide(days)
            assert scoring(lambda _, h: score(side, h)[0], lambda _, h: top_patterns(score(side, h)[1], k),
                           lambda _, h: transition_analysis(side, h), activity_distribution,
                           days, hyp_days, days) == expected
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["eval", "--data", str(data), "--hyp", str(hyp), "--out", str(out)])
            if isinstance(expected, str):
                assert (code, err.getvalue()) == (2, f"eval: {hyp}: {expected}\n")
                return
            assert code == 0
            assert json.loads(Path(f"{out}.metrics.json").read_text()) == expected[0].to_json_dict()
            rows = Path(f"{out}.patterns.csv").read_text().splitlines()[1:]
            assert rows == [f"{'|'.join(p)},{n}" for p, n in label_insertion_pattern_topk(samples, hyps, 20)]

    def test_equal_counts_rank_by_label_text_not_by_id(self):
        samples = [sample_of([H], []) for _ in range(4)]
        hyps = [seq_of([H, label]) for label in ("Other", "GoToSchool", "EatOut", "Other")]
        side = InputSide(samples)
        assert top_patterns(score(side, hyps)[1], k=3) == [(("Other",), 2), (("EatOut",), 1), (("GoToSchool",), 1)]

    def test_a_misaligned_hypothesis_is_refused_naming_the_label(self):
        smp = sample_of([H, W, E], [1])
        with pytest.raises(AlignmentError) as exc:
            evaluate([smp], [seq_of([E, H])])
        assert str(exc.value) == "sample 0: element 1 ('EatOut') has no match left in the full sequence"

    @settings(max_examples=200, deadline=None)
    @given(full=st.lists(st.sampled_from("HWE"), max_size=10), sub=st.lists(st.sampled_from("HWE"), max_size=6))
    def test_alignment_equals_the_item_walk(self, full, sub):
        def reading(align):
            try:
                return align(sub, full)
            except AlignmentError as exc:
                return str(exc)

        assert reading(align_subsequence) == reading(loop_align_subsequence)
