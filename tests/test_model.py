"""Insertion model: targets, loss, decoding, flavors, checkpoints."""

import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actrecover import tensor as T
from actrecover.data import Activity, AlignmentError, DaySequence, align_subsequence
from actrecover.generator import ConfigError
from actrecover.gradcheck import grad_check
from actrecover.layers import sinusoidal_positions
from actrecover.model import (
    CapacityError,
    CompatibilityError,
    DecoderState,
    InsertionModel,
    ModelConfig,
    N_COVARIATE_STREAMS,
    NO_INSERT_ID,
    TRAIN_KEYS,
    VocabularyError,
    _read_container,
    _target_rows,
    _write_container,
    insertion_targets,
    load_checkpoint,
    parameter_checksum,
    read_checkpoint,
    save_checkpoint,
    slot_labels,
)
from actrecover.activities import (
    BOS_ID, EOS_ID, ID_TO_LABEL, MISSING_CODE, N_ACTIVITIES, N_CONTENT_CLASSES, N_MODES, N_TIME_BINS,
)
from actrecover.data import RecoverySample
from actrecover.training import _batch_item

from helpers import (
    PerStreamVSN,
    assert_same_network_inputs,
    at_float64,
    insert_activities,
    listed_parameters,
    padded_batch_loss,
    padded_forward,
    random_sequence,
    random_targets,
    target_arrays,
    tiny_config,
)


class TestInsertionTargets:
    def test_single_missing_token(self):
        targets = insertion_targets(["H", "H"], ["H", "W", "H"])
        assert targets == [Counter(), Counter(["W"]), Counter()]

    def test_nothing_removed_all_stop(self):
        targets = insertion_targets(["H", "W"], ["H", "W"])
        assert targets == [Counter(), Counter(), Counter()]

    def test_empty_source_owes_everything(self):
        targets = insertion_targets([], ["H", "W"])
        assert targets == [Counter(["H", "W"])]

    def test_non_subsequence_rejected(self):
        with pytest.raises(AlignmentError, match="no match left"):
            insertion_targets(["W", "H"], ["H", "W"])


class TestDecoderForward:
    def test_slot_count_and_normalization(self):
        rng = np.random.default_rng(0)
        model = InsertionModel(tiny_config(), seed=1)
        for _ in range(20):
            seq = random_sequence(rng)
            state = DecoderState.from_sequence(seq)
            dist = model.decoder_forward(state)
            assert dist.probs.shape == (len(seq) + 1, N_CONTENT_CLASSES)
            assert (dist.probs >= 0).all()
            np.testing.assert_allclose(dist.probs.sum(-1), 1.0, atol=1e-6)

    def test_deterministic_without_dropout(self):
        rng = np.random.default_rng(1)
        model = InsertionModel(tiny_config(), seed=2)
        state = DecoderState.from_sequence(random_sequence(rng))
        a = model.decoder_forward(state).probs
        b = model.decoder_forward(state).probs
        np.testing.assert_array_equal(a, b)

    def test_over_length_state_rejected(self):
        cfg = tiny_config(max_len=3)
        model = InsertionModel(cfg, seed=0)
        seq = random_sequence(np.random.default_rng(2), n=5)
        with pytest.raises(CapacityError):
            model.decoder_forward(DecoderState.from_sequence(seq))

    def test_padding_does_not_change_logits(self):
        rng = np.random.default_rng(3)
        model = at_float64(InsertionModel(tiny_config(), seed=3))
        short = DecoderState.from_sequence(random_sequence(rng, n=2))
        long = DecoderState.from_sequence(random_sequence(rng, n=6))
        alone, _ = model.forward([short])
        batched, info = model.forward([short, long])
        n_short = len(short.tokens) + 1
        assert batched.shape == (n_short + len(long.tokens) + 1, N_CONTENT_CLASSES)
        np.testing.assert_allclose(alone.data, batched.data[:n_short], atol=1e-9)


def _vsn_streams(model, state) -> np.ndarray:
    """The (T, streams, d) tensor ``forward`` hands to the variable selection network."""
    seen = {}
    vsn = model.vsn

    def record(streams, *rest):
        seen["streams"] = streams.data  # one state: its packed rows are its positions
        return vsn(streams, *rest)

    model.vsn = record
    model.forward([state])
    return seen["streams"]


class TestCollate:
    def test_two_rows_of_mixed_lengths(self):
        model = InsertionModel(tiny_config(), seed=0)
        short = DaySequence(
            person_id=0, date=0, weekday=2, holiday=0, static=(3, 1, 4, 2),
            activities=[Activity("HomeActivity", arr=1, dep=30, mode=6, dist=0.0, observed=True)],
        )
        long = DaySequence(
            person_id=1, date=0, weekday=7, holiday=1, static=(5, 5, 1, 1),
            activities=[
                Activity("HomeActivity", arr=1, dep=20, mode=6, dist=0.0, observed=True),
                Activity("WorkForPay"),
                Activity("EatOut", arr=40, dep=44, mode=2, dist=3.5, observed=True),
            ],
        )
        a = model._batch_arrays([DecoderState.from_sequence(short), DecoderState.from_sequence(long)])
        B, E, M = BOS_ID, EOS_ID, MISSING_CODE  # HomeActivity 7, WorkForPay 8, EatOut 6
        packing = a["packing"]  # rows: short's 3 positions, then long's 5
        assert packing.grid == (2, 5)
        np.testing.assert_array_equal(packing.valid, [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
        np.testing.assert_array_equal(packing.cells, [0, 1, 2, 5, 6, 7, 8, 9])
        np.testing.assert_array_equal(packing.seq, [0, 0, 0, 1, 1, 1, 1, 1])
        np.testing.assert_array_equal(packing.pos, [0, 1, 2, 0, 1, 2, 3, 4])
        np.testing.assert_array_equal(a["tok"], [B, 7, E, B, 7, 8, 6, E])
        np.testing.assert_array_equal(a["arr"], [M, 1, M, M, 1, M, 40, M])
        np.testing.assert_array_equal(a["dep"], [M, 30, M, M, 20, M, 44, M])
        np.testing.assert_array_equal(a["mode"], [M, 6, M, M, 6, M, 2, M])
        np.testing.assert_array_equal(a["dist"], [0, 0, 0, 0, 0, 0, 3.5, 0])
        np.testing.assert_array_equal(a["dist_missing"], [1, 0, 1, 1, 0, 1, 0, 1])
        np.testing.assert_array_equal(a["weekday"], [1] * 3 + [6] * 5)
        np.testing.assert_array_equal(a["holiday"], [0] * 3 + [1] * 5)
        np.testing.assert_array_equal(a["static"], [[2, 0, 3, 1], [4, 4, 0, 0]])
        np.testing.assert_array_equal(a["slot_rows"], [[0, 1], [1, 2], [3, 4], [4, 5], [5, 6], [6, 7]])
        np.testing.assert_array_equal(a["n_slots"], [2, 4])
        assert a["dist"].dtype == np.float64 and a["dist"].flags.c_contiguous  # a strided one sums differently
        hidden = replace(long, activities=[Activity("WorkForPay", arr=5, dep=9, mode=2, dist=3.5)])
        h = model._batch_arrays([DecoderState.from_sequence(hidden)])  # stored codes of an unobserved activity
        assert [h[key][1] for key in ("arr", "dep", "mode", "dist")] == [M, M, M, 0.0]

    def test_token_only_flavor_encodes_no_covariates(self):
        model = InsertionModel(tiny_config(use_vsn=False), seed=0)
        state = DecoderState.from_sequence(random_sequence(np.random.default_rng(3), n=3))
        assert set(model._batch_arrays([state])) == {"packing", "tok", "slot_rows", "n_slots"}


class TestCovariateEncoding:
    def test_stream_count_full_flavor(self):
        model = InsertionModel(tiny_config(), seed=4)
        state = DecoderState.from_sequence(random_sequence(np.random.default_rng(4), n=2))
        streams = _vsn_streams(model, state)
        assert streams.shape == (4, N_COVARIATE_STREAMS, 8) and N_COVARIATE_STREAMS == 7

    def test_baseline_produces_token_stream_only(self):
        model = InsertionModel(tiny_config(use_vsn=False), seed=4)
        state = DecoderState.from_sequence(random_sequence(np.random.default_rng(5), n=2))
        seen = {}
        layer = model.encoder_layers[0]

        def record(x, *rest):
            seen["x"] = x.data
            return layer(x, *rest)

        model.encoder_layers[0] = record
        _, info = model.forward([state])
        tok = [BOS_ID, *state.tokens, EOS_ID]
        expected = model.tok_emb.data[tok] + sinusoidal_positions(len(tok), 8).astype(np.float32)
        np.testing.assert_array_equal(seen["x"], expected)
        assert info["selection"] is None and not hasattr(model, "vsn")

    def test_unobserved_tokens_use_missing_rows(self):
        model = InsertionModel(tiny_config(), seed=5)
        seq = random_sequence(np.random.default_rng(6), n=2)
        seq.activities[0] = Activity(label=seq.activities[0].label, observed=False)
        streams = _vsn_streams(model, DecoderState.from_sequence(seq))
        missing_dist = model.dist_lin.b.data + model.dist_missing.data
        for pos in (0, 1, 3):  # begin sentinel, the unobserved token, end sentinel
            np.testing.assert_array_equal(streams[pos, 1], model.arr_emb.data[0])
            np.testing.assert_array_equal(streams[pos, 2], model.dep_emb.data[0])
            np.testing.assert_array_equal(streams[pos, 3], model.mode_emb.data[0])
            np.testing.assert_array_equal(streams[pos, 4], missing_dist)
        observed = seq.activities[1]
        np.testing.assert_array_equal(streams[2, 1], model.arr_emb.data[observed.arr])
        np.testing.assert_array_equal(streams[2, 3], model.mode_emb.data[observed.mode])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_unobserved_covariates_leave_fused_logits_unchanged(self, seed, data):
        rng = np.random.default_rng(seed)
        model = InsertionModel(tiny_config(), seed=seed)
        seq = random_sequence(rng)
        hidden = data.draw(st.lists(st.booleans(), min_size=len(seq), max_size=len(seq)))
        bins = st.integers(MISSING_CODE, N_TIME_BINS)  # any code an unobserved activity may store, in any order
        clean, noisy = [], []
        for act, hide in zip(seq.activities, hidden):
            if not hide:
                clean.append(act)
                noisy.append(act)
                continue
            clean.append(Activity(label=act.label))
            noisy.append(
                Activity(
                    label=act.label, arr=data.draw(bins), dep=data.draw(bins),
                    mode=data.draw(st.integers(MISSING_CODE, N_MODES)), dist=data.draw(st.floats(0.0, 1e6)),
                )
            )
        logits_clean, _ = model.forward([DecoderState.from_sequence(replace(seq, activities=clean))])
        logits_noisy, _ = model.forward([DecoderState.from_sequence(replace(seq, activities=noisy))])
        assert np.array_equal(logits_clean.data, logits_noisy.data)

    def test_static_context_determinism_and_sensitivity(self):
        model = InsertionModel(tiny_config(), seed=6)
        seq = random_sequence(np.random.default_rng(6), n=3)

        def logits(static):
            return model.forward([DecoderState.from_sequence(replace(seq, static=static))])[0].data

        a = logits((1, 2, 3, 4))
        np.testing.assert_array_equal(a, logits((1, 2, 3, 4)))
        assert not np.allclose(a, logits((2, 1, 3, 4)))  # same values, different covariate slots

    def test_bad_codes_rejected(self):
        seq = random_sequence(np.random.default_rng(7), n=1)
        with pytest.raises(VocabularyError, match="static codes"):
            DecoderState.from_sequence(replace(seq, static=(0, 2, 3, 4)))
        seq.weekday = 9
        with pytest.raises(VocabularyError, match="weekday"):
            DecoderState.from_sequence(seq)
        seq.weekday = 3
        seq.activities[0].label = "Nap"
        with pytest.raises(VocabularyError, match="Nap"):
            DecoderState.from_sequence(seq)


class TestSelectionWeights:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        model = InsertionModel(tiny_config(), seed=8)
        for _ in range(10):
            state = DecoderState.from_sequence(random_sequence(rng))
            w = model.selection_weights(state).weights
            assert w.shape == (len(state.tokens) + 2, 7)
            assert (w >= 0).all()
            np.testing.assert_allclose(w.sum(-1), 1.0, atol=1e-6)

    def test_baseline_has_no_selection(self):
        model = InsertionModel(tiny_config(use_vsn=False), seed=8)
        state = DecoderState.from_sequence(random_sequence(np.random.default_rng(9), n=1))
        with pytest.raises(VocabularyError):
            model.selection_weights(state)

    def test_inspection_calls_record_no_tape(self, monkeypatch):
        model = InsertionModel(tiny_config(), seed=8)
        state = DecoderState.from_sequence(random_sequence(np.random.default_rng(9), n=3))
        recorded = []
        node = T._node

        def counting_node(*args):
            out = node(*args)
            recorded.append(out.requires_grad)
            return out

        monkeypatch.setattr(T, "_node", counting_node)
        model.forward([state])
        assert sum(recorded) > 100  # the counter sees a taped forward
        for call in (
            lambda: model.decoder_forward(state),
            lambda: model.selection_weights(state),
        ):
            recorded.clear()
            call()
            assert recorded and sum(recorded) == 0


class TestBaselineReduction:
    def test_covariate_permutation_leaves_baseline_unchanged(self):
        rng = np.random.default_rng(10)
        model = InsertionModel(tiny_config(use_vsn=False), seed=10)
        seq = random_sequence(rng, n=4)
        logits_a, _ = model.forward([DecoderState.from_sequence(seq)])

        shuffled = replace(
            seq,
            weekday=((seq.weekday + 3) % 7) + 1,
            holiday=1 - seq.holiday,
            static=tuple(reversed(seq.static)),
            activities=[
                replace(a, arr=a.dep, dep=min(a.dep + 5, 96), mode=(a.mode % 6) + 1, dist=a.dist + 9)
                for a in seq.activities
            ],
        )
        logits_b, _ = model.forward([DecoderState.from_sequence(shuffled)])
        np.testing.assert_array_equal(logits_a.data, logits_b.data)

    def test_covariate_permutation_changes_full_flavor(self):
        rng = np.random.default_rng(11)
        model = InsertionModel(tiny_config(), seed=11)
        seq = random_sequence(rng, n=4)
        logits_a, _ = model.forward([DecoderState.from_sequence(seq)])
        shuffled = replace(seq, weekday=((seq.weekday + 3) % 7) + 1)
        logits_b, _ = model.forward([DecoderState.from_sequence(shuffled)])
        assert not np.array_equal(logits_a.data, logits_b.data)

    def test_baseline_has_no_covariate_parameters(self):
        model = InsertionModel(tiny_config(use_vsn=False), seed=12)
        names = [p.name for p in model.parameters()]
        assert not any(n.startswith(("cov.", "vsn", "static_ctx")) for n in names)


class TestInsertionLoss:
    def test_uniform_predictor_log10(self):
        model = at_float64(InsertionModel(tiny_config(), seed=13))
        model.out_proj.w.data[:] = 0.0
        model.out_proj.b.data[:] = 0.0  # logits all equal -> uniform over 10 classes
        seq = random_sequence(np.random.default_rng(13), n=2)
        state = DecoderState.from_sequence(seq)
        targets = [Counter(), Counter(["WorkForPay"]), Counter()]
        loss = model.insertion_loss(state, targets)
        assert float(loss.data) == pytest.approx(math.log(10.0), abs=1e-12)

    def test_target_label_outside_the_vocabulary_rejected(self):
        model = InsertionModel(tiny_config(), seed=14)
        state = DecoderState.from_sequence(random_sequence(np.random.default_rng(14), n=1))
        with pytest.raises(VocabularyError, match="unknown target label 'Nap'"):
            model.insertion_loss(state, [Counter(["Nap"]), Counter()])

    def test_two_label_slot_same_uniform_mass(self):
        model = at_float64(InsertionModel(tiny_config(), seed=14))
        model.out_proj.w.data[:] = 0.0
        model.out_proj.b.data[:] = 0.0
        seq = random_sequence(np.random.default_rng(14), n=1)
        state = DecoderState.from_sequence(seq)
        targets = [Counter(["HomeActivity", "WorkForPay"]), Counter()]
        loss = model.insertion_loss(state, targets)
        assert float(loss.data) == pytest.approx(math.log(10.0), abs=1e-12)

    def test_saturated_stop_predictor_loss_vanishes(self):
        model = InsertionModel(tiny_config(), seed=15)
        model.out_proj.w.data[:] = 0.0
        model.out_proj.b.data[:] = 0.0
        model.out_proj.b.data[NO_INSERT_ID] = 50.0
        seq = random_sequence(np.random.default_rng(15), n=3)
        state = DecoderState.from_sequence(seq)
        targets = [Counter() for _ in range(len(state.tokens) + 1)]
        assert float(model.insertion_loss(state, targets).data) < 1e-9

    def test_per_sample_losses_match_single_sample_losses(self):
        rng = np.random.default_rng(16)
        model = at_float64(InsertionModel(tiny_config(), seed=16))
        states, targets = [], []
        for n in (2, 6):  # [short, long]: the short state is padded in the batch
            seq = random_sequence(rng, n=n)
            complete_labels = seq.labels() + ["EatOut"]
            states.append(DecoderState.from_sequence(seq))
            targets.append(insertion_targets(seq.labels(), complete_labels))
        batched = float(model.batch_loss(states, [slot_labels(t) for t in targets]).data)
        singles = [float(model.insertion_loss(s, t).data) for s, t in zip(states, targets)]
        assert batched == pytest.approx(np.mean(singles), abs=1e-9)

    def test_target_lists_must_match_states(self):
        model = InsertionModel(tiny_config(), seed=16)
        states = [DecoderState.from_sequence(random_sequence(np.random.default_rng(16), n=2))] * 2
        with pytest.raises(AlignmentError, match="1 target lists for 2 states"):
            model.batch_loss(states, [slot_labels([Counter()] * 3)])
        with pytest.raises(AlignmentError, match="^sample 1: 4 targets for 3 slots$"):
            model.batch_loss(states, [[[], [], [0]], [[], [1, 1], [], [2]]])
        with pytest.raises(AlignmentError, match="^sample 0: 2 targets for 3 slots$"):
            model.insertion_loss(states[0], [Counter()] * 2)

    def test_a_counter_totalling_zero_targets_stop_whatever_it_holds(self):
        model = InsertionModel(tiny_config(), seed=18)
        state = DecoderState.from_sequence(random_sequence(np.random.default_rng(18), n=1))
        odd = [Counter({"WorkForPay": 1, "EatOut": -1}), Counter({"Nap": 0})]
        stop = model.insertion_loss(state, [Counter(), Counter()])
        assert model.insertion_loss(state, odd).data.tobytes() == stop.data.tobytes()
        want, _ = target_arrays(np.array([2]), [odd])
        assert _target_rows(np.array([2]), [slot_labels(odd)]).tobytes() == want.tobytes()

    def test_gradients_on_full_loss(self):
        cfg = ModelConfig(
            d_m=8, n_heads=2, d_attn=4, d_val=4, n_layers=1, dropout=0.0, max_len=16
        )
        model = InsertionModel(cfg, seed=17)
        seq = random_sequence(np.random.default_rng(17), n=3)
        state = DecoderState.from_sequence(seq)
        targets = [Counter(), Counter(["WorkForPay"]), Counter(["EatOut", "GoShopping"]), Counter()]
        subset = [p for p in model.parameters() if p.size <= 200]
        report = grad_check(
            lambda: model.insertion_loss(state, targets), subset, name="insertion_loss"
        )
        assert report.max_rel_error < 1e-4


class TestTargetRows:
    """``batch_loss``'s packed target rows against the frozen per-slot ``Counter`` walk."""

    @settings(max_examples=200, deadline=None)
    @given(
        days=st.lists(
            st.tuples(
                st.lists(st.sampled_from(["HomeActivity", "WorkForPay", "EatOut"]), min_size=1, max_size=10),
                st.lists(st.booleans(), max_size=10),  # the removed positions
                st.sampled_from([0.0, 1.0]),  # roll_in
            ),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(0, 2**16),
    )
    @example(days=[(["HomeActivity", "HomeActivity"], [True], 0.0)], seed=0)  # slot 1 owes it, not slot 0
    @example(days=[(["HomeActivity", "WorkForPay"], [], 0.0)], seed=0)  # a state that owes nothing
    def test_rows_equal_the_frozen_counter_walk(self, days, seed):
        rng = np.random.default_rng(seed)
        states, fills, counters = [], [], []
        for labels, removed, roll_in in days:
            complete = random_sequence(rng, labels=labels)
            sample = RecoverySample(complete, [j for j, gone in enumerate(removed[: len(labels)]) if gone])
            state, owed = _batch_item(sample, DecoderState.from_sequence(complete), rng, roll_in)
            states.append(state)
            fills.append(owed)
            counters.append(insertion_targets([ID_TO_LABEL[t] for t in state.tokens.tolist()], labels))
        n_slots = np.array([len(s.tokens) + 1 for s in states])
        want, _ = target_arrays(n_slots, counters)
        assert _target_rows(n_slots, fills).tobytes() == want.tobytes()
        assert _target_rows(n_slots, [slot_labels(c) for c in counters]).tobytes() == want.tobytes()


class TestRecover:
    def test_zero_rounds_is_identity(self):
        model = InsertionModel(tiny_config(), seed=18)
        seq = random_sequence(np.random.default_rng(18), n=3)
        out = model.recover(seq, max_rounds=0)
        assert out.sequence.activities == seq.activities
        assert out.rounds == 0 and not out.truncated

    def test_zero_rounds_still_refuse_an_invalid_day(self):
        model = InsertionModel(tiny_config(), seed=18)
        seq = random_sequence(np.random.default_rng(18), n=3)
        seq.weekday = 9
        with pytest.raises(VocabularyError, match="weekday out of 1..7: 9"):
            model.recover_batch([seq], max_rounds=0)

    @pytest.mark.parametrize("max_rounds", [0, 2])
    def test_a_day_above_max_len_is_refused_before_any_day_is_encoded(self, max_rounds):
        model = InsertionModel(tiny_config(max_len=8), seed=18)
        rng = np.random.default_rng(18)
        days = [random_sequence(rng, n=3), random_sequence(rng, n=12)]
        with mock.patch.object(DecoderState, "from_sequence", wraps=DecoderState.from_sequence) as encode:
            with pytest.raises(ConfigError, match=r"^sample 1: 12 activities exceed max_len=8$"):
                model.recover_batch(days, max_rounds=max_rounds)
        encode.assert_not_called()

    @pytest.mark.parametrize("max_rounds", [-1, -2])
    def test_negative_max_rounds_is_refused(self, max_rounds):
        model = InsertionModel(tiny_config(), seed=18)
        seq = random_sequence(np.random.default_rng(18), n=3)
        with pytest.raises(ConfigError, match=f"^max_rounds must be >= 0, not {max_rounds}$"):
            model.recover_batch([seq], max_rounds=max_rounds)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(0, 6),
        picks=st.dictionaries(st.integers(0, 6), st.integers(0, N_ACTIVITIES - 1)),
    )
    @example(seed=0, n=6, picks={0: 1, 6: 2})  # a day at max_len: the budget leaves no pick
    @example(seed=0, n=0, picks={})
    def test_a_round_inserts_rows_that_encode_the_activity_level_insertion(self, seed, n, picks):
        rng = np.random.default_rng(seed)
        seq = random_sequence(rng, n=n)
        for j in np.flatnonzero(rng.random(n) < 0.3):  # an unobserved input activity keeps its codes
            seq.activities[j] = Activity(seq.activities[j].label, arr=3, dep=4, mode=5, dist=6.0)
        insert_at = {s: c for s, c in picks.items() if s <= n}
        model = InsertionModel(tiny_config(max_len=6), seed=0)

        def forward(states, rng=None):  # picks the drawn labels, and stops everywhere else
            (state,) = states
            logits = np.zeros((len(state.tokens) + 1, N_CONTENT_CLASSES), dtype=np.float32)
            logits[:, NO_INSERT_ID] = 1.0
            for s, c in insert_at.items():
                logits[s, c] = 2.0
            return T.Tensor(logits), {}

        model.forward = forward
        made, init = [], DecoderState.__init__

        def recording(state, *args, **kwargs):  # every state built: the input's, then each round's edit
            init(state, *args, **kwargs)
            made.append(state)

        with mock.patch.object(DecoderState, "__init__", recording):
            (out,) = model.recover_batch([seq], max_rounds=1)
        fitted = dict(sorted(insert_at.items())[: 6 - n])  # the leftmost picks that fit
        want = insert_activities(seq.activities, fitted)
        assert out.sequence.activities == want and out.truncated == (len(fitted) < len(insert_at))
        assert all(any(a is b for b in out.sequence.activities) for a in seq.activities)  # not copies
        assert len(made) == (2 if insert_at else 1)
        if insert_at:
            state = made[1]
            assert_same_network_inputs(model, state, replace(seq, activities=want))
            kept = state.source >= 0
            np.testing.assert_array_equal(state.source[kept], np.arange(n))  # the input's rows, in order
            assert (~kept).sum() == len(fitted)

    def test_stop_biased_model_returns_input(self):
        model = InsertionModel(tiny_config(), seed=19)
        model.out_proj.w.data[:] = 0.0
        model.out_proj.b.data[:] = 0.0
        model.out_proj.b.data[NO_INSERT_ID] = 50.0
        seq = random_sequence(np.random.default_rng(19), n=4)
        out = model.recover(seq)
        assert out.sequence.activities == seq.activities
        assert out.rounds == 0

    def test_inserted_tokens_are_unobserved(self):
        model = InsertionModel(tiny_config(), seed=20)
        seq = random_sequence(np.random.default_rng(20), n=2)
        out = model.recover(seq, max_rounds=2)
        original = seq.activities
        inserted = [a for a in out.sequence.activities if a not in original]
        assert all(not a.observed for a in inserted)

    def test_subsequence_preservation_random_models(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            model = InsertionModel(tiny_config(), seed=100 + trial)
            seq = random_sequence(rng)
            out = model.recover(seq)
            align_subsequence(seq.labels(), out.sequence.labels())  # raises on violation

    def test_round_monotonicity(self):
        rng = np.random.default_rng(22)
        model = InsertionModel(tiny_config(), seed=22)
        seq = random_sequence(rng, n=2)
        lengths = [len(seq)]
        for rounds in range(1, 5):
            out = model.recover(seq, max_rounds=rounds)
            lengths.append(len(out.sequence))
            if out.rounds < rounds and not out.truncated:
                break
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))

    def test_empty_input_generates_from_scratch(self):
        model = InsertionModel(tiny_config(), seed=23)
        seq = random_sequence(np.random.default_rng(23), n=1)
        empty = replace(seq, activities=[])
        out = model.recover(empty)  # must not raise; may insert or stay empty
        align_subsequence([], out.sequence.labels())

    def test_truncation_flag_at_capacity(self):
        cfg = tiny_config(max_len=4, max_rounds=8)
        for seed in range(30):
            model = InsertionModel(cfg, seed=seed)
            seq = random_sequence(np.random.default_rng(seed), n=3)
            out = model.recover(seq)
            assert len(out.sequence) <= cfg.max_len
            if len(out.sequence) == cfg.max_len and out.truncated:
                break
        else:
            pytest.skip("no random model filled the capacity")


class TestGroupedVSN:
    """The grouped stream block against the frozen per-stream reference, inside the model."""

    @staticmethod
    def reference_model(monkeypatch, cfg, seed):
        with monkeypatch.context() as m:
            m.setattr("actrecover.model.VariableSelection", PerStreamVSN)
            return InsertionModel(cfg, seed=seed)

    @staticmethod
    def reference_name(name: str, j: int) -> str:
        return name.replace("vsn.streams.", f"vsn.stream{j}.")

    def test_fresh_model_stacks_the_per_stream_init(self, monkeypatch):
        cfg = tiny_config(dropout=0.2)
        model = InsertionModel(cfg, seed=41)
        ref = {p.name: p for p in self.reference_model(monkeypatch, cfg, 41).parameters()}
        for p in model.parameters():
            if p.name.startswith("vsn.streams."):
                assert p.shape[0] == N_COVARIATE_STREAMS
                for j in range(N_COVARIATE_STREAMS):
                    want = ref.pop(self.reference_name(p.name, j)).data
                    np.testing.assert_array_equal(p.data[j], want.reshape(-1, want.shape[-1]))
            else:
                np.testing.assert_array_equal(p.data, ref.pop(p.name).data)
        assert not ref

    def test_loss_and_every_gradient_match_on_a_mixed_length_batch(self, monkeypatch):
        cfg = tiny_config(dropout=0.2)
        rng = np.random.default_rng(42)
        seqs = [random_sequence(rng, n=n) for n in (0, 1, 3, 6, 2, 5)]
        states = [DecoderState.from_sequence(s) for s in seqs]
        targets = [[Counter(["WorkForPay"] if k % 2 else [])] * (len(s.tokens) + 1) for k, s in enumerate(states)]
        model = at_float64(InsertionModel(cfg, seed=43))
        ref = at_float64(self.reference_model(monkeypatch, cfg, 43))
        losses = [
            model.batch_loss(states, [slot_labels(t) for t in targets], rng=np.random.default_rng(44)),
            padded_batch_loss(ref, seqs, targets, rng=np.random.default_rng(44)),
        ]
        for loss in losses:
            loss.backward()
        assert abs(float(losses[0].data) - float(losses[1].data)) <= 1e-12
        ref_params = {p.name: p for p in ref.parameters()}
        for p in model.parameters():
            if p.name.startswith("vsn.streams."):
                for j in range(N_COVARIATE_STREAMS):
                    want = ref_params[self.reference_name(p.name, j)].grad
                    np.testing.assert_allclose(
                        p.grad[j], want.reshape(-1, want.shape[-1]), rtol=0, atol=1e-12
                    )
            else:
                np.testing.assert_allclose(p.grad, ref_params[p.name].grad, rtol=0, atol=1e-12)
            assert np.abs(p.grad).max() > 0, p.name


class TestPackedForward:
    """The packed forward and loss against the frozen padded reference."""

    @staticmethod
    def batch(seed: int, lengths) -> list:
        rng = np.random.default_rng(seed)
        return [random_sequence(rng, n=n) for n in lengths]

    @staticmethod
    def assert_loss_and_gradients_match(cfg, seed, days):
        """Loss and every gradient within 1e-12, and the dropout rng left in the same state."""
        states = [DecoderState.from_sequence(day) for day in days]
        targets = [random_targets(np.random.default_rng([seed, i]), st) for i, st in enumerate(states)]
        packed, padded = (at_float64(InsertionModel(cfg, seed=seed)) for _ in range(2))
        rngs = [np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])]
        loss = packed.batch_loss(states, [slot_labels(t) for t in targets], rng=rngs[0])
        want = padded_batch_loss(padded, days, targets, rng=rngs[1])
        loss.backward()
        want.backward()
        assert abs(float(loss.data) - float(want.data)) <= 1e-12 * abs(float(want.data))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        for p, q in zip(packed.parameters(), padded.parameters()):
            np.testing.assert_allclose(p.grad, q.grad, rtol=0, atol=1e-12, err_msg=p.name)

    @pytest.mark.parametrize("use_vsn", [True, False])
    def test_mixed_lengths_match_the_padded_reference(self, use_vsn):
        cfg = tiny_config(use_vsn=use_vsn, dropout=0.2, n_layers=2, max_len=10)
        self.assert_loss_and_gradients_match(cfg, 51, self.batch(50, [0, 10, 3, 1, 7, 0, 5, 10, 2]))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        lengths=st.lists(st.integers(0, 8), min_size=1, max_size=6),
        use_vsn=st.booleans(),
    )
    def test_drawn_batches_match_the_padded_reference(self, seed, lengths, use_vsn):
        cfg = tiny_config(use_vsn=use_vsn, dropout=0.2, n_layers=2, max_len=8)
        self.assert_loss_and_gradients_match(cfg, seed, self.batch(seed, lengths))

    @pytest.mark.parametrize("use_vsn", [True, False])
    @pytest.mark.parametrize("b", [1, 7])
    def test_equal_lengths_give_bit_identical_logits(self, use_vsn, b):
        model = InsertionModel(tiny_config(use_vsn=use_vsn, n_layers=2, max_len=10), seed=52)
        for n in (0, 1, 4, 10):
            days = self.batch(53 + n, [n] * b)
            logits, info = model.forward([DecoderState.from_sequence(day) for day in days])
            want, selection = padded_forward(model, days)
            assert np.array_equal(logits.data.reshape(want.shape), want.data)
            if use_vsn:
                assert np.array_equal(info["selection"].reshape(selection.shape), selection)


class TestParameterOrder:
    """The order ``parameters()`` finds is the checkpoint layout."""

    @pytest.mark.parametrize("use_vsn", [True, False])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_parameters_follow_the_hand_kept_order(self, use_vsn, n_layers):
        model = InsertionModel(tiny_config(use_vsn=use_vsn, n_layers=n_layers), seed=13)
        got, want = model.parameters(), listed_parameters(model)
        assert [p.name for p in got] == [p.name for p in want]
        assert all(g is w for g, w in zip(got, want))


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = InsertionModel(tiny_config(), seed=24)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        loaded, manifest = load_checkpoint(p1)
        assert sorted(manifest) == ["config", "format", "params"]
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_training_checkpoint_roundtrip_bit_exact(self, tmp_path):
        model = InsertionModel(tiny_config(), seed=24)
        rng = np.random.default_rng(24)
        moments = [rng.normal(size=model.values.size).astype(np.float32) for _ in range(2)]
        training = {"train": {"seed": 3}, "step": 7, "adam_skipped": 1}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1, training, moments)
        loaded, manifest, passes = read_checkpoint(p1)
        assert {key: manifest[key] for key in TRAIN_KEYS} == training
        assert [a.tobytes() for a in passes[1:]] == [m.tobytes() for m in moments]
        assert parameter_checksum(loaded) == parameter_checksum(model)
        save_checkpoint(loaded, p2, training, passes[1:])
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kept", [("train",), ("step", "adam_skipped"), ("adam_skipped",)], ids="+".join)
    def test_manifest_with_some_training_keys_refused_naming_the_rest(self, tmp_path, kept):
        model = InsertionModel(tiny_config(), seed=24)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, {"train": {}, "step": 2, "adam_skipped": 0}, [model.values, model.values])
        manifest, blob = _read_container(path)
        missing = [key for key in TRAIN_KEYS if key not in kept]
        for key in missing:
            del manifest[key]
        _write_container(path, manifest, blob)
        with pytest.raises(CompatibilityError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: checkpoint manifest lacks {', '.join(missing)}"

    def test_loaded_model_reproduces_outputs(self, tmp_path):
        model = InsertionModel(tiny_config(), seed=25)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        seq = random_sequence(np.random.default_rng(25), n=3)
        state = DecoderState.from_sequence(seq)
        a = model.decoder_forward(state).probs
        b = loaded.decoder_forward(state).probs
        np.testing.assert_allclose(a, b, atol=1e-6)  # float32 quantization

    def test_config_mismatch_names_fields(self, tmp_path):
        model = InsertionModel(tiny_config(d_m=8), seed=26)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CompatibilityError, match="d_m"):
            load_checkpoint(path, expected_config=tiny_config(d_m=16))

    def test_other_formats_refused(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(InsertionModel(tiny_config(), seed=28), path)
        manifest, blob = _read_container(path)
        assert manifest["format"] == 5
        for old in (1, 2, 3, 4):
            manifest["format"] = old
            _write_container(path, manifest, blob)
            with pytest.raises(
                CompatibilityError, match=rf"m\.ckpt: checkpoint format {old} is not supported"
            ):
                load_checkpoint(path)

    @pytest.mark.parametrize("key", ["config", "params"])
    def test_manifest_without_required_key_refused(self, tmp_path, key):
        path = tmp_path / "m.ckpt"
        save_checkpoint(InsertionModel(tiny_config(), seed=30), path)
        manifest, blob = _read_container(path)
        del manifest[key]
        _write_container(path, manifest, blob)
        with pytest.raises(CompatibilityError, match=rf"m\.ckpt: checkpoint manifest lacks {key}"):
            load_checkpoint(path)

    def test_truncated_blob_names_file_and_sizes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = InsertionModel(tiny_config(), seed=31)
        save_checkpoint(model, path)
        manifest, blob = _read_container(path)
        _write_container(path, manifest, blob[:-10])
        need = 4 * sum(p.size for p in model.parameters())
        assert len(blob) == need
        with pytest.raises(
            CompatibilityError,
            match=rf"m\.ckpt: checkpoint blob holds {need - 10} bytes, the manifest needs {need}",
        ):
            load_checkpoint(path)

    def test_manifest_missing_a_parameter_refused(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(InsertionModel(tiny_config(), seed=32), path)
        manifest, blob = _read_container(path)
        dropped = manifest["params"].pop()
        _write_container(path, manifest, blob[: -4 * int(np.prod(dropped["shape"]))])
        with pytest.raises(CompatibilityError, match=dropped["name"]):
            load_checkpoint(path)

    def test_unreadable_manifest_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"ARCK" + (5).to_bytes(4, "little") + b"{bad}")
        with pytest.raises(CompatibilityError, match=r"m\.ckpt: unreadable container manifest"):
            load_checkpoint(path)

    def test_unknown_config_key_refused(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(InsertionModel(tiny_config(), seed=29), path)
        manifest, blob = _read_container(path)
        manifest["config"]["n_static"] = 4
        _write_container(path, manifest, blob)
        with pytest.raises(CompatibilityError, match="invalid checkpoint config.*n_static"):
            load_checkpoint(path)

    def test_checksum_matches_reloaded_parameters(self, tmp_path):
        model = InsertionModel(tiny_config(), seed=27)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert parameter_checksum(model) == parameter_checksum(loaded)
