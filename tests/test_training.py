"""Adam, clipping, the batch loop, determinism, and resumable state."""

import tracemalloc
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrecover import tensor as T
from actrecover.activities import ACTIVITY_CATEGORIES, ID_TO_LABEL, LABEL_TO_ID, N_MODES
from actrecover.data import Activity, DaySequence, RecoverySample, mask_sequence
from actrecover.generator import ConfigError, default_config, generate_population, make_samples
from actrecover.model import (
    CompatibilityError,
    DecoderState,
    InsertionModel,
    ModelConfig,
    VocabularyError,
    _read_container,
    _write_container,
    insertion_targets,
    load_checkpoint,
    save_checkpoint,
    slot_labels,
)
from actrecover.tensor import Parameter
from actrecover.training import (
    Adam,
    TrainConfig,
    _batch_item,
    _data_digest,
    clip_gradients,
    load_train_state,
    train,
)

from helpers import (
    ListAdam,
    activity_batch_item,
    assert_same_network_inputs,
    at_float64,
    keep_graph_backward,
    list_clip_gradients,
    random_sequence,
    random_targets,
    tiny_config,
)


def small_dataset(n_days=16, seed=3):
    cfg = default_config()
    cfg.n_days = n_days
    seqs = generate_population(cfg, seed=seed)
    return make_samples(seqs, 0.3, seed=seed)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        adam = Adam(p.data, p.grad, 0.1)
        before = p.data.copy()
        assert adam.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_close_to_lr(self):
        p = Parameter("p", np.zeros(4))
        p.grad = np.array([3.0, -0.5, 10.0, -7.0])
        adam = Adam(p.data, p.grad, 1e-3)
        adam.step()
        # bias correction makes the first update lr * g / (|g| + eps) per entry
        np.testing.assert_allclose(np.abs(p.data), 1e-3, rtol=1e-5)
        np.testing.assert_array_equal(np.sign(p.data), -np.sign(p.grad))

    def test_non_finite_gradient_skipped_and_counted(self):
        p = Parameter("p", np.array([1.0]))
        p.grad = np.array([np.nan])
        adam = Adam(p.data, p.grad, 0.1)
        assert not adam.step()
        assert adam.skipped == 1
        np.testing.assert_array_equal(p.data, [1.0])

    def test_same_gradients_same_trajectory(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=3) for _ in range(20)]
        trajectories = []
        for _ in range(2):
            p = Parameter("p", np.ones(3))
            adam = Adam(p.data, p.grad, 0.01)
            for g in grads:
                p.grad[:] = g
                adam.step()
            trajectories.append(p.data.copy())
        np.testing.assert_array_equal(trajectories[0], trajectories[1])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        lr=st.sampled_from([1e-3, 0.1]),
        steps=st.lists(st.tuples(st.integers(-4, 1), st.sampled_from([None, np.nan, np.inf])),
                       min_size=1, max_size=4),
    )
    def test_flat_buffer_equals_the_per_parameter_loop_bits(self, seed, lr, steps):
        """Over drawn gradients, some clipped and some not finite, both optimizers agree bit for bit."""
        model = InsertionModel(tiny_config(d_m=4, d_attn=2, d_val=2), seed=seed)
        ref = [Parameter(p.name, p.data.copy()) for p in model.parameters()]
        adam, ref_adam = Adam(model.values, model.grads, lr), ListAdam(ref, lr)
        rng = np.random.default_rng(seed)
        for exponent, bad in steps:
            grads = [(rng.normal(size=q.shape) * 10.0**exponent).astype(np.float32) for q in ref]
            if bad is not None:
                grads[int(rng.integers(len(grads)))].flat[0] = bad
            for p, q, g in zip(model.parameters(), ref, grads):
                p.grad[...], q.grad = g, g.copy()
            norms = clip_gradients(model.parameters(), 1.0), list_clip_gradients(ref, 1.0)
            assert np.array(norms[0]).tobytes() == np.array(norms[1]).tobytes()  # NaN too
            assert adam.step() == ref_adam.step()
        assert (adam.t, adam.skipped) == (ref_adam.t, ref_adam.skipped)
        for flat, listed in ((model.values, [q.data for q in ref]), (model.grads, [q.grad for q in ref]),
                             (adam.m, ref_adam.m), (adam.v, ref_adam.v)):
            assert flat.tobytes() == b"".join(a.tobytes() for a in listed)


class TestFlatBuffers:
    """Parameters, gradients and Adam's moments each live in one flat buffer laid out like the checkpoint."""

    def test_two_train_steps_keep_every_view_and_checkpoint_the_buffers(self, tmp_path, monkeypatch):
        made = []

        class Recorded(Adam):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr("actrecover.training.Adam", Recorded)
        ckpt = tmp_path / "m.ckpt"
        model, report = train(small_dataset(n_days=8, seed=5), tiny_config(dropout=0.1),
                              TrainConfig(batch_size=4, epochs=1, seed=2), checkpoint_path=ckpt)
        assert report.steps == 2 and len(made) == 1
        adam = made[0]
        assert adam.values is model.values and adam.grads is model.grads
        params = model.parameters()
        for p in params:
            assert np.shares_memory(p.data, model.values) and np.shares_memory(p.grad, model.grads), p.name
        assert model.values.tobytes() == b"".join(p.data.tobytes() for p in params)
        assert model.grads.tobytes() == b"".join(p.grad.tobytes() for p in params)
        assert np.any(model.grads != 0)  # the last step's gradients landed in the buffer
        _, blob = _read_container(ckpt)
        assert blob == model.values.tobytes() + adam.m.tobytes() + adam.v.tobytes()

    @pytest.mark.parametrize("use_vsn", [True, False], ids=["fused", "token"])
    def test_a_float64_promotion_accumulates_in_float64_views(self, use_vsn):
        model = at_float64(InsertionModel(tiny_config(use_vsn=use_vsn, dropout=0.1), seed=4))
        rng = np.random.default_rng(4)
        states = [DecoderState.from_sequence(random_sequence(rng, n=n)) for n in (2, 5)]
        model.batch_loss(states, [slot_labels(random_targets(rng, st)) for st in states], rng=rng).backward()
        assert model.values.dtype == model.grads.dtype == np.float64
        for p in model.parameters():
            assert p.data.dtype == p.grad.dtype == np.float64, p.name
            assert np.shares_memory(p.grad, model.grads) and np.shares_memory(p.data, model.values), p.name
        assert np.any(model.grads != 0)


class TestClipping:
    def test_norm_reduced_to_threshold(self):
        rng = np.random.default_rng(1)
        params = [Parameter(f"p{i}", np.zeros(5)) for i in range(3)]
        for p in params:
            p.grad = rng.normal(size=5) * 10
        before = float(np.sqrt(sum((p.grad * p.grad).sum() for p in params)))
        assert before > 1.0
        assert clip_gradients(params, 1.0) == pytest.approx(before)
        assert clip_gradients(params, 1.0) <= 1.0 + 1e-6  # the norm after the first clip

    def test_small_gradients_untouched(self):
        p = Parameter("p", np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        clip_gradients([p], 1.0)
        np.testing.assert_array_equal(p.grad, [0.1, 0.1])


def _item(sample, rng, roll_in):
    """``_batch_item`` of ``sample``, with its complete day encoded as ``train`` encodes it."""
    return _batch_item(sample, DecoderState.from_sequence(sample.complete), rng, roll_in)


_FUSED = InsertionModel(tiny_config(max_len=32), seed=0)  # its packed inputs depend on its config alone


def _owed(fills):
    """``batch_loss`` targets with each slot's label ids sorted, so orders inside a slot may differ."""
    return [sorted(fill) for fill in fills]


class TestBatchItem:
    def test_without_roll_in_the_item_is_the_raw_input(self):
        for sample in small_dataset(n_days=8, seed=9):
            state, targets = _item(sample, np.random.default_rng(0), 0.0)
            assert_same_network_inputs(_FUSED, state, sample.incomplete)
            kept = [j for j in range(len(sample.complete)) if j not in sample.removed_positions]
            np.testing.assert_array_equal(state.source, kept)  # each row's place in the complete day
            want = insertion_targets(sample.incomplete.labels(), sample.complete.labels())
            assert _owed(targets) == _owed(slot_labels(want))

    def test_a_sample_without_removals_draws_nothing(self):
        cfg = default_config()
        cfg.n_days = 1
        (sample,) = make_samples(generate_population(cfg, seed=8), 0.0, seed=8)
        rng = np.random.default_rng(5)
        state, targets = _item(sample, rng, 1.0)
        assert rng.random() == np.random.default_rng(5).random()
        assert targets == [[]] * (len(sample.complete) + 1) and len(state.tokens) == len(sample.complete)

    def test_rolled_in_states_lie_on_the_decode_lattice(self):
        rng = np.random.default_rng(11)
        for sample in small_dataset(n_days=16, seed=11):
            state, targets = _item(sample, rng, 1.0)
            kept = [j for j in range(len(sample.complete)) if j not in sample.removed_positions]
            own = state.source >= 0  # a promoted row comes back as an insertion, of no source activity
            np.testing.assert_array_equal(state.source[own], kept)  # every kept row, and no promoted one
            acts = sample.complete.activities  # the day it stands for: promoted activities unobserved
            day = [acts[j] if j >= 0 else Activity(ID_TO_LABEL[t])
                   for j, t in zip(state.source.tolist(), state.tokens.tolist())]
            assert_same_network_inputs(_FUSED, state, replace(sample.complete, activities=day))
            assert len(targets) == len(state.tokens) + 1
            assert sum(map(len, targets)) == len(sample.complete) - len(state.tokens)

    def test_an_all_removed_item_is_an_empty_state_a_mixed_batch_accepts(self):
        day = random_sequence(np.random.default_rng(4), n=4)
        state, targets = _item(RecoverySample(day, [0, 1, 2, 3]), np.random.default_rng(4), 0.0)
        assert state.tokens.shape == state.source.shape == (0,)
        assert state.tokens.dtype == state.source.dtype == np.int64  # an empty source that is float cannot index
        assert _owed(targets) == [sorted(LABEL_TO_ID[a.label] for a in day.activities)]
        other, owed = _item(RecoverySample(day, [2]), np.random.default_rng(4), 0.0)
        for model in (_FUSED, InsertionModel(tiny_config(use_vsn=False), seed=0)):
            assert np.isfinite(model.batch_loss([state, other], [targets, owed]).data)

    def test_targets_follow_the_alignment_when_labels_repeat(self):
        home = Activity("HomeActivity", 1, 30, 6, 0.0, True)
        day = DaySequence(0, 0, 2, 0, (1, 2, 3, 4), [home, replace(home, arr=40, dep=96, mode=1)])
        state, targets = _item(RecoverySample(day, [0]), np.random.default_rng(0), 0.0)
        np.testing.assert_array_equal(state.source, [1])
        assert targets == [[], [LABEL_TO_ID["HomeActivity"]]]  # the alignment's slot, not the removed one

    def test_promotion_draws_follow_the_set_order_of_the_removed_positions(self):
        # after the rate, list({2, 9}) == [9, 2] takes the draws 0.814 and 0.092 against a rate of
        # 0.298; drawing in position order would promote 9 and drop 2 instead
        day = random_sequence(np.random.default_rng(2), n=10)
        state, targets = _item(RecoverySample(day, [2, 9]), np.random.default_rng(2), 1.0)
        np.testing.assert_array_equal(state.source, [0, 1, -1, 3, 4, 5, 6, 7, 8])  # 2 an insertion
        assert targets == [[]] * 9 + [[LABEL_TO_ID[day.activities[9].label]]]  # 9 dropped, so owed

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        labels=st.lists(st.sampled_from(ACTIVITY_CATEGORIES[5:]), min_size=1, max_size=12),
        hidden=st.lists(st.booleans(), max_size=12),
        p_remove=st.floats(0.0, 1.0),
        roll_in=st.sampled_from([0.0, 0.7, 1.0]),
    )
    def test_item_encodes_the_frozen_reference(self, seed, labels, hidden, p_remove, roll_in):
        rng = np.random.default_rng(seed)
        complete = random_sequence(rng, labels=labels)
        for j, hide in enumerate(hidden[: len(labels)]):  # a dataset day may hold unobserved activities
            if hide:
                complete.activities[j] = Activity(labels[j], arr=5, dep=9, mode=2, dist=3.5)
        sample = mask_sequence(complete, p_remove, rng)
        rngs = [np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])]
        state, targets = _item(sample, rngs[0], roll_in)
        partial, want_targets = activity_batch_item(sample, rngs[1], roll_in)
        assert_same_network_inputs(_FUSED, state, partial)
        assert _owed(targets) == _owed(slot_labels(want_targets))
        assert rngs[0].random() == rngs[1].random()


@pytest.fixture
def builds(monkeypatch):
    """Counts of ``DecoderState.from_sequence`` calls and of ``DaySequence`` and ``Activity`` builds.

    ``dataclasses.replace`` builds through ``__init__``, so it is counted too.
    """
    counts = Counter()
    encode = DecoderState.from_sequence

    def counting_encode(seq):
        counts["from_sequence"] += 1
        return encode(seq)

    monkeypatch.setattr(DecoderState, "from_sequence", staticmethod(counting_encode))
    for cls in (DaySequence, Activity):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


class TestEncodeOnce:
    def test_train_encodes_each_sample_once_and_builds_no_day(self, builds):
        samples = small_dataset(n_days=12, seed=5)
        builds.clear()
        _, report = train(samples, tiny_config(), TrainConfig(batch_size=4, epochs=3, seed=2))
        assert report.steps == 9
        assert builds == {"from_sequence": len(samples)}

    def test_recover_batch_encodes_each_input_once_and_builds_only_its_outputs(self, builds):
        days = [random_sequence(np.random.default_rng(k)) for k in range(12)]
        builds.clear()
        outcomes = InsertionModel(tiny_config(max_len=12), seed=7).recover_batch(days)
        assert max(o.rounds for o in outcomes) >= 2  # rows went through several rounds
        insertions = sum(len(o.sequence) - len(day) for o, day in zip(outcomes, days))
        assert builds == {"from_sequence": len(days), "DaySequence": len(days), "Activity": insertions}


class TestTrainLoop:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            train([], tiny_config(), TrainConfig(epochs=1))

    def test_invalid_day_refused_before_the_first_step(self):
        samples = small_dataset(n_days=4, seed=3)
        s = samples[2]
        samples[2] = RecoverySample(replace(s.complete, weekday=9), s.removed_positions)
        with pytest.raises(VocabularyError, match="weekday out of 1..7: 9"):
            train(samples, tiny_config(), TrainConfig(epochs=0))

    def test_deterministic_loss_series(self):
        samples = small_dataset()
        tc = TrainConfig(lr=1e-3, batch_size=8, epochs=3, seed=9)
        _, report_a = train(samples, tiny_config(), tc)
        _, report_b = train(samples, tiny_config(), tc)
        assert report_a.losses == report_b.losses
        assert report_a.checksum == report_b.checksum

    def test_dropout_training_is_seeded(self):
        samples = small_dataset()
        tc = TrainConfig(lr=1e-3, batch_size=8, epochs=2, seed=9)
        cfg = tiny_config(dropout=0.2)
        _, report_a = train(samples, cfg, tc)
        _, report_b = train(samples, cfg, tc)
        assert report_a.losses == report_b.losses

    def test_overfit_toy_set(self):
        samples = small_dataset(n_days=8, seed=4)
        tc = TrainConfig(lr=3e-3, batch_size=8, epochs=150, seed=1)
        model, report = train(samples, tiny_config(d_m=16, d_attn=8, d_val=8), tc)
        assert report.losses[-1] < 0.1 * report.losses[0]
        assert report.steps == 150
        assert report.skipped_steps == 0

    def test_single_pair_overfit_reproduces_target(self):
        from actrecover.data import Activity, DaySequence, RecoverySample

        complete = DaySequence(
            person_id=0, date=0, weekday=2, holiday=0, static=(1, 2, 3, 4),
            activities=[
                Activity("HomeActivity", 1, 30, 6, 0.0, True),
                Activity("WorkForPay", 33, 62, 1, 4.2, True),
                Activity("HomeActivity", 65, 96, 1, 4.0, True),
            ],
        )
        sample = RecoverySample(complete, [1])
        tc = TrainConfig(lr=3e-3, batch_size=1, epochs=200, seed=6)
        model, _ = train([sample], tiny_config(d_m=16, d_attn=8, d_val=8), tc)
        out = model.recover(sample.incomplete)
        assert out.sequence.labels() == ["HomeActivity", "WorkForPay", "HomeActivity"]

    def test_degenerate_no_removal_sample_saturates(self):
        cfg = default_config()
        cfg.n_days = 1
        seqs = generate_population(cfg, seed=8)
        samples = make_samples(seqs, 0.0, seed=8)  # incomplete == complete
        tc = TrainConfig(lr=3e-3, batch_size=1, epochs=120, seed=2)
        _, report = train(samples, tiny_config(), tc)
        smoothed = [float(np.mean(report.losses[i : i + 50])) for i in (0, 35, 70)]
        assert smoothed[0] > smoothed[1] > smoothed[2]
        assert report.losses[-1] < 0.05

    def test_padding_leaves_per_sample_losses_unchanged(self):
        samples = small_dataset(n_days=6, seed=5)
        model = InsertionModel(tiny_config(), seed=0)
        states, targets = [], []
        for s in samples:
            states.append(DecoderState.from_sequence(s.incomplete))
            targets.append(insertion_targets(s.incomplete.labels(), s.complete.labels()))
        lengths = [len(st.tokens) for st in states]
        short = lengths.index(min(lengths))
        longest = lengths.index(max(lengths))
        alone = [float(model.insertion_loss(states[i], targets[i]).data) for i in (short, longest)]
        padded = model.batch_loss(
            [states[short], states[longest]], [slot_labels(targets[short]), slot_labels(targets[longest])]
        )
        assert float(padded.data) == pytest.approx(np.mean(alone), abs=1e-6)


def _tape(loss):
    """Every node the loss's graph reaches, the raw operands that became tensors included.

    Backward consumes the graph, so this walks it before ``loss.backward()``.
    """
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


class TestTapeSize:
    """How many nodes a default-size training step records, so a change to the count shows in a diff."""

    @pytest.mark.parametrize("use_vsn, nodes", [(True, 157), (False, 87)], ids=["fused", "token"])
    def test_a_default_size_step_records_a_fixed_number_of_nodes(self, use_vsn, nodes, monkeypatch):
        model = InsertionModel(ModelConfig(use_vsn=use_vsn), seed=0)
        rng = np.random.default_rng(0)
        states, targets = zip(*(_item(s, rng, 0.7) for s in small_dataset(n_days=TrainConfig().batch_size)))
        recorded, node = [], T._node

        def counting_node(*args):
            out = node(*args)
            recorded.append(out.requires_grad)
            return out

        monkeypatch.setattr(T, "_node", counting_node)
        model.batch_loss(states, targets, rng=rng).backward()
        assert sum(recorded) == nodes


class TestFloat32:
    """The model trains and decodes in float32, the dtype its checkpoints store."""

    @pytest.mark.parametrize("use_vsn", [True, False], ids=["fused", "token"])
    def test_two_steps_leave_every_array_float32(self, use_vsn, monkeypatch):
        samples = small_dataset(n_days=8, seed=11)
        model = InsertionModel(tiny_config(use_vsn=use_vsn, dropout=0.1), seed=3)
        adam = Adam(model.values, model.grads, TrainConfig().lr)
        accumulate, grad_dtypes = T._accumulate, []

        def recording(node, g):  # every node gradient as it accumulates, before backward frees it
            accumulate(node, g)
            if node.grad is not None:
                grad_dtypes.append(node.grad.dtype)

        monkeypatch.setattr(T, "_accumulate", recording)
        for step in range(2):
            rng = np.random.default_rng(step)
            states, targets = zip(*(_item(s, rng, 0.7) for s in samples))
            model.zero_grads()
            loss = model.batch_loss(states, targets, rng=rng)
            tape = _tape(loss)
            loss.backward()
            clip_gradients(model.parameters(), 1.0)
            assert adam.step()
        params = model.parameters()
        arrays = [p.data for p in params] + [p.grad for p in params] + [adam.m, adam.v]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        assert len(tape) > len(params)
        assert {node.data.dtype for node in tape} == {np.dtype(np.float32)}
        assert set(grad_dtypes) | {loss.grad.dtype} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("use_vsn", [True, False], ids=["fused", "token"])
    def test_recovery_scores_in_float32(self, use_vsn, monkeypatch):
        model = InsertionModel(tiny_config(use_vsn=use_vsn), seed=5)
        forward, dtypes = model.forward, []

        def recording(states, rng=None):
            logits, info = forward(states, rng)
            dtypes.append(logits.data.dtype)
            return logits, info

        monkeypatch.setattr(model, "forward", recording)
        model.recover_batch([s.incomplete for s in small_dataset(n_days=6, seed=12)])
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}

    def test_the_trained_model_decodes_as_the_checkpoint_it_wrote(self, tmp_path):
        samples = small_dataset(n_days=24, seed=13)
        ckpt = tmp_path / "m.ckpt"
        tc = TrainConfig(lr=3e-3, batch_size=8, epochs=4, seed=2)
        trained, _ = train(samples, tiny_config(dropout=0.1), tc, checkpoint_path=ckpt)
        loaded, _ = load_checkpoint(ckpt)
        days = [s.incomplete for s in samples]
        assert trained.recover_batch(days) == loaded.recover_batch(days)
        for day in days:  # the slot scores behind each outcome are the same bits
            state = DecoderState.from_sequence(day)
            assert (trained.decoder_forward(state).probs.tobytes()
                    == loaded.decoder_forward(state).probs.tobytes())


class TestBackwardFreesTheTape:
    """A step's tape is gone once its backward returns, and the gradients are those of the kept tape."""

    def test_three_steps_peak_as_high_as_one(self):
        samples = small_dataset(n_days=64, seed=3)
        cfg = tiny_config(d_m=16, dropout=0.1)

        def traced_peak(epochs: int) -> int:  # one step per epoch: the batch is the whole dataset
            tracemalloc.start()
            try:
                train(samples, cfg, TrainConfig(batch_size=len(samples), epochs=epochs, seed=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(1)  # first-call allocations stay out of both measurements
        one, three = traced_peak(1), traced_peak(3)
        assert three <= 1.05 * one, f"3 steps peaked at {three / one:.2f}x one step"

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        use_vsn=st.booleans(),
        lengths=st.lists(st.integers(0, 10), min_size=1, max_size=6),
    )
    def test_gradients_equal_the_kept_tape_bytes(self, seed, use_vsn, lengths):
        rng = np.random.default_rng(seed)
        cfg = tiny_config(use_vsn=use_vsn, dropout=0.2, max_len=10)
        states = [DecoderState.from_sequence(random_sequence(rng, n=n)) for n in lengths]
        targets = [slot_labels(random_targets(rng, state)) for state in states]
        models = [InsertionModel(cfg, seed=seed) for _ in range(2)]
        losses = [m.batch_loss(states, targets, rng=np.random.default_rng([seed, 1])) for m in models]
        losses[0].backward()
        keep_graph_backward(losses[1])
        assert losses[0].data.tobytes() == losses[1].data.tobytes()
        for p, q in zip(*(m.parameters() for m in models)):
            assert p.grad.tobytes() == q.grad.tobytes(), p.name


class TestCheckpointingAndResume:
    def test_checkpoint_written_at_interval(self, tmp_path):
        samples = small_dataset(n_days=8, seed=6)
        ckpt = tmp_path / "model.ckpt"
        tc = TrainConfig(lr=1e-3, batch_size=8, epochs=4, seed=3, checkpoint_interval=2)
        model, report = train(samples, tiny_config(), tc, checkpoint_path=ckpt)
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]  # no sidecar
        loaded, manifest = load_checkpoint(ckpt)
        assert manifest["step"] == report.steps
        from actrecover.model import parameter_checksum

        assert parameter_checksum(loaded) == report.checksum

    def test_resume_continues_exact_trajectory(self, tmp_path):
        samples = small_dataset(n_days=8, seed=7)
        cfg = tiny_config()
        full_tc = TrainConfig(lr=1e-3, batch_size=4, epochs=6, seed=4)
        _, full_report = train(samples, cfg, full_tc)

        ckpt = tmp_path / "part.ckpt"
        half_tc = TrainConfig(lr=1e-3, batch_size=4, epochs=3, seed=4)
        train(samples, cfg, half_tc, checkpoint_path=ckpt)
        model, tail_report = train(
            samples, cfg, full_tc, checkpoint_path=ckpt, resume=True
        )
        midpoint = len(full_report.losses) // 2
        np.testing.assert_allclose(tail_report.losses, full_report.losses[midpoint:], atol=1e-12)
        assert tail_report.steps == full_report.steps

    def test_resume_without_a_checkpoint_path_refused(self):
        with pytest.raises(ConfigError, match=r"resuming needs the checkpoint path"):
            train(small_dataset(n_days=8, seed=7), tiny_config(), TrainConfig(epochs=1), resume=True)

    def test_resume_rejects_other_config(self, tmp_path):
        samples = small_dataset(n_days=8, seed=7)
        ckpt = tmp_path / "part.ckpt"
        train(samples, tiny_config(), TrainConfig(batch_size=4, epochs=1, seed=4), checkpoint_path=ckpt)
        model = InsertionModel(tiny_config(d_m=16, d_attn=8, d_val=8), seed=0)
        adam = Adam(model.values, model.grads, TrainConfig().lr)
        with pytest.raises(CompatibilityError, match="config"):
            load_train_state(ckpt, model, adam, TrainConfig())

    def test_resume_rejects_other_format(self, tmp_path):
        samples = small_dataset(n_days=8, seed=7)
        ckpt = tmp_path / "part.ckpt"
        train(samples, tiny_config(), TrainConfig(batch_size=4, epochs=1, seed=4), checkpoint_path=ckpt)
        manifest, blob = _read_container(ckpt)
        assert manifest["format"] == 5
        model = InsertionModel(tiny_config(), seed=0)
        for old in (1, 2, 3, 4):
            manifest["format"] = old
            _write_container(ckpt, manifest, blob)
            with pytest.raises(CompatibilityError, match=f"checkpoint format {old} is not supported"):
                load_train_state(ckpt, model, Adam(model.values, model.grads, TrainConfig().lr), TrainConfig())

    @pytest.fixture
    def one_epoch_state(self, tmp_path):
        ckpt = tmp_path / "part.ckpt"
        tc = TrainConfig(batch_size=4, epochs=1, seed=4)
        train(small_dataset(n_days=8, seed=7), tiny_config(), tc, checkpoint_path=ckpt)
        return ckpt, tc

    def test_checkpoint_pins_the_training_config(self, one_epoch_state):
        ckpt, tc = one_epoch_state
        manifest, _ = _read_container(ckpt)
        assert manifest["train"] == asdict(tc)
        assert (manifest["step"], manifest["adam_skipped"]) == (2, 0) and "adam_t" not in manifest

    def test_resume_refuses_a_different_training_config(self, one_epoch_state):
        ckpt, tc = one_epoch_state
        changed = TrainConfig(batch_size=2, epochs=2, seed=99, lr=tc.lr)
        with pytest.raises(CompatibilityError) as info:
            train(small_dataset(n_days=8, seed=7), tiny_config(), changed,
                  checkpoint_path=ckpt, resume=True)
        message = str(info.value)
        assert "part.ckpt: cannot resume with a different training config" in message
        assert "batch_size=4 (now 2)" in message and "seed=4 (now 99)" in message
        assert "epochs=" not in message

    def test_resume_may_change_epochs_and_checkpoint_interval(self, one_epoch_state):
        ckpt, tc = one_epoch_state
        longer = TrainConfig(batch_size=4, epochs=2, seed=4, checkpoint_interval=1)
        _, report = train(small_dataset(n_days=8, seed=7), tiny_config(), longer,
                          checkpoint_path=ckpt, resume=True)
        assert report.steps == 4 and len(report.losses) == 2

    @pytest.mark.parametrize("key", ["config", "train", "step", "adam_skipped"])
    def test_checkpoint_manifest_without_required_key_refused(self, one_epoch_state, key):
        ckpt, _ = one_epoch_state
        manifest, blob = _read_container(ckpt)
        del manifest[key]
        _write_container(ckpt, manifest, blob)
        model = InsertionModel(tiny_config(), seed=0)
        with pytest.raises(CompatibilityError, match=rf"part\.ckpt: checkpoint manifest lacks {key}$"):
            load_train_state(ckpt, model, Adam(model.values, model.grads, TrainConfig().lr), TrainConfig())

    def test_checkpoint_with_a_wrong_parameter_list_refused(self, one_epoch_state):
        ckpt, _ = one_epoch_state
        manifest, blob = _read_container(ckpt)
        manifest["params"] = [{"name": "bogus", "shape": [1]}]
        _write_container(ckpt, manifest, blob)
        model = InsertionModel(tiny_config(), seed=0)
        with pytest.raises(CompatibilityError, match=r"part\.ckpt: parameter entry 0 is .*'bogus'"):
            load_train_state(ckpt, model, Adam(model.values, model.grads, TrainConfig().lr), TrainConfig())

    def test_training_state_roundtrip_bit_exact(self, one_epoch_state, tmp_path):
        ckpt, tc = one_epoch_state
        model = InsertionModel(tiny_config(), seed=0)
        adam = Adam(model.values, model.grads, TrainConfig().lr)
        step = load_train_state(ckpt, model, adam, tc)
        assert (adam.t, adam.skipped) == (step, 0)
        again = tmp_path / "again.ckpt"
        samples = small_dataset(n_days=8, seed=7)
        digest = _data_digest(samples, DecoderState.from_days([s.complete for s in samples], tiny_config().max_len))
        training = {"train": asdict(tc), "step": step, "adam_skipped": 0, "data_digest": digest}
        save_checkpoint(model, again, training, (adam.m, adam.v))
        assert again.read_bytes() == ckpt.read_bytes()

    def test_adam_update_count_is_the_steps_not_skipped(self, one_epoch_state):
        ckpt, tc = one_epoch_state
        manifest, blob = _read_container(ckpt)
        manifest["adam_skipped"] = 1
        _write_container(ckpt, manifest, blob)
        model = InsertionModel(tiny_config(), seed=0)
        adam = Adam(model.values, model.grads, TrainConfig().lr)
        assert load_train_state(ckpt, model, adam, tc) == 2
        assert (adam.t, adam.skipped) == (1, 1)

    def test_truncated_checkpoint_blob_names_file_and_sizes(self, one_epoch_state):
        ckpt, _ = one_epoch_state
        manifest, blob = _read_container(ckpt)
        _write_container(ckpt, manifest, blob[:-8])
        model = InsertionModel(tiny_config(), seed=0)
        need = 3 * 4 * sum(p.size for p in model.parameters())
        assert len(blob) == need
        with pytest.raises(
            CompatibilityError,
            match=rf"part\.ckpt: checkpoint blob holds {need - 8} bytes, the manifest needs {need}",
        ):
            load_train_state(ckpt, model, Adam(model.values, model.grads, TrainConfig().lr), TrainConfig())


def _with_first_activity(sample: RecoverySample, **changes) -> RecoverySample:
    day = sample.complete
    acts = [replace(day.activities[0], **changes), *day.activities[1:]]
    return RecoverySample(replace(day, activities=acts), sample.removed_positions)


@pytest.mark.parametrize("edit", [
    lambda ss: ss[::-1],
    lambda ss: [RecoverySample(ss[0].complete, sorted(set(ss[0].removed_positions) ^ {0})), *ss[1:]],
    lambda ss: [RecoverySample(replace(ss[0].complete, weekday=ss[0].complete.weekday % 7 + 1),
                               ss[0].removed_positions), *ss[1:]],
    lambda ss: [RecoverySample(replace(ss[0].complete, static=(5, 5, 5, 5)), ss[0].removed_positions), *ss[1:]],
    lambda ss: [_with_first_activity(ss[0], label="Other"), *ss[1:]],
    lambda ss: [_with_first_activity(ss[0], dep=ss[0].complete.activities[0].dep + 1), *ss[1:]],
    lambda ss: [_with_first_activity(ss[0], mode=1 + ss[0].complete.activities[0].mode % N_MODES), *ss[1:]],
    lambda ss: [_with_first_activity(ss[0], dist=ss[0].complete.activities[0].dist + 0.5), *ss[1:]],
    lambda ss: ss[:-1],
], ids=["order", "removed", "weekday", "static", "label", "dep", "mode", "dist", "one_day_fewer"])
def test_data_digest_changes_with_what_training_reads(edit):
    """The digest a resume checks moves with each part of a sample that training reads."""
    samples = small_dataset(n_days=8, seed=7)
    assert samples[0].complete.activities[0].label != "Other" and samples[0].complete.static != (5, 5, 5, 5)

    def digest(samples):
        return _data_digest(samples, DecoderState.from_days([s.complete for s in samples], 32))

    assert digest(edit(samples)) != digest(samples)


def test_data_digest_ignores_person_ids_and_dates():
    """Training never reads them, so a renumbered copy continues the same trajectory."""
    samples = small_dataset(n_days=8, seed=7)
    renumbered = [RecoverySample(replace(s.complete, person_id=100 + i, date=7), s.removed_positions)
                  for i, s in enumerate(samples)]
    completes = [DecoderState.from_days([s.complete for s in ss], 32) for ss in (samples, renumbered)]
    assert _data_digest(samples, completes[0]) == _data_digest(renumbered, completes[1])
