"""Adam, clipping, the batch loop, determinism, and resumable state."""

from dataclasses import fields, replace

import numpy as np
import pytest

from actrecover.data import RecoverySample
from actrecover.generator import ConfigError, default_config, generate_population, make_samples
from actrecover.model import (
    DecoderState,
    InsertionModel,
    ModelConfig,
    VocabularyError,
    _read_container,
    _write_container,
    insertion_targets,
    load_checkpoint,
)
from actrecover.tensor import Parameter
from actrecover.training import (
    Adam,
    TrainConfig,
    TrainReport,
    _batch_item,
    clip_gradients,
    load_train_state,
    save_train_state,
    train,
)

from helpers import tiny_config


def small_dataset(n_days=16, seed=3):
    cfg = default_config()
    cfg.n_days = n_days
    seqs = generate_population(cfg, seed=seed)
    return make_samples(seqs, 0.3, seed=seed)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        adam = Adam([p], TrainConfig(lr=0.1))
        before = p.data.copy()
        assert adam.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_close_to_lr(self):
        p = Parameter("p", np.zeros(4))
        p.grad = np.array([3.0, -0.5, 10.0, -7.0])
        adam = Adam([p], TrainConfig(lr=1e-3))
        adam.step()
        # bias correction makes the first update lr * g / (|g| + eps) per entry
        np.testing.assert_allclose(np.abs(p.data), 1e-3, rtol=1e-5)
        np.testing.assert_array_equal(np.sign(p.data), -np.sign(p.grad))

    def test_non_finite_gradient_skipped_and_counted(self):
        p = Parameter("p", np.array([1.0]))
        p.grad = np.array([np.nan])
        adam = Adam([p], TrainConfig(lr=0.1))
        assert not adam.step()
        assert adam.skipped == 1
        np.testing.assert_array_equal(p.data, [1.0])

    def test_same_gradients_same_trajectory(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=3) for _ in range(20)]
        trajectories = []
        for _ in range(2):
            p = Parameter("p", np.ones(3))
            adam = Adam([p], TrainConfig(lr=0.01))
            for g in grads:
                p.grad = g.copy()
                adam.step()
            trajectories.append(p.data.copy())
        np.testing.assert_array_equal(trajectories[0], trajectories[1])


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


class TestBatchItem:
    def test_without_roll_in_the_item_is_the_raw_input(self):
        for sample in small_dataset(n_days=8, seed=9):
            state, targets = _batch_item(sample, np.random.default_rng(0), 0.0)
            raw = DecoderState.from_sequence(sample.incomplete)
            np.testing.assert_array_equal(state.tokens, raw.tokens)
            assert state.day == raw.day
            assert targets == insertion_targets(sample.incomplete.labels(), sample.complete.labels())

    def test_a_sample_without_removals_draws_nothing(self):
        cfg = default_config()
        cfg.n_days = 1
        (sample,) = make_samples(generate_population(cfg, seed=8), 0.0, seed=8)
        rng = np.random.default_rng(5)
        state, targets = _batch_item(sample, rng, 1.0)
        assert rng.random() == np.random.default_rng(5).random()
        assert all(not counter for counter in targets) and len(state.tokens) == len(sample.complete)

    def test_rolled_in_states_lie_on_the_decode_lattice(self):
        rng = np.random.default_rng(11)
        for sample in small_dataset(n_days=16, seed=11):
            state, targets = _batch_item(sample, rng, 1.0)
            kept = [j for j in range(len(sample.complete)) if j not in sample.removed_positions]
            observed = [a.observed for a in state.day.activities]
            assert sum(observed) == len(kept)  # every kept activity, and no promoted one, is observed
            assert sum(sum(c.values()) for c in targets) == len(sample.complete) - len(state.tokens)


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
            [states[short], states[longest]], [targets[short], targets[longest]]
        )
        assert float(padded.data) == pytest.approx(np.mean(alone), abs=1e-6)


class TestCheckpointingAndResume:
    def test_checkpoint_written_at_interval(self, tmp_path):
        samples = small_dataset(n_days=8, seed=6)
        ckpt = tmp_path / "model.ckpt"
        tc = TrainConfig(lr=1e-3, batch_size=8, epochs=4, seed=3, checkpoint_interval=2)
        model, report = train(samples, tiny_config(), tc, checkpoint_path=ckpt)
        assert ckpt.exists() and (tmp_path / "model.ckpt.state").exists()
        loaded, manifest = load_checkpoint(ckpt)
        assert manifest["extra"]["step"] == report.steps
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
        adam = Adam(model.parameters(), TrainConfig())
        with pytest.raises(ConfigError, match="config"):
            load_train_state(str(ckpt) + ".state", model, adam)

    def test_resume_rejects_other_format(self, tmp_path):
        samples = small_dataset(n_days=8, seed=7)
        ckpt = tmp_path / "part.ckpt"
        train(samples, tiny_config(), TrainConfig(batch_size=4, epochs=1, seed=4), checkpoint_path=ckpt)
        state = str(ckpt) + ".state"
        manifest, blob = _read_container(state)
        assert manifest["format"] == 3
        model = InsertionModel(tiny_config(), seed=0)
        for old in (1, 2):
            manifest["format"] = old
            _write_container(state, manifest, blob)
            with pytest.raises(ConfigError, match=f"training-state format {old} is not supported"):
                load_train_state(state, model, Adam(model.parameters(), TrainConfig()))

    @pytest.fixture
    def one_epoch_state(self, tmp_path):
        ckpt = tmp_path / "part.ckpt"
        tc = TrainConfig(batch_size=4, epochs=1, seed=4)
        train(small_dataset(n_days=8, seed=7), tiny_config(), tc, checkpoint_path=ckpt)
        return ckpt, tc

    def test_state_pins_the_training_config(self, one_epoch_state):
        ckpt, tc = one_epoch_state
        manifest, _ = _read_container(str(ckpt) + ".state")
        assert manifest["train"] == tc.to_dict()

    def test_resume_refuses_a_different_training_config(self, one_epoch_state):
        ckpt, tc = one_epoch_state
        changed = TrainConfig(batch_size=2, epochs=2, seed=99, lr=tc.lr)
        with pytest.raises(ConfigError) as info:
            train(small_dataset(n_days=8, seed=7), tiny_config(), changed,
                  checkpoint_path=ckpt, resume=True)
        message = str(info.value)
        assert "part.ckpt.state: cannot resume with a different training config" in message
        assert "batch_size=4 (now 2)" in message and "seed=4 (now 99)" in message
        assert "epochs=" not in message

    def test_resume_may_change_epochs_and_checkpoint_interval(self, one_epoch_state):
        ckpt, tc = one_epoch_state
        longer = TrainConfig(batch_size=4, epochs=2, seed=4, checkpoint_interval=1)
        _, report = train(small_dataset(n_days=8, seed=7), tiny_config(), longer,
                          checkpoint_path=ckpt, resume=True)
        assert report.steps == 4 and len(report.losses) == 2

    @pytest.mark.parametrize("key", ["config", "train", "step", "adam_t", "adam_skipped"])
    def test_state_manifest_without_required_key_refused(self, one_epoch_state, key):
        ckpt, _ = one_epoch_state
        state = str(ckpt) + ".state"
        manifest, blob = _read_container(state)
        del manifest[key]
        _write_container(state, manifest, blob)
        model = InsertionModel(tiny_config(), seed=0)
        with pytest.raises(ConfigError, match=rf"part\.ckpt\.state: training-state manifest lacks {key}"):
            load_train_state(state, model, Adam(model.parameters(), TrainConfig()))

    def test_state_with_a_wrong_parameter_list_refused(self, one_epoch_state):
        ckpt, _ = one_epoch_state
        state = str(ckpt) + ".state"
        manifest, blob = _read_container(state)
        manifest["params"] = [{"name": "bogus", "shape": [1]}]
        _write_container(state, manifest, blob)
        model = InsertionModel(tiny_config(), seed=0)
        with pytest.raises(ConfigError, match=r"part\.ckpt\.state: parameter entry 0 is .*'bogus'"):
            load_train_state(state, model, Adam(model.parameters(), TrainConfig()))

    def test_state_roundtrip_bit_exact(self, one_epoch_state, tmp_path):
        ckpt, tc = one_epoch_state
        model = InsertionModel(tiny_config(), seed=0)
        adam = Adam(model.parameters(), TrainConfig())
        step = load_train_state(str(ckpt) + ".state", model, adam)
        again = tmp_path / "again.state"
        save_train_state(again, model, adam, step, tc)
        assert again.read_bytes() == (tmp_path / "part.ckpt.state").read_bytes()

    def test_truncated_state_blob_names_file_and_sizes(self, one_epoch_state):
        ckpt, _ = one_epoch_state
        state = str(ckpt) + ".state"
        manifest, blob = _read_container(state)
        _write_container(state, manifest, blob[:-8])
        model = InsertionModel(tiny_config(), seed=0)
        need = 3 * 8 * sum(p.size for p in model.parameters())
        assert len(blob) == need
        with pytest.raises(
            ConfigError,
            match=rf"part\.ckpt\.state: training-state blob holds {need - 8} bytes, the manifest needs {need}",
        ):
            load_train_state(state, model, Adam(model.parameters(), TrainConfig()))


@pytest.mark.parametrize(
    "record",
    [ModelConfig(), TrainConfig(), TrainReport(losses=[0.5], steps=1), default_config()],
    ids=lambda record: type(record).__name__,
)
def test_records_serialize_exactly_their_dataclass_fields(record):
    to_dict = record.to_dict if hasattr(record, "to_dict") else record.to_json_dict
    assert list(to_dict()) == [f.name for f in fields(record)]
