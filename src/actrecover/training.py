"""Optimization loop for the insertion model.

Adam with bias correction behind global-norm gradient clipping, on the
model's flat buffers; per-epoch shuffles and per-step dropout masks are
derived from the training seed, so a run is fully reproducible, and resuming
from the one-file training checkpoint continues the exact same trajectory.
A batch runs packed: the valid positions of its states back to back, with
padding only inside each attention (see :mod:`actrecover.model`), so
padding costs work only there and never enters the loss.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import RecoverySample, align_subsequence, slot_fills
from .generator import ConfigError, config_values
from .model import (
    CompatibilityError,
    DecoderState,
    InsertionModel,
    ModelConfig,
    config_diffs,
    parameter_checksum,
    read_checkpoint,
    save_checkpoint,
)
from .tensor import NumericError, Parameter

__all__ = [
    "TrainConfig",
    "TrainReport",
    "Adam",
    "clip_gradients",
    "train",
    "load_train_state",
]


# Fixed by the method, not by a run: Adam's published defaults (Kingma & Ba, 2015), the global
# gradient norm a step is clipped to, and the share of batch states ``_batch_item`` rolls in.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
CLIP_NORM, ROLL_IN = 1.0, 0.7


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0
    checkpoint_interval: int = 0  # steps between checkpoints; 0 = final only

    def __post_init__(self) -> None:
        if not self.lr > 0:  # also refuses NaN
            raise ConfigError(f"learning rate must be positive: {self.lr}")
        if not np.isfinite(self.lr):
            raise ConfigError(f"learning rate must be finite: {self.lr}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if self.seed < 0 or self.checkpoint_interval < 0:
            raise ConfigError("seed and checkpoint_interval must be >= 0: "
                              f"seed={self.seed}, checkpoint_interval={self.checkpoint_interval}")


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    grad_norms: list[float | None] = field(default_factory=list)  # before clipping; None if not finite
    checksum: str = ""
    wall_clock: float = 0.0
    steps: int = 0
    skipped_steps: int = 0


def clip_gradients(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``; returns the norm before.

    The squares are summed in float64, so the norm of float32 gradients
    cannot overflow before it is clipped.
    """
    total = 0.0
    for p in params:
        total += float(np.square(p.grad, dtype=np.float64).sum())
    norm = float(np.sqrt(total))
    if np.isfinite(norm) and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale  # in place: a model's gradients stay in its buffer
    return norm


class Adam:
    """Adam with bias correction; skips (and counts) non-finite steps.

    It updates the flat buffer ``values`` in place from ``grads``, laid out
    alike, such as a model's two buffers; Adam is elementwise, so that is
    each parameter's own update. The moments ``m`` and ``v`` share that
    layout and dtype, as a training checkpoint stores them.
    """

    def __init__(self, values: np.ndarray, grads: np.ndarray, lr: float):
        self.values, self.grads, self.lr = values, grads, lr
        self.t = 0
        self.m, self.v = np.zeros_like(values), np.zeros_like(values)
        self.skipped = 0

    def step(self) -> bool:
        """Apply one update from ``grads``; returns False if skipped."""
        if not np.isfinite(self.grads).all():
            self.skipped += 1
            return False
        self.t += 1
        correct1 = 1.0 - BETA1**self.t
        correct2 = 1.0 - BETA2**self.t
        self.m *= BETA1
        self.m += (1 - BETA1) * self.grads
        self.v *= BETA2
        self.v += (1 - BETA2) * self.grads**2
        self.values -= self.lr * (self.m / correct1) / (np.sqrt(self.v / correct2) + EPS)
        return True


def _batch_item(sample: RecoverySample, complete: DecoderState, rng: np.random.Generator, roll_in: float):
    """One training example of ``sample``: a decode state and the label ids each of its slots owes.

    Iterative insertion only ever visits the complete sequence minus a subset
    of the still-missing positions, where already-inserted tokens carry no
    unknown covariates. With probability ``roll_in`` a state is drawn from
    that lattice: promoting each removed position with one shared random rate
    covers it from the raw input (nothing promoted) to the finished state,
    which is what teaches the decoder both intermediate insertions and
    termination. Otherwise nothing is promoted and the state is the raw input.
    It keeps rows of ``complete``, and a promoted row becomes an insertion (source -1).
    Its tokens align leftmost-greedy inside the complete day's; an activity no
    anchor takes is owed by the slot numbered by the anchors before it.
    """
    removed = set(sample.removed_positions)
    promoted = set()
    if removed and rng.random() < roll_in:
        rate = rng.random()
        promoted = {i for i in removed if rng.random() < rate}
    tokens = complete.tokens.tolist()
    keep = [j for j in range(len(tokens)) if j in promoted or j not in removed]
    source = np.array([-1 if j in promoted else j for j in keep], dtype=np.int64)  # keep may be empty
    state = replace(complete, tokens=complete.tokens[keep], source=source)
    return state, slot_fills(tokens, align_subsequence([tokens[j] for j in keep], tokens))


# Training-config fields a resume may change; any other difference is refused.
RESUMABLE_CHANGES = ("epochs", "checkpoint_interval")


def _data_digest(samples: Sequence[RecoverySample], completes: Sequence[DecoderState]) -> str:
    """SHA-256 of all that training reads of ``samples``, in order: each complete day's arrays and removed positions."""
    ints = [n for s in samples for n in (len(s.complete), len(s.removed_positions), *s.removed_positions)]
    h = hashlib.sha256(np.array(ints, dtype=np.int64))
    for name in ("tokens", "cov", "dist", "codes"):
        h.update(np.concatenate([getattr(c, name) for c in completes]))
    return h.hexdigest()


def load_train_state(path, model: InsertionModel, adam: Adam, train_config: TrainConfig, data_digest=None) -> int:
    """Restore parameters and Adam's state in place from a training checkpoint; returns the step count.

    The saved model config must equal ``model.config``, and the saved run's
    config must match ``train_config`` in every field but those in
    ``RESUMABLE_CHANGES``, and its ``data_digest`` the one given, so a resume
    continues the same trajectory or does not start. Adam's update count is
    the steps it did not skip.
    """
    _, manifest, passes = read_checkpoint(path, model.config)
    if len(passes) == 1:
        raise CompatibilityError(f"{path}: checkpoint holds no training state, only a model")
    if not np.isfinite(passes[1:]).all():  # Adam's moments, which recovery never reads
        raise CompatibilityError(f"{path}: checkpoint blob holds non-finite values")
    step, skipped = manifest["step"], manifest["adam_skipped"]
    if not (type(step) is int and type(skipped) is int and 0 <= skipped <= step):  # a step updates or skips
        raise CompatibilityError(f"{path}: checkpoint step {step!r} and adam_skipped {skipped!r} "
                                 "must be integers with 0 <= adam_skipped <= step")
    try:
        saved = config_values(manifest["train"], TrainConfig)
    except ConfigError as exc:
        raise CompatibilityError(f"{path}: invalid saved training config: {exc}") from exc
    diffs = config_diffs(saved, asdict(train_config), RESUMABLE_CHANGES)
    if diffs:
        raise CompatibilityError(f"{path}: cannot resume with a different training config: {diffs}"
                                 f"; only {' and '.join(RESUMABLE_CHANGES)} may change")
    if data_digest is not None and manifest.get("data_digest") != data_digest:
        raise CompatibilityError(f"{path}: cannot resume on other training data: the checkpoint's data_digest "
                                 + ("is missing" if "data_digest" not in manifest else "differs"))
    model.values[:], adam.m[:], adam.v[:] = passes
    adam.t, adam.skipped = step - skipped, skipped
    return step


def train(
    samples: Sequence[RecoverySample],
    model_config: ModelConfig,
    train_config: TrainConfig,
    checkpoint_path=None,
    resume: bool = False,
):
    """Fit an insertion model on recovery samples; returns (model, report).

    The checkpoint, when requested, is written every
    ``checkpoint_interval`` steps and at the end. It holds the parameters,
    Adam's moments, the step counters, the training config and a digest of
    the samples, so ``resume`` continues from it on the exact same
    trajectory, or refuses other samples; a checkpoint past the run's last
    step raises ``ConfigError``. A step whose loss or updated parameters
    leave float32's range raises ``NumericError``.
    """
    if not samples:
        raise ConfigError("training dataset is empty")
    if resume and checkpoint_path is None:
        raise ConfigError("resuming needs the checkpoint path it continues from")
    completes = DecoderState.from_days([s.complete for s in samples], model_config.max_len)
    digest = _data_digest(samples, completes)
    n = len(samples)
    per_epoch = (n + train_config.batch_size - 1) // train_config.batch_size
    total_steps = per_epoch * train_config.epochs
    model = InsertionModel(model_config, seed=train_config.seed)
    adam = Adam(model.values, model.grads, train_config.lr)
    start_step = load_train_state(checkpoint_path, model, adam, train_config, digest) if resume else 0
    if start_step > total_steps:  # a resume never runs backwards
        raise ConfigError(f"{checkpoint_path}: checkpoint is at step {start_step}, "
                          f"past this run's last step, {total_steps}")
    report = TrainReport()
    started = time.perf_counter()

    def write_checkpoint(step: int) -> None:
        if checkpoint_path is not None:
            training = {"train": asdict(train_config), "step": step, "adam_skipped": adam.skipped,
                        "data_digest": digest}
            save_checkpoint(model, checkpoint_path, training, (adam.m, adam.v))

    step = start_step
    while step < total_steps:
        epoch, pos = divmod(step, per_epoch)
        order = np.random.default_rng([train_config.seed, 1, epoch]).permutation(n)
        idx = order[pos * train_config.batch_size : (pos + 1) * train_config.batch_size]
        roll_rng = np.random.default_rng([train_config.seed, 3, step])
        items = [_batch_item(samples[i], completes[i], roll_rng, ROLL_IN) for i in idx]
        batch_states, batch_targets = zip(*items)
        model.zero_grads()
        rng = np.random.default_rng([train_config.seed, 2, step])
        with np.errstate(all="ignore"):  # the loss and the parameters are checked just below
            loss = model.batch_loss(batch_states, batch_targets, rng=rng)
            loss.backward()
            norm = clip_gradients(model.parameters(), CLIP_NORM)
            stepped = adam.step()
        if not np.isfinite(loss.data):
            raise NumericError(f"training diverged at step {step + 1}: the loss is not finite")
        if stepped and not np.isfinite(model.values).all():
            raise NumericError(f"training diverged at step {step + 1}: "
                               "a parameter is not finite or lies beyond float32's range")
        report.losses.append(float(loss.data))
        report.grad_norms.append(norm if np.isfinite(norm) else None)  # JSON has no NaN or Infinity
        step += 1
        if train_config.checkpoint_interval and step % train_config.checkpoint_interval == 0:
            write_checkpoint(step)
    write_checkpoint(step)

    report.steps = step
    report.skipped_steps = adam.skipped
    report.wall_clock = time.perf_counter() - started
    report.checksum = parameter_checksum(model)
    return model, report
