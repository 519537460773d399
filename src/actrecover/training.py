"""Optimization loop for the insertion model.

Adam with bias correction behind global-norm gradient clipping; per-epoch
shuffles and per-step dropout masks are derived from the training seed, so a
run is fully reproducible and resuming from saved state continues the exact
same trajectory. A batch runs packed: the valid positions of its states back
to back, with padding only inside each attention (see
:mod:`actrecover.model`), so padding costs work only there and never enters
the loss.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import Activity, RecoverySample
from .generator import ConfigError, config_values
from .model import (
    F32_MAX,
    DecoderState,
    InsertionModel,
    ModelConfig,
    config_diffs,
    insertion_targets,
    parameter_checksum,
    read_record,
    save_checkpoint,
    write_record,
)
from .tensor import NumericError, Parameter

__all__ = [
    "TrainConfig",
    "TrainReport",
    "Adam",
    "clip_gradients",
    "train",
    "save_train_state",
    "load_train_state",
]


@dataclass
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 64
    epochs: int = 10
    clip_norm: float = 1.0
    seed: int = 0
    checkpoint_interval: int = 0  # steps between checkpoints; 0 = final only
    roll_in: float = 0.7  # fraction of batch states resampled from the decode lattice

    def __post_init__(self) -> None:
        if not self.lr > 0:  # also refuses NaN
            raise ConfigError(f"learning rate must be positive: {self.lr}")
        if not np.isfinite(self.lr):
            raise ConfigError(f"learning rate must be finite: {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"Adam betas must be in [0, 1): beta1={self.beta1}, beta2={self.beta2}")
        if not 0.0 < self.eps < np.inf:
            raise ConfigError(f"Adam eps must be finite and positive: {self.eps}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if self.seed < 0 or self.checkpoint_interval < 0:
            raise ConfigError("seed and checkpoint_interval must be >= 0: "
                              f"seed={self.seed}, checkpoint_interval={self.checkpoint_interval}")
        if not self.clip_norm > 0:
            raise ConfigError(f"clip norm must be positive: {self.clip_norm}")
        if not 0.0 <= self.roll_in <= 1.0:
            raise ConfigError(f"roll_in out of [0, 1]: {self.roll_in}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    checksum: str = ""
    wall_clock: float = 0.0
    steps: int = 0
    skipped_steps: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


def clip_gradients(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``; returns the norm before."""
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if np.isfinite(norm) and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad = p.grad * scale
    return norm


class Adam:
    """Adam with bias correction; skips (and counts) non-finite steps."""

    def __init__(self, params: Sequence[Parameter], config: TrainConfig):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = config.lr, config.beta1, config.beta2, config.eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]  # moments in parameter order
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.skipped = 0

    def step(self) -> bool:
        """Apply one update from each ``p.grad``; returns False if skipped."""
        for p in self.params:
            if not np.isfinite(p.grad).all():
                self.skipped += 1
                return False
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            m = self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * p.grad
            v = self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * p.grad**2
            p.data = p.data - self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)
        return True


def _batch_item(sample: RecoverySample, rng: np.random.Generator, roll_in: float):
    """One training example of ``sample``: a decode state and its per-slot targets.

    Iterative insertion only ever visits the complete sequence minus a subset
    of the still-missing positions, where already-inserted tokens carry no
    unknown covariates. With probability ``roll_in`` a state is drawn from
    that lattice: promoting each removed position with one shared random rate
    covers it from the raw input (nothing promoted) to the finished state,
    which is what teaches the decoder both intermediate insertions and
    termination. Otherwise nothing is promoted and the state is the raw input.
    """
    removed = set(sample.removed_positions)
    promoted = set()
    if removed and rng.random() < roll_in:
        rate = rng.random()
        promoted = {i for i in removed if rng.random() < rate}
    partial = replace(sample.complete, activities=[
        Activity(label=act.label, observed=False) if j in promoted else act
        for j, act in enumerate(sample.complete.activities)
        if j in promoted or j not in removed
    ])
    targets = insertion_targets(partial.labels(), sample.complete.labels())
    return DecoderState.from_sequence(partial), targets


# Training-config fields a resume may change; any other difference is refused.
RESUMABLE_CHANGES = ("epochs", "checkpoint_interval")


def save_train_state(
    path, model: InsertionModel, adam: Adam, step: int, train_config: TrainConfig
) -> None:
    """Full-precision training state: parameters plus Adam moments, and the run's config."""
    fields = {
        "train": train_config.to_dict(), "step": step,
        "adam_t": adam.t, "adam_skipped": adam.skipped,
    }
    write_record(path, "train_state", model, fields, (adam.m, adam.v))


def load_train_state(
    path, model: InsertionModel, adam: Adam, train_config: TrainConfig | None = None
) -> int:
    """Restore parameters and Adam moments in place; returns the step count.

    The saved model config must equal ``model.config``. With
    ``train_config``, the saved run's config must match it in every field
    but those in ``RESUMABLE_CHANGES``, so a resume continues the same
    trajectory or does not start.
    """
    _, manifest, (values, m, v) = read_record(path, "train_state", model.config)
    for key in ("step", "adam_t", "adam_skipped"):
        if type(manifest[key]) is not int or manifest[key] < 0:
            raise ConfigError(f"{path}: training-state {key} must be an integer >= 0, not {manifest[key]!r}")
    if train_config is not None:
        try:
            saved = config_values(manifest["train"], TrainConfig)
        except ConfigError as exc:
            raise ConfigError(f"{path}: invalid saved training config: {exc}") from exc
        diffs = config_diffs(saved, train_config.to_dict(), RESUMABLE_CHANGES)
        if diffs:
            raise ConfigError(
                f"{path}: cannot resume with a different training config: {diffs}"
                f"; only {' and '.join(RESUMABLE_CHANGES)} may change"
            )
    for p, value in zip(model.parameters(), values):
        p.data = value
    adam.m, adam.v = m, v
    adam.t, adam.skipped = manifest["adam_t"], manifest["adam_skipped"]
    return manifest["step"]


def train(
    samples: Sequence[RecoverySample],
    model_config: ModelConfig,
    train_config: TrainConfig,
    checkpoint_path=None,
    resume: bool = False,
):
    """Fit an insertion model on recovery samples; returns (model, report).

    The checkpoint, when requested, is written every
    ``checkpoint_interval`` steps and at the end, with a same-named
    ``.state`` sidecar carrying full-precision resume state; ``resume``
    continues from that sidecar. A step that leaves a parameter no
    checkpoint can store raises ``NumericError``.
    """
    if not samples:
        raise ConfigError("training dataset is empty")
    if resume and checkpoint_path is None:
        raise ConfigError("resuming needs the checkpoint path whose .state file it reads")
    max_len = model_config.max_len
    for i, s in enumerate(samples):  # refuse bad input before the first step
        if len(s.complete) > max_len:
            raise ConfigError(f"sample {i} has {len(s.complete)} activities, above max_len={max_len}")
        DecoderState.from_sequence(s.complete)  # an invalid day raises VocabularyError
    model = InsertionModel(model_config, seed=train_config.seed)
    adam = Adam(model.parameters(), train_config)
    start_step = 0
    if resume:
        start_step = load_train_state(str(checkpoint_path) + ".state", model, adam, train_config)

    n = len(samples)
    per_epoch = (n + train_config.batch_size - 1) // train_config.batch_size
    total_steps = per_epoch * train_config.epochs
    report = TrainReport()
    started = time.perf_counter()

    def write_checkpoint(step: int) -> None:
        if checkpoint_path is None:
            return
        save_checkpoint(model, checkpoint_path, extra={"step": step, "train": train_config.to_dict()})
        save_train_state(str(checkpoint_path) + ".state", model, adam, step, train_config)

    step = start_step
    while step < total_steps:
        epoch, pos = divmod(step, per_epoch)
        order = np.random.default_rng([train_config.seed, 1, epoch]).permutation(n)
        idx = order[pos * train_config.batch_size : (pos + 1) * train_config.batch_size]
        roll_rng = np.random.default_rng([train_config.seed, 3, step])
        items = [_batch_item(samples[i], roll_rng, train_config.roll_in) for i in idx]
        batch_states, batch_targets = zip(*items)
        model.zero_grads()
        rng = np.random.default_rng([train_config.seed, 2, step])
        loss = model.batch_loss(batch_states, batch_targets, rng=rng)
        loss.backward()
        clip_gradients(adam.params, train_config.clip_norm)
        if adam.step() and not all(np.abs(p.data).max() <= F32_MAX for p in adam.params):
            raise NumericError(f"training diverged at step {step + 1}: "
                               "a parameter is not finite or lies beyond float32's range")
        report.losses.append(float(loss.data))
        step += 1
        if train_config.checkpoint_interval and step % train_config.checkpoint_interval == 0:
            write_checkpoint(step)
    write_checkpoint(step)

    report.steps = step
    report.skipped_steps = adam.skipped
    report.wall_clock = time.perf_counter() - started
    report.checksum = parameter_checksum(model)
    return model, report
