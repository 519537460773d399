"""Shared builders for random sequences, samples, and tiny model configs,
plus the serial decode loop the batched decoder is checked against."""

from dataclasses import replace

import numpy as np

from actrecover.activities import (
    ACTIVITY_CATEGORIES,
    ID_TO_LABEL,
    MODE_UNKNOWN,
    N_TIME_BINS,
    NO_INSERT_ID,
)
from actrecover.data import Activity, DaySequence, mask_sequence
from actrecover.model import DecoderState, ModelConfig, RecoveryOutcome


def tiny_config(**overrides) -> ModelConfig:
    base = dict(d_m=8, n_heads=2, d_attn=4, d_val=4, n_layers=1, dropout=0.0, max_len=16)
    base.update(overrides)
    return ModelConfig(**base)


def random_sequence(rng: np.random.Generator, n: int | None = None, labels=None) -> DaySequence:
    """A well-formed random day with observed covariates."""
    if n is None:
        n = int(rng.integers(1, 7))
    if labels is None:
        labels = [ACTIVITY_CATEGORIES[i] for i in rng.integers(0, len(ACTIVITY_CATEGORIES), size=n)]
    acts = []
    t = 1
    for i, label in enumerate(labels):
        dur = int(rng.integers(1, 10))
        dep = min(t + dur, N_TIME_BINS)
        mode = MODE_UNKNOWN if i == 0 else int(rng.integers(1, 7))
        dist = 0.0 if i == 0 else round(float(rng.gamma(2.0, 2.0)), 2)
        acts.append(Activity(label=label, arr=t, dep=dep, mode=mode, dist=dist, observed=True))
        t = min(dep + int(rng.integers(1, 4)), N_TIME_BINS)
    return DaySequence(
        person_id=int(rng.integers(0, 1000)),
        date=int(rng.integers(0, 1000)),
        weekday=int(rng.integers(1, 8)),
        holiday=int(rng.random() < 0.1),
        static=tuple(int(c) for c in rng.integers(1, 6, size=4)),
        activities=acts,
    )


def random_sample(rng: np.random.Generator, n: int | None = None, p_remove: float = 0.4):
    return mask_sequence(random_sequence(rng, n=n), p_remove, rng)


def serial_recover(model, incomplete: DaySequence, max_rounds=None) -> RecoveryOutcome:
    """Reference decoder: one sequence, one batch-1 ``decoder_forward`` per round.

    A frozen copy of the original per-sequence loop; ``recover_batch`` must
    reproduce its labels, rounds and truncation flag exactly.
    """
    cfg = model.config
    limit = cfg.max_rounds if max_rounds is None else max_rounds
    acts = [replace(a) for a in incomplete.activities]
    truncated = False
    rounds = 0
    while rounds < limit:
        state = DecoderState.from_sequence(replace(incomplete, activities=acts))
        choices = model.decoder_forward(state).argmax()
        picks = [(s, int(c)) for s, c in enumerate(choices) if c != NO_INSERT_ID]
        if not picks:
            break
        rounds += 1
        budget = cfg.max_len - len(acts)
        if len(picks) > budget:
            truncated = True
            picks = picks[:budget]
        insert_at = {s: c for s, c in picks}
        new_acts = []
        for s in range(len(acts) + 1):
            if s in insert_at:
                new_acts.append(Activity(label=ID_TO_LABEL[insert_at[s]], observed=False))
            if s < len(acts):
                new_acts.append(acts[s])
        acts = new_acts
        if truncated:
            break
    return RecoveryOutcome(
        sequence=replace(incomplete, activities=acts), rounds=rounds, truncated=truncated
    )
