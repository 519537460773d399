"""The batched decoder against the frozen serial reference, and its invariants."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from actrecover import model as model_module
from actrecover.activities import ACTIVITY_CATEGORIES
from actrecover.data import align_subsequence
from actrecover.generator import default_config, generate_population, make_samples
from actrecover.model import InsertionModel, ModelConfig
from actrecover.training import TrainConfig, train

from helpers import random_sequence, serial_recover, tiny_config

# name -> (days, generator seed, training epochs, batch size). The first is
# the criterion-6 dataset; models train on at most the first 512 days.
DATASETS = {"criterion6": (32, 42, 40, 32), "days2000": (2000, 3, 8, 64)}
FLAVORS = {"fused": True, "token": False}


@lru_cache(maxsize=None)
def _samples(name: str):
    n_days, seed, _, _ = DATASETS[name]
    cfg = default_config()
    cfg.n_days = n_days
    return make_samples(generate_population(cfg, seed=seed), 0.3, seed=seed)


def _decode_inputs(samples, max_len: int) -> list:
    """Every incomplete day, an empty day, the longest complete day (at
    ``max_len``), and up to 100 days repeated to ``max_len``: full days on
    which any insertion overflows, so the trained models truncate some."""
    inputs = [s.incomplete for s in samples]
    inputs.append(replace(samples[0].incomplete, activities=[]))
    inputs.append(max((s.complete for s in samples), key=len))
    inputs += [
        replace(s.incomplete, activities=(s.incomplete.activities * max_len)[:max_len])
        for s in samples[:100]
        if s.incomplete.activities
    ]
    return inputs


@lru_cache(maxsize=None)
def _trained(name: str, use_vsn: bool) -> InsertionModel:
    _, _, epochs, batch_size = DATASETS[name]
    samples = _samples(name)
    config = ModelConfig(
        d_m=16, n_heads=2, d_attn=8, d_val=8, n_layers=1, dropout=0.0, use_vsn=use_vsn,
        max_len=max(len(s.complete) for s in samples),
    )
    model, _ = train(
        samples[:512], config, TrainConfig(lr=1e-2, batch_size=batch_size, epochs=epochs, seed=1)
    )
    return model


def _key(outcome):
    return outcome.sequence, outcome.rounds, outcome.truncated


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_batched_decodes_equal_serial_reference(dataset, flavor):
    model = _trained(dataset, FLAVORS[flavor])
    inputs = _decode_inputs(_samples(dataset), model.config.max_len)
    lengths = {len(x) for x in inputs}
    assert {0, model.config.max_len} <= lengths and len(lengths) > 3
    for max_rounds in (None, 0, 2):
        reference = [serial_recover(model, x, max_rounds) for x in inputs]
        batched = model.recover_batch(inputs, max_rounds=max_rounds)
        mismatches = [i for i, (a, b) in enumerate(zip(reference, batched)) if _key(a) != _key(b)]
        assert not mismatches, f"max_rounds={max_rounds}: decodes differ at inputs {mismatches[:20]}"
        for x, out in zip(inputs, batched):
            assert len(out.inserted) == out.rounds
            assert sum(out.inserted) == len(out.sequence) - len(x)
        if max_rounds is None:
            # the cases the comparison must cover actually occur
            assert any(o.truncated for o in reference)
            assert any(o.rounds >= 2 for o in reference)


def test_row_cap_splits_groups_without_changing_decodes(monkeypatch):
    model = _trained("criterion6", True)
    inputs = _decode_inputs(_samples("criterion6"), model.config.max_len)
    whole = model.recover_batch(inputs)
    monkeypatch.setattr(model_module, "RECOVER_ROWS", 3)
    assert [_key(o) for o in model.recover_batch(inputs)] == [_key(o) for o in whole]


def test_empty_batch():
    assert InsertionModel(tiny_config(), seed=0).recover_batch([]) == []


MAX_LEN = 10
days = st.lists(st.sampled_from(ACTIVITY_CATEGORIES), max_size=MAX_LEN)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    use_vsn=st.booleans(),
    label_lists=st.lists(days, min_size=1, max_size=6),
    max_rounds=st.one_of(st.none(), st.integers(0, 4)),
)
def test_outputs_keep_inputs_in_order_and_fit(seed, use_vsn, label_lists, max_rounds):
    rng = np.random.default_rng(seed)
    model = InsertionModel(tiny_config(max_len=MAX_LEN, use_vsn=use_vsn), seed=seed)
    seqs = [random_sequence(rng, n=len(labels), labels=labels) for labels in label_lists]
    for seq, out in zip(seqs, model.recover_batch(seqs, max_rounds=max_rounds)):
        align_subsequence(seq.labels(), out.sequence.labels())  # raises on violation
        assert len(out.sequence) <= MAX_LEN
        assert [a for a in out.sequence.activities if a.observed] == seq.activities
