"""Synthetic generator: determinism, calibration, regime structure."""

from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrecover.activities import ACTIVITY_CATEGORIES, LABEL_TO_ID, N_ACTIVITIES, N_TIME_BINS
from actrecover.data import mask_sequence, sequence_to_record
from actrecover import generator
from actrecover.generator import (
    DURATION_MEAN_BINS,
    GAP_MEAN_BINS,
    HOLIDAY_RATE,
    REGIME_DYNAMICS,
    REGIMES,
    ConfigError,
    GeneratorConfig,
    _cdf,
    _regime_cdfs,
    _row,
    config_values,
    default_config,
    generate_population,
    make_samples,
    regime_of,
    substreams,
)

from helpers import choice_sample_day

HOME = ACTIVITY_CATEGORIES.index("HomeActivity")
WORK = ACTIVITY_CATEGORIES.index("WorkForPay")
REC = ACTIVITY_CATEGORIES.index("Recreation")


def empirical_transitions(sequences) -> dict[str, np.ndarray]:
    """Row-normalized observed transition frequencies per regime."""
    counts = {r: np.zeros((N_ACTIVITIES, N_ACTIVITIES)) for r in REGIMES}
    for seq in sequences:
        table = counts[regime_of(seq.weekday, seq.holiday)]
        ids = [LABEL_TO_ID[a.label] for a in seq.activities]
        for a, b in zip(ids, ids[1:]):
            table[a, b] += 1
    out = {}
    for regime, table in counts.items():
        rowsum = table.sum(axis=1, keepdims=True)
        out[regime] = np.divide(table, rowsum, out=np.zeros_like(table), where=rowsum > 0)
    return out


@contextmanager
def calibration(holiday_rate, dynamics):
    """The generator's holiday rate and regime dynamics patched, its sampling CDFs rebuilt from them."""
    with mock.patch.multiple(generator, HOLIDAY_RATE=holiday_rate, REGIME_DYNAMICS=dynamics,
                             _REGIME_CDFS=_regime_cdfs(dynamics)):
        yield


def test_calibration_tables_are_valid():
    assert tuple(REGIME_DYNAMICS) == REGIMES
    for initial, transition in REGIME_DYNAMICS.values():
        init, trans = np.asarray(initial), np.asarray(transition)
        assert init.shape == (N_ACTIVITIES,) and trans.shape == (N_ACTIVITIES, N_ACTIVITIES)
        assert (init >= 0).all() and (trans >= 0).all()
        assert abs(init.sum() - 1.0) <= 1e-9 and np.abs(trans.sum(axis=1) - 1.0).max() <= 1e-9
    assert sorted(DURATION_MEAN_BINS) == sorted(ACTIVITY_CATEGORIES)
    assert min(DURATION_MEAN_BINS.values()) >= 1.0 and GAP_MEAN_BINS >= 0.0
    assert 0.0 <= HOLIDAY_RATE <= 1.0


def test_config_holds_only_what_a_run_chooses():
    assert asdict(default_config()) == {"seed": 0, "n_days": 10_000, "p_remove": 0.3}


@pytest.mark.parametrize("values, problem", [
    ({"seed": -1}, "seed must be >= 0 and n_days >= 1"),
    ({"n_days": 0}, "seed must be >= 0 and n_days >= 1"),
    ({"n_days": -5}, "seed must be >= 0 and n_days >= 1"),
    ({"p_remove": -0.1}, "p_remove out of [0, 1]: -0.1"),
    ({"p_remove": 1.5}, "p_remove out of [0, 1]: 1.5"),
    ({"p_remove": float("nan")}, "p_remove out of [0, 1]: nan"),
])
def test_config_refuses_what_a_run_cannot_use(values, problem):
    with pytest.raises(ConfigError) as info:
        GeneratorConfig(**values)
    assert str(info.value) == problem


@pytest.mark.parametrize("values", [{"seed": 0}, {"n_days": 1}, {"p_remove": 0.0}, {"p_remove": 1.0}])
def test_config_accepts_its_bounds(values):
    assert asdict(GeneratorConfig(**values)) == {**asdict(default_config()), **values}


def test_config_values_types_each_key_by_its_field():
    values = config_values({"seed": 3, "p_remove": 1}, GeneratorConfig)
    assert values == {"seed": 3, "p_remove": 1.0} and type(values["p_remove"]) is float


@pytest.mark.parametrize("raw, problem", [
    ([], "config must be a JSON object"),
    ({"holiday_rate": 0.05}, "unknown config key 'holiday_rate'"),
    ({"seed": True}, "config key 'seed' must be int, not True"),
    ({"p_remove": "0.3"}, "config key 'p_remove' must be float, not '0.3'"),
    ({"p_remove": 10**400}, "config key 'p_remove' is too large for a float: 1" + "0" * 400),
])
def test_config_values_refuses(raw, problem):
    with pytest.raises(ConfigError) as info:
        config_values(raw, GeneratorConfig)
    assert str(info.value) == problem


def test_named_masses_above_one_rejected():
    with pytest.raises(ConfigError, match="named masses exceed 1"):
        _row(home=0.7, work=0.4)


def test_config_json_roundtrip():
    cfg = default_config()
    cfg.seed = 9
    cfg.n_days = 123
    again = GeneratorConfig(**asdict(cfg))
    assert again == cfg


def test_determinism_bytewise():
    cfg = default_config()
    cfg.n_days = 200
    a = generate_population(cfg, seed=5)
    b = generate_population(cfg, seed=5)
    assert [sequence_to_record(s) for s in a] == [sequence_to_record(s) for s in b]
    c = generate_population(cfg, seed=6)
    assert [sequence_to_record(s) for s in a] != [sequence_to_record(s) for s in c]


def test_sequences_are_well_formed():
    cfg = default_config()
    cfg.n_days = 500
    for seq in generate_population(cfg, seed=1):
        seq.validate()
        assert len(seq) >= 1
        arrivals = [a.arr for a in seq.activities]
        assert arrivals == sorted(arrivals)
        for act in seq.activities:
            assert 1 <= act.arr <= act.dep <= N_TIME_BINS
            assert act.dist >= 0
        assert regime_of(seq.weekday, seq.holiday) in ("weekday", "weekend", "holiday")


def test_mean_daily_activities_calibration():
    cfg = default_config()
    cfg.n_days = 10_000
    counts = [len(s) for s in generate_population(cfg, seed=0)]
    assert np.mean(counts) == pytest.approx(4.49, abs=0.3)


def test_regime_transition_frequencies_converge():
    cfg = default_config()
    cfg.n_days = 30_000  # roughly 10k person-days per regime bucket at this rate
    with calibration(0.34, REGIME_DYNAMICS):
        seqs = generate_population(cfg, seed=2)
    emp = empirical_transitions(seqs)
    for regime in ("weekday", "weekend", "holiday"):
        configured = np.asarray(REGIME_DYNAMICS[regime][1])
        observed = emp[regime]
        rows_seen = observed.sum(axis=1) > 0
        gap = np.abs(observed[rows_seen] - configured[rows_seen]).max()
        assert gap < 0.05, f"{regime}: L-inf gap {gap:.3f}"


def test_weekday_work_vs_weekend_recreation_margin():
    cfg = default_config()
    cfg.n_days = 10_000
    emp = empirical_transitions(generate_population(cfg, seed=3))
    conf_wd = np.asarray(REGIME_DYNAMICS["weekday"][1])
    conf_we = np.asarray(REGIME_DYNAMICS["weekend"][1])
    assert emp["weekday"][HOME, WORK] == pytest.approx(conf_wd[HOME, WORK], abs=0.05)
    assert emp["weekend"][HOME, WORK] == pytest.approx(conf_we[HOME, WORK], abs=0.05)
    assert emp["weekday"][HOME, WORK] - emp["weekend"][HOME, WORK] > 0.3
    assert emp["weekend"][HOME, REC] - emp["weekday"][HOME, REC] > 0.2


def test_make_samples_deterministic_and_consistent():
    cfg = default_config()
    cfg.n_days = 300
    seqs = generate_population(cfg, seed=4)
    samples_a = make_samples(seqs, 0.3, seed=4)
    samples_b = make_samples(seqs, 0.3, seed=4)
    assert samples_a == samples_b
    for s in samples_a:
        removed = set(s.removed_positions)
        kept = [a for i, a in enumerate(s.complete.activities) if i not in removed]
        assert kept == s.incomplete.activities


@st.composite
def distributions(draw):
    """A 9-way distribution with zero-mass entries, whose sum may miss 1 by less than 1e-9."""
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    weights = draw(st.lists(weight, min_size=N_ACTIVITIES, max_size=N_ACTIVITIES).filter(any))
    probs = [w / sum(weights) for w in weights]
    probs[probs.index(max(probs))] += draw(st.floats(-9e-10, 9e-10))
    return probs


drawn_dynamics = st.tuples(distributions(), st.lists(distributions(), min_size=N_ACTIVITIES, max_size=N_ACTIVITIES))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_days=st.integers(1, 20), holiday_rate=st.floats(0.0, 1.0),
       dynamics=st.one_of(st.just(REGIME_DYNAMICS), st.fixed_dictionaries(dict.fromkeys(REGIMES, drawn_dynamics))))
def test_population_equals_the_choice_reference(seed, n_days, holiday_rate, dynamics):
    """Drawn seed, days and holiday rate, and the calibrated or drawn regime dynamics."""
    with calibration(holiday_rate, dynamics):
        expected = [choice_sample_day(np.random.default_rng([seed, i]), i) for i in range(n_days)]
        drawn = generate_population(GeneratorConfig(seed=seed, n_days=n_days))
    assert [sequence_to_record(s) for s in drawn] == [sequence_to_record(s) for s in expected]


def test_sampling_cdfs_are_built_once_at_import():
    cfg = GeneratorConfig(seed=8, n_days=50)
    expected = [sequence_to_record(s) for s in generate_population(cfg)]
    with mock.patch.object(generator, "_cdf", side_effect=AssertionError("a CDF was built per call")):
        assert [sequence_to_record(s) for s in generate_population(cfg)] == expected


@settings(max_examples=100, deadline=None)
@given(probs=distributions(), seed=st.integers(0, 2**32 - 1))
def test_cdf_draws_the_index_choice_draws(probs, seed):
    """``bisect_right`` over ``_cdf(p)`` picks from one uniform what ``choice(n, p=p)`` picks from it."""
    drawn = bisect_right(_cdf(probs), np.random.default_rng(seed).random())
    assert drawn == np.random.default_rng(seed).choice(N_ACTIVITIES, p=probs)


# seed words: one 32-bit word, several (2**32 and above, whose low word may be zero), and zero itself
seed_ints = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**100), st.sampled_from([0, 2**32, 2**64]))
seed_keys = st.one_of(st.lists(seed_ints, min_size=1, max_size=5), seed_ints.map(lambda s: [s, 1]))


def assert_default_rng_states(key, n):
    """``substreams(key, n)`` yields ``default_rng([*key, i])``'s state and draws for ``i`` from 0 to ``n - 1``."""
    days = 0
    for i, rng in enumerate(substreams(key, n)):  # one reused generator: check each before the next
        ref = np.random.default_rng([*key, i])
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(0, 2**63, size=3).tolist() == ref.integers(0, 2**63, size=3).tolist()
        assert (rng.random(), rng.poisson(4.0)) == (ref.random(), ref.poisson(4.0))
        days += 1
    assert days == n


@settings(max_examples=150, deadline=None)
@given(key=seed_keys, n=st.integers(0, 12))
def test_substreams_equal_default_rng(key, n):
    assert_default_rng_states(key, n)


def test_substreams_equal_default_rng_across_hashing_passes():
    # 4,096 days are hashed per pass; the days on both sides of the first boundary
    assert_default_rng_states([2**32 + 5], 4099)


@pytest.fixture(scope="module")
def population():
    cfg = default_config()
    cfg.n_days = 8
    return generate_population(cfg, seed=3)


@settings(max_examples=40, deadline=None)
@given(seed=seed_ints, p_remove=st.floats(0.0, 1.0))
def test_make_samples_masks_day_i_from_its_own_stream(population, seed, p_remove):
    expected = [mask_sequence(seq, p_remove, np.random.default_rng([seed, 1, i]))
                for i, seq in enumerate(population)]
    assert make_samples(population, p_remove, seed) == expected


def test_a_negative_seed_is_refused_before_any_day_is_drawn(population):
    cfg = default_config()
    cfg.n_days = 3
    with pytest.raises(ValueError, match="seed must be >= 0, not -1"):
        generate_population(cfg, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0, not -1"):
        make_samples(population, 0.3, seed=-1)
