"""Synthetic person-day generator.

Days are sampled from regime-switched first-order Markov chains over the
nine activity labels: weekdays, weekends, and holidays each get their own
initial distribution and transition matrix, so which activities fill a day
depends on covariates the sequence tokens alone cannot reveal. Activity
durations (in 15-minute bins) chain arrival/departure times through the
96-bin day. Every person-day draws from an independent substream of the
master seed, so generation is order-independent and reproducible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .activities import ACTIVITY_CATEGORIES, MODE_UNKNOWN, N_ACTIVITIES, N_TIME_BINS
from .data import Activity, DaySequence, RecoverySample, mask_sequence

__all__ = [
    "ConfigError",
    "config_values",
    "DURATION_MEAN_BINS",
    "GAP_MEAN_BINS",
    "GeneratorConfig",
    "HOLIDAY_RATE",
    "REGIME_DYNAMICS",
    "REGIMES",
    "default_config",
    "generate_population",
    "make_samples",
    "regime_of",
    "substreams",
]

REGIMES = ("weekday", "weekend", "holiday")

_SHORT = {
    "shop": "GoShopping",
    "other": "Other",
    "personal": "PersonalBusiness",
    "school": "GoToSchool",
    "health": "Healthcare",
    "rec": "Recreation",
    "eat": "EatOut",
    "home": "HomeActivity",
    "work": "WorkForPay",
}


class ConfigError(ValueError):
    """A configuration value is missing, unknown, of the wrong type or out of range."""


def config_values(raw, *classes) -> dict:
    """``raw``, a JSON object of config values, typed by the fields of the dataclasses ``classes``.

    The one rule for config JSON: a key must be a field; a bool field takes only a bool, an int
    field an int but not a bool, and a float field an int or a float (stored as a float). Any
    other value is a ``ConfigError`` naming the key.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kinds = {f.name: type(f.default) for c in classes for f in fields(c)}
    values = {}
    for key, value in raw.items():
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        kind = kinds[key]
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise ConfigError(f"config key {key!r} must be {kind.__name__}, not {value!r}")
        try:
            values[key] = kind(value)
        except OverflowError as exc:
            raise ConfigError(f"config key {key!r} is too large for a float: {value}") from exc
    return values


def _row(**named: float) -> list[float]:
    """A 9-way distribution: named masses, remainder spread over the rest."""
    probs = np.zeros(N_ACTIVITIES)
    for key, p in named.items():
        probs[ACTIVITY_CATEGORIES.index(_SHORT[key])] = p
    rest = [i for i in range(N_ACTIVITIES) if probs[i] == 0.0]
    remainder = 1.0 - probs.sum()
    if remainder < -1e-12 or (rest and remainder < 0):
        raise ConfigError(f"named masses exceed 1: {named}")
    if rest:
        probs[rest] = remainder / len(rest)
    return probs.tolist()


# The calibration: mean daily activity count near 4.49. A day is a holiday with probability
# HOLIDAY_RATE; between activities lie 1 + Poisson(GAP_MEAN_BINS) bins, and an activity lasts
# 1 + Poisson(m - 1) bins, m its label's DURATION_MEAN_BINS entry.
HOLIDAY_RATE = 0.05
GAP_MEAN_BINS = 1.0
DURATION_MEAN_BINS = {"GoShopping": 7.0, "Other": 8.0, "PersonalBusiness": 7.0, "GoToSchool": 30.0,
                      "Healthcare": 8.0, "Recreation": 12.0, "EatOut": 6.0, "HomeActivity": 32.0,
                      "WorkForPay": 36.0}

# Each regime's initial label distribution and 9x9 transition matrix (row: from, column: to),
# read once, at import, into the sampling CDFs. Weekdays push HomeActivity -> WorkForPay hard;
# weekends push HomeActivity -> Recreation/GoShopping; holidays lean further into recreation
# and eating out. The contrast is the covariate-dependent structure a token-only model cannot
# pick up.
REGIME_DYNAMICS = {
    "weekday": (_row(home=0.88, work=0.04), [
        _row(home=0.46, eat=0.14, personal=0.10, shop=0.10),  # from GoShopping
        _row(home=0.50, personal=0.10, eat=0.10),  # from Other
        _row(home=0.46, eat=0.12, shop=0.12, work=0.06),  # from PersonalBusiness
        _row(home=0.56, rec=0.10, eat=0.10, work=0.04),  # from GoToSchool
        _row(home=0.56, personal=0.12, eat=0.08),  # from Healthcare
        _row(home=0.56, eat=0.14, shop=0.06),  # from Recreation
        _row(home=0.50, work=0.16, shop=0.08, personal=0.08),  # from EatOut
        _row(work=0.58, home=0.06, school=0.08, shop=0.07, personal=0.06, eat=0.05),  # from HomeActivity
        _row(home=0.48, eat=0.18, shop=0.08, personal=0.08, work=0.06),  # from WorkForPay
    ]),
    "weekend": (_row(home=0.90, rec=0.02), [
        _row(home=0.40, eat=0.18, rec=0.14, shop=0.12),  # from GoShopping
        _row(home=0.46, rec=0.12, eat=0.12),  # from Other
        _row(home=0.44, shop=0.14, eat=0.12),  # from PersonalBusiness
        _row(home=0.56, rec=0.14, eat=0.10),  # from GoToSchool
        _row(home=0.56, eat=0.10, shop=0.10),  # from Healthcare
        _row(home=0.42, eat=0.20, shop=0.12, rec=0.10),  # from Recreation
        _row(home=0.46, rec=0.16, shop=0.12),  # from EatOut
        _row(rec=0.34, shop=0.22, eat=0.12, home=0.10, work=0.03, personal=0.07),  # from HomeActivity
        _row(home=0.52, eat=0.14, rec=0.10),  # from WorkForPay
    ]),
    "holiday": (_row(home=0.92), [
        _row(home=0.40, eat=0.20, rec=0.16, shop=0.08),  # from GoShopping
        _row(home=0.46, rec=0.14, eat=0.12),  # from Other
        _row(home=0.44, rec=0.14, eat=0.12),  # from PersonalBusiness
        _row(home=0.56, rec=0.16, eat=0.10),  # from GoToSchool
        _row(home=0.58, rec=0.10, eat=0.08),  # from Healthcare
        _row(home=0.40, eat=0.22, rec=0.14, shop=0.06),  # from Recreation
        _row(home=0.44, rec=0.20, shop=0.08),  # from EatOut
        _row(rec=0.40, eat=0.16, shop=0.10, home=0.12, work=0.02, personal=0.04),  # from HomeActivity
        _row(home=0.56, rec=0.12, eat=0.10),  # from WorkForPay
    ]),
}


@dataclass
class GeneratorConfig:
    """What a run chooses, checked when built; the calibration is the module's constants."""

    seed: int = 0
    n_days: int = 10_000
    p_remove: float = 0.3

    def __post_init__(self) -> None:
        if self.seed < 0 or self.n_days < 1:
            raise ConfigError("seed must be >= 0 and n_days >= 1")
        if not 0.0 <= self.p_remove <= 1.0:
            raise ConfigError(f"p_remove out of [0, 1]: {self.p_remove}")


def default_config() -> GeneratorConfig:
    """The calibrated generator: mean daily activity count near 4.49."""
    return GeneratorConfig()


def regime_of(weekday: int, holiday: int) -> str:
    if holiday:
        return "holiday"
    return "weekend" if weekday >= 6 else "weekday"


def _cdf(probs) -> list[float]:
    """The cumulative sum ``Generator.choice(n, p=probs)`` searches, normalized by its last entry.

    Summed left to right in doubles, as ``np.cumsum`` does, so
    ``bisect_right(cdf, rng.random())`` draws the index ``choice`` would,
    from the same one uniform.
    """
    cdf = list(accumulate(map(float, probs)))
    return [c / cdf[-1] for c in cdf]


def _regime_cdfs(dynamics: dict) -> dict:
    """Each regime of ``dynamics`` mapped to its initial CDF and its transition rows' CDFs."""
    return {name: (_cdf(initial), [_cdf(row) for row in transition])
            for name, (initial, transition) in dynamics.items()}


_REGIME_CDFS = _regime_cdfs(REGIME_DYNAMICS)
_MODE_CDF = _cdf((0.52, 0.16, 0.14, 0.06, 0.12))  # codes 1..5; arrival trips only


def _sample_day(rng: np.random.Generator, idx: int) -> DaySequence:
    """One day, drawn with the calibration constants."""
    weekday = int(rng.integers(1, 8))
    holiday = int(rng.random() < HOLIDAY_RATE)
    initial, transition = _REGIME_CDFS[regime_of(weekday, holiday)]
    static = tuple(int(c) for c in rng.integers(1, 6, size=4))

    activities: list[Activity] = []
    label_idx = bisect_right(initial, rng.random())
    t = 1
    while True:
        label = ACTIVITY_CATEGORIES[label_idx]
        dur = 1 + int(rng.poisson(DURATION_MEAN_BINS[label] - 1.0))
        dep = min(t + dur - 1, N_TIME_BINS)
        if activities:
            mode = bisect_right(_MODE_CDF, rng.random()) + 1
            dist = round(float(rng.gamma(2.0, 2.0)), 2)
        else:
            mode = MODE_UNKNOWN  # the day's first activity has no arrival trip
            dist = 0.0
        activities.append(Activity(label=label, arr=t, dep=dep, mode=mode, dist=dist, observed=True))
        gap = 1 + int(rng.poisson(GAP_MEAN_BINS))
        t = dep + gap
        if dep >= N_TIME_BINS or t > N_TIME_BINS or len(activities) >= N_TIME_BINS:
            break
        label_idx = bisect_right(transition[label_idx], rng.random())

    return DaySequence(
        person_id=idx,
        date=idx,
        weekday=weekday,
        holiday=holiday,
        static=static,
        activities=activities,
    )


# numpy's SeedSequence hash (``mix_entropy``, then ``generate_state``) and PCG64's
# ``pcg64_set_seed``, run over columns of days; numpy/random/bit_generator.pyx has the algorithm.
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's pool size, in 32-bit words
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_CHUNK = 4096  # days hashed per pass, so a huge n_days never allocates up front


def _seed_words(key) -> list[int]:
    """The little-endian 32-bit words ``SeedSequence`` splits a key of ints into (0 is one word)."""
    words = []
    for k in key:
        if k < 0:  # a negative int never reaches 0 under >>=
            raise ValueError(f"seed must be >= 0, not {k}")
        words.append(k & _MASK32)
        while k > _MASK32:
            k >>= 32
            words.append(k & _MASK32)
    return words


def _pcg64_states(words: list[int], index: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's (state, inc) after seeding from ``SeedSequence([*words, i])``, for each ``i`` in ``index``.

    ``index`` is uint32: ``SeedSequence`` makes one entropy word of any ``i`` below 2**32.
    """
    entropy = [np.full_like(index, w) for w in words] + [index]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    with np.errstate(over="ignore"):  # uint32 arithmetic wraps, as numpy's C code does
        pool = [hashmix(entropy[j] if j < len(entropy) else np.zeros_like(index)) for j in range(_POOL)]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = mix(pool[dst], hashmix(word))
        const = _INIT_B
        state = []
        for j in range(2 * _POOL):  # generate_state(4, uint64): eight words, cycling over the pool
            value = pool[j % _POOL] ^ const
            const = const * _MULT_B & _MASK32
            value = value * const
            state.append(value ^ value >> 16)
    seeds = np.stack(state, axis=1).astype("<u4").view("<u8").tolist()
    out = []
    for s0, s1, i0, i1 in seeds:
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        out.append((((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, inc))
    return out


def substreams(key, n: int):
    """For each ``i`` in ``range(n)``, a generator in the state ``np.random.default_rng([*key, i])`` has.

    Every day is seeded by one hashing pass instead of one ``SeedSequence``
    each. Each yield is the same ``Generator``, set to the next day's state,
    so draw from it before taking the next. A negative key is a ``ValueError``.
    """
    words = _seed_words(key)
    bits = np.random.PCG64(0)  # a fixed seed, so no OS entropy is read; every state is set below
    rng = np.random.Generator(bits)
    for start in range(0, n, _SEED_CHUNK):
        for state, inc in _pcg64_states(words, np.arange(start, min(n, start + _SEED_CHUNK), dtype=np.uint32)):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield rng


def generate_population(cfg: GeneratorConfig, seed: int | None = None) -> list[DaySequence]:
    """Sample ``cfg.n_days`` person-days, one independent substream each: day ``i`` from ``default_rng([seed, i])``."""
    base = cfg.seed if seed is None else seed
    return [_sample_day(rng, i) for i, rng in enumerate(substreams([base], cfg.n_days))]


def make_samples(
    sequences: list[DaySequence], p_remove: float, seed: int
) -> list[RecoverySample]:
    """Mask every sequence with its own substream of ``seed``: day ``i`` with ``default_rng([seed, 1, i])``."""
    return [mask_sequence(seq, p_remove, rng)
            for seq, rng in zip(sequences, substreams([seed, 1], len(sequences)))]
