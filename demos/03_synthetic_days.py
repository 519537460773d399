"""Generate synthetic person-days and inspect their structure.

Weekdays, weekends and holidays follow different activity dynamics; masking
then produces the (incomplete, complete) pairs the recovery models train on.

Run: python demos/03_synthetic_days.py
"""

import numpy as np

from actrecover.activities import ACTIVITY_CATEGORIES
from actrecover.generator import REGIMES, default_config, generate_population, make_samples, regime_of


def shares_after_home(sequences) -> dict[str, np.ndarray]:
    """Per regime, the share of each activity among those that directly follow Home."""
    counts = {regime: np.zeros(len(ACTIVITY_CATEGORIES)) for regime in REGIMES}
    for seq in sequences:
        labels = seq.labels()
        for a, b in zip(labels, labels[1:]):
            if a == "HomeActivity":
                counts[regime_of(seq.weekday, seq.holiday)][ACTIVITY_CATEGORIES.index(b)] += 1
    return {regime: row / row.sum() for regime, row in counts.items()}


cfg = default_config()
cfg.n_days = 4000
sequences = generate_population(cfg, seed=7)

print("== a few raw days ==")
for seq in sequences[:3]:
    print(f"person {seq.person_id} ({regime_of(seq.weekday, seq.holiday)}, weekday {seq.weekday}):")
    for act in seq.activities:
        print(f"   bins {act.arr:2d}-{act.dep:2d}  mode {act.mode}  {act.label}")

counts = [len(s) for s in sequences]
print()
print(f"mean daily activities over {cfg.n_days} days: {np.mean(counts):.3f} "
      "(calibration target 4.49)")

print()
print("== regime contrast Home -> next activity ==")
shares = shares_after_home(sequences)
header = f"{'next activity':18s} weekday weekend holiday"
print(header)
for j, label in enumerate(ACTIVITY_CATEGORIES):
    row = " ".join(f"{shares[r][j]:7.3f}" for r in ("weekday", "weekend", "holiday"))
    print(f"{label:18s} {row}")

print()
print("== masking into recovery samples ==")
samples = make_samples(sequences[:5], p_remove=0.3, seed=7)
for sample in samples:
    print("complete:  ", [a.label for a in sample.complete.activities])
    print("incomplete:", [a.label for a in sample.incomplete.activities],
          " removed at", sample.removed_positions)
