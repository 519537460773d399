"""The metric suite on hand-sized cases.

Shows the anchoring that buckets insertions/removals by source slot, the
strict vs order-independent counting, insertion patterns, and the broken
vs inserted transition tables.

Run: python demos/05_metrics_tour.py
"""

from dataclasses import replace

from actrecover.activities import ACTIVITY_CATEGORIES
from actrecover.data import Activity, DaySequence, RecoverySample
from actrecover.metrics import (
    compare_transitions,
    evaluate,
    insertion_pattern_topk,
    transition_analysis,
)

H, W, E = "HomeActivity", "WorkForPay", "EatOut"


def seq_of(labels):
    return DaySequence(0, 0, 3, 0, (1, 1, 1, 1), [Activity(label=l) for l in labels])


def sample_of(complete_labels, removed_positions):
    return RecoverySample(seq_of(complete_labels), sorted(removed_positions))


print("== strict vs order-independent counting ==")
# the work activity was removed at the front but reinserted in the middle:
sample = sample_of([W, H, H], [0])
hypothesis = seq_of([H, W, H])
report = evaluate([sample], [hypothesis])
print("incomplete:", sample.incomplete.labels(), "-> hypothesis:", hypothesis.labels())
print(f"strictly correct (right label, right slot): {report.correct_inserted}")
print(f"order-independent correct:                  {report.oi_correct}")

print()
print("== insertion patterns ==")
samples = [sample_of([H, W, H], [1]) for _ in range(3)] + [sample_of([H, W], [])]
hyps = [seq_of([H, W, H])] * 3 + [seq_of([H, W])]
for pattern, count in insertion_pattern_topk(samples, hyps):
    shown = "|".join(pattern) if pattern else "(no insertion)"
    print(f"{count}x  {shown}")

print()
print("== broken vs inserted transitions ==")
sample = sample_of([H, W, H], [1])
table = transition_analysis([sample], [seq_of([H, W, H])])
for name, grid in (("broken", table.broken), ("inserted", table.inserted)):
    pairs = [
        f"{ACTIVITY_CATEGORIES[i]}->{ACTIVITY_CATEGORIES[j]}: {grid[i, j]}"
        for i in range(9)
        for j in range(9)
        if grid[i, j]
    ]
    print(f"{name}: {pairs}")

print()
print("== two-model transition comparison (162 cells) ==")
perfect = [seq_of([H, W, H])]
lazy = [replace(sample.incomplete)]
verdict = compare_transitions(
    transition_analysis([sample], perfect), transition_analysis([sample], lazy)
)
print(f"perfect model wins {verdict['wins_a']}, lazy model wins {verdict['wins_b']}, "
      f"ties {verdict['ties']}")
