"""The closed activity vocabulary, token id layout, and covariate codes."""

from __future__ import annotations

ACTIVITY_CATEGORIES: tuple[str, ...] = (
    "GoShopping",
    "Other",
    "PersonalBusiness",
    "GoToSchool",
    "Healthcare",
    "Recreation",
    "EatOut",
    "HomeActivity",
    "WorkForPay",
)

N_ACTIVITIES = len(ACTIVITY_CATEGORIES)
LABEL_TO_ID = {label: i for i, label in enumerate(ACTIVITY_CATEGORIES)}
ID_TO_LABEL = dict(enumerate(ACTIVITY_CATEGORIES))

# Output classes: the nine activities plus the per-slot stop label.
NO_INSERT_ID = N_ACTIVITIES
N_CONTENT_CLASSES = N_ACTIVITIES + 1

# Sequence framing tokens (never serialized, never predicted).
BOS_ID = 10
EOS_ID = 11
PAD_ID = 12
TOKEN_VOCAB_SIZE = 13

# Covariate code ranges.
N_TIME_BINS = 96  # the day in 15-minute bins, coded 1..96
N_MODES = 6  # five travel modes plus Unknown, coded 1..6
MODE_UNKNOWN = 6
N_STATIC_LEVELS = 5  # tract income/age/race/education, each coded 1..5
MISSING_CODE = 0  # categorical sentinel for unobserved covariates
