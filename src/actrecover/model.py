"""The slot insertion model.

A partial day is framed by begin/end sentinels; every gap between adjacent
positions (including the ends) is a slot. The network encodes each position
from its covariate streams (token identity with position code, arrival and
departure bins, travel mode, trip distance, weekday, holiday), fuses them
through variable selection conditioned on a static-covariate context, runs a
stack of bidirectional self-attention blocks with gated residual
feed-forwards, and scores every slot over the nine activity labels plus a
per-slot stop label. Decoding inserts the argmax of every non-stop slot
simultaneously and repeats until all slots stop or a round cap is reached,
so the observed tokens always survive in order.

A partial day reaches the network as a ``DecoderState``: the day checked
once and encoded as arrays. Its rows are a token and a source each; training
keeps some of a complete day's rows and decoding inserts rows, both as plain
edits of those two lists, and each row reads its covariates by its source.
With ``use_vsn`` off the model degrades to the token-only flavor: positions
are encoded from token embeddings alone and covariates are never read.

A batch runs packed: the valid positions of all its states back to back,
with no padding. Only attention runs on the padded (B, T) grid, and
dropout draws its masks at the padded shape, so a packed batch computes
what a padded one would.

The model holds its parameters and gradients in float32, the dtype its
checkpoints store, so it trains and decodes at the precision it is saved in
(see the dtype rule in :mod:`actrecover.tensor`). Each kind is one flat
buffer laid out as a checkpoint's blob, which the optimizer updates whole.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, replace
from itertools import zip_longest
from typing import Sequence

import numpy as np

from . import tensor as T
from .activities import (
    BOS_ID,
    EOS_ID,
    ID_TO_LABEL,
    LABEL_TO_ID,
    MISSING_CODE,
    N_CONTENT_CLASSES,
    N_MODES,
    N_STATIC_LEVELS,
    N_TIME_BINS,
    NO_INSERT_ID,
    TOKEN_VOCAB_SIZE,
)
from .data import AlignmentError, DaySequence, Activity, align_subsequence, slot_fills
from .generator import ConfigError, config_values
from .layers import (
    Block,
    GatedResidualBlock,
    Linear,
    MultiHeadSelfAttention,
    Packing,
    VariableSelection,
    apply_dropout,
    sinusoidal_positions,
)
from .tensor import NumericError, Parameter

__all__ = [
    "CapacityError",
    "VocabularyError",
    "CompatibilityError",
    "LengthError",
    "ModelConfig",
    "DecoderState",
    "SlotDistribution",
    "SelectionWeights",
    "RecoveryOutcome",
    "InsertionModel",
    "insertion_targets",
    "slot_labels",
    "save_checkpoint",
    "load_checkpoint",
    "parameter_checksum",
]

CHECKPOINT_FORMAT = 5  # the manifest ``format`` every checkpoint carries
PARAM_DTYPE = np.dtype("<f4")  # the parameters' dtype, and every value a container stores
N_COVARIATE_STREAMS = 7  # token + arrival + departure + mode + distance + weekday + holiday
RECOVER_ROWS = 2048  # packed rows per forward in recover_batch, n + 2 per state of n tokens


class CapacityError(RuntimeError):
    """A sequence exceeded the configured length cap."""


class VocabularyError(ValueError):
    """A label or categorical covariate code is outside its closed range."""


class CompatibilityError(ValueError):
    """A checkpoint does not match the expected configuration."""


class LengthError(ConfigError):
    """A day holds more activities than the model's ``max_len``."""


@dataclass
class ModelConfig:
    d_m: int = 64
    n_heads: int = 4
    d_attn: int = 16
    d_val: int = 16
    n_layers: int = 2
    dropout: float = 0.1
    use_vsn: bool = True
    max_rounds: int = 8
    max_len: int = 32

    def __post_init__(self) -> None:
        if min(self.d_m, self.n_heads, self.d_attn, self.d_val, self.n_layers) < 1:
            raise ConfigError("model dimensions must all be >= 1")
        if self.n_heads * max(self.d_attn, self.d_val) > 4096:
            raise ConfigError("head count times head width is unreasonably large")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout out of [0, 1): {self.dropout}")
        if self.max_rounds < 0 or self.max_len < 1:
            raise ConfigError("max_rounds must be >= 0 and max_len >= 1")


@dataclass
class DecoderState:
    """One partial day ready for the network; sentinels are implied at the ends.

    ``tokens`` holds the activity ids, which both flavors read. ``source``
    maps each row to its activity in the day the state was built from, -1
    for an insertion. The covariate flavor also reads ``cov[source]``,
    ``dist[source]`` and the day's ``codes``; -1 reads the unobserved last row.
    """

    tokens: np.ndarray  # (n,) activity ids
    cov: np.ndarray  # (m + 1, 3) arrival, departure and mode codes per source activity, then one unobserved row
    dist: np.ndarray  # (m + 1,) distances alike; an unobserved row holds MISSING_CODE codes and distance 0
    codes: np.ndarray  # (6,) weekday - 1, holiday, then the four static codes - 1
    source: np.ndarray  # (n,) each row's index in the source day, -1 for an insertion

    @classmethod
    def from_sequence(cls, seq: DaySequence) -> "DecoderState":
        """Validate ``seq`` once and encode it; raises ``VocabularyError``."""
        try:
            seq.validate()
        except ValueError as exc:
            raise VocabularyError(str(exc)) from exc
        acts = seq.activities
        none = (MISSING_CODE,) * 3  # an unobserved activity's stored codes and distance are never read
        cov = np.array([(a.arr, a.dep, a.mode) if a.observed else none for a in acts] + [none], dtype=np.int64)
        dist = np.array([a.dist if a.observed else 0.0 for a in acts] + [0.0], dtype=np.float64)
        return cls(
            np.array([LABEL_TO_ID[a.label] for a in acts], dtype=np.int64),
            cov,
            dist,
            np.array([seq.weekday - 1, seq.holiday, *(c - 1 for c in seq.static)], dtype=np.int64),
            np.arange(len(acts)),
        )

    @classmethod
    def from_days(cls, days: Sequence[DaySequence], max_len: int) -> list["DecoderState"]:
        """``from_sequence`` of each day, once none is longer than ``max_len`` (else ``LengthError``)."""
        for i, day in enumerate(days):
            if len(day) > max_len:
                raise LengthError(f"sample {i}: {len(day)} activities exceed max_len={max_len}")
        return [cls.from_sequence(day) for day in days]


@dataclass
class SlotDistribution:
    """Per-slot probabilities over the nine labels plus the stop label."""

    probs: np.ndarray  # (n_slots, N_CONTENT_CLASSES)


@dataclass
class SelectionWeights:
    """Per-position stream selection weights, rows summing to one."""

    weights: np.ndarray  # (n_positions, n_streams)


@dataclass
class RecoveryOutcome:
    sequence: DaySequence
    rounds: int
    truncated: bool
    inserted: tuple[int, ...] = ()  # activities inserted in each round, one entry per round


def insertion_targets(incomplete: Sequence, complete: Sequence) -> list[Counter]:
    """Per-slot multisets of labels the decoder must insert into ``incomplete``.

    ``incomplete`` is aligned leftmost-greedy inside ``complete``; a list
    that is not an order-preserving subsequence raises ``AlignmentError``.
    Slot ``s`` sits before source token ``s``; it owes exactly the complete
    labels that ``slot_fills`` puts in it. An empty counter means the slot's
    target is the stop label.
    """
    return [Counter(fill) for fill in slot_fills(complete, align_subsequence(incomplete, complete))]


def slot_labels(targets: Sequence[Counter]) -> list[list[int]]:
    """``batch_loss``'s label ids of per-slot label counters, each label once per count; a counter
    whose counts total zero owes nothing, and an unknown label raises ``VocabularyError``."""
    try:
        return [[LABEL_TO_ID[label] for label in c.elements()] if sum(c.values()) else [] for c in targets]
    except KeyError as exc:
        raise VocabularyError(f"unknown target label {exc.args[0]!r}") from exc


def _target_rows(n_slots: np.ndarray, targets) -> np.ndarray:
    """``batch_loss``'s packed target rows: one scatter counts what each slot of every state
    owes, a row that owes nothing gets the stop label, and each row is divided by its total."""
    if len(targets) != len(n_slots):
        raise AlignmentError(f"{len(targets)} target lists for {len(n_slots)} states")
    for i, (owed, n) in enumerate(zip(targets, n_slots)):
        if len(owed) != n:
            raise AlignmentError(f"sample {i}: {len(owed)} targets for {n} slots")
    fills = [fill for state in targets for fill in state]
    labels = np.array([c for fill in fills for c in fill], dtype=np.int64)
    counts = np.zeros((len(fills), N_CONTENT_CLASSES))
    np.add.at(counts, (np.repeat(np.arange(len(fills)), [len(fill) for fill in fills]), labels), 1.0)
    total = counts.sum(axis=1, keepdims=True)
    counts[total[:, 0] == 0, NO_INSERT_ID] = 1.0
    return counts / np.maximum(total, 1.0)


class _EncoderLayer(Block):
    """Self-attention with a residual layer norm, then a gated residual feed-forward."""

    def __init__(self, name: str, cfg: ModelConfig, rng):
        self.attn = MultiHeadSelfAttention(
            name + ".attn", cfg.d_m, cfg.n_heads, cfg.d_attn, cfg.d_val, rng
        )
        self.norm_gain = Parameter(name + ".norm.gain", np.ones(cfg.d_m))
        self.norm_bias = Parameter(name + ".norm.bias", np.zeros(cfg.d_m))
        self.ff = GatedResidualBlock(name + ".ff", cfg.d_m, cfg.d_m, cfg.d_m, rng, None, cfg.dropout)
        self.dropout = cfg.dropout

    def __call__(self, x, packing: Packing, rng):
        """Packed rows in, packed rows out; attention alone sees the padded grid."""
        attended = packing.pack(self.attn(packing.pad(x), packing.valid))
        attended = apply_dropout(attended, self.dropout, rng, packing)
        x = T.layer_norm(T.add(x, attended), self.norm_gain, self.norm_bias)
        return self.ff(x, None, rng, packing)


class InsertionModel(Block):
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        d = config.d_m
        emb_std = 1.0 / np.sqrt(d)

        def table(name: str, rows: int) -> Parameter:
            return Parameter(name, rng.normal(0.0, emb_std, size=(rows, d)))

        self.tok_emb = table("tok_emb", TOKEN_VOCAB_SIZE)
        if config.use_vsn:
            self.arr_emb = table("cov.arr_emb", N_TIME_BINS + 1)  # row 0 = missing
            self.dep_emb = table("cov.dep_emb", N_TIME_BINS + 1)
            self.mode_emb = table("cov.mode_emb", N_MODES + 1)
            self.dist_lin = Linear("cov.dist", 1, d, rng)
            self.dist_missing = Parameter("cov.dist_missing", rng.normal(0.0, emb_std, size=(d,)))
            self.weekday_emb = table("cov.weekday_emb", 7)
            self.holiday_emb = table("cov.holiday_emb", 2)
            self.static_embs = [table(f"cov.static{j}_emb", N_STATIC_LEVELS) for j in range(4)]
            self.static_grn = GatedResidualBlock("static_ctx", d, d, d, rng, None, config.dropout)
            self.vsn = VariableSelection(
                "vsn", N_COVARIATE_STREAMS, d, rng, d_context=d, dropout=config.dropout
            )
        self.encoder_layers = [
            _EncoderLayer(f"enc{i}", config, rng) for i in range(config.n_layers)
        ]
        self.slot_proj = Linear("slot_proj", 2 * d, d, rng)
        self.out_proj = Linear("out_proj", d, N_CONTENT_CLASSES, rng)
        self._lay_out(PARAM_DTYPE)  # drawn in float64, held in the checkpoint's dtype

    def _lay_out(self, dtype) -> None:
        """Hold the parameters in ``dtype`` back to back, in checkpoint order, in one ``values``
        buffer, and zeroed gradients alike in ``grads``; each ``p.data`` and ``p.grad`` is a view."""
        params = self.parameters()
        self.values = np.concatenate([p.data.reshape(-1) for p in params], dtype=dtype)
        self.grads = np.zeros_like(self.values)
        cuts = np.cumsum([p.size for p in params])[:-1]
        for p, value, grad in zip(params, np.split(self.values, cuts), np.split(self.grads, cuts)):
            p.data, p.grad = value.reshape(p.shape), grad.reshape(p.shape)

    def zero_grads(self) -> None:
        self.grads.fill(0)

    # -- forward -------------------------------------------------------------

    def _batch_arrays(self, states: Sequence[DecoderState]) -> dict:
        """Collate states into packed rows: each state's BOS, activities and EOS.

        The covariate flavor also reads each row's covariates through its
        ``source`` and spreads each day's codes over its rows.
        """
        lengths = np.array([len(st.tokens) for st in states])
        longest = int(lengths.max())
        if longest > self.config.max_len:
            raise CapacityError(f"state of {longest} tokens exceeds max_len={self.config.max_len}")
        packing = Packing(lengths + 2)
        last = packing.pos == lengths[packing.seq] + 1
        inner = (packing.pos > 0) & ~last  # the activity rows
        tok = np.full(len(packing.seq), BOS_ID, dtype=np.int64)
        tok[inner] = np.concatenate([st.tokens for st in states])
        tok[last] = EOS_ID
        arrays = {
            "packing": packing, "tok": tok,
            "slot_rows": np.flatnonzero(~last)[:, None] + [0, 1],  # slot s sits between rows s and s + 1
            "n_slots": lengths + 1,
        }
        if self.config.use_vsn:
            cov, dist = np.full((len(tok), 3), MISSING_CODE, dtype=np.int64), np.zeros(len(tok), np.float64)
            cov[inner] = np.concatenate([st.cov[st.source] for st in states])
            dist[inner] = np.concatenate([st.dist[st.source] for st in states])
            day = np.array([st.codes for st in states])
            arrays.update(
                arr=cov[:, 0], dep=cov[:, 1], mode=cov[:, 2], dist=dist,
                dist_missing=cov[:, 0] == MISSING_CODE,
                weekday=day[packing.seq, 0], holiday=day[packing.seq, 1], static=day[:, 2:],
            )
        return arrays

    def _static_context(self, static_idx: np.ndarray, rng):
        """One (d,) context row per person, from the four static codes."""
        total = None
        for j, emb in enumerate(self.static_embs):
            e = T.embed(emb, static_idx[:, j])
            total = e if total is None else T.add(total, e)
        return self.static_grn(total, None, rng)

    def forward(self, states: Sequence[DecoderState], rng=None):
        """Slot logits for a batch; returns (logits, info).

        Dropout runs exactly when an ``rng`` is given, which training does.

        ``logits`` holds every state's slots back to back, shape
        (sum of n_slots, classes). ``info`` carries ``n_slots`` per state
        and, for the covariate flavor, the selection weights of every
        position, likewise packed, shape (sum of n_slots + B, streams).
        """
        cfg = self.config
        arrs = self._batch_arrays(states)
        packing = arrs["packing"]
        pos = sinusoidal_positions(packing.grid[1], cfg.d_m)[packing.pos]
        token_stream = T.add(T.embed(self.tok_emb, arrs["tok"]), pos)
        selection = None
        if cfg.use_vsn:
            dist_stream = T.add(
                self.dist_lin(arrs["dist"][:, None]),
                T.mul(arrs["dist_missing"][:, None], self.dist_missing),
            )
            streams = T.stack(
                [
                    token_stream,
                    T.embed(self.arr_emb, arrs["arr"]),
                    T.embed(self.dep_emb, arrs["dep"]),
                    T.embed(self.mode_emb, arrs["mode"]),
                    dist_stream,
                    T.embed(self.weekday_emb, arrs["weekday"]),
                    T.embed(self.holiday_emb, arrs["holiday"]),
                ],
                axis=1,
            )
            context = self._static_context(arrs["static"], rng)
            x, weights = self.vsn(streams, context, rng, packing)
            selection = weights.data
        else:
            x = token_stream
        for layer in self.encoder_layers:
            x = layer(x, packing, rng)
        rows = arrs["slot_rows"]
        rep = self.slot_proj(T.reshape(T.embed(x, rows), (len(rows), 2 * cfg.d_m)))
        logits = self.out_proj(rep)
        return logits, {"n_slots": arrs["n_slots"], "selection": selection}

    def decoder_forward(self, state: DecoderState) -> SlotDistribution:
        """Distributions over what to insert into each of the n+1 slots."""
        with T.no_grad():
            logits, _ = self.forward([state])
            probs = T.softmax(logits, axis=-1).data
        return SlotDistribution(probs=probs)

    def selection_weights(self, state: DecoderState) -> SelectionWeights:
        if not self.config.use_vsn:
            raise VocabularyError("token-only flavor has no selection weights")
        with T.no_grad():
            _, info = self.forward([state])
        return SelectionWeights(weights=info["selection"])

    # -- loss ----------------------------------------------------------------

    def batch_loss(self, states, targets, rng=None):
        """Mean-over-slots cross-entropy, averaged over the batch.

        ``targets`` holds one list per state of what each of its slots owes, a list of label
        ids as ``slot_fills`` makes it. A slot's target spreads evenly over what it owes, or is
        the stop label if it owes nothing. A list count other than the state count, or a slot
        count other than the state's, raises ``AlignmentError``.
        """
        logits, info = self.forward(states, rng=rng)
        target = _target_rows(info["n_slots"], targets)
        weight = np.repeat(1.0 / (info["n_slots"] * len(states)), info["n_slots"])[:, None]
        logp = T.log_softmax(logits, axis=-1)
        return T.tsum(T.mul(logp, -(target * weight)))  # negating the constant is exact

    def insertion_loss(self, state: DecoderState, targets: Sequence[Counter], rng=None):
        """Cross-entropy of one state's slots against one label ``Counter`` per slot, as
        ``insertion_targets`` builds them, passed through ``slot_labels``; a wrong slot count
        raises ``AlignmentError``."""
        return self.batch_loss([state], [slot_labels(targets)], rng=rng)

    # -- decoding ------------------------------------------------------------

    def recover(self, incomplete: DaySequence, max_rounds: int | None = None) -> RecoveryOutcome:
        """Iteratively insert activities until every slot stops.

        Inserted activities carry no timing/mode/distance information; the
        input tokens appear in the output as a subsequence, in order.
        """
        return self.recover_batch([incomplete], max_rounds=max_rounds)[0]

    def recover_batch(
        self, incompletes: Sequence[DaySequence], max_rounds: int | None = None
    ) -> list[RecoveryOutcome]:
        """Decode many sequences at once; each outcome equals a lone ``recover``.

        Each input is checked and encoded once, even when no round runs.
        Every round groups the still-active states by current length and
        scores each group with gradient-free forwards of at most
        ``RECOVER_ROWS`` packed rows, n + 2 per state of n tokens (at least
        one state per forward). Equal lengths need no padding, so every row
        sees the arithmetic of a batch-1 forward. Per sequence, a round
        inserts the argmax of every non-stop slot; a sequence leaves when all
        its slots stop, when it runs out of rounds, or when an insertion
        would pass ``max_len`` (it is then truncated to the leftmost picks
        that fit). Slot scores that leave float32's range raise
        ``NumericError``. A negative ``max_rounds`` raises ``ConfigError``, and an
        input longer than ``max_len`` ``LengthError``, before any input is encoded.
        """
        cfg = self.config
        limit = cfg.max_rounds if max_rounds is None else max_rounds
        if limit < 0:
            raise ConfigError(f"max_rounds must be >= 0, not {limit}")
        states = DecoderState.from_days(incompletes, cfg.max_len)
        truncated = [False] * len(states)
        inserted: list[list[int]] = [[] for _ in states]  # one count per round taken
        active = list(range(len(states))) if limit > 0 else []
        while active:
            groups: dict[int, list[int]] = {}
            for i in active:
                groups.setdefault(len(states[i].tokens), []).append(i)
            still_active = []
            for length, members in sorted(groups.items()):
                per_forward = max(1, RECOVER_ROWS // (length + 2))
                for start in range(0, len(members), per_forward):
                    rows = members[start : start + per_forward]
                    with T.no_grad(), np.errstate(all="ignore"):  # the logits are checked just below
                        logits, _ = self.forward([states[i] for i in rows])
                        probs = T.softmax(logits, axis=-1).data.reshape(len(rows), length + 1, -1)
                    if not np.isfinite(logits.data).all():
                        raise NumericError("slot scores are not finite: the model's arithmetic "
                                           "leaves float32's range")
                    for i, choices in zip(rows, probs.argmax(axis=-1)):
                        picks = [(s, int(c)) for s, c in enumerate(choices) if c != NO_INSERT_ID]
                        if not picks:
                            continue
                        truncated[i] = len(picks) > cfg.max_len - length
                        picks = picks[: cfg.max_len - length]  # the leftmost picks that fit
                        tokens, source = states[i].tokens.tolist(), states[i].source.tolist()
                        for s, c in reversed(picks):  # right to left, so slot s still sits before row s
                            tokens.insert(s, c)
                            source.insert(s, -1)
                        states[i] = replace(states[i], tokens=np.array(tokens), source=np.array(source))
                        inserted[i].append(len(picks))
                        if not truncated[i] and len(inserted[i]) < limit:
                            still_active.append(i)
            active = sorted(still_active)
        return [
            RecoveryOutcome(
                sequence=replace(seq, activities=[seq.activities[j] if j >= 0 else Activity(ID_TO_LABEL[t])
                                                  for j, t in zip(st.source.tolist(), st.tokens.tolist())]),
                rounds=len(inserted[i]),
                truncated=truncated[i],
                inserted=tuple(inserted[i]),
            )
            for i, (seq, st) in enumerate(zip(incompletes, states))
        ]


# -- checkpoints --------------------------------------------------------------
# A checkpoint is one container: magic bytes, a length-prefixed JSON manifest, then a
# little-endian blob of whole passes, each laid out like ``InsertionModel.values``. A model
# checkpoint's blob is the parameters; a training checkpoint's manifest adds ``TRAIN_KEYS`` and
# ``data_digest`` (read by a resume alone), its blob Adam's two moments, so it alone resumes training.

_MAGIC = b"ARCK"
TRAIN_KEYS = ("train", "step", "adam_skipped")  # the manifest keys a training checkpoint adds


def _write_container(path, manifest: dict, blob: bytes) -> None:
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(payload).to_bytes(4, "little"))
        fh.write(payload)
        fh.write(blob)


def _read_container(path) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise CompatibilityError(f"{path}: not a checkpoint container")
        size = int.from_bytes(fh.read(4), "little")
        try:
            manifest = json.loads(fh.read(size).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError and too-deep nesting
            raise CompatibilityError(f"{path}: unreadable container manifest: {exc}") from exc
        blob = fh.read()
    if not isinstance(manifest, dict):
        raise CompatibilityError(f"{path}: container manifest is not an object")
    return manifest, blob


def config_diffs(saved: dict, now: dict, may_change: Sequence[str] = ()) -> str:
    """``key=saved (now new)`` for each key of ``now`` outside ``may_change`` that differs."""
    return ", ".join(
        f"{key}={saved.get(key)!r} (now {value!r})"
        for key, value in now.items()
        if key not in may_change and saved.get(key) != value
    )


def _param_entries(params: Sequence[Parameter]) -> list[dict]:
    """The manifest's ``params`` list: each parameter's name and shape, in layout order."""
    return [{"name": p.name, "shape": list(p.shape)} for p in params]


def save_checkpoint(model: InsertionModel, path, training: dict | None = None, moments=()) -> None:
    """Write a model checkpoint or, given ``training`` (the ``TRAIN_KEYS`` and ``data_digest`` values)
    and Adam's two ``moments`` (each laid out like ``model.values``), a training checkpoint."""
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "params": _param_entries(model.parameters()),
        **(training or {}),
    }
    _write_container(path, manifest, b"".join(buf.tobytes() for buf in (model.values, *moments)))


def read_checkpoint(path, config: ModelConfig | None = None):
    """Check a checkpoint of either form; returns (model, manifest, passes).

    The model is built from the manifest's config, which must equal
    ``config`` when one is given. ``passes`` is the blob read in place, one
    row per pass laid out like ``model.values``: the parameters, already
    copied into the model, then, in a training checkpoint, Adam's two
    moments. Every refusal raises ``CompatibilityError`` and names the file.
    """

    def refusal(problem: str) -> Exception:
        return CompatibilityError(f"{path}: {problem}")

    manifest, blob = _read_container(path)
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise refusal(f"checkpoint format {manifest.get('format')!r} is not supported "
                      f"(this version reads format {CHECKPOINT_FORMAT} only)")
    trained = any(key in manifest for key in TRAIN_KEYS)  # then every one of them is required
    required = ("config", "params", *(TRAIN_KEYS if trained else ()))
    missing = ", ".join(key for key in required if key not in manifest)
    if missing:
        raise refusal(f"checkpoint manifest lacks {missing}")
    try:
        values = config_values(manifest["config"], ModelConfig)
        missing = ", ".join(key for key in asdict(ModelConfig()) if key not in values)
        if missing:
            raise ConfigError(f"config lacks {missing}")
        saved = ModelConfig(**values)
    except ConfigError as exc:
        raise refusal(f"invalid checkpoint config: {exc}") from exc
    if config is not None and saved != config:
        raise refusal("checkpoint config mismatch: " + config_diffs(manifest["config"], asdict(config)))
    if not isinstance(manifest["params"], list):
        raise refusal(f"checkpoint manifest params must be a list, not {manifest['params']!r}")
    model = InsertionModel(saved, seed=0)
    for i, (listed, needed) in enumerate(zip_longest(manifest["params"], _param_entries(model.parameters()))):
        if listed != needed:
            raise refusal(f"parameter entry {i} is {listed!r}, the model needs {needed!r}")
    expected = (3 if trained else 1) * model.values.nbytes
    if expected != len(blob):
        raise refusal(f"checkpoint blob holds {len(blob)} bytes, the manifest needs {expected}")
    passes = np.frombuffer(blob, dtype=PARAM_DTYPE).reshape(-1, model.values.size)
    if not np.isfinite(passes[0]).all():  # the moments are checked where a resume reads them
        raise refusal("checkpoint blob holds non-finite values")
    model.values[:] = passes[0]
    return model, manifest, passes


def load_checkpoint(path, expected_config: ModelConfig | None = None):
    """Rebuild a model from a checkpoint of either form; returns (model, manifest)."""
    return read_checkpoint(path, expected_config)[:2]


def parameter_checksum(model: InsertionModel) -> str:
    """SHA-256 of the float32 parameter blob a checkpoint holds."""
    return hashlib.sha256(model.values).hexdigest()
