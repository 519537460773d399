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

With ``use_vsn`` off the model degrades to the token-only flavor: positions
are encoded from token embeddings alone and covariates are never encoded.

A batch runs packed: the valid positions of all its states back to back,
with no padding. Only attention runs on the padded (B, T) grid, and
dropout draws its masks at the padded shape, so a packed batch computes
what a padded one would.
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
from .tensor import Parameter

__all__ = [
    "CapacityError",
    "VocabularyError",
    "CompatibilityError",
    "ModelConfig",
    "DecoderState",
    "SlotDistribution",
    "SelectionWeights",
    "RecoveryOutcome",
    "InsertionModel",
    "insertion_targets",
    "save_checkpoint",
    "load_checkpoint",
    "parameter_checksum",
]

CHECKPOINT_FORMAT = 3  # the manifest ``format`` that checkpoints and ``.state`` files carry
N_COVARIATE_STREAMS = 7  # token + arrival + departure + mode + distance + weekday + holiday
RECOVER_ROWS = 1024  # rows per forward in recover_batch; bounds its memory on large inputs


class CapacityError(RuntimeError):
    """A sequence exceeded the configured length cap."""


class VocabularyError(ValueError):
    """A label or categorical covariate code is outside its closed range."""


class CompatibilityError(ValueError):
    """A checkpoint does not match the expected configuration."""


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

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DecoderState:
    """One partial day ready for the network; sentinels are implied at the ends.

    ``tokens`` holds the activity ids, which both flavors read. ``day`` is
    the day itself, checked once when the state is built; only the
    covariate flavor reads its covariates, in ``InsertionModel._batch_arrays``.
    """

    tokens: np.ndarray  # (n,) activity ids
    day: DaySequence

    @classmethod
    def from_sequence(cls, seq: DaySequence) -> "DecoderState":
        """Validate ``seq`` once and keep it; raises ``VocabularyError``."""
        try:
            seq.validate()
        except ValueError as exc:
            raise VocabularyError(str(exc)) from exc
        return cls(np.array([LABEL_TO_ID[a.label] for a in seq.activities], dtype=np.int64), seq)


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

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- forward -------------------------------------------------------------

    def _batch_arrays(self, states: Sequence[DecoderState]) -> dict:
        """Collate states into packed rows: each state's BOS, activities and EOS.

        The covariate flavor also encodes the days' covariates here, in one
        pass over the batch's activities. Timing, mode and distance of an
        unobserved activity are never read: like a sentinel's, its codes are
        the missing sentinel and its distance is 0, which is how decoder
        insertions stay free of leaked covariates.
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
            days = [st.day for st in states]
            blank = (MISSING_CODE, MISSING_CODE, MISSING_CODE, 0.0)
            cov = np.full((len(tok), 4), blank)  # arrival, departure and mode codes, then distance
            cov[inner] = np.reshape([(a.arr, a.dep, a.mode, a.dist) if a.observed else blank
                                     for day in days for a in day.activities], (-1, 4))
            codes = cov[:, :3].astype(np.int64)
            weekday = np.array([day.weekday - 1 for day in days], dtype=np.int64)
            holiday = np.array([day.holiday for day in days], dtype=np.int64)
            arrays.update(
                arr=codes[:, 0], dep=codes[:, 1], mode=codes[:, 2],
                dist=cov[:, 3].copy(),  # contiguous: on a strided column dist_lin's gradient sums differently
                dist_missing=(codes[:, 0] == MISSING_CODE).astype(np.float64),
                weekday=weekday[packing.seq], holiday=holiday[packing.seq],
                static=np.array([day.static for day in days], dtype=np.int64) - 1,
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
                self.dist_lin(T.Tensor(arrs["dist"][:, None])),
                T.mul(T.Tensor(arrs["dist_missing"][:, None]), self.dist_missing),
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

    def _target_arrays(self, n_slots: np.ndarray, targets_list: Sequence[Sequence[Counter]]):
        """Packed slot targets and loss weights, one row per slot of every state."""
        b = len(n_slots)
        if len(targets_list) != b:
            raise AlignmentError(f"{len(targets_list)} target lists for {b} states")
        target = np.zeros((int(n_slots.sum()), N_CONTENT_CLASSES))
        row = 0
        for i, targets in enumerate(targets_list):
            if len(targets) != n_slots[i]:
                raise AlignmentError(f"sample {i}: {len(targets)} targets for {n_slots[i]} slots")
            for counter in targets:
                total = sum(counter.values())
                if total == 0:
                    target[row, NO_INSERT_ID] = 1.0
                else:
                    for label, count in counter.items():
                        if label not in LABEL_TO_ID:
                            raise VocabularyError(f"unknown target label {label!r}")
                        target[row, LABEL_TO_ID[label]] = count / total
                row += 1
        weight = np.repeat(1.0 / (n_slots * b), n_slots)[:, None]
        return target, weight

    def batch_loss(self, states, targets_list, rng=None):
        """Mean-over-slots cross-entropy, averaged over the batch."""
        logits, info = self.forward(states, rng=rng)
        target, weight = self._target_arrays(info["n_slots"], targets_list)
        logp = T.log_softmax(logits, axis=-1)
        return T.mul(T.tsum(T.mul(logp, target * weight)), -1.0)

    def insertion_loss(self, state: DecoderState, targets: Sequence[Counter], rng=None):
        """Cross-entropy of one state's slot distributions against its targets."""
        return self.batch_loss([state], [targets], rng=rng)

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

        Every round groups the still-active sequences by current length and
        scores each group with one gradient-free forward of at most
        ``RECOVER_ROWS`` rows. Equal lengths need no padding, so every row
        sees the arithmetic of a batch-1 forward. Per sequence, a round
        inserts the argmax of every non-stop slot; a sequence leaves when all
        its slots stop, when it runs out of rounds, or when an insertion
        would pass ``max_len`` (it is then truncated to the leftmost picks
        that fit).
        """
        cfg = self.config
        limit = cfg.max_rounds if max_rounds is None else max_rounds
        acts = [list(seq.activities) for seq in incompletes]
        truncated = [False] * len(acts)
        inserted: list[list[int]] = [[] for _ in acts]  # one count per round taken
        active = list(range(len(acts))) if limit > 0 else []
        while active:
            groups: dict[int, list[int]] = {}
            for i in active:
                groups.setdefault(len(acts[i]), []).append(i)
            still_active = []
            for length, members in sorted(groups.items()):
                for start in range(0, len(members), RECOVER_ROWS):
                    rows = members[start : start + RECOVER_ROWS]
                    states = [
                        DecoderState.from_sequence(replace(incompletes[i], activities=acts[i]))
                        for i in rows
                    ]
                    with T.no_grad():
                        logits, _ = self.forward(states)
                        probs = T.softmax(logits, axis=-1).data.reshape(len(rows), length + 1, -1)
                    for i, choices in zip(rows, probs.argmax(axis=-1)):
                        picks = [(s, int(c)) for s, c in enumerate(choices) if c != NO_INSERT_ID]
                        if not picks:
                            continue
                        budget = cfg.max_len - length
                        if len(picks) > budget:
                            truncated[i] = True
                            picks = picks[:budget]
                        acts[i] = _insert(acts[i], dict(picks))
                        inserted[i].append(len(picks))
                        if not truncated[i] and len(inserted[i]) < limit:
                            still_active.append(i)
            active = sorted(still_active)
        return [
            RecoveryOutcome(
                sequence=replace(seq, activities=acts[i]),
                rounds=len(inserted[i]),
                truncated=truncated[i],
                inserted=tuple(inserted[i]),
            )
            for i, seq in enumerate(incompletes)
        ]


def _insert(acts: list[Activity], insert_at: dict[int, int]) -> list[Activity]:
    """``acts`` with an unobserved activity of label id ``insert_at[s]`` in each slot ``s``."""
    out: list[Activity] = []
    for s in range(len(acts) + 1):
        if s in insert_at:
            out.append(Activity(label=ID_TO_LABEL[insert_at[s]], observed=False))
        if s < len(acts):
            out.append(acts[s])
    return out


# -- containers ---------------------------------------------------------------
# Checkpoints and ``.state`` files are one container: magic bytes, a length-prefixed
# JSON manifest, then a little-endian blob of whole passes over the parameters.

_MAGIC = b"ARCK"


@dataclass(frozen=True)
class _Kind:
    """How one container kind is stored, and how its refusals read."""

    label: str  # names the file in messages
    blob: str  # names the blob in messages
    error: type
    dtype: str
    passes: int  # parameters, then optimizer moments
    keys: tuple[str, ...] = ()  # the kind's own required manifest keys


_KINDS = {
    "model": _Kind("checkpoint", "parameter", CompatibilityError, "<f4", 1),
    "train_state": _Kind("training-state", "training-state", ConfigError, "<f8", 3,
                         ("train", "step", "adam_t", "adam_skipped")),
}
F32_MAX = float(np.finfo(_KINDS["model"].dtype).max)  # the largest value a checkpoint stores


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


def _blob(kind: str, model: InsertionModel, moments: Sequence[list] = ()) -> bytes:
    passes = [[p.data for p in model.parameters()], *moments]
    dtype = _KINDS[kind].dtype
    return b"".join(value.astype(dtype).tobytes() for values in passes for value in values)


def write_record(
    path, kind: str, model: InsertionModel, fields: dict, moments: Sequence[list] = ()
) -> None:
    """Write ``model``, the kind's own manifest ``fields`` and ``moments`` (arrays in parameter order)."""
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "kind": kind,
        "config": model.config.to_dict(),
        "params": _param_entries(model.parameters()),
        **fields,
    }
    _write_container(path, manifest, _blob(kind, model, moments))


def read_record(path, kind: str, config: ModelConfig | None = None):
    """Check a container of ``kind``; returns (model, manifest, passes).

    The model is built from the manifest's config, which must equal
    ``config`` when one is given. ``passes[k]`` lists pass ``k``'s arrays in
    parameter order; pass 0 is already loaded into the model.
    Every refusal raises the kind's error class and names the file.
    """
    spec = _KINDS[kind]

    def refusal(problem: str) -> Exception:
        return spec.error(f"{path}: {problem}")

    try:
        manifest, blob = _read_container(path)
    except CompatibilityError as exc:
        raise spec.error(str(exc)) from exc
    if manifest.get("kind") != kind:
        raise refusal(f"container holds {manifest.get('kind')!r}, not a {spec.label}")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise refusal(f"{spec.label} format {manifest.get('format')!r} is not supported "
                      f"(this version reads format {CHECKPOINT_FORMAT} only)")
    missing = ", ".join(k for k in ("config", "params", *spec.keys) if k not in manifest)
    if missing:
        raise refusal(f"{spec.label} manifest lacks {missing}")
    try:
        values = config_values(manifest["config"], ModelConfig)
        missing = ", ".join(key for key in ModelConfig().to_dict() if key not in values)
        if missing:
            raise ConfigError(f"config lacks {missing}")
        saved = ModelConfig(**values)
    except ConfigError as exc:
        raise refusal(f"invalid {spec.label} config: {exc}") from exc
    if config is not None and saved != config:
        raise refusal(f"{spec.label} config mismatch: "
                      + config_diffs(manifest["config"], config.to_dict()))
    if not isinstance(manifest["params"], list):
        raise refusal(f"{spec.label} manifest params must be a list, not {manifest['params']!r}")
    model = InsertionModel(saved, seed=0)
    params = model.parameters()
    for i, (listed, needed) in enumerate(zip_longest(manifest["params"], _param_entries(params))):
        if listed != needed:
            raise refusal(f"parameter entry {i} is {listed!r}, the model needs {needed!r}")
    sizes = [p.size for p in params]
    expected = spec.passes * np.dtype(spec.dtype).itemsize * sum(sizes)
    if expected != len(blob):
        raise refusal(f"{spec.blob} blob holds {len(blob)} bytes, the manifest needs {expected}")
    rows = np.frombuffer(blob, dtype=spec.dtype).astype(np.float64).reshape(spec.passes, -1)
    if not np.isfinite(rows).all():
        raise refusal(f"{spec.blob} blob holds non-finite values")
    cuts = np.cumsum(sizes)[:-1]
    passes = [[v.reshape(p.shape) for p, v in zip(params, np.split(row, cuts))] for row in rows]
    for p, value in zip(params, passes[0]):
        p.data = value
    return model, manifest, passes


def save_checkpoint(model: InsertionModel, path, extra: dict | None = None) -> None:
    """Write the model as a JSON manifest plus a little-endian float32 blob."""
    write_record(path, "model", model, {"extra": extra or {}})


def load_checkpoint(path, expected_config: ModelConfig | None = None):
    """Rebuild a model from a checkpoint; returns (model, manifest)."""
    model, manifest, _ = read_record(path, "model", expected_config)
    return model, manifest


def parameter_checksum(model: InsertionModel) -> str:
    """SHA-256 of the float32 parameter blob a checkpoint holds."""
    return hashlib.sha256(_blob("model", model)).hexdigest()
