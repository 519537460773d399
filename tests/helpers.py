"""Shared builders for random sequences, samples, and tiny model configs,
plus frozen references the optimized paths are checked against: the serial
decode loop and its activity-level insertion, the training item built from
``Activity`` objects, the per-stream variable selection network, the
hand-kept parameter lists, the per-parameter Adam and clipping, the
two-branch sigmoid, the backward that kept its graph, the padded forward
and loss (with the ``index`` and ``concat`` ops only it and a few tensor
tests use), the per-slot ``Counter`` walk that filled the loss's target
rows, the ``rng.choice`` day sampler, the ``Packing`` index arrays built
from ``sizes``, the per-cell ``compare_transitions`` loop, the list walk
that counted a slot's label overlap, the alignment loop that walked the
full sequence item by item, and the metrics that scored label strings
(``LabelInputSide`` and the ``label_`` functions); ``at_float64``, which
promotes a model to run parity checks at 64-bit;
``assert_same_network_inputs``, which compares a state with a day through
the network's packed inputs; and ``json_read_records``, the JSONL reader
that parsed every line with json."""

import json
from collections import Counter

from dataclasses import replace
from typing import Sequence

import numpy as np

from actrecover.activities import (
    ACTIVITY_CATEGORIES,
    BOS_ID,
    EOS_ID,
    ID_TO_LABEL,
    LABEL_TO_ID,
    MISSING_CODE,
    MODE_UNKNOWN,
    N_ACTIVITIES,
    N_CONTENT_CLASSES,
    N_TIME_BINS,
    NO_INSERT_ID,
    PAD_ID,
)
from actrecover import tensor as T
from actrecover.data import (
    Activity,
    AlignmentError,
    DaySequence,
    ParseError,
    RecoverySample,
    mask_sequence,
    slot_fills,
)
from actrecover import generator
from actrecover.generator import regime_of
from actrecover.layers import (
    GatedLinearUnit,
    GatedResidualBlock,
    Linear,
    MultiHeadSelfAttention,
    VariableSelection,
    apply_dropout,
    sinusoidal_positions,
)
from actrecover.metrics import MetricsReport, TransitionTable, precision_recall_f1
from actrecover.model import (
    DecoderState,
    InsertionModel,
    ModelConfig,
    RecoveryOutcome,
    VocabularyError,
    _EncoderLayer,
    insertion_targets,
)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(d_m=8, n_heads=2, d_attn=4, d_val=4, n_layers=1, dropout=0.0, max_len=16)
    base.update(overrides)
    return ModelConfig(**base)


def at_float64(model):
    """``model`` with its parameters promoted to float64, as ``grad_check`` promotes them.

    Two computations equal in exact arithmetic differ in float32's last
    bits; run at float64, they are held to the tolerances that reveal a
    real difference. The model's flat buffers are rebuilt at float64, so
    its gradients accumulate at float64 too.
    """
    model._lay_out(np.float64)
    return model


def assert_same_network_inputs(model, state, day: DaySequence) -> None:
    """``state`` reaches the covariate-fused ``model`` as ``day``, freshly encoded, does: every
    per-position input ``_batch_arrays`` makes is equal, dtype and values, key for key."""
    got, want = model._batch_arrays([state]), model._batch_arrays([DecoderState.from_sequence(day)])
    for key in ("tok", "arr", "dep", "mode", "dist", "dist_missing", "weekday", "holiday", "static"):
        assert got[key].dtype == want[key].dtype, key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


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
        choices = model.decoder_forward(state).probs.argmax(axis=-1)
        picks = [(s, int(c)) for s, c in enumerate(choices) if c != NO_INSERT_ID]
        if not picks:
            break
        rounds += 1
        budget = cfg.max_len - len(acts)
        if len(picks) > budget:
            truncated = True
            picks = picks[:budget]
        acts = insert_activities(acts, {s: c for s, c in picks})
        if truncated:
            break
    return RecoveryOutcome(
        sequence=replace(incomplete, activities=acts), rounds=rounds, truncated=truncated
    )


def insert_activities(acts: list, insert_at: dict) -> list:
    """Reference insertion: ``acts`` with an unobserved activity of label id ``insert_at[s]`` in slot ``s``.

    A frozen copy of the decoder's activity-level insertion; the rows a
    decoding round inserts into a ``DecoderState`` must encode what this builds.
    """
    out = []
    for s in range(len(acts) + 1):
        if s in insert_at:
            out.append(Activity(label=ID_TO_LABEL[insert_at[s]], observed=False))
        if s < len(acts):
            out.append(acts[s])
    return out


def activity_batch_item(sample: RecoverySample, rng: np.random.Generator, roll_in: float):
    """Reference training item: (the partial day, its per-slot targets).

    A frozen copy of the builder that made each item's day from fresh
    ``Activity`` objects: removed positions are dropped, except those
    promoted with one shared random rate, which come back unobserved. The
    optimized builder must encode the same day, owe the same targets and
    draw the same numbers in the same order.
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
    return partial, insertion_targets(partial.labels(), sample.complete.labels())


class PerStreamVSN:
    """Reference variable selection: one ``GatedResidualBlock`` per stream.

    A frozen copy of the original layer, which sliced each stream out of the
    (B, T, m, d) block, ran it through its own block and stacked the
    results. It draws its weights in the same order as ``VariableSelection``,
    so both built from equal rngs hold equal values; the grouped layer must
    reproduce its outputs and gradients.
    """

    def __init__(self, name, n_streams, d_m, rng, d_context=None, dropout=0.0):
        self.n_streams = n_streams
        self.d_m = d_m
        self.selector = GatedResidualBlock(
            name + ".select", n_streams * d_m, d_m, n_streams, rng, d_context, dropout
        )
        self.stream_blocks = [
            GatedResidualBlock(f"{name}.stream{j}", d_m, d_m, d_m, rng, None, dropout)
            for j in range(n_streams)
        ]

    def __call__(self, streams, context=None, rng=None):
        b, t, m, d = streams.shape
        flat = T.reshape(streams, (b, t, m * d))
        weights = T.softmax(self.selector(flat, context, rng), axis=-1)
        processed = T.stack(
            [blk(index(streams, np.s_[:, :, j, :]), None, rng) for j, blk in enumerate(self.stream_blocks)],
            axis=2,
        )
        fused = T.tsum(T.mul(processed, T.reshape(weights, (b, t, m, 1))), axis=2)
        return fused, weights

    def parameters(self):
        params = self.selector.parameters()
        for blk in self.stream_blocks:
            params += blk.parameters()
        return params


def listed_parameters(part) -> list:
    """Reference parameter order: the lists each part once kept by hand.

    A frozen copy of the per-class ``parameters()`` methods and of the
    model's ``_collect_parameters``. That order is the checkpoint layout, so
    ``Block.parameters`` must give the same objects in the same order.
    """
    if isinstance(part, Linear):
        return [part.w] + ([part.b] if part.b is not None else [])
    if isinstance(part, GatedLinearUnit):
        return listed_parameters(part.gate) + listed_parameters(part.value)
    if isinstance(part, GatedResidualBlock):
        params = listed_parameters(part.dense_in)
        if part.context is not None:
            params += listed_parameters(part.context)
        params += listed_parameters(part.dense_out) + listed_parameters(part.glu)
        if part.skip is not None:
            params += listed_parameters(part.skip)
        return params + [part.norm_gain, part.norm_bias]
    if isinstance(part, VariableSelection):
        return listed_parameters(part.selector) + listed_parameters(part.streams)
    if isinstance(part, MultiHeadSelfAttention):
        return [part.w_q, part.w_k, part.w_v, part.w_out]
    if isinstance(part, _EncoderLayer):
        params = listed_parameters(part.attn) + [part.norm_gain, part.norm_bias]
        return params + listed_parameters(part.ff)
    if isinstance(part, InsertionModel):
        params = [part.tok_emb]
        if part.config.use_vsn:
            params += [part.arr_emb, part.dep_emb, part.mode_emb]
            params += listed_parameters(part.dist_lin) + [part.dist_missing]
            params += [part.weekday_emb, part.holiday_emb] + part.static_embs
            params += listed_parameters(part.static_grn) + listed_parameters(part.vsn)
        for layer in part.encoder_layers:
            params += listed_parameters(layer)
        return params + listed_parameters(part.slot_proj) + listed_parameters(part.out_proj)
    raise TypeError(f"no reference parameter list for {type(part).__name__}")


class ListAdam:
    """Reference Adam: a frozen copy of the optimizer that kept one moment array per parameter.

    It read each ``p.grad`` and replaced each ``p.data``; the flat ``Adam``
    must reproduce its parameters and moments bit for bit.
    """

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.skipped = 0

    def step(self) -> bool:
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
            update = p.data - self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)
            p.data = update.astype(p.data.dtype, copy=False)
        return True


def list_clip_gradients(params, max_norm: float) -> float:
    """Reference clipping: a frozen copy of the form that replaced each ``p.grad`` by a scaled copy."""
    total = 0.0
    for p in params:
        total += float(np.square(p.grad, dtype=np.float64).sum())
    norm = float(np.sqrt(total))
    if np.isfinite(norm) and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad = p.grad * scale
    return norm


def two_branch_sigmoid(d: np.ndarray) -> np.ndarray:
    """Reference sigmoid: a frozen copy of the form that divided once per branch."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def keep_graph_backward(root: T.Tensor) -> None:
    """Reference backward: a frozen copy of the loop that kept the graph it walked.

    It visits the same nodes in the same order, calls the same closures and
    lands each gradient they return with ``_accumulate``, but releases
    nothing; ``Tensor.backward`` must give every leaf the same gradient bytes.
    """
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            for parent, g in zip(node._parents, node._backward(node.grad)):
                T._accumulate(parent, g)


def index(x, key) -> T.Tensor:
    """``x.data[key]`` by basic indexing, as a tape node; gradients land at the selected elements."""
    data = x.data[key]

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[key] = g  # basic indexing selects disjoint elements
        return (gx,)

    return T._node(data, (x,), backward)


def concat(tensors: Sequence, axis: int = -1) -> T.Tensor:
    ts = [T._as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]

    def backward(g):
        return np.split(g, np.cumsum(sizes[:-1]), axis=axis)

    return T._node(data, tuple(ts), backward)


def _padded_arrays(days) -> dict:
    """The padded collation: (B, T) arrays, every day padded to the longest.

    It encodes each day from its ``Activity`` objects itself, so it shares
    no code with the packed collation it checks.
    """
    lengths = np.array([len(day) for day in days])
    b = len(days)
    t_pad = int(lengths.max()) + 2
    tok = np.full((b, t_pad), PAD_ID, dtype=np.int64)
    arr = np.full((b, t_pad), MISSING_CODE, dtype=np.int64)
    dep = np.full((b, t_pad), MISSING_CODE, dtype=np.int64)
    mode = np.full((b, t_pad), MISSING_CODE, dtype=np.int64)
    dist = np.zeros((b, t_pad))
    dist_missing = np.ones((b, t_pad))
    for i, day in enumerate(days):
        tok[i, 0], tok[i, lengths[i] + 1] = BOS_ID, EOS_ID
        for j, act in enumerate(day.activities, start=1):
            tok[i, j] = LABEL_TO_ID[act.label]
            if act.observed:
                arr[i, j], dep[i, j], mode[i, j], dist[i, j] = act.arr, act.dep, act.mode, act.dist
                dist_missing[i, j] = 0.0
    weekday = np.array([day.weekday - 1 for day in days], dtype=np.int64)
    holiday = np.array([day.holiday for day in days], dtype=np.int64)
    return {
        "tok": tok, "valid": np.arange(t_pad) <= lengths[:, None] + 1,
        "arr": arr, "dep": dep, "mode": mode, "dist": dist, "dist_missing": dist_missing,
        "weekday": np.repeat(weekday[:, None], t_pad, axis=1),
        "holiday": np.repeat(holiday[:, None], t_pad, axis=1),
        "static": np.array([day.static for day in days], dtype=np.int64) - 1,
        "n_slots": lengths + 1, "t_pad": t_pad,
    }


def padded_forward(model, days, rng=None):
    """Reference forward: every stage on the padded (B, T) grid.

    A frozen copy of the forward that the packed one replaced, run on the
    days themselves. Returns (logits, selection): logits (B, T - 1,
    classes), where slots past a day's ``n_slots`` are padding, and the
    (B, T, streams) selection weights or None. The packed forward of the
    days' states must reproduce both on every valid row and draw the same
    dropout numbers in the same order.
    """
    cfg = model.config
    arrs = _padded_arrays(days)
    pos = sinusoidal_positions(arrs["t_pad"], cfg.d_m)
    token_stream = T.add(T.embed(model.tok_emb, arrs["tok"]), pos)
    selection = None
    if cfg.use_vsn:
        dist_stream = T.add(
            model.dist_lin(arrs["dist"][:, :, None]),
            T.mul(arrs["dist_missing"][:, :, None], model.dist_missing),
        )
        streams = T.stack(
            [
                token_stream,
                T.embed(model.arr_emb, arrs["arr"]),
                T.embed(model.dep_emb, arrs["dep"]),
                T.embed(model.mode_emb, arrs["mode"]),
                dist_stream,
                T.embed(model.weekday_emb, arrs["weekday"]),
                T.embed(model.holiday_emb, arrs["holiday"]),
            ],
            axis=2,
        )
        total = None
        for j, emb in enumerate(model.static_embs):
            e = T.embed(emb, arrs["static"][:, j])
            total = e if total is None else T.add(total, e)
        context = T.reshape(model.static_grn(total, None, rng), (len(days), 1, cfg.d_m))
        x, weights = model.vsn(streams, context, rng)
        selection = weights.data
    else:
        x = token_stream
    for layer in model.encoder_layers:
        attended = apply_dropout(layer.attn(x, arrs["valid"]), cfg.dropout, rng)
        x = T.layer_norm(T.add(x, attended), layer.norm_gain, layer.norm_bias)
        x = layer.ff(x, None, rng)
    rep = model.slot_proj(concat([index(x, np.s_[:, :-1, :]), index(x, np.s_[:, 1:, :])], axis=-1))
    return model.out_proj(rep), selection


def padded_batch_loss(model, days, targets_list, rng=None):
    """Reference loss: a frozen copy of the padded batch loss, padded slots weighted 0."""
    logits, _ = padded_forward(model, days, rng)
    b, s, _ = logits.shape
    target = np.zeros((b, s, N_CONTENT_CLASSES))
    weight = np.zeros((b, s, 1))
    for i, targets in enumerate(targets_list):
        n_slots = len(days[i]) + 1
        for slot, counter in enumerate(targets):
            total = sum(counter.values())
            if total == 0:
                target[i, slot, NO_INSERT_ID] = 1.0
            else:
                for label, count in counter.items():
                    target[i, slot, LABEL_TO_ID[label]] = count / total
        weight[i, :n_slots, 0] = 1.0 / (n_slots * b)
    logp = T.log_softmax(logits, axis=-1)
    return T.mul(T.tsum(T.mul(logp, target * weight)), -1.0)


def target_arrays(n_slots: np.ndarray, targets_list: Sequence[Sequence[Counter]]):
    """Reference targets: a frozen copy of the walk over per-slot ``Counter``s that filled the
    packed slot targets and loss weights, one row per slot of every state."""
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


def random_targets(rng: np.random.Generator, state) -> list[Counter]:
    """Per-slot targets for ``state``: stop, or one or two random labels."""
    out = []
    for _ in range(len(state.tokens) + 1):
        k = int(rng.integers(0, 3))
        out.append(Counter(ACTIVITY_CATEGORIES[i] for i in rng.integers(0, len(ACTIVITY_CATEGORIES), size=k)))
    return out


def choice_sample_day(rng: np.random.Generator, idx: int) -> DaySequence:
    """Reference day sampler: a frozen copy of the one that drew with ``rng.choice(n, p=p)``.

    It reads the generator module's calibration tables for every day, so a
    test may patch them; ``generate_population`` must reproduce its days
    exactly, draw for draw.
    """
    weekday = int(rng.integers(1, 8))
    holiday = int(rng.random() < generator.HOLIDAY_RATE)
    initial, transition = map(np.asarray, generator.REGIME_DYNAMICS[regime_of(weekday, holiday)])
    static = tuple(int(c) for c in rng.integers(1, 6, size=4))

    activities: list[Activity] = []
    label_idx = int(rng.choice(N_ACTIVITIES, p=initial))
    t = 1
    while True:
        label = ACTIVITY_CATEGORIES[label_idx]
        dur = 1 + int(rng.poisson(generator.DURATION_MEAN_BINS[label] - 1.0))
        dep = min(t + dur - 1, N_TIME_BINS)
        if activities:
            mode = int(rng.choice(5, p=(0.52, 0.16, 0.14, 0.06, 0.12))) + 1
            dist = round(float(rng.gamma(2.0, 2.0)), 2)
        else:
            mode = MODE_UNKNOWN
            dist = 0.0
        activities.append(Activity(label=label, arr=t, dep=dep, mode=mode, dist=dist, observed=True))
        gap = 1 + int(rng.poisson(generator.GAP_MEAN_BINS))
        t = dep + gap
        if dep >= N_TIME_BINS or t > N_TIME_BINS or len(activities) >= N_TIME_BINS:
            break
        label_idx = int(rng.choice(N_ACTIVITIES, p=transition[label_idx]))

    return DaySequence(person_id=idx, date=idx, weekday=weekday, holiday=holiday, static=static,
                       activities=activities)


def packing_arrays(sizes) -> dict:
    """Reference ``Packing`` arrays: a frozen copy of the derivation that built each one from
    ``sizes``, with the padded grid's flat source rows under ``sources``."""
    sizes = np.asarray(sizes, dtype=np.int64)
    b, t = len(sizes), int(sizes.max())
    starts = np.cumsum(sizes) - sizes  # each sequence's first row
    seq = np.repeat(np.arange(b), sizes)
    pos = np.arange(len(seq)) - starts[seq]
    cols = np.arange(t)
    return {
        "grid": (b, t),
        "seq": seq,
        "pos": pos,
        "cells": seq * t + pos,
        "valid": cols < sizes[:, None],
        "sources": (starts[:, None] + np.minimum(cols, sizes[:, None] - 1)).reshape(-1),
    }


def loop_compare_transitions(table_a, table_b) -> dict:
    """Reference verdicts: a frozen copy of the ``compare_transitions`` loop that judged each of
    the 81 directed pairs once per role and counted as it went."""
    if not np.array_equal(table_a.broken, table_b.broken):
        raise ValueError("transition tables were built against different targets")
    broken = table_a.broken
    cells = []
    wins_a = wins_b = ties = 0
    for role in ("as_first", "as_second"):
        for i, first in enumerate(ACTIVITY_CATEGORIES):
            for j, second in enumerate(ACTIVITY_CATEGORIES):
                gap_a = abs(int(table_a.inserted[i, j]) - int(broken[i, j]))
                gap_b = abs(int(table_b.inserted[i, j]) - int(broken[i, j]))
                if gap_a < gap_b:
                    verdict = "a"
                    wins_a += 1
                elif gap_b < gap_a:
                    verdict = "b"
                    wins_b += 1
                else:
                    verdict = "tie"
                    ties += 1
                cells.append(
                    {
                        "role": role,
                        "from": first,
                        "to": second,
                        "broken": int(broken[i, j]),
                        "inserted_a": int(table_a.inserted[i, j]),
                        "inserted_b": int(table_b.inserted[i, j]),
                        "verdict": verdict,
                    }
                )
    return {"wins_a": wins_a, "wins_b": wins_b, "ties": ties, "cells": cells}


def loop_recovery_summary(outcomes, max_rounds: int) -> dict:
    """Reference summary: a frozen copy of the ``cli._recovery_summary`` loop that grew the histogram
    and the per-round sums as it counted."""
    rounds_histogram = [0] * (max((o.rounds for o in outcomes), default=0) + 1)
    insertions_per_round: list[int] = []
    for outcome in outcomes:
        rounds_histogram[outcome.rounds] += 1
        for r, count in enumerate(outcome.inserted):
            if r == len(insertions_per_round):
                insertions_per_round.append(0)
            insertions_per_round[r] += count
    return {
        "n_sequences": len(outcomes),
        "max_rounds": max_rounds,
        "rounds_histogram": rounds_histogram,
        "truncated": sum(o.truncated for o in outcomes),
        "insertions_per_round": insertions_per_round,
    }


def list_overlap(a: list[str], b: list[str]) -> int:
    """Reference overlap: a frozen copy of the list walk that sized the multiset intersection
    of ``a`` and ``b``."""
    rest = list(b)
    n = 0
    for label in a:
        if label in rest:
            rest.remove(label)
            n += 1
    return n


def json_read_records(path, decode) -> list:
    """``data._read_records`` but for one refusal: json parses every line, and a JSON syntax error is
    refused without its column."""
    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: line {lineno} is not UTF-8 text") from exc
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: parse error at line {lineno}: {exc.msg}") from exc
            except ValueError as exc:  # an integer of more digits than Python converts
                raise ParseError(f"{path}: parse error at line {lineno}: {exc}") from exc
            except RecursionError as exc:
                raise ParseError(f"{path}: parse error at line {lineno}: nested too deeply") from exc
            try:
                records.append(decode(record))
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}: invalid record at line {lineno}: {exc}") from exc
    return records


def loop_align_subsequence(sub, full) -> list[int]:
    """Reference alignment: a frozen copy of the loop that walked ``full`` one item at a time."""
    anchors: list[int] = []
    j = 0
    for i, label in enumerate(sub):
        while j < len(full) and full[j] != label:
            j += 1
        if j == len(full):
            raise AlignmentError(f"element {i} ({label!r}) has no match left in the full sequence")
        anchors.append(j)
        j += 1
    return anchors


# -- Reference scoring: a frozen copy of the metrics that scored label strings ---------------------

def _label_added(i, source, full):
    try:
        fills = slot_fills(full, loop_align_subsequence(source, full))
    except AlignmentError as exc:
        raise AlignmentError(f"sample {i}: {exc}") from exc
    return [(slot, fill) for slot, fill in enumerate(fills) if fill]


def _label_pair_keys(days) -> np.ndarray:
    ids = np.array([LABEL_TO_ID[label] for labels in days for label in labels], dtype=np.int64)
    day = np.repeat(np.arange(len(days), dtype=np.int64), [len(labels) for labels in days])
    same = day[1:] == day[:-1]
    return (N_ACTIVITIES * N_ACTIVITIES * day[1:] + N_ACTIVITIES * ids[:-1] + ids[1:])[same]


def _label_excess_table(keys: np.ndarray, input_keys: np.ndarray) -> np.ndarray:
    unique, inverse = np.unique(np.concatenate([keys, input_keys]), return_inverse=True)
    excess = (np.bincount(inverse[:len(keys)], minlength=len(unique))
              - np.bincount(inverse[len(keys):], minlength=len(unique)))
    cells = np.repeat(unique % (N_ACTIVITIES * N_ACTIVITIES), np.maximum(excess, 0))
    return np.bincount(cells, minlength=N_ACTIVITIES * N_ACTIVITIES).reshape(N_ACTIVITIES, N_ACTIVITIES)


class LabelInputSide:
    """Reference ``InputSide``: the input labels, the removed labels by input slot, the removed label
    counts, the input's pair keys and the broken table, all from label strings."""

    def __init__(self, samples):
        self.samples = samples
        self.labels = [s.incomplete.labels() for s in samples]
        complete = [s.complete.labels() for s in samples]
        self.removed = [dict(_label_added(i, source, full))
                        for i, (source, full) in enumerate(zip(self.labels, complete))]
        self.removed_labels = Counter(label for removed in self.removed
                                      for fill in removed.values() for label in fill)
        self.input_keys = _label_pair_keys(self.labels)
        self.broken = _label_excess_table(_label_pair_keys(complete), self.input_keys)


def _label_input_side(samples, hypotheses) -> LabelInputSide:
    side = samples if isinstance(samples, LabelInputSide) else LabelInputSide(samples)
    if len(side.samples) != len(hypotheses):
        raise AlignmentError(f"{len(side.samples)} samples but {len(hypotheses)} hypotheses")
    return side


def label_evaluate(samples, hypotheses) -> MetricsReport:
    """Reference ``evaluate``: one pass over the pairs, scoring the label strings of each slot."""
    side = _label_input_side(samples, hypotheses)
    report = MetricsReport(
        avg_daily_hypothesis=float(np.mean([len(h) for h in hypotheses])) if hypotheses else 0.0,
        avg_daily_target=float(np.mean([len(s.complete) for s in side.samples])) if side.samples else 0.0,
    )
    location_pcts: list[float] = []
    missing_only_pcts: list[float] = []
    inserted_labels: list[str] = []
    for i, (source, removed, hyp) in enumerate(zip(side.labels, side.removed, hypotheses)):
        n_ins = location_correct = 0
        n_rem = sum(map(len, removed.values()))
        for slot, fill in _label_added(i, source, hyp.labels()):
            n_ins += len(fill)
            inserted_labels += fill
            lost = removed.get(slot)
            if lost:
                location_correct += min(len(fill), len(lost))
                report.correct_inserted += sum(min(fill.count(l), lost.count(l)) for l in set(fill))
        pct = location_correct / n_ins if n_ins else float(n_rem == 0)
        location_pcts.append(pct)
        if n_rem > 0:
            missing_only_pcts.append(pct)
        report.total_inserted += n_ins
        report.total_removed += n_rem
    report.avg_correct_location_pct = float(np.mean(location_pcts)) if location_pcts else 0.0
    report.avg_correct_location_pct_missing_only = (
        float(np.mean(missing_only_pcts)) if missing_only_pcts else 0.0
    )
    report.precision, report.recall, report.f1 = precision_recall_f1(
        report.correct_inserted, report.total_inserted, report.total_removed
    )
    report.oi_correct = sum((Counter(inserted_labels) & side.removed_labels).values())
    report.oi_precision, report.oi_recall, report.oi_f1 = precision_recall_f1(
        report.oi_correct, report.total_inserted, report.total_removed
    )
    return report


def label_activity_distribution(sequences) -> dict[str, int]:
    """Reference ``activity_distribution``: the labels counted one by one."""
    counts = dict.fromkeys(ACTIVITY_CATEGORIES, 0)
    for seq in sequences:
        for label in seq.labels():
            counts[label] += 1
    return counts


def label_insertion_pattern_topk(samples, hypotheses, k: int = 20):
    """Reference ``insertion_pattern_topk``: patterns of label strings, ranked by count, then text."""
    side = _label_input_side(samples, hypotheses)
    patterns: Counter = Counter()
    for i, (source, hyp) in enumerate(zip(side.labels, hypotheses)):
        patterns[tuple(label for _, fill in _label_added(i, source, hyp.labels()) for label in fill)] += 1
    ranked = sorted(patterns.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def label_transition_analysis(samples, hypotheses) -> TransitionTable:
    """Reference ``transition_analysis``: the pair tables keyed from label strings."""
    side = _label_input_side(samples, hypotheses)
    inserted = _label_excess_table(_label_pair_keys([hyp.labels() for hyp in hypotheses]), side.input_keys)
    return TransitionTable(broken=side.broken.copy(), inserted=inserted)
