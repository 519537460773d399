"""Per-layer metrics of a traced run, computed from its spans and counts.

Layers are the package's modules. Each timing distribution is reported as
``<name>.p50``, ``<name>.n`` and, where enough samples exist, ``<name>.tail``:
the highest level of ``tracing.TAIL_LEVELS`` with at least ten samples beyond
it. Distributions that hold only a few calls per run (one per CLI command)
have no tail. A metric with no samples on a workload (training on
``bulk-data``, say) reads 0 and is listed as absent in the run's report.

The ``cli.*_per_s`` throughputs come from the run's untraced pass: each is a
stage's total work over its total time.
"""

from __future__ import annotations

from tracing import END, NAME, PARENT, START, percentile, tail_level

FLAVORS = ("fused", "token")
# Spans that make up a training step besides building its batch.
STEP_PARTS = ("model.batch_loss", "tensor.backward", "training.clip", "training.adam")

# Distributions with many samples per run: p50, tail and n.
LONG_DISTRIBUTIONS = (
    ("tensor.backward_ms.fused", "ms"), ("tensor.backward_ms.token", "ms"),
    ("layers.vsn_fwd_ms", "ms"), ("layers.attn_fwd_ms", "ms"), ("layers.grn_fwd_ms", "ms"),
    ("model.forward_ms.b1.fused", "ms"), ("model.forward_ms.b1.token", "ms"),
    ("model.forward_ms.b64.fused", "ms"), ("model.forward_ms.b64.token", "ms"),
    ("model.recover_ms.fused", "ms"), ("model.recover_ms.token", "ms"),
    ("model.decoder_state_us", "us"),
    ("training.step_ms.fused", "ms"), ("training.step_ms.token", "ms"),
    ("training.adam_ms.fused", "ms"), ("training.adam_ms.token", "ms"),
    ("training.clip_ms.fused", "ms"), ("training.clip_ms.token", "ms"),
    ("training.batch_build_ms.fused", "ms"), ("training.batch_build_ms.token", "ms"),
)

# Distributions of a few calls per run: p50 and n.
SHORT_DISTRIBUTIONS = (
    ("model.checkpoint_ms", "ms"),
    ("generator.generate_population_ms", "ms"), ("generator.make_samples_ms", "ms"),
    ("data.read_samples_ms", "ms"), ("data.read_sequences_ms", "ms"),
    ("data.write_samples_ms", "ms"), ("data.write_sequences_ms", "ms"),
    ("metrics.evaluate_ms", "ms"), ("metrics.transition_analysis_ms", "ms"),
    ("metrics.insertion_pattern_topk_ms", "ms"), ("metrics.compare_transitions_ms", "ms"),
)

LONG_NAMES = {name for name, _ in LONG_DISTRIBUTIONS}

ROUND_BUCKETS = ("r0", "r1", "r2", "r3plus")

# (name, unit, stage time keys, work count key) of each CLI stage's throughput.
STAGE_RATES = (
    ("cli.gen_days_per_s", "days/s", ("gen", "gen.train", "gen.heldout"), "days_generated"),
    *((f"cli.train_samples_per_s.{f}", "samples/s", (f"train.{f}",), f"samples_trained.{f}")
      for f in FLAVORS),
    *((f"cli.recover_seq_per_s.{f}", "seq/s", (f"recover.{f}",), f"sequences_decoded.{f}")
      for f in FLAVORS),
    ("cli.eval_samples_per_s", "samples/s", ("eval",), "samples_scored"),
    ("cli.compare_samples_per_s", "samples/s", ("compare",), "samples_scored"),
)

SCALARS = (
    ("tensor.ops_per_step.fused", "count"), ("tensor.ops_per_step.token", "count"),
    *((f"model.{m}.{f}", u) for m, u in (
        ("forwards", "count"), ("forwards_per_seq", "ratio"), ("useful_forward_ratio", "ratio"),
        ("rounds_mean", "rounds"), ("insertions", "count"), ("inserted_share", "ratio"),
    ) for f in FLAVORS),
    *((f"model.rounds_hist.{f}.{b}", "count") for f in FLAVORS for b in ROUND_BUCKETS),
    ("model.truncated", "count"), ("model.pad_fraction", "ratio"),
    ("training.samples.fused", "count"), ("training.samples.token", "count"),
    ("training.skipped_steps", "count"),
    ("generator.days", "count"),
    ("data.bytes_written", "bytes"), ("data.align_calls", "count"),
    ("metrics.token_oi_f1", "ratio"),
    ("tracing.overhead_frac", "ratio"),
    *((name, unit) for name, unit, _, _ in STAGE_RATES),
)


def declared() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name, unit in LONG_DISTRIBUTIONS:
        out += [(name + ".p50", unit), (name + ".tail", unit), (name + ".n", "count")]
    for name, unit in SHORT_DISTRIBUTIONS:
        out += [(name + ".p50", unit), (name + ".n", "count")]
    return out + list(SCALARS)


def stage_rates(times: dict, counts: dict) -> dict:
    """Throughput of every stage a pass ran, from its stage times and work counts."""
    rates = {}
    for name, _, stages, work in STAGE_RATES:
        seconds = sum(sum(times.get(stage, ())) for stage in stages)
        if seconds > 0 and counts.get(work):
            rates[name] = counts[work] / seconds
    return rates


def per_layer(tracer, counts: dict, overhead_frac: float,
              rates: dict) -> tuple[dict, list[str], dict]:
    """(metrics, absent names, tail levels) of one traced pass.

    ``rates`` are the stage throughputs of the untraced pass.
    """
    spans = tracer.spans
    root = [0] * len(spans)
    in_vsn = [False] * len(spans)
    for sid, rec in enumerate(spans):
        parent = rec[PARENT]
        root[sid] = sid if parent < 0 else root[parent]
        in_vsn[sid] = parent >= 0 and (in_vsn[parent] or spans[parent][NAME] == "layers.vsn")

    def context(sid):
        """('train' | 'recover' | other, flavor or None) of a span's CLI root."""
        parts = spans[root[sid]][NAME].split(".")
        return parts[1] if len(parts) > 1 else "", parts[2] if len(parts) > 2 else None

    def ms(rec, scale=1e3):
        return (rec[END] - rec[START]) * scale

    samples: dict[str, list[float]] = {name: [] for name, _ in LONG_DISTRIBUTIONS + SHORT_DISTRIBUTIONS}
    forwards = {f: 0 for f in FLAVORS}
    recover_spans = {f: [] for f in FLAVORS}
    step_parts: dict[int, list] = {}  # train root -> loss/backward/clip/adam spans
    for sid, rec in enumerate(spans):
        name = rec[NAME]
        where, flavor = context(sid)
        if rec[PARENT] < 0:
            continue  # CLI commands: their times are the stage throughputs
        if where == "train" and flavor in FLAVORS:
            if name == "tensor.backward":
                samples[f"tensor.backward_ms.{flavor}"].append(ms(rec))
            elif name == "layers.vsn":
                samples["layers.vsn_fwd_ms"].append(ms(rec))
            elif name == "layers.attn":
                samples["layers.attn_fwd_ms"].append(ms(rec))
            elif name == "layers.grn" and not in_vsn[sid]:
                samples["layers.grn_fwd_ms"].append(ms(rec))
            elif name == "model.forward.b64":
                samples[f"model.forward_ms.b64.{flavor}"].append(ms(rec))
            elif name == "training.adam":
                samples[f"training.adam_ms.{flavor}"].append(ms(rec))
            elif name == "training.clip":
                samples[f"training.clip_ms.{flavor}"].append(ms(rec))
            if name in STEP_PARTS and spans[rec[PARENT]][NAME] not in STEP_PARTS:
                step_parts.setdefault(root[sid], []).append(rec)
        elif where == "recover" and flavor in FLAVORS:
            if name == "model.forward.b1":
                samples[f"model.forward_ms.b1.{flavor}"].append(ms(rec))
            if name.startswith("model.forward.") and spans[rec[PARENT]][NAME] == "model.recover":
                forwards[flavor] += 1
            elif name == "model.recover":
                samples[f"model.recover_ms.{flavor}"].append(ms(rec))
                recover_spans[flavor].append(sid)
        if name == "model.decoder_state":
            samples["model.decoder_state_us"].append(ms(rec, 1e6))
        elif name == "model.checkpoint":
            samples["model.checkpoint_ms"].append(ms(rec))
        elif name.split(".")[0] in ("generator", "data", "metrics"):
            key = name + "_ms"
            if key in samples:
                samples[key].append(ms(rec))

    # steps: the interval between successive Adam.step returns of one train command
    ops_per_step = {}
    for flavor in FLAVORS:
        marks = [m for m in tracer.adam_marks if context(m[2]) == ("train", flavor)]
        diffs = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(marks, marks[1:])
                 if root[a[2]] == root[b[2]]]
        samples[f"training.step_ms.{flavor}"] = [d * 1e3 for d, _ in diffs]
        ops_per_step[flavor] = sum(o for _, o in diffs) / len(diffs) if diffs else 0.0
        for a, b in zip(marks, marks[1:]):
            if root[a[2]] != root[b[2]]:
                continue
            inside = sum(r[END] - r[START] for r in step_parts.get(root[a[2]], ())
                         if r[START] >= a[0] and r[END] <= b[0])
            samples[f"training.batch_build_ms.{flavor}"].append((b[0] - a[0] - inside) * 1e3)

    metrics: dict[str, float] = {}
    absent: list[str] = sorted(tracer.absent)
    levels = {}
    for name, _ in LONG_DISTRIBUTIONS + SHORT_DISTRIBUTIONS:
        values = sorted(samples[name])
        metrics[name + ".n"] = len(values)
        metrics[name + ".p50"] = percentile(values, 50.0) if values else 0.0
        if name in LONG_NAMES:
            level = tail_level(len(values))
            metrics[name + ".tail"] = percentile(values, level) if level else 0.0
            levels[name] = level
            if values and not level:
                absent.append(name + ".tail")
        if not values:
            absent.append(name)

    def ratio(key, num, den):
        metrics[key] = num / den if den else 0.0
        if not den:
            absent.append(key)

    for flavor in FLAVORS:
        facts = [tracer.facts.get(sid, {}) for sid in recover_spans[flavor]]
        rounds = [f["rounds"] for f in facts if "rounds" in f]
        metrics[f"tensor.ops_per_step.{flavor}"] = ops_per_step[flavor]
        metrics[f"model.forwards.{flavor}"] = forwards[flavor]
        ratio(f"model.forwards_per_seq.{flavor}", forwards[flavor], len(recover_spans[flavor]))
        ratio(f"model.useful_forward_ratio.{flavor}", sum(rounds), forwards[flavor])
        ratio(f"model.rounds_mean.{flavor}", sum(rounds), len(rounds))
        for i, bucket in enumerate(ROUND_BUCKETS):
            metrics[f"model.rounds_hist.{flavor}.{bucket}"] = sum(
                1 for r in rounds if r == i or (bucket.endswith("plus") and r > i))
        metrics[f"model.insertions.{flavor}"] = counts.get(f"insertions.{flavor}", 0)
        metrics[f"model.inserted_share.{flavor}"] = counts.get(f"inserted_share.{flavor}", 0.0)
        metrics[f"training.samples.{flavor}"] = counts.get(f"samples_trained.{flavor}", 0)
    metrics["model.truncated"] = sum(
        1 for f in FLAVORS for sid in recover_spans[f] if tracer.facts.get(sid, {}).get("truncated"))
    ratio("model.pad_fraction", tracer.counts.get("model.pad_positions", 0),
          tracer.counts.get("model.batch_positions", 0))
    metrics["training.skipped_steps"] = sum(counts.get(f"skipped_steps.{f}", 0) for f in FLAVORS)
    metrics["generator.days"] = counts.get("days_generated", 0)
    metrics["data.bytes_written"] = tracer.counts.get("data.bytes_written", 0)
    metrics["data.align_calls"] = tracer.counts.get("data.align_calls", 0)
    metrics["metrics.token_oi_f1"] = counts.get("token_oi_f1", 0.0)
    metrics["tracing.overhead_frac"] = overhead_frac
    for name, _, _, _ in STAGE_RATES:
        metrics[name] = rates.get(name, 0.0)
        if name not in rates:
            absent.append(name)
    return metrics, absent, levels

