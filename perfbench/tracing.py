"""In-memory span tracing around public callables of ``actrecover``.

A span is one call of a hooked callable: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it started,
and the run id shared by every span of one run. Spans stay in memory and are
written out once, at the end of the run.

Hooks replace an attribute with a wrapper at the place its caller looks it
up: ``actrecover.cli.read_samples`` rather than only
``actrecover.data.read_samples``, and ``actrecover.tensor.add`` for the
``T.add`` calls of ``layers`` and ``model``. A hooked name that no longer
exists is recorded as absent instead of failing the run, so the benchmark
keeps working when a later refactor removes an internal.

Nothing inside ``src/`` is changed; every hook is undone when the traced
block exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from contextlib import contextmanager
from time import perf_counter

# Public ops of ``actrecover.tensor``: each call is counted, not spanned,
# because recovery makes hundreds of thousands of them.
TENSOR_OPS = (
    "add", "sub", "mul", "matmul", "linear", "elu", "sigmoid", "softmax",
    "log_softmax", "layer_norm", "embed", "concat", "stack", "reshape",
    "swap_axes", "tsum", "tmean",
)

# (module, attribute path, span name). The module is where the caller looks
# the name up. A span name of None means "use the hook's own naming rule".
SPANNED = (
    ("actrecover.cli", "generate_population", "generator.generate_population"),
    ("actrecover.cli", "make_samples", "generator.make_samples"),
    ("actrecover.cli", "read_samples", "data.read_samples"),
    ("actrecover.cli", "read_sequences", "data.read_sequences"),
    ("actrecover.cli", "write_samples", "data.write_samples"),
    ("actrecover.cli", "write_sequences", "data.write_sequences"),
    ("actrecover.cli", "evaluate", "metrics.evaluate"),
    ("actrecover.cli", "transition_analysis", "metrics.transition_analysis"),
    ("actrecover.cli", "insertion_pattern_topk", "metrics.insertion_pattern_topk"),
    ("actrecover.cli", "compare_transitions", "metrics.compare_transitions"),
    ("actrecover.cli", "train", "training.train"),
    ("actrecover.cli", "load_checkpoint", "model.checkpoint"),
    ("actrecover.training", "save_checkpoint", "model.checkpoint"),
    ("actrecover.training", "clip_gradients", "training.clip"),
    ("actrecover.training", "Adam.step", "training.adam"),
    ("actrecover.model", "InsertionModel.batch_loss", "model.batch_loss"),
    ("actrecover.model", "InsertionModel.forward", None),
    ("actrecover.model", "InsertionModel.recover", "model.recover"),
    ("actrecover.model", "DecoderState.from_sequence", "model.decoder_state"),
    ("actrecover.tensor", "Tensor.backward", "tensor.backward"),
    ("actrecover.layers", "VariableSelection.__call__", "layers.vsn"),
    ("actrecover.layers", "MultiHeadSelfAttention.__call__", "layers.attn"),
    ("actrecover.layers", "GatedResidualBlock.__call__", "layers.grn"),
)

# Every module that calls ``align_subsequence`` through its own imported name.
ALIGN_CALLERS = ("actrecover.cli", "actrecover.metrics", "actrecover.training")

# Span fields, in the order each span record holds them.
NAME, START, END, PARENT, OPS_START, OPS_END = range(6)


class Tracer:
    """Spans, op counts and plain counters of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.ops = 0
        self.counts: dict[str, float] = {}
        self.absent: set[str] = set()
        # per span id: facts a hook recorded (rounds, truncation, insertions)
        self.facts: dict[int, dict] = {}
        self.adam_marks: list[tuple[float, int, int]] = []  # (time, ops, span id)
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.ops, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        rec[OPS_END] = self.ops
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- hooks ---------------------------------------------------------------

    def _spanning(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name(args) if callable(name) else name)
            sid = tracer._stack[-1]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                try:
                    after(sid, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the callable changed shape: its facts are absent, the call stands
                    tracer.absent.add(f"{fn.__module__}.{fn.__qualname__} facts")
            return result

        return traced

    def _counting(self, fn, key=None):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if key is None:
                tracer.ops += 1
            else:
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Install every hook for the duration of the block."""
        undo: list[tuple] = []
        try:
            for module, path, name in SPANNED:
                self._patch(undo, module, path, lambda fn, n=name, p=path: self._hook_for(p, n, fn))
            for op in TENSOR_OPS:
                self._patch(undo, "actrecover.tensor", op, self._counting)
            for module in ALIGN_CALLERS:
                self._patch(
                    undo, module, "align_subsequence",
                    lambda fn: self._counting(fn, "data.align_calls"),
                )
            yield self
        finally:
            for owner, attr, raw, own in reversed(undo):
                if own:
                    setattr(owner, attr, raw)
                else:
                    delattr(owner, attr)

    def _patch(self, undo, module: str, path: str, make) -> None:
        """Replace ``module.path`` by ``make(original)``, or record it absent."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.absent.add(f"{module}.{path}")
            return
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            self.absent.add(f"{module}.{path}")
            return
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        undo.append((owner, attr, raw, own))
        setattr(owner, attr, wrapped)

    def _hook_for(self, path: str, name, fn):
        if path == "InsertionModel.forward":
            return self._spanning(fn, _forward_name)
        if path == "InsertionModel.recover":
            return self._spanning(fn, name, self._after_recover)
        if path == "InsertionModel.batch_loss":
            return self._spanning(fn, name, self._after_batch_loss)
        if path == "Adam.step":
            return self._spanning(fn, name, self._after_adam)
        if path.startswith("write_"):
            return self._spanning(fn, name, self._after_write)
        return self._spanning(fn, name)

    # -- facts recorded after a hooked call ------------------------------------

    def _after_recover(self, sid, args, kwargs, outcome) -> None:
        incomplete = args[1] if len(args) > 1 else kwargs["incomplete"]
        self.facts[sid] = {
            "rounds": int(outcome.rounds),
            "truncated": bool(outcome.truncated),
            "insertions": len(outcome.sequence.activities) - len(incomplete.activities),
        }

    def _after_batch_loss(self, sid, args, kwargs, result) -> None:
        states = args[1] if len(args) > 1 else kwargs["states"]
        try:
            lengths = [len(st.tokens) + 2 for st in states]
        except (AttributeError, TypeError):
            self.absent.add("model.pad_fraction")
            return
        width = max(lengths)
        self.count("model.pad_positions", width * len(lengths) - sum(lengths))
        self.count("model.batch_positions", width * len(lengths))

    def _after_adam(self, sid, args, kwargs, result) -> None:
        self.adam_marks.append((self.spans[sid][END], self.ops, sid))

    def _after_write(self, sid, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        try:
            with open(path, "rb") as fh:
                self.count("data.bytes_written", fh.seek(0, 2))
        except OSError:
            self.absent.add("data.bytes_written")

    # -- output ------------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "run": self.run_id,
                    "ops": rec[OPS_END] - rec[OPS_START], **self.facts.get(sid, {}),
                }) + "\n")


def _forward_name(args) -> str:
    states = args[1] if len(args) > 1 else ()
    return f"model.forward.b{len(states)}"


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span never overlap (calls are nested, single-threaded),
    so the covered part is the sum of the children's durations.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


# Percentile ladder for the tail of a timing distribution: the highest level
# with at least ten samples beyond it is reported.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_level(n: int) -> float | None:
    """The highest ladder level with at least ten of ``n`` samples beyond it."""
    for q in TAIL_LEVELS:
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return None
