"""The two workloads, their generated inputs, and their output checks.

Both drive the documented CLI in-process through ``actrecover.cli.main(argv)``
as one closed-loop client: each command starts when the previous one has
returned. The end-to-end numbers depend only on the CLI contract (flags,
exit codes and the file formats of the README), so internal refactors of
the package leave them measurable.

- ``walkthrough`` is the README walkthrough: gen a training set and a
  held-out set, train both flavors on the same data with the same steps and
  seed, recover the held-out set with both checkpoints, eval the fused
  hypotheses and compare fused against token-only. Training runs at batch
  64 and is compute bound; recovery runs batch-1 forwards and is overhead
  bound, so a change that helps one use and costs the other shows.
  Training (through ``--resume``) and recovery run in chunks that alternate
  between the flavors.
- ``bulk-data`` gens a large dataset, builds two hypothesis files from it
  with a seeded rule here, and runs eval and compare, in rounds. The model
  does no work, so it is the bypass for every model-side change, and the
  only place the generator, data and metrics layers run long enough to time.

Set-up (importing the package in a fresh interpreter, as every CLI user
pays, its numpy import excluded, and for ``bulk-data`` synthesizing a
round's hypothesis files) is repeated before each chunk or round, so that
its samples spread over the run; ``setup_s`` is their median.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

N_TRANSITION_CELLS = 162  # 81 directed label pairs judged in two roles
DAY_KEYS = ("person_id", "date", "weekday", "holiday", "static")
LABELS = (
    "GoShopping", "Other", "PersonalBusiness", "GoToSchool", "Healthcare",
    "Recreation", "EatOut", "HomeActivity", "WorkForPay",
)
MAX_LEN = 32  # the model's default length cap, used where no checkpoint states one


@dataclass
class WalkthroughSizes:
    # 6 epochs over 1,600 days (150 steps) is long enough for both flavors
    # to insert on about half of the held-out days; after 1 epoch the fused
    # model inserts nothing and recovery would time one forward per day.
    train_days: int = 1600
    epochs: int = 6
    # Recovery gets about as much of the run as training: its throughput
    # also moves with each seed's model (forwards per sequence).
    heldout_days: int = 4800
    # Identical work on a shared 2-core machine ran at two speeds, 1.5x
    # apart, switching every few to 60 seconds. So each stage runs in chunks
    # that alternate between the flavors, to expose both to the same mix of
    # speeds, and its throughput is its total work over its total time: over
    # ten-run sets that spread less than the median over chunks, which jumps
    # between the two speeds. Training is chunked with ``train --resume``,
    # which continues the exact trajectory.
    train_chunks: int = 6


@dataclass
class BulkSizes:
    days: int = 40000


HELDOUT_CHUNKS = 8  # the held-out set is generated and recovered in this many chunks
# bulk-data runs this many rounds of gen, set-up, eval and compare, each over
# its own share of the days
BULK_ROUNDS = 10


def derive_seed(seed: int, *keys) -> int:
    """A 31-bit seed for one input, derived from the workload seed."""
    digest = hashlib.sha256(repr((seed,) + keys).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


# -- one run: operations, failures, stage times ---------------------------------


@dataclass
class Run:
    """Operations attempted and failed in one benchmark run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)

    def setup(self, *steps) -> None:
        """One timed set-up: a fresh-interpreter import, then ``steps``."""
        imported = import_probe()
        start = perf_counter()
        for step in steps:
            step()
        self.setup_s.append(imported + perf_counter() - start)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def command(self, argv: list[str], tracer=None, label: str | None = None) -> float:
        """Run one CLI command in-process; returns its wall time in seconds."""
        from actrecover import cli

        self.attempted += 1
        label = label or argv[0]
        out = io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(out))
            if tracer is not None:
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.span("cli." + label))
            start = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an uncaught error is a failed command, not a crash
                code = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            elapsed = perf_counter() - start
        if code != 0:
            tail = out.getvalue().strip().splitlines()[-1:] or [""]
            self.fail(f"{label}: exit {code} {tail[0]}")
        return elapsed

    def check(self, what: str, fn, *args) -> None:
        """One output check; ``fn`` returns None when the output is right."""
        self.attempted += 1
        try:
            problem = fn(*args)
        except Exception as exc:  # unreadable output fails the check
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.fail(f"check {what}: {problem}")


# -- output checks ------------------------------------------------------------------


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def input_activities(sample: dict) -> list[dict]:
    """The incomplete day: the complete record minus its removed positions."""
    removed = set(sample["removed_positions"])
    return [a for j, a in enumerate(sample["activities"]) if j not in removed]


def is_subsequence(sub: list, full: list) -> bool:
    it = iter(full)
    return all(any(x == y for y in it) for x in sub)


def check_hypotheses(samples_path, hyp_path, max_len: int) -> str | None:
    """Every hypothesis keeps its input, in order, and fits ``max_len``."""
    samples, hyps = read_jsonl(samples_path), read_jsonl(hyp_path)
    if len(samples) != len(hyps):
        return f"{len(hyps)} hypotheses for {len(samples)} samples"
    for i, (sample, hyp) in enumerate(zip(samples, hyps)):
        if any(sample[k] != hyp[k] for k in DAY_KEYS):
            return f"hypothesis {i} describes another person-day"
        if len(hyp["activities"]) > max_len:
            return f"hypothesis {i} has {len(hyp['activities'])} activities > max_len {max_len}"
        if not is_subsequence(input_activities(sample), hyp["activities"]):
            return f"hypothesis {i} does not keep its input as an ordered subsequence"
    return None


def check_losses(report_path, days: int, epochs: int, chunk_epochs: int) -> str | None:
    """A train command ran its epochs' steps, and every loss it reports is finite.

    A resumed run reports only the losses of its own steps.
    """
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    per_epoch = -(-days // report["train_config"]["batch_size"])
    losses = report["losses"]
    if report["steps"] != epochs * per_epoch or len(losses) != chunk_epochs * per_epoch:
        return f"{report['steps']} steps, {len(losses)} losses after {epochs} epochs"
    bad = [i for i, x in enumerate(losses) if not math.isfinite(x)]
    return f"non-finite loss at steps {bad[:5]}" if bad else None


def check_eval(samples_path, hyp_path, metrics_path) -> str | None:
    """The eval metrics JSON equals ``evaluate`` recomputed on the same files."""
    from actrecover.data import read_samples, read_sequences
    from actrecover.metrics import evaluate

    expected = evaluate(read_samples(samples_path), read_sequences(hyp_path)).to_json_dict()
    written = json.loads(Path(metrics_path).read_text(encoding="utf-8"))
    diff = sorted(k for k in expected.keys() | written.keys() if expected.get(k) != written.get(k))
    return f"fields differ from evaluate(): {diff}" if diff else None


def check_compare(compare_path) -> str | None:
    payload = json.loads(Path(compare_path).read_text(encoding="utf-8"))
    total = payload["transition_wins_a"] + payload["transition_wins_b"] + payload["transition_ties"]
    return None if total == N_TRANSITION_CELLS else f"verdicts sum to {total}, not 162"


def insertion_counts(samples_path, hyp_path) -> tuple[int, int]:
    """(activities inserted, days with at least one insertion)."""
    inserted = days = 0
    for sample, hyp in zip(read_jsonl(samples_path), read_jsonl(hyp_path)):
        extra = len(hyp["activities"]) - len(input_activities(sample))
        inserted += extra
        days += extra > 0
    return inserted, days


# -- set-up --------------------------------------------------------------------------


# Timed inside a fresh interpreter, after numpy is loaded: interpreter start
# and numpy's import (OpenBLAS starts its threads and buffers) are no part of
# the package's set-up, and their time swung by a quarter between sets of
# runs on a shared 2-core host while the package's own import did not.
PROBE = ("import time, numpy\n"
         "start = time.perf_counter()\n"
         "import actrecover.cli\n"
         "print(time.perf_counter() - start)\n")


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import the CLI, from where it was imported here."""
    import actrecover

    src = Path(actrecover.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env={"PYTHONPATH": str(src), "PATH": ""},
        stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
    )
    return float(out.stdout)


def synthesize_hypotheses(samples_path, out_a, out_b, seed: int, max_len: int) -> None:
    """Two hypothesis files from one dataset by a seeded rule.

    A puts back each removed activity with probability 0.6 at its own slot
    and adds a random label in one slot in ten; B inserts as many random
    labels as were removed, at random slots. Both keep every input activity
    in order, so each file is a valid hypothesis set.
    """
    rng = random.Random(seed)
    missing = {"arr": 0, "dep": 0, "mode": 0, "dist": 0.0, "observed": False}
    with open(out_a, "w", encoding="utf-8") as fa, open(out_b, "w", encoding="utf-8") as fb:
        for sample in read_jsonl(samples_path):
            removed = set(sample["removed_positions"])
            day = {k: sample[k] for k in DAY_KEYS}
            kept = input_activities(sample)
            room = max_len - len(kept)
            hyp_a = []
            for j, act in enumerate(sample["activities"]):
                if j not in removed:
                    hyp_a.append(act)
                elif rng.random() < 0.6 and room > 0:
                    hyp_a.append({"label": act["label"], **missing})
                    room -= 1
                if rng.random() < 0.1 and room > 0:
                    hyp_a.append({"label": rng.choice(LABELS), **missing})
                    room -= 1
            hyp_b = list(kept)
            for _ in range(min(len(removed), max_len - len(kept))):
                hyp_b.insert(rng.randint(0, len(hyp_b)), {"label": rng.choice(LABELS), **missing})
            for fh, acts in ((fa, hyp_a), (fb, hyp_b)):
                fh.write(json.dumps({**day, "activities": acts}, separators=(",", ":")) + "\n")


# -- passes -------------------------------------------------------------------------------


def concat_files(parts: list[str], out: str) -> None:
    with open(out, "wb") as dst:
        for part in parts:
            with open(part, "rb") as src:
                shutil.copyfileobj(src, dst)


def walkthrough_pass(run: Run, work: Path, seed: int, sizes: WalkthroughSizes, tracer=None) -> dict:
    """One README walkthrough; returns per-chunk stage times and work counts."""
    p = {name: str(work / name) for name in (
        "train.jsonl", "heldout.jsonl", "fused.ckpt", "token.ckpt",
        "fused.jsonl", "token.jsonl", "fused_eval", "cmp.json",
    )}
    chunks = range(HELDOUT_CHUNKS)
    part = {(name, c): str(work / f"{c}.{name}") for name in ("heldout.jsonl", "fused.jsonl",
                                                           "token.jsonl") for c in chunks}
    chunk_days = sizes.heldout_days // HELDOUT_CHUNKS
    model_seed = derive_seed(seed, "train")
    t: dict[str, list[float]] = {}

    def timed(label, argv):
        t.setdefault(label, []).append(run.command(argv, tracer, label))

    timed("gen.train", ["gen", "--out", p["train.jsonl"], "--seed",
                        str(derive_seed(seed, "train-data")), "--n-days", str(sizes.train_days)])
    for c in chunks:
        timed("gen.heldout", ["gen", "--out", part["heldout.jsonl", c], "--seed",
                              str(derive_seed(seed, "heldout-data", c)), "--n-days", str(chunk_days)])
    counts: dict = {"days_generated": sizes.train_days + chunk_days * HELDOUT_CHUNKS,
                    "samples_scored": chunk_days * HELDOUT_CHUNKS}
    chunk_epochs = sizes.epochs // sizes.train_chunks
    for k in range(1, sizes.train_chunks + 1):
        run.setup()
        for flavor, cli_flavor in (("fused", "vsnit"), ("token", "baseline")):
            timed("train." + flavor, [
                "train", "--data", p["train.jsonl"], "--out", p[flavor + ".ckpt"],
                "--flavor", cli_flavor, "--seed", str(model_seed),
                "--epochs", str(k * chunk_epochs), *(["--resume"] if k > 1 else [])])
            run.check(f"train {flavor} losses", check_losses, p[flavor + ".ckpt"] + ".report.json",
                      sizes.train_days, k * chunk_epochs, chunk_epochs)
    for c in chunks:
        run.setup()
        for flavor in ("fused", "token"):
            timed("recover." + flavor, ["recover", "--checkpoint", p[flavor + ".ckpt"],
                                        "--data", part["heldout.jsonl", c],
                                        "--out", part[flavor + ".jsonl", c]])
    for name in ("heldout.jsonl", "fused.jsonl", "token.jsonl"):
        try:
            concat_files([part[name, c] for c in chunks], p[name])
        except OSError:
            pass  # the failed command is already counted; the checks below fail too
    timed("eval", ["eval", "--data", p["heldout.jsonl"], "--hyp", p["fused.jsonl"],
                   "--out", p["fused_eval"]])
    timed("compare", ["compare", "--data", p["heldout.jsonl"], "--hyp-a", p["fused.jsonl"],
                      "--hyp-b", p["token.jsonl"], "--out", p["cmp.json"]])

    # work counts beside the throughputs
    max_len = MAX_LEN
    for flavor in ("fused", "token"):
        try:
            report = json.loads(Path(p[flavor + ".ckpt"] + ".report.json").read_text(encoding="utf-8"))
            max_len = report["model_config"]["max_len"]
            counts[f"steps.{flavor}"] = report["steps"]
            counts[f"skipped_steps.{flavor}"] = report["skipped_steps"]
        except (OSError, ValueError, KeyError):
            pass  # the failed train command is already counted
        counts[f"samples_trained.{flavor}"] = sizes.epochs * sizes.train_days
    for flavor in ("fused", "token"):
        run.check(f"{flavor} hypotheses", check_hypotheses, p["heldout.jsonl"],
                  p[flavor + ".jsonl"], max_len)
        try:
            inserted, days = insertion_counts(p["heldout.jsonl"], p[flavor + ".jsonl"])
        except (OSError, ValueError, KeyError):
            inserted = days = 0
        counts[f"sequences_decoded.{flavor}"] = counts["samples_scored"]
        counts[f"insertions.{flavor}"] = inserted
        counts[f"inserted_share.{flavor}"] = days / counts["samples_scored"]
    run.check("eval metrics", check_eval, p["heldout.jsonl"], p["fused.jsonl"],
              p["fused_eval"] + ".metrics.json")
    run.check("compare verdicts", check_compare, p["cmp.json"])
    try:
        cmp = json.loads(Path(p["cmp.json"]).read_text(encoding="utf-8"))
        counts["oi_f1"] = cmp["metrics_a"]["oi_f1"]
        counts["token_oi_f1"] = cmp["metrics_b"]["oi_f1"]
    except (OSError, ValueError, KeyError):
        counts["oi_f1"] = counts["token_oi_f1"] = 0.0
    return {"times": t, "counts": counts}


def bulk_pass(run: Run, work: Path, seed: int, sizes: BulkSizes, tracer=None) -> dict:
    """Rounds of gen, set-up with hypothesis synthesis, eval and compare."""
    data, hyp_a, hyp_b = (str(work / n) for n in ("data.jsonl", "hyp_a.jsonl", "hyp_b.jsonl"))
    days = sizes.days // BULK_ROUNDS
    t: dict[str, list[float]] = {"gen": [], "eval": [], "compare": []}
    oi_f1: list[float] = []
    for r in range(BULK_ROUNDS):
        t["gen"].append(run.command(["gen", "--out", data, "--seed",
                                     str(derive_seed(seed, "bulk-data", r)), "--n-days", str(days)],
                                    tracer, "gen"))

        def synthesize(r=r):
            try:
                synthesize_hypotheses(data, hyp_a, hyp_b, derive_seed(seed, "hypotheses", r), MAX_LEN)
            except (OSError, ValueError, KeyError) as exc:
                run.fail(f"hypothesis synthesis: {exc}")

        run.setup(synthesize)
        t["eval"].append(run.command(["eval", "--data", data, "--hyp", hyp_a,
                                      "--out", str(work / "eval")], tracer, "eval"))
        t["compare"].append(run.command(["compare", "--data", data, "--hyp-a", hyp_a,
                                         "--hyp-b", hyp_b, "--out", str(work / "cmp.json")],
                                        tracer, "compare"))
        for name, path in (("A", hyp_a), ("B", hyp_b)):
            run.check(f"hypotheses {name}", check_hypotheses, data, path, MAX_LEN)
        run.check("eval metrics", check_eval, data, hyp_a, str(work / "eval") + ".metrics.json")
        run.check("compare verdicts", check_compare, str(work / "cmp.json"))
        try:
            scores = json.loads(Path(str(work / "eval") + ".metrics.json").read_text(encoding="utf-8"))
            oi_f1.append(scores["oi_f1"])
        except (OSError, ValueError, KeyError):
            oi_f1.append(0.0)  # the failed eval command and check are already counted
    counts = {"days_generated": days * BULK_ROUNDS, "samples_scored": days * BULK_ROUNDS,
              "oi_f1": sum(oi_f1) / len(oi_f1)}
    return {"times": t, "counts": counts}


def fresh_dir(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=base))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
