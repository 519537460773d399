"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perlayer  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

# two train chunks of one epoch (two steps) per flavor, eight recover chunks of three days
TINY_WALK = W.WalkthroughSizes(train_days=128, epochs=2, heldout_days=24, train_chunks=2)
TINY_BULK = W.BulkSizes(days=300)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload: str, trace: bool, seed: int = 5):
    return run.run_benchmark(workload, seed, trace, TINY_WALK, TINY_BULK)


@pytest.fixture(scope="module")
def results():
    run.import_package()
    return {(w, t): tiny(w, t) for w in ("walkthrough", "bulk-data") for t in (False, True)}


def test_tiny_runs_have_no_failed_operations(results):
    for key, (result, report) in results.items():
        assert result["failed"] == 0, (key, report["failures"])
        assert result["correct"] and result["attempted"] > 0


def test_metric_names_are_valid_and_declared(results):
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert list(per_layer.items()) == perlayer.declared()
    assert set(run.END_TO_END_UNITS.items()) == set(end_to_end.items())
    for (workload, trace), (result, _) in results.items():
        metrics = result["metrics"]
        declared = per_layer if trace else end_to_end
        for name, metric in metrics.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert declared[name] == metric["unit"], name
            assert isinstance(metric["value"], (int, float)), name
        assert set(metrics) == set(declared), (workload, trace)
        if not trace:  # a two-step model inserts nothing, so its oi_f1 may read 0
            positive = [k for k in metrics if (workload, k) != ("walkthrough", "oi_f1")]
            assert all(metrics[k]["value"] > 0 for k in positive), workload


def test_spans_nest_and_self_times_are_not_negative(results):
    _, report = results[("walkthrough", True)]
    lines = (run.ROOT / report["spans"]).read_text(encoding="utf-8").splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans and len({s["run"] for s in spans}) == 1
    for sid, span in enumerate(spans):
        assert span["id"] == sid and span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert span["parent"] < sid
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    records = [[s["name"], s["start"], s["end"], s["parent"]] for s in spans]
    assert min(tracing.self_times(records)) >= -1e-9


def test_exact_counts_repeat_across_traced_runs(results):
    first = results[("walkthrough", True)][0]["metrics"]
    second = tiny("walkthrough", True)[0]["metrics"]
    exact = [k for k in first if k.startswith(("tensor.ops_per_step.", "model.forwards.",
                                               "model.rounds_hist."))]
    assert first["tensor.ops_per_step.fused"]["value"] > first["tensor.ops_per_step.token"]["value"] > 0
    assert all(first[k]["value"] == second[k]["value"] for k in exact)


def test_corrupted_hypothesis_file_is_a_failed_operation(tmp_path):
    run.import_package()
    data, hyp_a, hyp_b = (str(tmp_path / n) for n in ("d.jsonl", "a.jsonl", "b.jsonl"))
    check = W.Run()
    check.command(["gen", "--out", data, "--seed", "3", "--n-days", "40"])
    W.synthesize_hypotheses(data, hyp_a, hyp_b, seed=3, max_len=32)
    check.check("intact", W.check_hypotheses, data, hyp_a, 32)
    assert check.failed == 0

    hyps = W.read_jsonl(hyp_a)
    victim = next(h for h in hyps if any(a["observed"] for a in h["activities"]))
    victim["activities"] = [a for a in victim["activities"] if not a["observed"]]  # inputs lost
    Path(hyp_a).write_text("".join(json.dumps(h) + "\n" for h in hyps), encoding="utf-8")
    check.check("dropped input", W.check_hypotheses, data, hyp_a, 32)
    assert check.failed == 1

    Path(hyp_b).write_text("{not json\n", encoding="utf-8")
    check.command(["eval", "--data", data, "--hyp", hyp_b, "--out", str(tmp_path / "e")])
    check.check("unreadable", W.check_hypotheses, data, hyp_b, 32)
    assert check.failed == 3 and check.attempted == 5


def test_a_hooked_name_that_is_gone_is_reported_absent(monkeypatch):
    run.import_package()
    gone = ("actrecover.model", "InsertionModel.recover_batch", "model.recover_batch")
    monkeypatch.setattr(tracing, "SPANNED", tracing.SPANNED + (gone,))
    tracer = tracing.Tracer("absent-test")
    with tracer.installed():
        pass
    assert tracer.absent == {"actrecover.model.InsertionModel.recover_batch"}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walkthrough", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
