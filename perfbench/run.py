"""Benchmark of the actrecover CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload walkthrough|bulk-data --seed N \
        --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout; without it the script
exits 2 and prints no result. The workload seed derives every generated
input. A run makes one pass of its workload at fixed sizes, which took
40-60 s on a 2-core Xeon; ``--seconds`` is recorded in the report and sizes
nothing. Within the pass each stage runs in several chunks and its
throughput is its total work over its total time; ``setup_s`` is the median
of the set-ups spread over the pass (see ``workloads``).

``--trace 0`` prints the end-to-end metrics, the same four on every
workload; the report holds each stage's throughput. ``--trace 1`` runs one
untraced pass and the same pass traced, both over half the held-out or bulk
days (``TRACE_SHARE``), prints the per-layer metrics, and writes the spans
to ``.perfbench/spans-<workload>-<seed>.jsonl``; ``tracing.overhead_frac``
is traced over untraced CLI time, minus one.

Before the result, one ``report`` line gives the environment, the work done
(steps, samples, days, sequences, insertions, ...), every stage time and the
names of absent per-layer metrics. The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``. Every CLI command and
every output check is one operation; a run is correct when none failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Every workload prints each of these. cli_s is the time of all CLI commands
# of the pass; oi_f1 is the order-insensitive F1 of the hypotheses that eval
# scores (the fused model's on walkthrough, the seeded rule's on bulk-data),
# so a speed-up that changes what is recovered or how it is scored shows.
# A --trace 1 run makes an untraced and a traced pass; each recovers or
# scores this share of the days of a --trace 0 run, so the run stays well
# inside its time limit. Training is unchanged, so per-step counts are too.
TRACE_SHARE = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "cli_s": "s",
    "oi_f1": "ratio",
    "peak_rss_mb": "MB",
}


def blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded will use, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "load": "one in-process closed-loop client",
    }


def import_package() -> None:
    """Import actrecover from this checkout's ``src/``, or exit 2."""
    if not (SRC / "actrecover" / "cli.py").is_file():
        print(f"perfbench: no actrecover sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import actrecover

    if Path(actrecover.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: actrecover was imported from {actrecover.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def run_benchmark(workload: str, seed: int, trace: bool,
                  walk_sizes=None, bulk_sizes=None) -> tuple[dict, dict]:
    """(result, report) of one run; the result is what the last line prints."""
    import perlayer
    import workloads as W
    from tracing import Tracer, self_times

    started = perf_counter()
    walk_sizes = walk_sizes or W.WalkthroughSizes()
    bulk_sizes = bulk_sizes or W.BulkSizes()
    if trace:  # two passes, each over a smaller share of the data than an untraced run
        walk_sizes = replace(walk_sizes, heldout_days=walk_sizes.heldout_days // TRACE_SHARE)
        bulk_sizes = replace(bulk_sizes, days=bulk_sizes.days // TRACE_SHARE)
    run = W.Run()

    def one_pass(tracer=None) -> dict:
        work = W.fresh_dir(WORK)
        try:
            if workload == "walkthrough":
                result = W.walkthrough_pass(run, work, seed, walk_sizes, tracer)
            else:
                result = W.bulk_pass(run, work, seed, bulk_sizes, tracer)
        finally:
            W.remove_dir(work)
        result["cli_s"] = sum(map(sum, result["times"].values()))
        return result

    untraced = one_pass()
    rates = perlayer.stage_rates(untraced["times"], untraced["counts"])
    report: dict = {"environment": environment(seed), "workload": workload}
    if trace:
        tracer = Tracer(run_id=f"{workload}-{seed}-{os.getpid()}")
        traced = one_pass(tracer)
        overhead = traced["cli_s"] / untraced["cli_s"] - 1.0
        metrics, absent, levels = perlayer.per_layer(tracer, traced["counts"], overhead, rates)
        units = dict(perlayer.declared())
        spans_path = WORK / f"spans-{workload}-{seed}.jsonl"
        tracer.write(spans_path)
        self_s: dict[str, float] = {}
        for rec, own in zip(tracer.spans, self_times(tracer.spans)):
            layer = rec[0].split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + own
        report.update(absent=absent, tail_levels=levels, self_s_by_layer=self_s,
                      spans=str(spans_path.relative_to(ROOT)),
                      times=[untraced["times"], traced["times"]], work=traced["counts"])
    else:
        metrics = {
            "setup_s": statistics.median(run.setup_s),
            "cli_s": untraced["cli_s"],
            "oi_f1": untraced["counts"]["oi_f1"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        report.update(setup_s=run.setup_s, times=untraced["times"], work=untraced["counts"],
                      stage_rates=rates)
    report.update(failures=run.failures, run_s=perf_counter() - started)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("walkthrough", "bulk-data"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="recorded only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    result, report = run_benchmark(args.workload, args.seed, bool(args.trace))
    report["seconds"] = args.seconds
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
