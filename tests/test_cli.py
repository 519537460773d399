"""Subcommand contracts: files written, exit codes, determinism."""

import builtins
import contextlib
import copy
import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actrecover import data as data_module
from actrecover import training
from actrecover.activities import N_MODES, N_STATIC_LEVELS, N_TIME_BINS
from actrecover.cli import _recovery_summary, main
from actrecover.data import (
    RecoverySample,
    align_subsequence,
    read_samples,
    read_sequences,
    write_samples,
    write_sequences,
)
from actrecover.generator import GeneratorConfig, default_config, generate_population, make_samples
from actrecover.model import (
    CapacityError,
    InsertionModel,
    ModelConfig,
    RecoveryOutcome,
    _read_container,
    _write_container,
    load_checkpoint,
    save_checkpoint,
)
from actrecover.tensor import NumericError, ShapeError
from actrecover.training import TrainConfig

from helpers import json_read_records, loop_recovery_summary, random_sample, random_sequence


DEEP = 100_000  # JSON nesting far past Python's recursion limit
SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def rewrite_line(src, dst, lineno: int, edit) -> None:
    """Copy the JSON-lines file ``src`` to ``dst`` with ``edit`` applied to line ``lineno``'s record."""
    lines = src.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    edit(rec)
    lines[lineno - 1] = json.dumps(rec)
    dst.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One tiny gen + train, shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    ckpt = root / "model.ckpt"
    assert run("gen", "--out", data, "--seed", 3, "--n-days", 16) == 0
    assert (
        run(
            "train", "--data", data, "--out", ckpt, "--seed", 1,
            "--epochs", 2, "--batch-size", 8, "--d-m", 8, "--heads", 2,
            "--n-layers", 1, "--dropout", 0.0,
        )
        == 0
    )
    return {"root": root, "data": data, "ckpt": ckpt}


class TestGen:
    def test_writes_dataset_and_summary(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--seed", 5, "--n-days", 20) == 0
        samples = read_samples(out)
        assert len(samples) == 20
        summary = json.loads((tmp_path / "d.jsonl.summary.json").read_text())
        assert summary["n_days"] == 20
        assert summary["config"]["seed"] == 5

    def test_default_config_summary_hits_calibration_target(self, tmp_path):
        out = tmp_path / "cal.jsonl"
        assert run("gen", "--out", out, "--seed", 0, "--n-days", 2000) == 0
        summary = json.loads((tmp_path / "cal.jsonl.summary.json").read_text())
        assert abs(summary["mean_daily_activities"] - 4.49) <= 0.3

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("gen", "--out", a, "--seed", 7, "--n-days", 25) == 0
        assert run("gen", "--out", b, "--seed", 7, "--n-days", 25) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_0_bytes_are_pinned(self, tmp_path):
        """The data the ``rng.choice`` sampler wrote for ``gen --seed 0 --n-days 300``, and its summary."""
        out = tmp_path / "g.jsonl"
        assert run("gen", "--out", out, "--seed", 0, "--n-days", 300) == 0
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, tmp_path / "g.jsonl.summary.json")] == [
            "4a3a91a473aba19a0a37c21831b1990af041614eeee9c8ae95a534e4f1dab0de",
            "b85a44da1f114c33d212066b57ff008686aa896308227622b309aa5f9416cd8a",  # config echoes three keys
        ]

    @pytest.mark.parametrize("seed, digest", [
        (1, "00790eb3636d1d9bcb3bcc10d4e428a366690b480da4f255e29089abdabee4dc"),
        (17, "1c9e32830bd402c5ef27903ff519de9142642f558e8e8cba4760a65f265b68e6"),
        (4001, "11c37f7b4e86e7e6854628c075b96844ddb436e3fb53245eb154ec97fc7ced0f"),
    ])
    def test_data_bytes_are_pinned_when_the_calibration_was_config(self, tmp_path, seed, digest):
        """The data ``gen --n-days 400`` wrote while the calibration was a config of its own."""
        out = tmp_path / "g.jsonl"
        assert run("gen", "--out", out, "--seed", seed, "--n-days", 400) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_missing_config_path_exits_2(self, tmp_path):
        assert run("gen", "--out", tmp_path / "x.jsonl", "--config", tmp_path / "nope.json") == 2

    def test_invalid_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        raw = asdict(default_config())
        raw["p_remove"] = 1.7
        cfg_path.write_text(json.dumps(raw))
        assert run("gen", "--out", tmp_path / "x.jsonl", "--config", cfg_path) == 2

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        raw = asdict(default_config())
        raw["n_days"] = 5
        raw["seed"] = 1
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--config", cfg_path, "--n-days", 9) == 0
        assert len(read_samples(out)) == 9

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps({"n_dayz": 5, "seed": 3}))
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"gen: {cfg_path}: unknown config key 'n_dayz'"
        assert not out.exists()

    def test_retired_target_mean_daily_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"target_mean_daily": 9.0}))
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--config", cfg_path, "--n-days", 5) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"gen: {cfg_path}: unknown config key 'target_mean_daily'"
        assert not out.exists()

    def test_partial_config_echoes_defaults_and_coerced_values(self, tmp_path):
        cfg_path = tmp_path / "partial.json"
        cfg_path.write_text(json.dumps({"p_remove": 1, "n_days": 5}))
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--config", cfg_path) == 0
        echoed = json.loads((tmp_path / "d.jsonl.summary.json").read_text())["config"]
        expected = asdict(default_config())
        expected.update(p_remove=1.0, n_days=5)
        assert json.dumps(echoed, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize(
        "key, value, kind", [("seed", 1.7, "int"), ("n_days", "12", "int"), ("p_remove", True, "float")]
    )
    def test_wrong_typed_config_value_exits_2(self, tmp_path, capsys, key, value, kind):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--config", cfg_path, "--n-days", 5) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"gen: {cfg_path}: config key {key!r} must be {kind}, not {value!r}"
        assert not out.exists()

    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"p_remove": 1' + "0" * 400 + "}")
        assert run("gen", "--out", tmp_path / "d.jsonl", "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gen: {cfg_path}: config key 'p_remove' is too large for a float: 1000")
        assert "Traceback" not in err

    def test_integer_of_more_digits_than_python_parses_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seed": 1' + "0" * sys.get_int_max_str_digits() + "}")
        assert run("gen", "--out", tmp_path / "d.jsonl", "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gen: {cfg_path}: not UTF-8 JSON: Exceeds the limit") and err.count("\n") == 1

    def test_nan_config_value_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"p_remove": NaN}')
        assert run("gen", "--out", tmp_path / "d.jsonl", "--config", cfg_path) == 2
        assert capsys.readouterr().err.strip() == f"gen: {cfg_path}: p_remove out of [0, 1]: nan"

    @pytest.mark.parametrize("key, value", [("holiday_rate", 0.05), ("gap_mean_bins", 1.0),
                                            ("duration_mean_bins", {"HomeActivity": 32.0}), ("regimes", {})])
    def test_calibration_constant_key_exits_2(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--config", cfg_path) == 2
        assert capsys.readouterr().err == f"gen: {cfg_path}: unknown config key {key!r}\n"
        assert not out.exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "latin1.json"
        cfg_path.write_bytes('{"seed": "\u00e9"}'.encode("latin-1"))
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gen: {cfg_path}: not UTF-8 JSON: ") and "can't decode" in err
        assert not out.exists()

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text('{"seed": ' + "[" * DEEP + "]" * DEEP + "}")
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert err == f"gen: {cfg_path}: JSON nested too deeply\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw, problem",
        [
            ({"seed": -1}, "seed must be >= 0 and n_days >= 1"),
            ({"n_days": 0}, "seed must be >= 0 and n_days >= 1"),
            ({"p_remove": 2.0}, "p_remove out of [0, 1]: 2.0"),
        ],
    )
    def test_config_value_generation_cannot_use_exits_2(self, tmp_path, capsys, raw, problem):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gen: {cfg_path}: {problem}") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    def test_each_config_layer_is_validated_once(self, tmp_path, monkeypatch):
        calls = []
        validate = GeneratorConfig.__post_init__
        monkeypatch.setattr(GeneratorConfig, "__post_init__", lambda cfg: calls.append(1) or validate(cfg))
        assert run("gen", "--out", tmp_path / "a.jsonl", "--n-days", 5) == 0
        assert len(calls) == 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_days": 4}))
        assert run("gen", "--out", tmp_path / "b.jsonl", "--config", cfg_path, "--seed", 2) == 0
        assert len(calls) == 3  # once for the file's layer, once with the flag laid over it


class TestTrain:
    def test_writes_checkpoint_and_report(self, small_run):
        report = json.loads((small_run["root"] / "model.ckpt.report.json").read_text())
        assert report["steps"] == 4  # 16 samples / batch 8 * 2 epochs
        assert len(report["losses"]) == 4
        assert report["model_config"]["use_vsn"] is True
        assert small_run["ckpt"].exists()

    def test_baseline_checkpoint_has_no_covariate_parameters(self, small_run, tmp_path):
        ckpt = tmp_path / "base.ckpt"
        assert (
            run(
                "train", "--data", small_run["data"], "--out", ckpt, "--flavor", "baseline",
                "--seed", 1, "--epochs", 1, "--batch-size", 8, "--d-m", 8, "--heads", 2,
                "--n-layers", 1, "--dropout", 0.0,
            )
            == 0
        )
        _, manifest = load_checkpoint(ckpt)
        names = [entry["name"] for entry in manifest["params"]]
        assert not any(n.startswith(("cov.", "vsn", "static_ctx")) for n in names)

    def test_resume_continues_step_counter(self, small_run, tmp_path):
        ckpt = tmp_path / "resume.ckpt"
        common = [
            "--data", small_run["data"], "--out", ckpt, "--seed", 2, "--batch-size", 8,
            "--d-m", 8, "--heads", 2, "--n-layers", 1, "--dropout", 0.0,
        ]
        assert run("train", *common, "--epochs", 1) == 0
        assert run("train", *common, "--epochs", 3, "--resume") == 0
        report = json.loads((tmp_path / "resume.ckpt.report.json").read_text())
        assert report["steps"] == 6  # resumed from 2 of 6 total steps
        assert len(report["losses"]) == 4

    def test_resume_with_other_seed_or_batch_size_exits_2(self, small_run, tmp_path, capsys):
        ckpt = tmp_path / "pinned.ckpt"
        common = ["--data", small_run["data"], "--out", ckpt, "--d-m", 8, "--heads", 2,
                  "--n-layers", 1, "--dropout", 0.0]
        assert run("train", *common, "--seed", 3, "--batch-size", 8, "--epochs", 1) == 0
        capsys.readouterr()
        argv = ["train", *common, "--seed", 99, "--batch-size", 4, "--epochs", 2, "--resume"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"train: {ckpt}: cannot resume with a different training config")
        assert "batch_size=8 (now 4)" in err and "seed=3 (now 99)" in err
        assert "Traceback" not in err

    def test_truncated_state_exits_2_naming_the_file(self, small_run, tmp_path, capsys):
        ckpt = tmp_path / "cut.ckpt"
        common = ["--data", small_run["data"], "--out", ckpt, "--seed", 2, "--batch-size", 8,
                  "--d-m", 8, "--heads", 2, "--n-layers", 1, "--dropout", 0.0]
        assert run("train", *common, "--epochs", 1) == 0
        manifest, blob = _read_container(ckpt)
        _write_container(ckpt, manifest, blob[:-100])
        capsys.readouterr()
        assert run("train", *common, "--epochs", 2, "--resume") == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: checkpoint blob holds {len(blob) - 100} bytes" in err
        assert "Traceback" not in err

    def test_retired_config_key_exits_2(self, small_run, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_static": 4}))
        argv = ["train", "--data", small_run["data"], "--out", tmp_path / "m.ckpt", "--config", cfg_path]
        assert run(*argv) == 2
        assert "unknown config key 'n_static'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, kind", [("d_m", "abc", "int"), ("lr", "x", "float"), ("dropout", None, "float")]
    )
    def test_wrong_typed_config_value_exits_2(self, small_run, tmp_path, capsys, key, value, kind):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"train: {cfg_path}: config key {key!r} must be {kind}, not {value!r}"
        assert not ckpt.exists()

    def test_integer_config_value_stands_for_a_float(self, small_run, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lr": 1, "epochs": 0}))
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--config", cfg_path) == 0
        assert '"lr": 1.0,' in (tmp_path / "m.ckpt.report.json").read_text()

    def test_config_use_vsn_false_trains_the_baseline_unless_flavor_says_otherwise(self, small_run, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"use_vsn": False}))
        common = ["--data", small_run["data"], "--config", cfg_path, "--epochs", 1, "--batch-size", 8,
                  "--d-m", 8, "--heads", 2, "--n-layers", 1]
        for flavor_flag, flavor in (([], "baseline"), (["--flavor", "vsnit"], "vsnit")):
            ckpt = tmp_path / f"{flavor}.ckpt"
            assert run("train", *common, *flavor_flag, "--out", ckpt) == 0
            names = [entry["name"] for entry in load_checkpoint(ckpt)[1]["params"]]
            assert any(n.startswith("cov.") for n in names) == (flavor == "vsnit")
            report = json.loads((tmp_path / f"{flavor}.ckpt.report.json").read_text())
            assert report["flavor"] == flavor
            assert report["model_config"]["use_vsn"] is (flavor == "vsnit")

    @pytest.mark.parametrize("key, message", [("lr", "learning rate must be positive: nan")])
    def test_nan_config_value_exits_2(self, small_run, tmp_path, capsys, key, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"{key}": NaN}}')
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--config", cfg_path) == 2
        assert capsys.readouterr().err.strip() == f"train: {cfg_path}: {message}"
        assert not ckpt.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"lr": Infinity}', "learning rate must be finite: inf"),
        ('{"seed": -3}', "seed and checkpoint_interval must be >= 0: seed=-3, checkpoint_interval=0"),
        ('{"checkpoint_interval": -1}', "seed and checkpoint_interval must be >= 0: seed=0, checkpoint_interval=-1"),
        ('{"n_heads": 64, "d_attn": 128}', "head count times head width is unreasonably large"),
        ('{"dropout": 1.0}', "dropout out of [0, 1): 1.0"),
        ('{"max_len": 0}', "max_rounds must be >= 0 and max_len >= 1"),
        ('{"batch_size": 0}', "batch_size must be >= 1 and epochs >= 0"),
        ('{"epochs": -1}', "batch_size must be >= 1 and epochs >= 0"),
    ], ids=["lr-inf", "seed-neg", "interval-neg", "head-width", "dropout-1", "max-len-0", "batch-size-0",
            "epochs-neg"])
    def test_config_value_training_cannot_run_exits_2(self, small_run, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--config", cfg_path) == 2
        assert capsys.readouterr().err == f"train: {cfg_path}: {message}\n"
        assert not ckpt.exists()

    @pytest.mark.parametrize("key, value", [("beta1", 0.9), ("beta2", 0.999), ("eps", 1e-8), ("clip_norm", 1.0),
                                            ("roll_in", 0.7)])
    def test_a_training_constant_is_no_config_key(self, small_run, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--config", cfg_path) == 2
        assert capsys.readouterr().err == f"train: {cfg_path}: unknown config key {key!r}\n"
        assert not ckpt.exists()

    def test_a_checkpoint_with_the_ten_key_training_config_recovers_but_does_not_resume(
        self, small_run, tmp_path, capsys
    ):
        """A training checkpoint whose ``train`` still holds Adam's betas and eps, the clip norm and roll-in."""
        old = tmp_path / "old.ckpt"
        manifest, blob = _read_container(small_run["ckpt"])
        manifest["train"].update(beta1=0.9, beta2=0.999, eps=1e-8, clip_norm=1.0, roll_in=0.7)
        _write_container(old, manifest, blob)
        for ckpt, out in ((small_run["ckpt"], tmp_path / "h.jsonl"), (old, tmp_path / "old.jsonl")):
            assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", out) == 0
        assert (tmp_path / "old.jsonl").read_bytes() == (tmp_path / "h.jsonl").read_bytes()
        before = old.read_bytes()
        capsys.readouterr()
        assert run("train", "--data", small_run["data"], "--out", old, "--seed", 1, "--epochs", 3, "--batch-size", 8,
                   "--d-m", 8, "--heads", 2, "--n-layers", 1, "--dropout", 0.0, "--resume") == 2
        assert capsys.readouterr().err == f"train: {old}: invalid saved training config: unknown config key 'beta1'\n"
        assert old.read_bytes() == before

    def test_resume_on_other_data_exits_2_and_leaves_the_checkpoint(self, tmp_path, capsys):
        """Other days, or the same days in another order, would not continue the checkpoint's trajectory."""
        a, b, ckpt = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "m.ckpt"
        for path, seed in ((a, 1), (b, 2)):
            assert run("gen", "--out", path, "--seed", seed, "--n-days", 40) == 0
        rolled = tmp_path / "rolled.jsonl"
        lines = a.read_text().splitlines(keepends=True)
        rolled.write_text("".join(lines[1:] + lines[:1]))
        common = ["--out", ckpt, "--seed", 1, "--batch-size", 8, "--d-m", 8, "--heads", 2, "--n-layers", 1]
        assert run("train", "--data", a, *common, "--epochs", 1) == 0
        before = ckpt.read_bytes()
        for other in (b, rolled):
            capsys.readouterr()
            assert run("train", "--data", other, *common, "--epochs", 2, "--resume") == 2
            assert capsys.readouterr().err == (f"train: {ckpt}: cannot resume on other training data: "
                                               "the checkpoint's data_digest differs\n")
            assert ckpt.read_bytes() == before
        assert run("train", "--data", a, *common, "--epochs", 2, "--resume") == 0

    def test_a_checkpoint_without_a_data_digest_recovers_but_does_not_resume(self, small_run, tmp_path, capsys):
        """A training checkpoint written before the digest was kept."""
        old = tmp_path / "old.ckpt"
        manifest, blob = _read_container(small_run["ckpt"])
        del manifest["data_digest"]
        _write_container(old, manifest, blob)
        for ckpt, out in ((small_run["ckpt"], tmp_path / "h.jsonl"), (old, tmp_path / "old.jsonl")):
            assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", out) == 0
        assert (tmp_path / "old.jsonl").read_bytes() == (tmp_path / "h.jsonl").read_bytes()
        before = old.read_bytes()
        capsys.readouterr()
        assert run("train", "--data", small_run["data"], "--out", old, "--seed", 1, "--epochs", 3, "--batch-size", 8,
                   "--d-m", 8, "--heads", 2, "--n-layers", 1, "--dropout", 0.0, "--resume") == 2
        assert capsys.readouterr().err == (f"train: {old}: cannot resume on other training data: "
                                           "the checkpoint's data_digest is missing\n")
        assert old.read_bytes() == before

    def test_a_diverging_run_reports_each_step_s_gradient_norm_and_reruns_alike(self, small_run, tmp_path):
        # lr 10 drives the loss up by orders of magnitude, yet every value stays in range and the run exits 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lr": 10}))
        texts = []
        for name in ("a", "b"):
            assert run("train", "--data", small_run["data"], "--out", tmp_path / f"{name}.ckpt", "--config", cfg_path,
                       "--epochs", 6) == 0
            texts.append((tmp_path / f"{name}.ckpt.report.json").read_text())
        report = json.loads(texts[0])
        assert len(report["grad_norms"]) == len(report["losses"]) == report["steps"] == 6
        assert all(type(norm) is float and norm > 0 for norm in report["grad_norms"])
        assert report["losses"][-1] > 100 * report["losses"][0]
        deterministic = [[line for line in text.splitlines() if '"wall_clock"' not in line] for text in texts]
        assert deterministic[0] == deterministic[1]

    def test_a_step_skipped_for_a_non_finite_gradient_reports_a_null_norm(self, small_run, tmp_path, monkeypatch):
        clip, calls = training.clip_gradients, []

        def clip_after_an_overflow_at_step_2(params, max_norm):
            calls.append(max_norm)
            if len(calls) == 2:
                params[0].grad.flat[0] = np.inf
            return clip(params, max_norm)

        monkeypatch.setattr(training, "clip_gradients", clip_after_an_overflow_at_step_2)
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--epochs", 1, "--batch-size", 4,
                   "--d-m", 8, "--heads", 2, "--n-layers", 1) == 0
        text = (tmp_path / "m.ckpt.report.json").read_text()
        report = json.loads(text, parse_constant=lambda name: pytest.fail(f"report.json holds {name}"))
        assert calls == [training.CLIP_NORM] * 4
        assert report["skipped_steps"] == 1 and report["grad_norms"][1] is None
        assert all(type(report["grad_norms"][i]) is float for i in (0, 2, 3))

    def test_negative_seed_flag_exits_2(self, small_run, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--seed", -3) == 2
        err = capsys.readouterr().err
        assert err == "train: seed and checkpoint_interval must be >= 0: seed=-3, checkpoint_interval=0\n"
        assert not ckpt.exists()

    @pytest.mark.parametrize("params", [5, None, {"name": "tok_emb"}], ids=["int", "null", "object"])
    def test_state_params_that_are_not_a_list_exit_2(self, small_run, tmp_path, capsys, params):
        ckpt = tmp_path / "c.ckpt"
        common = ["--data", small_run["data"], "--out", ckpt, "--seed", 2, "--batch-size", 8,
                  "--d-m", 8, "--heads", 2, "--n-layers", 1, "--dropout", 0.0]
        assert run("train", *common, "--epochs", 1) == 0
        manifest, blob = _read_container(ckpt)
        manifest["params"] = params
        _write_container(ckpt, manifest, blob)
        capsys.readouterr()
        assert run("train", *common, "--epochs", 2, "--resume") == 2
        err = capsys.readouterr().err
        assert err == f"train: {ckpt}: checkpoint manifest params must be a list, not {params!r}\n"

    @pytest.mark.parametrize("flags", [[], ["--d-m", 8]])
    def test_out_of_range_config_value_exits_2_naming_the_file(self, small_run, tmp_path, capsys, flags):
        cfg_path = tmp_path / "c0.json"
        cfg_path.write_text(json.dumps({"d_m": 0}))
        ckpt = tmp_path / "m.ckpt"
        argv = ["train", "--data", small_run["data"], "--out", ckpt, "--config", cfg_path, *flags]
        assert run(*argv) == 2
        assert capsys.readouterr().err.strip() == f"train: {cfg_path}: model dimensions must all be >= 1"
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "step, skipped", [("abc", 0), (2, None), (0.5, 0), (2, -1), (True, 0), (2, 3), (0, 1), (2, 10**400)],
        ids=["step-str", "skipped-null", "step-float", "skipped-negative", "step-bool", "skipped-over-step",
             "skipped-at-step-0", "skipped-beyond-float"])
    def test_wrong_state_counter_exits_2_naming_the_file(self, small_run, tmp_path, capsys, step, skipped):
        ckpt = tmp_path / "c.ckpt"
        common = ["--data", small_run["data"], "--out", ckpt, "--seed", 2, "--batch-size", 8,
                  "--d-m", 8, "--heads", 2, "--n-layers", 1, "--dropout", 0.0]
        assert run("train", *common, "--epochs", 1) == 0
        manifest, blob = _read_container(ckpt)
        assert (manifest["step"], manifest["adam_skipped"]) == (2, 0) and "adam_t" not in manifest
        manifest["step"], manifest["adam_skipped"] = step, skipped
        _write_container(ckpt, manifest, blob)
        capsys.readouterr()
        assert run("train", *common, "--epochs", 2, "--resume") == 2
        assert capsys.readouterr().err == (f"train: {ckpt}: checkpoint step {step!r} and adam_skipped {skipped!r} "
                                           "must be integers with 0 <= adam_skipped <= step\n")

    @pytest.mark.parametrize("edit, problem", [
        (lambda train: [1], "config must be a JSON object"),
        (lambda train: {**train, "seed": 2.0}, "config key 'seed' must be int, not 2.0"),
    ], ids=["not_an_object", "float_seed"])
    def test_wrong_typed_state_train_config_exits_2(self, small_run, tmp_path, capsys, edit, problem):
        ckpt = tmp_path / "c.ckpt"
        common = ["--data", small_run["data"], "--out", ckpt, "--seed", 2, "--batch-size", 8,
                  "--d-m", 8, "--heads", 2, "--n-layers", 1, "--dropout", 0.0]
        assert run("train", *common, "--epochs", 1) == 0
        manifest, blob = _read_container(ckpt)
        manifest["train"] = edit(manifest["train"])
        _write_container(ckpt, manifest, blob)
        capsys.readouterr()
        assert run("train", *common, "--epochs", 2, "--resume") == 2
        err = capsys.readouterr().err
        assert err.strip() == f"train: {ckpt}: invalid saved training config: {problem}"

    def test_diverged_training_exits_1_and_writes_no_checkpoint(self, small_run, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lr": 1e300}))
        ckpt = tmp_path / "m.ckpt"
        argv = ["train", "--data", small_run["data"], "--out", ckpt, "--config", cfg_path,
                "--epochs", 2, "--batch-size", 8, "--d-m", 8, "--heads", 2, "--n-layers", 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would fail the run
            assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == ("train: internal error: training diverged at step 1: "
                       "a parameter is not finite or lies beyond float32's range\n")
        assert not any(tmp_path.glob("m.ckpt*"))

    def test_a_loss_beyond_float32_exits_1_and_writes_no_checkpoint(self, small_run, tmp_path, capsys):
        # lr 1e10 moves step 1's parameters to about 1e10; step 2's forward then overflows float32
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lr": 1e10}))
        ckpt = tmp_path / "m.ckpt"
        argv = ["train", "--data", small_run["data"], "--out", ckpt, "--config", cfg_path,
                "--epochs", 2, "--batch-size", 8, "--d-m", 8, "--heads", 2, "--n-layers", 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == "train: internal error: training diverged at step 2: the loss is not finite\n"
        assert not any(tmp_path.glob("m.ckpt*"))

    def test_state_of_non_finite_values_exits_2_naming_the_file(self, small_run, tmp_path, capsys):
        ckpt = tmp_path / "nan.ckpt"
        common = ["--data", small_run["data"], "--out", ckpt, "--seed", 2, "--batch-size", 8,
                  "--d-m", 8, "--heads", 2, "--n-layers", 1, "--dropout", 0.0]
        assert run("train", *common, "--epochs", 1) == 0
        manifest, blob = _read_container(ckpt)
        values = np.frombuffer(blob, dtype="<f4").copy()
        values[-1] = np.nan  # the last Adam second moment
        _write_container(ckpt, manifest, values.tobytes())
        capsys.readouterr()
        assert run("train", *common, "--epochs", 2, "--resume") == 2
        assert capsys.readouterr().err == f"train: {ckpt}: checkpoint blob holds non-finite values\n"

    def test_resume_from_a_model_only_checkpoint_exits_2_naming_the_file(self, small_run, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(load_checkpoint(small_run["ckpt"])[0], ckpt)
        lean = ckpt.read_bytes()
        argv = ["train", "--data", small_run["data"], "--out", ckpt, "--seed", 1, "--epochs", 3,
                "--batch-size", 8, "--d-m", 8, "--heads", 2, "--n-layers", 1, "--dropout", 0.0, "--resume"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"train: {ckpt}: checkpoint holds no training state, only a model\n"
        assert ckpt.read_bytes() == lean and not (tmp_path / "m.ckpt.report.json").exists()

    def test_resume_behind_the_checkpoint_exits_2_and_writes_nothing(self, small_run, tmp_path, capsys):
        ckpt = tmp_path / "ahead.ckpt"
        ckpt.write_bytes(small_run["ckpt"].read_bytes())  # two epochs of two steps
        before = ckpt.read_bytes()
        common = ["--data", small_run["data"], "--out", ckpt, "--seed", 1, "--batch-size", 8, "--d-m", 8,
                  "--heads", 2, "--n-layers", 1, "--dropout", 0.0, "--resume"]
        capsys.readouterr()
        assert run("train", *common, "--epochs", 1) == 2
        err = capsys.readouterr().err
        assert err == f"train: {ckpt}: checkpoint is at step 4, past this run's last step, 2\n"
        assert ckpt.read_bytes() == before and not (tmp_path / "ahead.ckpt.report.json").exists()
        assert run("train", *common, "--epochs", 2) == 0  # equal epochs run no step
        assert ckpt.read_bytes() == before

    def test_resume_from_a_copy_writes_a_straight_run_s_checkpoint(self, small_run, tmp_path, capsys):
        common = ["--data", small_run["data"], "--seed", 1, "--batch-size", 8, "--d-m", 8, "--heads", 2,
                  "--n-layers", 1, "--dropout", 0.0]
        copy = tmp_path / "copy.ckpt"
        copy.write_bytes(small_run["ckpt"].read_bytes())  # two epochs, and no other file next to it
        assert run("train", *common, "--out", copy, "--epochs", 3, "--resume") == 0
        straight = tmp_path / "straight.ckpt"
        assert run("train", *common, "--out", straight, "--epochs", 3) == 0
        assert copy.read_bytes() == straight.read_bytes()
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "copy.ckpt", "copy.ckpt.report.json", "straight.ckpt", "straight.ckpt.report.json"]

    def test_training_writes_one_checkpoint_file(self, small_run):
        assert sorted(f.name for f in small_run["root"].iterdir()) == [
            "data.jsonl", "data.jsonl.summary.json", "model.ckpt", "model.ckpt.report.json"]
        manifest, _ = _read_container(small_run["ckpt"])
        assert sorted(manifest) == ["adam_skipped", "config", "data_digest", "format", "params", "step", "train"]

    def test_zero_model_dimension_exits_2(self, small_run, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--d-m", 0) == 2
        assert capsys.readouterr().err.strip() == "train: model dimensions must all be >= 1"
        assert not ckpt.exists()

    def test_over_long_sample_exits_2_naming_it(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        data = tmp_path / "d.jsonl"
        write_samples(data, [random_sample(rng, n=3), random_sample(rng, n=4), random_sample(rng, n=1)])
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", data, "--out", ckpt, "--max-len", 3) == 2
        err = capsys.readouterr().err
        assert err == f"train: {data}: sample 1: 4 activities exceed max_len=3\n"
        assert not ckpt.exists()

    def test_empty_dataset_exits_2(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("train", "--data", empty, "--out", tmp_path / "m.ckpt") == 2


class TestRecover:
    def test_overflowing_training_prints_no_numpy_warning(self, tmp_path):
        # lr 1e10 drives pre-activations far past exp's range without leaving float32's;
        # run as a user would, so stderr is the real one and no warning filter applies
        (tmp_path / "cfg.json").write_text(json.dumps({"lr": 1e10}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        for argv in (["gen", "--out", "d.jsonl", "--n-days", 16, "--seed", 1],
                     ["train", "--data", "d.jsonl", "--out", "m.ckpt", "--config", "cfg.json", "--epochs", 2,
                      "--batch-size", 8, "--d-m", 8, "--heads", 2, "--n-layers", 1],
                     ["recover", "--checkpoint", "m.ckpt", "--data", "d.jsonl", "--out", "h.jsonl"]):
            done = subprocess.run([sys.executable, "-m", "actrecover.cli", *map(str, argv)], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=300)
            assert "RuntimeWarning" not in done.stderr, done.stderr

    def test_slot_scores_beyond_float32_exit_1(self, small_run, tmp_path, capsys):
        # one step at lr 1e10 leaves finite parameters whose forward overflows float32
        (tmp_path / "cfg.json").write_text(json.dumps({"lr": 1e10}))
        ckpt, hyp = tmp_path / "m.ckpt", tmp_path / "h.jsonl"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--config", tmp_path / "cfg.json",
                   "--epochs", 1, "--batch-size", 16, "--d-m", 8, "--heads", 2, "--n-layers", 1) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", hyp) == 1
        assert capsys.readouterr().err == ("recover: internal error: slot scores are not finite: "
                                           "the model's arithmetic leaves float32's range\n")
        assert not hyp.exists()

    def test_zero_rounds_passthrough(self, small_run, tmp_path):
        hyp = tmp_path / "hyp.jsonl"
        assert (
            run(
                "recover", "--checkpoint", small_run["ckpt"], "--data", small_run["data"],
                "--out", hyp, "--max-rounds", 0,
            )
            == 0
        )
        hypotheses = read_sequences(hyp)
        samples = read_samples(small_run["data"])
        assert [h.activities for h in hypotheses] == [s.incomplete.activities for s in samples]

    def test_recovers_empty_inputs(self, small_run, tmp_path):
        cfg = default_config()
        cfg.n_days = 4
        seqs = generate_population(cfg, seed=9)
        samples = make_samples(seqs, 1.0, seed=9)  # everything removed
        data = tmp_path / "empty_inputs.jsonl"
        write_samples(data, samples)
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", small_run["ckpt"], "--data", data, "--out", hyp) == 0
        assert len(read_sequences(hyp)) == 4

    def test_outputs_contain_inputs_as_subsequence(self, small_run, tmp_path):
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", small_run["ckpt"], "--data", small_run["data"], "--out", hyp) == 0
        samples = read_samples(small_run["data"])
        for sample, hypothesis in zip(samples, read_sequences(hyp)):
            align_subsequence(sample.incomplete.labels(), hypothesis.labels())


    def test_over_length_input_exits_2_naming_the_sample(self, small_run, tmp_path, capsys):
        samples = read_samples(small_run["data"])[:3]
        long_day = random_sequence(np.random.default_rng(40), n=40)
        samples[1] = RecoverySample(long_day, [])
        data = tmp_path / "long.jsonl"
        write_samples(data, samples)
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", small_run["ckpt"], "--data", data, "--out", hyp) == 2
        err = capsys.readouterr().err
        assert err == f"recover: {data}: sample 1: 40 activities exceed max_len=32\n"
        assert "Traceback" not in err and not hyp.exists()

    def test_negative_max_rounds_exits_2(self, small_run, tmp_path, capsys):
        hyp = tmp_path / "hyp.jsonl"
        argv = ["--checkpoint", small_run["ckpt"], "--data", small_run["data"], "--out", hyp]
        assert run("recover", *argv, "--max-rounds", -3) == 2
        assert capsys.readouterr().err.strip() == "recover: max_rounds must be >= 0, not -3"
        assert not hyp.exists()

    @pytest.mark.parametrize("error", [ShapeError, CapacityError, NumericError])
    def test_internal_error_exits_1_in_one_line(self, small_run, tmp_path, capsys, monkeypatch, error):
        def breach(self, seqs, max_rounds=None):
            raise error("planted breach")

        monkeypatch.setattr(InsertionModel, "recover_batch", breach)
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", small_run["ckpt"], "--data", small_run["data"], "--out", hyp) == 1
        err = capsys.readouterr().err
        assert err == "recover: internal error: planted breach\n"
        assert not hyp.exists()

    def test_invariant_breach_exits_1_and_writes_nothing(self, small_run, tmp_path, capsys, monkeypatch):
        recover_batch = InsertionModel.recover_batch
        planted = []

        def drop_an_input(self, seqs, max_rounds=None):
            """Drops from one outcome an input activity whose label was never inserted there."""
            outcomes = recover_batch(self, seqs, max_rounds)
            for i, outcome in enumerate(outcomes):
                acts = outcome.sequence.activities
                inserted = {a.label for a in acts if not a.observed}
                gone = next((a for a in acts if a.observed and a.label not in inserted), None)
                if gone is not None:
                    kept = [a for a in acts if a is not gone]
                    outcomes[i] = replace(outcome, sequence=replace(outcome.sequence, activities=kept))
                    planted.append(i)
                    return outcomes
            raise AssertionError("no outcome has an input activity to drop")

        monkeypatch.setattr(InsertionModel, "recover_batch", drop_an_input)
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", small_run["ckpt"], "--data", small_run["data"], "--out", hyp) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"recover: invariant breach on sample {planted[0]}: ") and err.count("\n") == 1
        assert "Traceback" not in err and not hyp.exists()

    def test_unmapped_value_error_is_not_a_usage_error(self, small_run, tmp_path, monkeypatch):
        def breach(self, seqs, max_rounds=None):
            raise ValueError("planted breach")

        monkeypatch.setattr(InsertionModel, "recover_batch", breach)
        argv = ["--checkpoint", small_run["ckpt"], "--data", small_run["data"], "--out", tmp_path / "h.jsonl"]
        with pytest.raises(ValueError, match="planted breach"):
            run("recover", *argv)

    def test_checkpoint_with_unknown_config_key_exits_2(self, small_run, tmp_path, capsys):
        manifest, blob = _read_container(small_run["ckpt"])
        manifest["config"]["n_static"] = 4
        ckpt = tmp_path / "old.ckpt"
        _write_container(ckpt, manifest, blob)
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", hyp) == 2
        err = capsys.readouterr().err
        assert "invalid checkpoint config" in err and "n_static" in err
        assert "Traceback" not in err and not hyp.exists()

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("d_m", 8.0, "config key 'd_m' must be int, not 8.0"),
            ("use_vsn", 1, "config key 'use_vsn' must be bool, not 1"),
            ("max_rounds", 2.5, "config key 'max_rounds' must be int, not 2.5"),
            ("max_len", None, "config lacks max_len"),
        ],
    )
    def test_checkpoint_config_of_the_wrong_type_exits_2(self, small_run, tmp_path, capsys, key, value, problem):
        manifest, blob = _read_container(small_run["ckpt"])
        if value is None:
            del manifest["config"][key]
        else:
            manifest["config"][key] = value
        ckpt = tmp_path / "typed.ckpt"
        _write_container(ckpt, manifest, blob)
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", hyp) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"recover: {ckpt}: invalid checkpoint config: {problem}"
        assert not hyp.exists()

    @pytest.mark.parametrize("key", ["config", "params"])
    def test_checkpoint_without_required_key_exits_2(self, small_run, tmp_path, capsys, key):
        manifest, blob = _read_container(small_run["ckpt"])
        del manifest[key]
        ckpt = tmp_path / "bare.ckpt"
        _write_container(ckpt, manifest, blob)
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", hyp) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"recover: {ckpt}: checkpoint manifest lacks {key}"
        assert not hyp.exists()

    @pytest.mark.parametrize("params", [5, None], ids=["int", "null"])
    def test_checkpoint_params_that_are_not_a_list_exit_2(self, small_run, tmp_path, capsys, params):
        manifest, blob = _read_container(small_run["ckpt"])
        manifest["params"] = params
        ckpt = tmp_path / "params.ckpt"
        _write_container(ckpt, manifest, blob)
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", hyp) == 2
        err = capsys.readouterr().err
        assert err == f"recover: {ckpt}: checkpoint manifest params must be a list, not {params!r}\n"
        assert not hyp.exists()

    def test_deeply_nested_checkpoint_manifest_exits_2(self, small_run, tmp_path, capsys):
        payload = ("[" * DEEP + "]" * DEEP).encode()
        ckpt = tmp_path / "deep.ckpt"
        ckpt.write_bytes(b"ARCK" + len(payload).to_bytes(4, "little") + payload)
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", hyp) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"recover: {ckpt}: unreadable container manifest: maximum recursion depth")
        assert err.count("\n") == 1 and not hyp.exists()

    def test_truncated_checkpoint_exits_2_naming_the_file(self, small_run, tmp_path, capsys):
        manifest, blob = _read_container(small_run["ckpt"])
        ckpt = tmp_path / "cut.ckpt"
        _write_container(ckpt, manifest, blob[:-100])
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", hyp) == 2
        err = capsys.readouterr().err
        assert err.strip() == (
            f"recover: {ckpt}: checkpoint blob holds {len(blob) - 100} bytes, "
            f"the manifest needs {len(blob)}"
        )
        assert "Traceback" not in err and not hyp.exists()

    def test_checkpoint_of_non_finite_values_exits_2_naming_the_file(self, small_run, tmp_path, capsys):
        manifest, blob = _read_container(small_run["ckpt"])
        values = np.frombuffer(blob, dtype="<f4").copy()
        values[3] = np.inf
        ckpt = tmp_path / "inf.ckpt"
        _write_container(ckpt, manifest, values.tobytes())
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", hyp) == 2
        err = capsys.readouterr().err
        assert err == f"recover: {ckpt}: checkpoint blob holds non-finite values\n"
        assert not hyp.exists()

    def test_a_non_finite_adam_moment_is_left_to_resume(self, small_run, tmp_path):
        manifest, blob = _read_container(small_run["ckpt"])
        values = np.frombuffer(blob, dtype="<f4").copy()
        values[-1] = np.nan  # the last Adam second moment, which recovery never reads
        ckpt = tmp_path / "nan_moment.ckpt"
        _write_container(ckpt, manifest, values.tobytes())
        clean, kept = tmp_path / "clean.jsonl", tmp_path / "kept.jsonl"
        assert run("recover", "--checkpoint", small_run["ckpt"], "--data", small_run["data"], "--out", clean) == 0
        assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", kept) == 0
        assert kept.read_bytes() == clean.read_bytes()
        assert Path(f"{kept}.summary.json").read_bytes() == Path(f"{clean}.summary.json").read_bytes()

    @pytest.mark.parametrize(
        "make, problem",
        [
            (lambda run_: run_["data"].read_bytes(), "not a checkpoint container"),
            (lambda run_: b"ARCK" + (12).to_bytes(4, "little") + b'{"format":4}',
             "checkpoint format 4 is not supported (this version reads format 5 only)"),
            (lambda run_: b"ARCK" + (2).to_bytes(4, "little") + b"[]", "container manifest is not an object"),
        ],
        ids=["data file", "format 4 file", "list manifest"],
    )
    def test_file_that_is_no_checkpoint_exits_2_naming_it(self, small_run, tmp_path, capsys, make, problem):
        ckpt = tmp_path / "other.ckpt"
        ckpt.write_bytes(make(small_run))
        hyp = tmp_path / "hyp.jsonl"
        assert run("recover", "--checkpoint", ckpt, "--data", small_run["data"], "--out", hyp) == 2
        assert capsys.readouterr().err == f"recover: {ckpt}: {problem}\n"
        assert not hyp.exists()

    def test_writes_deterministic_summary(self, small_run, tmp_path):
        summaries = []
        for name in ("a", "b"):
            hyp = tmp_path / f"{name}.jsonl"
            assert run("recover", "--checkpoint", small_run["ckpt"], "--data", small_run["data"], "--out", hyp) == 0
            summaries.append((tmp_path / f"{name}.jsonl.summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        summary = json.loads(summaries[0])
        samples = read_samples(small_run["data"])
        hypotheses = read_sequences(tmp_path / "a.jsonl")
        assert summary["n_sequences"] == len(samples) == sum(summary["rounds_histogram"])
        assert summary["max_rounds"] == load_checkpoint(small_run["ckpt"])[0].config.max_rounds
        assert sum(summary["insertions_per_round"]) == sum(
            len(h) - len(s.incomplete) for h, s in zip(hypotheses, samples)
        )
        assert 0 <= summary["truncated"] <= len(samples)

    def test_zero_rounds_summary(self, small_run, tmp_path):
        hyp = tmp_path / "hyp.jsonl"
        assert run(
            "recover", "--checkpoint", small_run["ckpt"], "--data", small_run["data"],
            "--out", hyp, "--max-rounds", 0,
        ) == 0
        summary = json.loads((tmp_path / "hyp.jsonl.summary.json").read_text())
        assert summary["rounds_histogram"] == [len(read_samples(small_run["data"]))]
        assert summary["insertions_per_round"] == [] and summary["truncated"] == 0

    @settings(max_examples=200, deadline=None)
    @given(drawn=st.lists(st.tuples(st.integers(0, 4), st.booleans(), st.lists(st.integers(0, 6), max_size=4)),
                          max_size=8),
           max_rounds=st.integers(0, 8))
    @example(drawn=[], max_rounds=8)  # the empty dataset: histogram [0], no round
    @example(drawn=[(0, False, [])] * 3, max_rounds=0)  # every day took zero rounds
    def test_summary_equals_the_counting_loop(self, drawn, max_rounds):
        outcomes = [RecoveryOutcome(None, rounds, truncated, tuple(inserted)) for rounds, truncated, inserted in drawn]
        expected = loop_recovery_summary(outcomes, max_rounds)
        assert json.dumps(_recovery_summary(outcomes, max_rounds)) == json.dumps(expected)
        if not outcomes:
            assert expected["rounds_histogram"] == [0] and expected["insertions_per_round"] == []


class TestEvalAndCompare:
    def _write_perfect_and_lazy(self, small_run, tmp_path):
        from actrecover.data import write_sequences

        samples = read_samples(small_run["data"])
        perfect = tmp_path / "perfect.jsonl"
        lazy = tmp_path / "lazy.jsonl"
        write_sequences(perfect, [s.complete for s in samples])
        write_sequences(lazy, [s.incomplete for s in samples])
        return perfect, lazy

    def test_perfect_hypotheses_full_recall(self, small_run, tmp_path):
        perfect, _ = self._write_perfect_and_lazy(small_run, tmp_path)
        out = tmp_path / "m"
        assert run("eval", "--data", small_run["data"], "--hyp", perfect, "--out", out) == 0
        report = json.loads((tmp_path / "m.metrics.json").read_text())
        assert report["recall"] == 1.0 and report["oi_recall"] == 1.0
        csv_text = (tmp_path / "m.distribution.csv").read_text().splitlines()
        assert csv_text[0] == "label,hypothesis,target"
        assert len(csv_text) == 10
        assert (tmp_path / "m.patterns.csv").exists()
        assert (tmp_path / "m.transitions_broken.csv").exists()
        assert (tmp_path / "m.transitions_inserted.csv").exists()
        transitions = json.loads((tmp_path / "m.transitions.json").read_text())
        assert transitions["broken"] == transitions["inserted"]  # perfect recovery

    def test_lazy_hypotheses_insert_nothing(self, small_run, tmp_path):
        _, lazy = self._write_perfect_and_lazy(small_run, tmp_path)
        out = tmp_path / "m"
        assert run("eval", "--data", small_run["data"], "--hyp", lazy, "--out", out) == 0
        report = json.loads((tmp_path / "m.metrics.json").read_text())
        assert report["total_inserted"] == 0
        assert report["oi_recall"] == 0.0

    def test_empty_dataset_scores_to_all_zero_tables(self, tmp_path):
        empty, out, cmp = tmp_path / "empty.jsonl", tmp_path / "m", tmp_path / "cmp.json"
        empty.write_text("")
        assert run("eval", "--data", empty, "--hyp", empty, "--out", out) == 0
        assert run("compare", "--data", empty, "--hyp-a", empty, "--hyp-b", empty, "--out", cmp) == 0
        assert set(json.loads((tmp_path / "m.metrics.json").read_text()).values()) == {0}
        transitions = json.loads((tmp_path / "m.transitions.json").read_text())
        assert transitions["broken"] == transitions["inserted"] == [[0] * 9] * 9
        for table, zeros in (("distribution", ",0,0"), ("transitions_broken", ",0"), ("transitions_inserted", ",0")):
            rows = (tmp_path / f"m.{table}.csv").read_text().splitlines()[1:]
            assert len(rows) in (9, 81) and all(row.endswith(zeros) for row in rows)
        assert (tmp_path / "m.patterns.csv").read_text().splitlines() == ["pattern,count"]
        payload = json.loads(cmp.read_text())
        assert set(payload["metrics_a"].values()) == set(payload["metrics_b"].values()) == {0}
        assert (payload["transition_wins_a"], payload["transition_wins_b"], payload["transition_ties"]) == (0, 0, 162)
        assert {(c["broken"], c["inserted_a"], c["inserted_b"]) for c in payload["cells"]} == {(0, 0, 0)}

    def test_length_mismatch_exits_2(self, small_run, tmp_path):
        from actrecover.data import write_sequences

        samples = read_samples(small_run["data"])
        short = tmp_path / "short.jsonl"
        write_sequences(short, [s.complete for s in samples[:-1]])
        assert run("eval", "--data", small_run["data"], "--hyp", short, "--out", tmp_path / "m") == 2

    def _write_misaligned(self, small_run, tmp_path):
        """Hypotheses that drop sample 7's first input activity, so its input no longer fits."""
        from actrecover.data import write_sequences

        samples = read_samples(small_run["data"])
        hyps = [s.complete for s in samples]
        assert len(samples[7].incomplete) > 0
        hyps[7] = replace(samples[7].incomplete, activities=samples[7].incomplete.activities[1:])
        bad = tmp_path / "bad.jsonl"
        write_sequences(bad, hyps)
        return bad

    def test_misaligned_hypothesis_exits_2_naming_file_and_sample(self, small_run, tmp_path, capsys):
        bad = self._write_misaligned(small_run, tmp_path)
        assert run("eval", "--data", small_run["data"], "--hyp", bad, "--out", tmp_path / "m") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"eval: {bad}: sample 7: element ") and "no match" in err
        assert "Traceback" not in err and not (tmp_path / "m.metrics.json").exists()

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_compare_names_the_misaligned_side(self, small_run, tmp_path, capsys, side):
        perfect, _ = self._write_perfect_and_lazy(small_run, tmp_path)
        bad = self._write_misaligned(small_run, tmp_path)
        hyp_a, hyp_b = (bad, perfect) if side == "a" else (perfect, bad)
        out = tmp_path / "cmp.json"
        argv = ["compare", "--data", small_run["data"], "--hyp-a", hyp_a, "--hyp-b", hyp_b]
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"compare: {bad}: sample 7: ") and "no match" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_alignments_per_day(self, small_run, tmp_path, monkeypatch, command):
        """Each input is aligned to its complete day once per command, then once per hypothesis scoring."""
        import actrecover.metrics

        calls = []

        def counting(*args):
            calls.append(1)
            return align_subsequence(*args)

        monkeypatch.setattr(actrecover.metrics, "align_subsequence", counting)
        perfect, lazy = self._write_perfect_and_lazy(small_run, tmp_path)
        files = ["--hyp", perfect] if command == "eval" else ["--hyp-a", perfect, "--hyp-b", lazy]
        assert run(command, "--data", small_run["data"], *files, "--out", tmp_path / "out") == 0
        n_days = len(read_samples(small_run["data"]))
        assert len(calls) <= 3 * n_days
        if command == "compare":
            assert len(calls) == 3 * n_days

    def test_compare_identical_all_ties(self, small_run, tmp_path):
        perfect, lazy = self._write_perfect_and_lazy(small_run, tmp_path)
        out = tmp_path / "cmp.json"
        assert run(
            "compare", "--data", small_run["data"], "--hyp-a", perfect, "--hyp-b", perfect,
            "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["transition_ties"] == 162

    def test_compare_partitions_162_cells(self, small_run, tmp_path):
        perfect, lazy = self._write_perfect_and_lazy(small_run, tmp_path)
        out = tmp_path / "cmp.json"
        assert run(
            "compare", "--data", small_run["data"], "--hyp-a", perfect, "--hyp-b", lazy,
            "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        total = payload["transition_wins_a"] + payload["transition_wins_b"] + payload["transition_ties"]
        assert total == 162
        assert payload["transition_wins_a"] > payload["transition_wins_b"]
        assert len(payload["cells"]) == 162

    @pytest.mark.parametrize("flag", ["--data", "--hyp"])
    def test_binary_file_as_dataset_exits_2(self, small_run, tmp_path, capsys, flag):
        files = {"--data": small_run["data"], "--hyp": small_run["data"], flag: small_run["ckpt"]}
        out = tmp_path / "m"
        assert run("eval", *[x for pair in files.items() for x in pair], "--out", out) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"eval: {small_run['ckpt']}: line 1 is not UTF-8 text"
        assert not (tmp_path / "m.metrics.json").exists()

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda rec: rec["activities"][0].update(arr=1.9), "activity 0: arr must be an integer, not float"),
            (lambda rec: rec["activities"][0].update(observed="false"),
             "activity 0: observed must be a boolean, not string"),
            (lambda rec: rec.update(removed_positions=[0, 0]), "removed positions must be distinct integers"),
        ],
        ids=["arr-float", "observed-string", "removed-twice"],
    )
    def test_wrong_typed_record_exits_2_naming_file_and_line(self, small_run, tmp_path, capsys, edit, problem):
        lines = small_run["data"].read_text().splitlines()
        rec = json.loads(lines[1])
        edit(rec)
        data = tmp_path / "bad.jsonl"
        data.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
        assert run("eval", "--data", data, "--hyp", data, "--out", tmp_path / "m") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"eval: {data}: invalid record at line 2: ") and problem in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_non_finite_distance_exits_2_naming_file_and_line(self, small_run, tmp_path, capsys, command, value):
        lines = small_run["data"].read_text().splitlines()
        rec = json.loads(lines[2])
        rec["activities"][-1]["dist"] = value  # json writes the bare NaN / Infinity that Python's json reads
        data = tmp_path / "bad.jsonl"
        data.write_text("\n".join([*lines[:2], json.dumps(rec), *lines[3:]]) + "\n")
        out = tmp_path / "m"
        hyp = ["--hyp", data] if command == "eval" else []
        assert run(command, "--data", data, "--out", out, *hyp) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: {data}: invalid record at line 3: trip distance must be a finite")
        assert "Traceback" not in err and not list(tmp_path.glob("m*"))

    @pytest.mark.parametrize("edit, problem", [
        (lambda rec: rec["activities"][0].update(arr=0), "time bins out of 1..96: 0, "),
        (lambda rec: rec["activities"][0].update(dep=97), "time bins out of 1..96: "),
        (lambda rec: rec["activities"][0].update(arr=50, dep=40), "arrival bin 50 after departure bin 40"),
        (lambda rec: rec["activities"][0].update(mode=7), "mode code out of 1..6: 7"),
        (lambda rec: rec["activities"][0].update(mode=0), "mode code out of 1..6: 0"),
        (lambda rec: rec["activities"][0].update(dist=-1.5), "trip distance must be a finite number >= 0: -1.5"),
        (lambda rec: rec["activities"][0].update(dist=-2), "trip distance must be a finite number >= 0: -2.0"),
        (lambda rec: rec["activities"][0].update(observed=False, arr=10**30),
         f"time bins out of 0..96: {10**30}, "),
        (lambda rec: rec["activities"][0].update(observed=False, dep=-5), "time bins out of 0..96: "),
        (lambda rec: rec["activities"][0].update(observed=False, mode=99), "mode code out of 0..6: 99"),
        (lambda rec: rec.update(weekday=8), "weekday out of 1..7: 8"),
        (lambda rec: rec.update(weekday=0), "weekday out of 1..7: 0"),
        (lambda rec: rec.update(holiday=2), "holiday flag must be 0/1: 2"),
        (lambda rec: rec.update(static=[1, 2, 3]), "static codes must be four values in 1..5"),
        (lambda rec: rec.update(static=[1, 2, 3, 6]), "static codes must be four values in 1..5"),
        (lambda rec: rec.update(person_id="7"), "person_id must be an integer, not string"),
        (lambda rec: rec.update(static=[1, 2, 3, 4.0]), "static[3] must be an integer, not float"),
    ], ids=["arr-0", "dep-97", "arr-after-dep", "mode-7", "mode-0", "dist-negative", "dist-int-as-float",
            "unobserved-arr-huge", "unobserved-dep-negative", "unobserved-mode-99",
            "weekday-8", "weekday-0", "holiday-2", "static-three", "static-6", "id-string", "static-float"])
    def test_out_of_range_record_exits_2_naming_file_and_line(self, small_run, tmp_path, capsys, edit, problem):
        data = tmp_path / "bad.jsonl"
        rewrite_line(small_run["data"], data, 2, edit)
        assert run("eval", "--data", data, "--hyp", small_run["data"], "--out", tmp_path / "m") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"eval: {data}: invalid record at line 2: {problem}") and err.count("\n") == 1
        assert not list(tmp_path.glob("m*"))

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--data"), ("eval", "--hyp"), ("train", "--data"), ("recover", "--data"),
        ("compare", "--hyp-b"),
    ])
    @pytest.mark.parametrize("digits, problem", [
        (400, "invalid record at line 2: activity 0: trip distance is an integer too large for a float"),
        (sys.get_int_max_str_digits() + 1, "parse error at line 2: Exceeds the limit"),
    ], ids=["beyond-float", "beyond-int-parsing"])
    def test_integer_distance_beyond_range_exits_2_naming_file_and_line(
        self, small_run, tmp_path, capsys, command, flag, digits, problem
    ):
        lines = small_run["data"].read_text().splitlines()
        rec = json.loads(lines[1])
        rec["activities"][0]["dist"] = 0
        big = json.dumps(rec).replace('"dist": 0', '"dist": 1' + "0" * digits, 1)  # valid JSON at any size
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], big, *lines[2:]]) + "\n")
        data = small_run["data"]
        files = {
            "eval": {"--data": data, "--hyp": data},
            "train": {"--data": data},
            "recover": {"--data": data, "--checkpoint": small_run["ckpt"]},
            "compare": {"--data": data, "--hyp-a": data, "--hyp-b": data},
        }[command]
        files[flag] = bad
        out = tmp_path / ("m.json" if command == "compare" else "m")
        assert run(command, *[x for pair in files.items() for x in pair], "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: {bad}: {problem}") and err.count("\n") == 1
        assert not list(tmp_path.glob("m*"))

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_a_wrong_type_beside_a_deeply_nested_label_is_refused_in_a_short_line(
        self, small_run, tmp_path, capsys, command
    ):
        """The refusal names the field and the JSON type it holds, not the activity, whose label nests 900 deep."""
        data = tmp_path / "nested.jsonl"
        rewrite_line(small_run["data"], data, 2, lambda rec: rec["activities"][0].update(
            label=json.loads("[" * 900 + "]" * 900), arr="1"))
        hyp = ["--hyp", data] if command == "eval" else []
        assert run(command, "--data", data, "--out", tmp_path / "m", *hyp) == 2
        err = capsys.readouterr().err
        assert err == f"{command}: {data}: invalid record at line 2: activity 0: arr must be an integer, not string\n"
        assert len(err) - len(str(data)) < 200

    def test_deeply_nested_data_line_exits_2_naming_file_and_line(self, small_run, tmp_path, capsys):
        lines = small_run["data"].read_text().splitlines()
        data = tmp_path / "deep.jsonl"
        data.write_text("\n".join([lines[0], "[" * DEEP + "]" * DEEP, *lines[1:]]) + "\n")
        assert run("eval", "--data", data, "--hyp", small_run["data"], "--out", tmp_path / "m") == 2
        assert capsys.readouterr().err == f"eval: {data}: parse error at line 2: nested too deeply\n"

    @pytest.mark.parametrize("edit, problem", [
        (lambda line: line[:40], "column 41: Invalid control character"),
        (lambda line: line.replace('"weekday":7', '"weekday":', 1), "column 35: Expecting value"),
        (lambda line: line[:34], "column 36: Expecting value"),
    ], ids=["cut-in-a-string", "value-left-out", "cut-after-a-colon"])
    def test_json_syntax_error_exits_2_naming_file_line_and_column(self, small_run, tmp_path, capsys, edit, problem):
        """The column counts the line's characters from 1; one past its newline is where json found
        the line's end."""
        lines = small_run["data"].read_text().splitlines()
        assert lines[1].startswith('{"person_id":1,"date":1,"weekday":7,"hol')
        data = tmp_path / "cut.jsonl"
        data.write_text("\n".join([lines[0], edit(lines[1]), *lines[2:]]) + "\n")
        assert run("eval", "--data", data, "--hyp", small_run["data"], "--out", tmp_path / "m") == 2
        assert capsys.readouterr().err == f"eval: {data}: parse error at line 2, {problem}\n"
        assert not list(tmp_path.glob("m*"))


# A path argument for each command, with flags that make the command run in a moment.
PATH_FLAGS = [
    ("gen", "--out"), ("gen", "--config"),
    ("train", "--data"), ("train", "--out"), ("train", "--config"),
    ("recover", "--checkpoint"), ("recover", "--data"), ("recover", "--out"),
    ("eval", "--data"), ("eval", "--hyp"), ("eval", "--out"),
    ("compare", "--data"), ("compare", "--hyp-a"), ("compare", "--hyp-b"), ("compare", "--out"),
]
TINY_TRAIN = ("--epochs", 1, "--batch-size", 8, "--d-m", 8, "--heads", 2, "--n-layers", 1)


def command_paths(command, small_run, tmp_path) -> tuple[dict, tuple]:
    """Valid path flags for ``command`` (each file in place), and its other flags."""
    data = small_run["data"]
    config = tmp_path / "config.json"
    config.write_text("{}")
    hyp = tmp_path / "hyp.jsonl"
    write_sequences(hyp, [s.complete for s in read_samples(data)])
    return {
        "gen": ({"--out": tmp_path / "g.jsonl", "--config": config}, ("--n-days", 4)),
        "train": ({"--data": data, "--out": tmp_path / "m.ckpt", "--config": config}, TINY_TRAIN),
        "recover": ({"--checkpoint": small_run["ckpt"], "--data": data, "--out": tmp_path / "h.jsonl"}, ()),
        "eval": ({"--data": data, "--hyp": hyp, "--out": tmp_path / "ev"}, ()),
        "compare": ({"--data": data, "--hyp-a": hyp, "--hyp-b": hyp, "--out": tmp_path / "c.json"}, ()),
    }[command]


def assert_refused_naming(capsys, command, path) -> None:
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: ") and err.count("\n") == 1, err
    assert str(path) in err and "Traceback" not in err


class TestPathFaults:
    @pytest.mark.parametrize("command, flag", PATH_FLAGS)
    def test_a_path_through_a_regular_file_exits_2_naming_it(self, small_run, tmp_path, capsys, command, flag):
        paths, extra = command_paths(command, small_run, tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("a regular file\n")
        paths[flag] = blocker / "x"
        assert run(command, *[a for pair in paths.items() for a in pair], *extra) == 2
        assert_refused_naming(capsys, command, blocker / "x")

    @pytest.mark.parametrize("command, flag", PATH_FLAGS)
    def test_a_path_without_permission_exits_2_naming_it(
        self, small_run, tmp_path, capsys, monkeypatch, command, flag
    ):
        from actrecover import cli, data, model

        paths, extra = command_paths(command, small_run, tmp_path)
        denied = str(paths[flag])

        def guarded_open(path, *args, **kwargs):
            """``open``, as a user without access to ``denied`` (``chmod`` does not stop root)."""
            if str(path).startswith(denied):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return builtins.open(path, *args, **kwargs)

        for module in (cli, data, model):
            monkeypatch.setattr(module, "open", guarded_open, raising=False)
        assert run(command, *[a for pair in paths.items() for a in pair], *extra) == 2
        assert_refused_naming(capsys, command, denied)


@pytest.fixture
def collector_on():
    """Runs a test with the cyclic collector on, and turns it back on whatever the test left."""
    gc.enable()
    yield
    gc.enable()


@pytest.fixture(scope="module")
def two_sizes(tmp_path_factory):
    """Data, both flavors' checkpoints and hypotheses at 16 and 64 days (4 and 16 training steps)."""
    root = tmp_path_factory.mktemp("sizes")
    sizes = {}
    for n in (16, 64):
        f = {k: root / f"{k}{n}" for k in ("data", "fused", "token", "hyp", "hyp_b")}
        assert run("gen", "--out", f["data"], "--seed", 5, "--n-days", n) == 0
        for flavor, ckpt in (("vsnit", f["fused"]), ("baseline", f["token"])):
            assert run("train", "--data", f["data"], "--out", ckpt, "--flavor", flavor, "--epochs", 1,
                       "--batch-size", 4, "--d-m", 8, "--heads", 2, "--n-layers", 1) == 0
        assert run("recover", "--checkpoint", f["fused"], "--data", f["data"], "--out", f["hyp"]) == 0
        assert run("recover", "--checkpoint", f["token"], "--data", f["data"], "--out", f["hyp_b"]) == 0
        sizes[n] = f
    return sizes


def _command_at(name, f, out):
    train = ("--data", f["data"], "--batch-size", 4, "--d-m", 8, "--heads", 2, "--n-layers", 1)
    if name == "train --resume":
        shutil.copyfile(f["fused"], out)
        return ("train", *train, "--out", out, "--epochs", 2, "--resume")
    return {
        "gen": ("gen", "--out", out, "--seed", 5, "--n-days", len(read_samples(f["data"]))),
        "train fused": ("train", *train, "--out", out, "--epochs", 1, "--checkpoint-interval", 2),
        "train token-only": ("train", *train, "--out", out, "--epochs", 1, "--flavor", "baseline"),
        "recover fused": ("recover", "--checkpoint", f["fused"], "--data", f["data"], "--out", out),
        "recover token-only": ("recover", "--checkpoint", f["token"], "--data", f["data"], "--out", out),
        "eval": ("eval", "--data", f["data"], "--hyp", f["hyp"], "--out", out),
        "compare": ("compare", "--data", f["data"], "--hyp-a", f["hyp"], "--hyp-b", f["hyp_b"], "--out", out),
    }[name]


class TestCollectorPause:
    """``main`` pauses the cyclic collector, because a command makes no garbage cycles."""

    @pytest.mark.parametrize("name", [
        "gen", "train fused", "train --resume", "train token-only",
        "recover fused", "recover token-only", "eval", "compare",
    ])
    def test_a_command_leaves_as_many_cycles_at_either_size(self, two_sizes, tmp_path, collector_on, name):
        cycles = []
        for n in (16, 64):
            argv = _command_at(name, two_sizes[n], tmp_path / f"out{n}")
            gc.collect()
            gc.disable()
            assert run(*argv) == 0
            cycles.append(gc.collect())
            gc.enable()
        # what is left is the argument parser's own cycles, however many days or steps ran
        assert cycles[0] == cycles[1], cycles

    def _spied_gen(self, monkeypatch, outcome):
        from actrecover import cli

        seen = []

        def cmd_gen(args):
            seen.append(gc.isenabled())
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        monkeypatch.setattr(cli, "cmd_gen", cmd_gen)
        return seen

    @pytest.mark.parametrize("outcome, code", [
        (0, 0),
        (FileNotFoundError(2, "No such file or directory", "d.jsonl"), 2),
        (ShapeError("planted breach"), 1),
    ])
    def test_the_collector_is_back_on_after_each_exit(self, tmp_path, monkeypatch, collector_on, outcome, code):
        seen = self._spied_gen(monkeypatch, outcome)
        assert run("gen", "--out", tmp_path / "d.jsonl") == code
        assert seen == [False] and gc.isenabled()

    def test_the_collector_is_back_on_after_an_escaping_exception(self, tmp_path, monkeypatch, collector_on):
        seen = self._spied_gen(monkeypatch, ValueError("planted breach"))
        with pytest.raises(ValueError, match="planted breach"):
            run("gen", "--out", tmp_path / "d.jsonl")
        assert seen == [False] and gc.isenabled()

    def test_a_caller_that_paused_the_collector_keeps_it_paused(self, tmp_path, collector_on):
        gc.disable()
        assert run("gen", "--out", tmp_path / "d.jsonl", "--n-days", 4) == 0
        assert not gc.isenabled()


class TestBlasThreads:
    def test_one_and_two_blas_threads_write_the_same_bytes(self, tmp_path):
        """gen, a fused train and recover, each process with OpenBLAS's thread count set before numpy loads."""
        script = (
            "from actrecover.cli import main\n"
            "for argv in (['gen', '--out', 'd.jsonl', '--n-days', '64', '--seed', '11'],\n"
            "             ['train', '--data', 'd.jsonl', '--out', 'm.ckpt', '--epochs', '1', '--batch-size', '32'],\n"
            "             ['recover', '--checkpoint', 'm.ckpt', '--data', 'd.jsonl', '--out', 'h.jsonl']):\n"
            "    assert main(argv) == 0, argv\n"
        )
        outputs = []
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
            done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 0 and not done.stderr, done.stderr
            report = (cwd / "m.ckpt.report.json").read_text().splitlines()
            files = {name: (cwd / name).read_bytes() for name in ("m.ckpt", "h.jsonl", "h.jsonl.summary.json")}
            outputs.append({"report": [line for line in report if '"wall_clock"' not in line], **files})
        assert [name for name in outputs[0] if outputs[0][name] != outputs[1][name]] == []


class TestTwoParsers:
    """The columnar reader parses data lines with orjson; the per-line reader, which reads any file
    the columnar one refuses, parses them with json."""

    def test_commands_write_what_they_write_with_json_alone(self, small_run, tmp_path, monkeypatch):
        """train, recover, eval and compare on a file of valid edge values, read by the reader and by
        json alone: every output is the same bytes (the report but for its wall clock)."""
        lines = [json.loads(line) for line in small_run["data"].read_text().splitlines()]
        lines[0]["person_id"] = 2**63 + 7
        lines[1].update(person_id=2**64 + 3, bogus=10**40)  # beyond 64 bits: orjson reads a float
        kept = next(i for i in range(len(lines[2]["activities"])) if i not in lines[2]["removed_positions"])
        lines[2]["activities"][kept].update(observed=False, arr=0, dep=0, mode=0, dist=int("7" * 300))
        lines[3]["activities"][0]["extra"] = -(2**70)
        lines[3]["big"] = 10**400  # beyond floats: orjson refuses the line
        text = "\r\n".join(json.dumps(rec) for rec in lines).replace("\r\n", "\r\n\r\n \x0c\r\n", 2) + "\r\n"
        data = tmp_path / "edge.jsonl"
        data.write_bytes(text.encode())
        outputs = []
        for name in ("json", "reader"):
            out = tmp_path / name
            out.mkdir()
            with monkeypatch.context() as patch:
                if name == "json":
                    patch.setattr(data_module, "_read_records", json_read_records)
                for argv in (["train", "--data", data, "--out", out / "m.ckpt", *TINY_TRAIN],
                             ["recover", "--checkpoint", out / "m.ckpt", "--data", data, "--out", out / "h.jsonl"],
                             ["eval", "--data", data, "--hyp", out / "h.jsonl", "--out", out / "ev"],
                             ["compare", "--data", data, "--hyp-a", out / "h.jsonl", "--hyp-b", data,
                              "--out", out / "cmp.json"]):
                    assert run(*argv) == 0, argv
            outputs.append({f.name: re.sub(rb'"wall_clock": [^\n]*', b"", f.read_bytes()) for f in out.iterdir()})
        assert len(outputs[0]) == 11 and outputs[0] == outputs[1]

    def test_importing_the_cli_or_running_gen_leaves_orjson_unloaded(self, tmp_path):
        """Reading a data file imports orjson; the package's import and gen, which reads none, do not."""
        script = (
            "import sys\n"
            "from actrecover.cli import main\n"
            "assert 'orjson' not in sys.modules\n"
            "assert main(['gen', '--out', 'd.jsonl', '--n-days', '4', '--seed', '1']) == 0\n"
            "assert 'orjson' not in sys.modules\n"
            "assert main(['eval', '--data', 'd.jsonl', '--hyp', 'd.jsonl', '--out', 'ev']) == 0\n"
            "assert 'orjson' in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr


# Replacements for a config value: one of each JSON type, an integer beyond any float, and the non-finite floats.
SWAPS = (1.5, 1, 10**400, "x", True, None, [], {}, float("nan"), float("inf"), float("-inf"))


def _kind(value):
    return repr(value) if isinstance(value, float) and not math.isfinite(value) else type(value)


def _paths(doc, path=()):
    """Every path into the JSON value ``doc``, itself included, as keys and indices."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# Values of a key's own type but out of its range: each is refused by the config, or (a max_len
# below the longest day) by the data.
GEN_OUT_OF_RANGE = {"seed": st.integers(-3, -1), "n_days": st.integers(-3, 0),
                    "p_remove": st.floats(1.0, 2.0, exclude_min=True) | st.floats(-1.0, 0.0, exclude_max=True)}
TRAIN_OUT_OF_RANGE = {
    "max_len": st.integers(1, 3), "d_m": st.integers(-2, 0), "n_heads": st.integers(-2, 0),
    "d_attn": st.integers(-2, 0), "n_layers": st.integers(-2, 0), "dropout": st.floats(1.0, 2.0),
    "max_rounds": st.integers(-3, -1), "lr": st.floats(-1.0, 0.0), "batch_size": st.integers(-2, 0),
    "epochs": st.integers(-3, -1), "seed": st.integers(-3, -1), "checkpoint_interval": st.integers(-3, -1),
}


def _corrupt(draw, doc):
    """``doc`` after one drawn corruption: a value (the whole document included) swapped for one of
    another type or a non-finite float, a key or a list item deleted, or an unknown key added to an
    object."""
    paths = list(_paths(doc))
    kind = draw(st.sampled_from(("swap", "delete", "unknown")))
    if kind == "unknown":
        objects = [p for p in paths if isinstance(_at(doc, p), dict)]
        if objects:
            _at(doc, draw(st.sampled_from(objects)))["bogus"] = 1
        return doc
    path = draw(st.sampled_from(paths))
    if kind == "swap":
        old = _at(doc, path)
        new = copy.deepcopy(draw(st.sampled_from([v for v in SWAPS if _kind(v) != _kind(old)])))
        if not path:
            return new
        _at(doc, path[:-1])[path[-1]] = new
    elif path:
        del _at(doc, path[:-1])[path[-1]]
    return doc


@st.composite
def corrupted_config_texts(draw, base: dict, out_of_range: dict) -> tuple[str, bool]:
    """``base`` as JSON text after one to three drawn corruptions (``_corrupt``), and sometimes cut
    short, and whether the text must be refused.

    Or, after up to three corruptions, a key of ``out_of_range`` is set to a value its strategy
    there draws; the text must then be refused.
    """
    doc = copy.deepcopy(base)
    refused = draw(st.booleans())
    for _ in range(draw(st.integers(0 if refused else 1, 3))):
        doc = _corrupt(draw, doc)
    refused = refused and isinstance(doc, dict)
    if refused:
        key = draw(st.sampled_from(sorted(out_of_range)))
        doc[key] = draw(out_of_range[key])
    text = json.dumps(doc)  # writes NaN, Infinity and -Infinity as Python's json module reads them
    return (text[: draw(st.integers(0, len(text) - 1))] if draw(st.integers(0, 4)) == 0 else text), refused


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_runs_or_refuses_naming(argv, refused, *prefixes) -> str:
    """``main(argv)`` exits 0 quietly (unless ``refused``), or 2 with one stderr line that starts
    with one of ``prefixes``; nothing escapes it. Returns what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(*argv)
    err = err.getvalue()
    if code == 0 and not refused:
        assert err == ""
    else:
        assert code == 2 and err.count("\n") == 1 and err.startswith(prefixes) and "Traceback" not in err, (code, err)
    return err


class TestCorruptedConfigs:
    """A corrupted ``--config`` file either still runs or is refused in one line naming it.

    Flags pin every size a drawn value could otherwise make large.
    """

    @settings(max_examples=300, deadline=None)
    @given(drawn=corrupted_config_texts({**asdict(default_config()), "n_days": 4}, GEN_OUT_OF_RANGE))
    def test_gen(self, fuzz_dir, drawn):
        text, refused = drawn
        cfg_path = fuzz_dir / "gen.json"
        cfg_path.write_text(text)
        assert_runs_or_refuses_naming(["gen", "--out", fuzz_dir / "d.jsonl", "--config", cfg_path, "--n-days", 4],
                                      refused, f"gen: {cfg_path}: ")

    TRAIN_BASE = {**asdict(ModelConfig(d_m=8, n_heads=2, d_attn=4, d_val=4, n_layers=1)),
                  **asdict(TrainConfig(batch_size=16, epochs=1))}

    @settings(max_examples=150, deadline=None)
    @given(drawn=corrupted_config_texts(TRAIN_BASE, TRAIN_OUT_OF_RANGE))
    @example(drawn=(json.dumps({**TRAIN_BASE, "max_len": 3}), True))  # the data's first day holds 4 activities
    def test_train(self, small_run, fuzz_dir, drawn):
        """A file value is refused naming the file, even one a flag overrides; a max_len the data's
        days exceed, naming the data file."""
        text, refused = drawn
        cfg_path = fuzz_dir / "train.json"
        cfg_path.write_text(text)
        assert_runs_or_refuses_naming(["train", "--data", small_run["data"], "--out", fuzz_dir / "m.ckpt",
                                       "--config", cfg_path, "--epochs", 1, "--batch-size", 16, "--d-m", 8,
                                       "--n-layers", 1], refused, f"train: {cfg_path}: ",
                                      f"train: {small_run['data']}: sample ")


# Values of a data record's codes out of their range, for an observed and an unobserved activity
# alike, and of its removed positions out of every day's.
CODE_OUT_OF_RANGE = {
    "weekday": st.integers(-2, 0) | st.integers(8, 10),
    "holiday": st.integers(-2, -1) | st.integers(2, 4),
    "static": st.integers(-2, 0) | st.integers(N_STATIC_LEVELS + 1, N_STATIC_LEVELS + 3),
    "removed_positions": st.integers(-3, -1) | st.integers(100, 103),
    "arr": st.integers(-3, -1) | st.integers(N_TIME_BINS + 1, N_TIME_BINS + 3),
    "dep": st.integers(-3, -1) | st.integers(N_TIME_BINS + 1, N_TIME_BINS + 3),
    "mode": st.integers(-3, -1) | st.integers(N_MODES + 1, N_MODES + 3),
}


def _code_paths(doc) -> list:
    """(path, ``CODE_OUT_OF_RANGE`` key) of each code and removed position a data record holds."""
    return [(p, p[-1] if len(p) != 2 else p[0]) for p in _paths(doc)
            if (len(p) == 1 and p[0] in ("weekday", "holiday"))
            or (len(p) == 2 and p[0] in ("static", "removed_positions") and type(p[1]) is int)
            or (len(p) == 3 and p[0] == "activities" and p[2] in ("arr", "dep", "mode"))]


@st.composite
def corrupted_data_lines(draw, base: dict) -> tuple[str, bool]:
    """The data record ``base`` as a JSON line after up to three drawn corruptions (``_corrupt``),
    or after at most one and then a code or a removed position set out of its range, and sometimes
    cut short; and whether the line must be refused. A cut keeps one character at least, as a blank
    line is skipped."""
    doc = copy.deepcopy(base)
    refused = draw(st.booleans())
    for _ in range(draw(st.integers(0, 1 if refused else 3))):
        doc = _corrupt(draw, doc)
    codes = _code_paths(doc)
    refused = refused and bool(codes)
    if refused:
        path, key = draw(st.sampled_from(codes))
        _at(doc, path[:-1])[path[-1]] = draw(CODE_OUT_OF_RANGE[key])
    text = json.dumps(doc)  # writes NaN, Infinity and -Infinity as Python's json module reads them
    if len(text) > 1 and draw(st.integers(0, 4)) == 0:
        return text[: draw(st.integers(1, len(text) - 1))], True
    return text, refused


class TestCorruptedDataLines:
    """A data file whose line 2 is corrupted either still runs or is refused in one line naming the
    file and line 2: by ``eval``, which reads it as samples and as hypotheses, by ``recover``, by
    ``train`` and by ``compare``, which reads it in turn as its samples and as either hypothesis set."""

    @pytest.fixture(scope="class")
    def three_lines(self, fuzz_dir):
        data = fuzz_dir / "three.jsonl"
        assert run("gen", "--out", data, "--seed", 3, "--n-days", 3) == 0
        return data.read_text().splitlines()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_eval_and_recover(self, small_run, fuzz_dir, three_lines, data):
        text, refused = data.draw(corrupted_data_lines(json.loads(three_lines[1])), label="line 2")
        path = fuzz_dir / "line2.jsonl"
        path.write_text("\n".join([three_lines[0], text, three_lines[2]]) + "\n")
        for argv in (["eval", "--data", path, "--hyp", path, "--out", fuzz_dir / "ev"],
                     ["recover", "--checkpoint", small_run["ckpt"], "--data", path, "--out", fuzz_dir / "h.jsonl"]):
            err = assert_runs_or_refuses_naming(argv, refused, f"{argv[0]}: {path}: ")
            assert err == "" or re.search(r"\bline 2\b", err), err

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_compare_and_train(self, fuzz_dir, three_lines, data):
        """A corrupted hypothesis line that still parses may no longer hold its input: the refusal
        then names sample 1, the day on line 2."""
        text, refused = data.draw(corrupted_data_lines(json.loads(three_lines[1])), label="line 2")
        good, path = fuzz_dir / "good.jsonl", fuzz_dir / "line2.jsonl"
        good.write_text("\n".join(three_lines) + "\n")
        path.write_text("\n".join([three_lines[0], text, three_lines[2]]) + "\n")
        runs = [(["train", "--data", path, "--out", fuzz_dir / "m.ckpt", *TINY_TRAIN], refused)]
        for flag in ("--data", "--hyp-a", "--hyp-b"):
            files = {"--data": good, "--hyp-a": good, "--hyp-b": good, flag: path}
            # a hypothesis file reads no removed positions, so a line refused as a sample may pass as one
            runs.append((["compare", *[x for pair in files.items() for x in pair], "--out", fuzz_dir / "cmp.json"],
                         refused and flag == "--data"))
        for argv, must_refuse in runs:
            err = assert_runs_or_refuses_naming(argv, must_refuse, f"{argv[0]}: {path}: ")
            assert err == "" or re.search(r"\bline 2\b|: sample 1: ", err), err
