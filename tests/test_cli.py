"""Subcommand contracts: files written, exit codes, determinism."""

import builtins
import errno
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from actrecover.cli import main
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
    _read_container,
    _write_container,
    load_checkpoint,
    save_checkpoint,
)
from actrecover.tensor import NumericError, ShapeError

from helpers import random_sample, random_sequence


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


def default_regimes_with(path, value) -> dict:
    """A ``gen`` config of the default regimes with the entry at ``path`` (keys, then indices) set to ``value``."""
    regimes = default_config().to_json_dict()["regimes"]
    *walk, last = path
    target = regimes
    for key in walk:
        target = target[key]
    target[last] = value
    return {"regimes": regimes}


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
        """The data and summary the ``rng.choice`` sampler wrote for ``gen --seed 0 --n-days 300``."""
        out = tmp_path / "g.jsonl"
        assert run("gen", "--out", out, "--seed", 0, "--n-days", 300) == 0
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, tmp_path / "g.jsonl.summary.json")] == [
            "4a3a91a473aba19a0a37c21831b1990af041614eeee9c8ae95a534e4f1dab0de",
            "86654beeaa98f9ea80c84ff360ba6c3be8635af62bcbfb24a60506d4a7735efb",
        ]

    def test_missing_config_path_exits_2(self, tmp_path):
        assert run("gen", "--out", tmp_path / "x.jsonl", "--config", tmp_path / "nope.json") == 2

    def test_invalid_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        raw = default_config().to_json_dict()
        raw["p_remove"] = 1.7
        cfg_path.write_text(json.dumps(raw))
        assert run("gen", "--out", tmp_path / "x.jsonl", "--config", cfg_path) == 2

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        raw = default_config().to_json_dict()
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
        cfg_path.write_text(json.dumps({"p_remove": 1, "holiday_rate": 0, "n_days": 5}))
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--config", cfg_path) == 0
        echoed = json.loads((tmp_path / "d.jsonl.summary.json").read_text())["config"]
        expected = default_config().to_json_dict()
        expected.update(p_remove=1.0, holiday_rate=0.0, n_days=5)
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
        cfg_path.write_text('{"gap_mean_bins": NaN}')
        assert run("gen", "--out", tmp_path / "d.jsonl", "--config", cfg_path) == 2
        assert capsys.readouterr().err.strip() == f"gen: {cfg_path}: gap_mean_bins must be >= 0"

    @pytest.mark.parametrize("value", [float("inf"), 1e300])  # json writes the first as Infinity
    @pytest.mark.parametrize("key, problem", [("gap_mean_bins", "gap_mean_bins above the Poisson limit"),
                                              ("duration_mean_bins", "duration means must be numbers")])
    def test_poisson_mean_numpy_cannot_draw_exits_2(self, tmp_path, capsys, key, problem, value):
        if key == "duration_mean_bins":
            value = {**default_config().duration_mean_bins, "HomeActivity": value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "d.jsonl"
        assert run("gen", "--out", out, "--n-days", 2, "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gen: {cfg_path}: {problem}") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

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
        "regimes, problem",
        [({"weekday": [1]}, "regime 'weekday' is malformed"), ({"weekday": {"initial": [1]}}, "transition")],
    )
    def test_malformed_regime_exits_2_naming_the_file(self, tmp_path, capsys, regimes, problem):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"regimes": regimes}))
        assert run("gen", "--out", tmp_path / "d.jsonl", "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gen: {cfg_path}: ") and problem in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "raw, problem",
        [
            ({"holiday_rate": 1.5}, "holiday_rate out of [0, 1]: 1.5"),
            ({"n_days": 0}, "seed must be >= 0 and n_days >= 1"),
            ({"p_remove": 2.0}, "p_remove out of [0, 1]: 2.0"),
            ({"duration_mean_bins": {"HomeActivity": 32.0}}, "duration_mean_bins missing labels: ['GoShopping'"),
            ({"regimes": {k: v for k, v in default_config().to_json_dict()["regimes"].items() if k != "holiday"}},
             "regimes must be exactly ('weekday', 'weekend', 'holiday')"),
            (default_regimes_with(("weekday", "initial"), [0.125] * 8),
             "dynamics shapes (8,), (9, 9) are not (9,), (9, 9)"),
            (default_regimes_with(("weekday", "initial", 0), "HomeActivity"), "dynamics are not arrays of numbers"),
            (default_regimes_with(("weekday", "transition", 2, 0), -0.1),
             "dynamics hold negative or missing probabilities"),
            (default_regimes_with(("weekday", "initial"), [2.0] + [0.0] * 8), "initial distribution sums to 2.0, not 1"),
            (default_regimes_with(("weekday", "transition", 4), [0.5] + [0.0] * 8),
             "transition rows [4] do not sum to 1"),
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
        validate = GeneratorConfig.validate
        monkeypatch.setattr(GeneratorConfig, "validate", lambda cfg: calls.append(1) or validate(cfg))
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

    @pytest.mark.parametrize("key, message", [("lr", "learning rate must be positive: nan"),
                                              ("clip_norm", "clip norm must be positive: nan")])
    def test_nan_config_value_exits_2(self, small_run, tmp_path, capsys, key, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"{key}": NaN}}')
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--config", cfg_path) == 2
        assert capsys.readouterr().err.strip() == f"train: {cfg_path}: {message}"
        assert not ckpt.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"lr": Infinity}', "learning rate must be finite: inf"),
        ('{"beta1": 1.0}', "Adam betas must be in [0, 1): beta1=1.0, beta2=0.999"),
        ('{"beta2": -0.5}', "Adam betas must be in [0, 1): beta1=0.9, beta2=-0.5"),
        ('{"eps": 0.0}', "Adam eps must be finite and positive: 0.0"),
        ('{"eps": Infinity}', "Adam eps must be finite and positive: inf"),
        ('{"seed": -3}', "seed and checkpoint_interval must be >= 0: seed=-3, checkpoint_interval=0"),
        ('{"checkpoint_interval": -1}', "seed and checkpoint_interval must be >= 0: seed=0, checkpoint_interval=-1"),
        ('{"n_heads": 64, "d_attn": 128}', "head count times head width is unreasonably large"),
        ('{"dropout": 1.0}', "dropout out of [0, 1): 1.0"),
        ('{"max_len": 0}', "max_rounds must be >= 0 and max_len >= 1"),
        ('{"batch_size": 0}', "batch_size must be >= 1 and epochs >= 0"),
        ('{"epochs": -1}', "batch_size must be >= 1 and epochs >= 0"),
        ('{"roll_in": 1.5}', "roll_in out of [0, 1]: 1.5"),
    ], ids=["lr-inf", "beta1-1", "beta2-neg", "eps-0", "eps-inf", "seed-neg", "interval-neg",
            "head-width", "dropout-1", "max-len-0", "batch-size-0", "epochs-neg", "roll-in-1.5"])
    def test_config_value_training_cannot_run_exits_2(self, small_run, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--data", small_run["data"], "--out", ckpt, "--config", cfg_path) == 2
        assert capsys.readouterr().err == f"train: {cfg_path}: {message}\n"
        assert not ckpt.exists()

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
        assert sorted(manifest) == ["adam_skipped", "config", "format", "params", "step", "train"]

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
        assert err == "train: sample 1: 4 activities exceed max_len=3\n"
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
        assert err.strip() == "recover: sample 1: 40 activities exceed max_len=32"
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
            (lambda rec: rec["activities"][0].update(arr=1.9), "arr, dep and mode must be integers"),
            (lambda rec: rec["activities"][0].update(observed="false"), "observed a boolean"),
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
        (lambda rec: rec.update(person_id="7"),
         "person_id, date, weekday, holiday and static codes must be integers"),
        (lambda rec: rec.update(static=[1, 2, 3, 4.0]),
         "person_id, date, weekday, holiday and static codes must be integers"),
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

    def test_deeply_nested_data_line_exits_2_naming_file_and_line(self, small_run, tmp_path, capsys):
        lines = small_run["data"].read_text().splitlines()
        data = tmp_path / "deep.jsonl"
        data.write_text("\n".join([lines[0], "[" * DEEP + "]" * DEEP, *lines[1:]]) + "\n")
        assert run("eval", "--data", data, "--hyp", small_run["data"], "--out", tmp_path / "m") == 2
        assert capsys.readouterr().err == f"eval: {data}: parse error at line 2: nested too deeply\n"


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
