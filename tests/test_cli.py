import csv
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import bce_continuation, read_epoch_csv, read_reliability_csv

import capeseg
import capeseg.cli as cli_module
from capeseg import pipeline
from capeseg.cli import main
from capeseg.cli import configfile, storage, svg
from capeseg.fieldgen import FieldConfig, generate_dataset
from capeseg.model import init_params
from capeseg.numerics import NumericError, Rng
from capeseg.pipeline import (
    kfold_rotation,
    split_kfold,
    train_warmup,
)


def poke_dataset(src, dst, field, value):
    """Copy a dataset file with one float32 of sample 0's inputs or true_p replaced."""
    ds = storage.read_dataset(src)
    c, h, w = ds.shape
    offset = storage._HEADER.size + (0 if field == "inputs" else 4 * c * h * w + h * w)
    data = bytearray(src.read_bytes())
    data[offset : offset + 4] = np.float32(value).tobytes()
    dst.write_bytes(bytes(data))
    return dst


def write_mismatched_checkpoint(path):
    """Checkpoint whose conv2 fan-in (6) disagrees with conv1's 4 filters."""
    blocks = {
        "conv1_w": np.zeros((4, 3, 3, 3)),
        "conv1_b": np.zeros(4),
        "conv2_w": np.zeros((1, 6, 3, 3)),
        "conv2_b": np.zeros(1),
    }
    storage.write_checkpoint(path, SimpleNamespace(blocks=blocks))
    return path


def csv_rows(path):
    """Data rows of a CSV file, header dropped."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def replace_fails_after(monkeypatch, n, exc=None):
    """Let the next n os.replace calls through; raise `exc` on every later one."""
    real_replace = os.replace
    calls = []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) > n:
            raise exc or OSError(28, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(storage.os, "replace", replace)


def write_config(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()), encoding="utf-8")
    return str(path)


GEN_SMALL = dict(
    height=16, width=16, channels=3, length_scale=2.0, target_rate=0.2,
    obs_noise=0.8, seed=21, n_samples=24,
)
TRAIN_SMALL = dict(
    lr=0.005, max_epochs=3, patience=1, batch_size=8, bins=10,
    folds=3, cape_epochs_override=2, hidden_channels=4, seed=13,
)


def train_small_config():
    """TRAIN_SMALL as `train` reads it from its config file."""
    text = {k: str(v) for k, v in TRAIN_SMALL.items()}
    return configfile.train_config_from(configfile.coerce(text, configfile.TRAIN_KEYS))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    cfg = write_config(tmp / "gen.cfg", **GEN_SMALL)
    out = tmp / "gen_out"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestConfigFile:
    def test_parse_and_defaults(self):
        raw = configfile.parse_kv_text("target_rate = 0.3\nn_samples = 5\n# comment\n")
        cfg = configfile.coerce(raw, configfile.GENERATE_SCHEMA)
        assert cfg["target_rate"] == 0.3
        assert cfg["height"] == 32  # default

    def test_unknown_key_rejected(self):
        raw = {"target_rate": "0.3", "n_samples": "5", "tarrget_rate": "0.4"}
        with pytest.raises(configfile.ConfigError, match="tarrget_rate"):
            configfile.coerce(raw, configfile.GENERATE_SCHEMA)

    def test_missing_required_rejected(self):
        with pytest.raises(configfile.ConfigError, match="n_samples"):
            configfile.coerce({"target_rate": "0.3"}, configfile.GENERATE_SCHEMA)

    def test_bad_value_names_key(self):
        raw = {"target_rate": "zero", "n_samples": "5"}
        with pytest.raises(configfile.ConfigError, match="target_rate"):
            configfile.coerce(raw, configfile.GENERATE_SCHEMA)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key, text, schema",
        [
            ("obs_noise", "{}", configfile.SWEEP_SCHEMA),
            ("lr", "{}", configfile.TRAIN_KEYS),
            ("rates", "0.1, {}, 0.3", configfile.SWEEP_SCHEMA),
        ],
        ids=["obs_noise", "lr", "rates"],
    )
    def test_non_finite_number_names_key(self, key, text, schema, value):
        with pytest.raises(configfile.ConfigError, match=f"{key}.*non-finite"):
            configfile.coerce({key: text.format(value)}, schema)

    def test_duplicate_key_reports_line(self):
        with pytest.raises(configfile.ConfigError, match=":2"):
            configfile.parse_kv_text("a = 1\na = 2\n")

    def test_malformed_line_reports_line(self):
        with pytest.raises(configfile.ConfigError, match=":3"):
            configfile.parse_kv_text("a = 1\n\nnot a pair\n")

    def test_list_values(self):
        raw = {"rates": "0.1, 0.2,0.3", "sizes": "10,20"}
        cfg = configfile.coerce(raw, configfile.SWEEP_SCHEMA)
        assert cfg["rates"] == [0.1, 0.2, 0.3]
        assert cfg["sizes"] == [10, 20]

    def test_sweep_grid_defaults(self):
        cfg = configfile.coerce({}, configfile.SWEEP_SCHEMA)
        assert cfg["rates"] == [0.011, 0.032, 0.07, 0.14, 0.30, 0.46]
        assert cfg["sizes"] == [200, 600, 1500]

    def test_lambda_maps_to_cal_weight(self):
        cfg = configfile.coerce({"lambda": "0.25"}, configfile.TRAIN_KEYS)
        tc = configfile.train_config_from(cfg)
        assert tc.cal_weight == 0.25


class TestDatasetRoundTrip:
    def test_roundtrip_preserves_outcomes_and_f32_floats(self, tmp_path):
        cfg = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3, seed=5)
        ds = generate_dataset(cfg, 3)
        path = tmp_path / "d.bin"
        storage.write_dataset(path, ds)
        back = storage.read_dataset(path)
        assert len(back) == 3
        assert np.array_equal(ds.outcomes, back.outcomes)
        assert np.array_equal(back.inputs, ds.inputs.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.true_p, ds.true_p.astype(np.float32).astype(np.float64))

    def test_header_echoes_shape(self, tmp_path):
        cfg = FieldConfig(height=8, width=10, channels=2, length_scale=1.0, target_rate=0.3, seed=5)
        ds = generate_dataset(cfg, 2)
        path = tmp_path / "d.bin"
        storage.write_dataset(path, ds)
        back = storage.read_dataset(path)
        assert back.shape == (2, 8, 10)
        assert back.has_true_p

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(storage.FormatError, match="magic"):
            storage.read_dataset(path)

    def test_truncated_body_rejected(self, tmp_path):
        cfg = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3, seed=5)
        ds = generate_dataset(cfg, 2)
        path = tmp_path / "d.bin"
        storage.write_dataset(path, ds)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(storage.FormatError, match="bytes"):
            storage.read_dataset(path)

    def test_unsupported_version_rejected(self, tmp_path):
        cfg = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3, seed=5)
        ds = generate_dataset(cfg, 1)
        path = tmp_path / "d.bin"
        storage.write_dataset(path, ds)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(data))
        with pytest.raises(storage.FormatError, match="version"):
            storage.read_dataset(path)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("inputs", np.nan, "non-finite inputs"),
            ("inputs", -np.inf, "non-finite inputs"),
            ("true_p", np.nan, r"true_p outside \[0, 1\]"),
            ("true_p", 1.5, r"true_p outside \[0, 1\]"),
            ("true_p", -0.25, r"true_p outside \[0, 1\]"),
        ],
    )
    def test_bad_values_rejected(self, tmp_path, field, value, match):
        cfg = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3, seed=5)
        path = tmp_path / "d.bin"
        storage.write_dataset(path, generate_dataset(cfg, 2))
        poke_dataset(path, path, field, value)
        with pytest.raises(storage.FormatError, match=f"sample 0 has {match}"):
            storage.read_dataset(path)

    @pytest.mark.parametrize(
        "counts,match", [((0, 3, 8, 8), "empty"), ((1, 3, 70000, 70000), "implausible")]
    )
    def test_bad_header_counts_rejected(self, tmp_path, counts, match):
        path = tmp_path / "d.bin"
        path.write_bytes(
            storage._HEADER.pack(storage.DATASET_MAGIC, storage.DATASET_VERSION, *counts, 0)
        )
        with pytest.raises(storage.FormatError, match=match):
            storage.read_dataset(path)


class TestCheckpointRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        params = init_params(3, 8, Rng(2))
        path = tmp_path / "m.ckpt"
        storage.write_checkpoint(path, params)
        back = storage.read_checkpoint(path)
        assert np.array_equal(back.flat, params.flat)
        assert back.conv1_w.shape == params.conv1_w.shape

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"WRONG!!!" + b"\x00" * 16)
        with pytest.raises(storage.FormatError, match="magic"):
            storage.read_checkpoint(path)

    def test_inconsistent_block_shapes_rejected(self, tmp_path):
        path = write_mismatched_checkpoint(tmp_path / "m.ckpt")
        with pytest.raises(storage.FormatError, match="conv2_w has shape"):
            storage.read_checkpoint(path)

    def test_unknown_block_rejected(self, tmp_path):
        blocks = {**init_params(3, 4, Rng(2)).blocks, "conv3_w": np.zeros(5)}
        path = tmp_path / "m.ckpt"
        storage.write_checkpoint(path, SimpleNamespace(blocks=blocks))
        with pytest.raises(storage.FormatError, match="unknown parameter blocks: conv3_w"):
            storage.read_checkpoint(path)

    def test_non_finite_block_rejected(self, tmp_path):
        params = init_params(3, 4, Rng(2))
        params.conv1_b[1] = np.nan
        path = tmp_path / "m.ckpt"
        storage.write_checkpoint(path, params)
        with pytest.raises(storage.FormatError, match="non-finite values in block conv1_b"):
            storage.read_checkpoint(path)


class TestWritePath:
    def test_written_describes_the_published_file(self, tmp_path):
        written = storage.publish(tmp_path / "new" / "f.bin", [b"abc", memoryview(b"de")])
        assert os.fspath(written) == str(tmp_path / "new" / "f.bin")
        assert os.path.getsize(written) == written.bytes == 5
        assert written.sha256 == hashlib.sha256(b"abcde").hexdigest()
        assert os.listdir(tmp_path / "new") == ["f.bin"]

    def test_replacing_an_output_removes_the_stale_manifest(self, tmp_path):
        storage.publish(tmp_path / "manifest.json", [b"{}"])
        storage.publish(tmp_path / "f.bin", [b"abc"])
        assert os.listdir(tmp_path) == ["f.bin"]

    @pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()])
    def test_failure_while_writing_keeps_old_files_and_no_temporary(self, tmp_path, exc):
        target = tmp_path / "f.bin"
        target.write_bytes(b"old")
        (tmp_path / "manifest.json").write_bytes(b"{}")

        def chunks():
            yield b"new"
            raise exc

        with pytest.raises(type(exc)):
            storage.publish(target, chunks())
        assert sorted(os.listdir(tmp_path)) == ["f.bin", "manifest.json"]
        assert target.read_bytes() == b"old"

    def test_failed_rename_leaves_no_file(self, tmp_path, monkeypatch):
        replace_fails_after(monkeypatch, 0, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            storage.publish(tmp_path / "f.bin", [b"abc"])
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("outputs", ["dataset_dir", "trained", "swept"])
    def test_out_holds_exactly_the_manifest_listing(self, request, outputs):
        out = request.getfixturevalue(outputs)
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.listdir(out)) == sorted(
            [e["path"] for e in manifest["outputs"]] + ["manifest.json"]
        )
        for entry in manifest["outputs"]:
            data = (out / entry["path"]).read_bytes()
            assert (len(data), hashlib.sha256(data).hexdigest()) == (
                entry["bytes"], entry["sha256"]
            )

    def test_force_replaces_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "gen.cfg", **{**GEN_SMALL, "n_samples": 6})
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        argv = ["generate", "--config", cfg, "--seed", "99", "--out"]
        assert main([*argv, str(out), "--force"]) == 0
        assert main([*argv, str(fresh)]) == 0
        assert (out / "dataset.bin").read_bytes() == (fresh / "dataset.bin").read_bytes()
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == 99
        assert sorted(os.listdir(out)) == ["dataset.bin", "manifest.json"]

    def test_forced_rerun_failing_partway_leaves_no_manifest(
        self, trained, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        old = {name: (out / name).read_bytes() for name in ("bce_arm.ckpt", "cape_arm.ckpt")}
        cfg = write_config(tmp_path / "train.cfg", **TRAIN_SMALL)
        replace_fails_after(monkeypatch, 1)  # bce_arm.ckpt lands, cape_arm.ckpt does not
        assert main([
            "train", "--config", cfg, "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(out), "--force", "--seed", "14",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No space" in err and err.count("\n") == 1
        assert sorted(os.listdir(out)) == ["bce_arm.ckpt", "cape_arm.ckpt", "epochs.csv"]
        assert (out / "bce_arm.ckpt").read_bytes() != old["bce_arm.ckpt"]
        assert (out / "cape_arm.ckpt").read_bytes() == old["cape_arm.ckpt"]


class TestGenerate:
    def test_outputs_and_manifest(self, dataset_dir):
        assert (dataset_dir / "dataset.bin").exists()
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        entry = next(e for e in manifest["outputs"] if e["path"] == "dataset.bin")
        data = (dataset_dir / "dataset.bin").read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        ds = storage.read_dataset(dataset_dir / "dataset.bin")
        assert ds.shape == (3, 16, 16)
        assert len(ds) == 24

    def test_refuses_overwrite_without_force(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "gen.cfg", **GEN_SMALL)
        assert main(["generate", "--config", cfg, "--out", str(dataset_dir)]) == 1
        assert main(["generate", "--config", cfg, "--out", str(dataset_dir), "--force"]) == 0

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "gen.cfg", **{**GEN_SMALL, "n_samples": 6})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "dataset.bin").read_bytes() == (out_b / "dataset.bin").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "gen.cfg", **{**GEN_SMALL, "n_samples": 6})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", cfg, "--out", str(out_a), "--seed", "99"]) == 0
        assert main(["generate", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "dataset.bin").read_bytes() != (out_b / "dataset.bin").read_bytes()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "gen.cfg", **{**GEN_SMALL, "n_sample": 6})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_non_finite_config_number_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "gen.cfg", **{**GEN_SMALL, "obs_noise": "nan"})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert "obs_noise" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_kernel_exceeding_field_is_clean_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "gen.cfg", **{**GEN_SMALL, "length_scale": 4.0})
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert "exceeds" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(dataset_dir, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    cfg = write_config(tmp / "train.cfg", **TRAIN_SMALL)
    out = tmp / "run"
    code = main([
        "train", "--config", cfg, "--dataset", str(dataset_dir / "dataset.bin"),
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestTrain:
    def test_checkpoints_and_epoch_csv(self, trained):
        assert (trained / "bce_arm.ckpt").exists()
        assert (trained / "cape_arm.ckpt").exists()
        records = read_epoch_csv(trained / "epochs.csv")
        warmup = [r for r in records if r.phase == "warmup"]
        cape = [r for r in records if r.phase == "cape"]
        assert len(warmup) >= 1
        assert len(cape) == TRAIN_SMALL["cape_epochs_override"]
        assert warmup[0].epoch == 1

    def test_manifest_brackets_the_run_in_utc(self, trained):
        manifest = json.loads((trained / "manifest.json").read_text())
        started = datetime.fromisoformat(manifest["started_utc"])
        finished = datetime.fromisoformat(manifest["finished_utc"])
        assert started.utcoffset() == finished.utcoffset() == timedelta(0)
        assert started < finished

    def test_rerun_identical_csv(self, trained, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", **TRAIN_SMALL)
        out = tmp_path / "rerun"
        code = main([
            "train", "--config", cfg, "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "epochs.csv").read_bytes() == (trained / "epochs.csv").read_bytes()

    def test_lambda_zero_matches_plain_bce_continuation(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", **TRAIN_SMALL)
        out = tmp_path / "lam0"
        code = main([
            "train", "--config", cfg, "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(out), "--lambda", "0",
        ])
        assert code == 0
        records = read_epoch_csv(out / "epochs.csv")
        cape_rows = [r for r in records if r.phase == "cape"]

        # independent reference: plain BCE continuation with the same seeds
        ds = storage.read_dataset(dataset_dir / "dataset.bin")
        tc = train_small_config()
        folds = split_kfold(len(ds), tc.folds, tc.seed)
        train_idx, val_idx, _ = kfold_rotation(folds, 0)
        warm = train_warmup(ds, train_idx, val_idx, tc)
        _, expected = bce_continuation(
            warm.best_params, ds, train_idx, val_idx, tc, warm.stop_epoch
        )
        assert [r.val_loss for r in cape_rows] == [r.val_loss for r in expected]
        assert [r.train_loss for r in cape_rows] == [r.train_loss for r in expected]

    def test_outputs_are_those_of_run_fold(self, trained, dataset_dir, tmp_path):
        """`train` runs rotation 0 of its own split as one sweep fold would."""
        ds = storage.read_dataset(dataset_dir / "dataset.bin")
        tc = train_small_config()
        run = pipeline.run_fold(ds, split_kfold(len(ds), tc.folds, tc.seed), 0, tc)
        written = [
            storage.write_checkpoint(tmp_path / "bce_arm.ckpt", run.warmup.best_params),
            storage.write_checkpoint(tmp_path / "cape_arm.ckpt", run.cape_params),
            storage.write_epoch_csv(tmp_path / "epochs.csv", run.warmup.records + run.cape_records),
        ]
        for w in written:
            assert w.path.read_bytes() == (trained / w.path.name).read_bytes(), w.path.name

    def test_format_error_on_non_dataset(self, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", **TRAIN_SMALL)
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"junkjunkjunk" * 4)
        assert main([
            "train", "--config", cfg, "--dataset", str(bogus), "--out", str(tmp_path / "o"),
        ]) == 2


# Early stopping fires at epoch 8 of 10 (best epoch 7) on the dataset_dir data.
TRAIN_EARLY_STOP = {**TRAIN_SMALL, "lr": 0.05, "max_epochs": 10}
TRAIN_OUTPUTS = ("bce_arm.ckpt", "cape_arm.ckpt", "epochs.csv")


class TestRecordHelper:
    """`train` computes its epoch records on a forked helper process when two
    CPUs are usable, and inline otherwise; its outputs are the same."""

    def run_train(self, dataset_dir, tmp_path, monkeypatch, capsys, cpus, name):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = write_config(tmp_path / "early.cfg", **TRAIN_EARLY_STOP)
        out = tmp_path / name
        code = main([
            "train", "--config", cfg, "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(out),
        ])
        return code, out, capsys.readouterr().out

    def slow_helper_records(self, monkeypatch, die_in=None):
        """Records in the helper take 50 ms (or kill it in phase `die_in`), so
        the warm-up trains the epoch after its stop before it sees the record that
        stops it."""
        parent, real_record = os.getpid(), pipeline._epoch_record

        @functools.wraps(real_record)
        def record(epoch, phase, *args, **kwargs):
            if os.getpid() != parent:
                if phase == die_in:
                    os._exit(1)
                time.sleep(0.05)
            return real_record(epoch, phase, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_epoch_record", record)

    def count_epochs(self, monkeypatch, fail_at=None):
        """Count `_run_epoch` calls; raise NumericError on call `fail_at`."""
        calls, real_run_epoch = [], pipeline._run_epoch

        def run_epoch(*args):
            calls.append(len(calls) + 1)
            if calls[-1] == fail_at:
                raise NumericError("injected non-finite loss")
            return real_run_epoch(*args)

        monkeypatch.setattr(pipeline, "_run_epoch", run_epoch)
        return calls

    def test_helper_and_inline_outputs_are_byte_identical(
        self, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        self.slow_helper_records(monkeypatch)
        calls = self.count_epochs(monkeypatch)
        inline = self.run_train(dataset_dir, tmp_path, monkeypatch, capsys, 1, "inline")
        inline_epochs = len(calls)
        helper = self.run_train(dataset_dir, tmp_path, monkeypatch, capsys, 2, "helper")
        assert inline[0] == helper[0] == 0
        assert "stopped at epoch 8 (best epoch 7)" in inline[2]
        assert helper[2] == inline[2]
        for name in TRAIN_OUTPUTS:
            assert (helper[1] / name).read_bytes() == (inline[1] / name).read_bytes(), name
        assert len(calls) - inline_epochs == inline_epochs + 1  # epoch 9 ran, then was dropped

    def test_failure_of_the_dropped_epoch_is_discarded(
        self, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        inline = self.run_train(dataset_dir, tmp_path, monkeypatch, capsys, 1, "inline")
        self.slow_helper_records(monkeypatch)
        self.count_epochs(monkeypatch, fail_at=9)  # the epoch after the stop at 8
        helper = self.run_train(dataset_dir, tmp_path, monkeypatch, capsys, 2, "helper")
        assert helper[0] == 0
        assert helper[2] == inline[2]
        for name in TRAIN_OUTPUTS:
            assert (helper[1] / name).read_bytes() == (inline[1] / name).read_bytes(), name

    @pytest.mark.parametrize("fail_at", [1, 8])
    def test_failure_of_a_judged_epoch_exits_3(
        self, dataset_dir, tmp_path, monkeypatch, capsys, fail_at
    ):
        self.slow_helper_records(monkeypatch)
        self.count_epochs(monkeypatch, fail_at=fail_at)
        code, out, _ = self.run_train(dataset_dir, tmp_path, monkeypatch, capsys, 2, "helper")
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("phase", [pipeline.WARMUP_PHASE, pipeline.CAPE_PHASE])
    def test_dead_helper_gives_the_inline_outputs(
        self, dataset_dir, tmp_path, monkeypatch, capsys, phase
    ):
        inline = self.run_train(dataset_dir, tmp_path, monkeypatch, capsys, 1, "inline")
        self.slow_helper_records(monkeypatch, die_in=phase)
        calls = self.count_epochs(monkeypatch)
        helper = self.run_train(dataset_dir, tmp_path, monkeypatch, capsys, 2, "helper")
        assert helper[0] == 0
        assert helper[2] == inline[2]
        for name in TRAIN_OUTPUTS:
            assert (helper[1] / name).read_bytes() == (inline[1] / name).read_bytes(), name
        assert len(calls) > 8 + 2  # the fold ran until the helper died, then again inline

    def test_failed_cape_arm_score_leaves_no_out(
        self, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        """Both arms are scored before the first write."""
        calls, real_evaluate = [], pipeline.evaluate_predictions

        def evaluate_predictions(*args, **kwargs):
            calls.append(len(calls) + 1)
            if calls[-1] == 2:  # the bce arm is scored first
                raise NumericError("injected non-finite metric")
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "evaluate_predictions", evaluate_predictions)
        code, out, _ = self.run_train(dataset_dir, tmp_path, monkeypatch, capsys, 1, "inline")
        assert (code, calls) == (3, [1, 2])
        assert not out.exists()


class TestEvaluate:
    def test_reliability_counts_sum_to_pixels(self, dataset_dir, tmp_path):
        out = tmp_path / "ev"
        code = main([
            "evaluate", "--oracle", "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(out), "--bins", "10",
        ])
        assert code == 0
        rows = read_reliability_csv(out / "reliability.csv")
        assert len(rows) == 10
        assert sum(r["count"] for r in rows) == 24 * 16 * 16
        metrics = dict(
            line.split(",") for line in
            (out / "metrics.csv").read_text().strip().splitlines()[1:]
        )
        assert float(metrics["ece"]) < 0.05  # oracle on a small set

    def test_checkpoint_evaluation(self, dataset_dir, tmp_path):
        params = init_params(3, 4, Rng(8))
        ckpt = tmp_path / "m.ckpt"
        storage.write_checkpoint(ckpt, params)
        out = tmp_path / "ev"
        code = main([
            "evaluate", "--checkpoint", str(ckpt), "--dataset",
            str(dataset_dir / "dataset.bin"), "--out", str(out),
        ])
        assert code == 0
        assert (out / "metrics.csv").exists()

    def test_shape_mismatch_is_format_error(self, dataset_dir, tmp_path):
        params = init_params(5, 4, Rng(8))  # dataset has 3 channels
        ckpt = tmp_path / "m.ckpt"
        storage.write_checkpoint(ckpt, params)
        assert main([
            "evaluate", "--checkpoint", str(ckpt), "--dataset",
            str(dataset_dir / "dataset.bin"), "--out", str(tmp_path / "ev"),
        ]) == 2

    def test_missing_checkpoint_is_usage_error(self, dataset_dir, tmp_path):
        assert main([
            "evaluate", "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(tmp_path / "ev"),
        ]) == 1

    def test_train_vs_other_dataset_differ(self, dataset_dir, tmp_path):
        params = init_params(3, 4, Rng(8))
        ckpt = tmp_path / "m.ckpt"
        storage.write_checkpoint(ckpt, params)
        other_cfg = write_config(
            tmp_path / "gen.cfg", **{**GEN_SMALL, "seed": 777, "n_samples": 12}
        )
        other = tmp_path / "other"
        assert main(["generate", "--config", other_cfg, "--out", str(other)]) == 0
        out_a, out_b = tmp_path / "eva", tmp_path / "evb"
        for out, data in ((out_a, dataset_dir), (out_b, other)):
            assert main([
                "evaluate", "--checkpoint", str(ckpt), "--dataset",
                str(data / "dataset.bin"), "--out", str(out),
            ]) == 0
        assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()


SWEEP_SMALL = dict(
    height=16, width=16, channels=3, length_scale=2.0, obs_noise=0.8,
    rates="0.2", sizes="18", lr=0.005, max_epochs=3, patience=1, batch_size=8,
    bins=8, folds=3, cape_epochs_override=2, hidden_channels=4, seed=23,
)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = write_config(tmp / "sweep.cfg", **SWEEP_SMALL)
    out = tmp / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestSweep:
    def test_row_count_one_cell(self, swept):
        lines = (swept / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(storage.SWEEP_CSV_HEADER)
        assert len(lines) - 1 == 3 * 2  # folds x arms

    def test_charts_are_wellformed_svg_with_expected_series(self, swept):
        for name in ("ece_vs_rate.svg", "kl_vs_rate.svg"):
            root = ET.fromstring((swept / name).read_text())
            assert root.tag.endswith("svg")
            polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
            assert len(polylines) == 2  # 2 arms x 1 dataset size
            dashes = [p.get("stroke-dasharray") for p in polylines]
            assert sum(d is not None for d in dashes) == 1  # one dashed (early stop)

    def test_partial_failure_exit_code_and_marker(self, tmp_path):
        cfg = write_config(
            tmp_path / "sweep.cfg", **{**SWEEP_SMALL, "sizes": "2,18"}
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 4
        assert (out / "failures.csv").exists()
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 3 * 2  # only the healthy cell contributes rows

    def test_forced_rerun_removes_outputs_it_did_not_write(self, tmp_path):
        out = tmp_path / "out"
        for sizes, force, code in (("2,18", [], 4), ("18", ["--force"], 0)):
            cfg = write_config(tmp_path / "sweep.cfg", **{**SWEEP_SMALL, "sizes": sizes})
            assert main(["sweep", "--config", cfg, "--out", str(out), *force]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.listdir(out)) == sorted(
            [e["path"] for e in manifest["outputs"]] + ["manifest.json"]
        )
        assert not (out / "failures.csv").exists()

    def test_threads_flag_gives_identical_csv(self, swept, tmp_path):
        cfg = write_config(tmp_path / "sweep.cfg", **SWEEP_SMALL)
        out = tmp_path / "threaded"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
        assert (out / "sweep.csv").read_bytes() == (swept / "sweep.csv").read_bytes()

    def test_two_cell_pool_gives_identical_csv(self, tmp_path):
        # two sizes, so the pool gets the cells out of grid order (largest first)
        cfg = write_config(
            tmp_path / "sweep.cfg", **{**SWEEP_SMALL, "rates": "0.2,0.3", "sizes": "9,18"}
        )
        outs = [tmp_path / f"t{threads}" for threads in (1, 2)]
        for out, threads in zip(outs, ("1", "2")):
            assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
        assert len((outs[0] / "sweep.csv").read_text().strip().splitlines()) - 1 == 4 * 3 * 2

    def test_dead_worker_fails_its_cell_and_keeps_finished_ones(
        self, swept, tmp_path, monkeypatch
    ):
        """A worker killed mid-sweep (as by the OOM killer) fails the cells it
        left unfinished; cells that finished before still reach sweep.csv."""
        healthy_done = tmp_path / "healthy-done"
        real_run_fold = pipeline.run_fold

        def run_fold(dataset, folds, rotation, config):
            result = real_run_fold(dataset, folds, rotation, config)
            if rotation == SWEEP_SMALL["folds"] - 1:
                healthy_done.touch()
            return result

        def generate_or_die(cfg, n_samples):
            if cfg.target_rate != 0.3:
                return generate_dataset(cfg, n_samples)
            deadline = time.monotonic() + 120
            while not healthy_done.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.5)  # lets the finished cell's result reach the parent
            os._exit(1)

        monkeypatch.setattr(pipeline, "run_fold", run_fold)
        monkeypatch.setattr(pipeline, "generate_dataset", generate_or_die)
        cfg = write_config(tmp_path / "sweep.cfg", **{**SWEEP_SMALL, "rates": "0.2,0.3"})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 4
        # the rate-0.2 cell is grid cell 0, as in the one-cell sweep, so its rows match
        assert (out / "sweep.csv").read_bytes() == (swept / "sweep.csv").read_bytes()
        for name in ("ece_vs_rate.svg", "kl_vs_rate.svg", "manifest.json"):
            assert (out / name).is_file()
        failures = csv_rows(out / "failures.csv")
        assert [row[:2] for row in failures] == [["0.3", "18"]]
        assert "BrokenProcessPool" in failures[0][2]


class TestPlot:
    def test_learning_curves_from_epoch_csv(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", **TRAIN_SMALL)
        run = tmp_path / "run"
        assert main([
            "train", "--config", cfg, "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(run),
        ]) == 0
        out = tmp_path / "plots"
        assert main(["plot", "--input", str(run / "epochs.csv"), "--out", str(out)]) == 0
        root = ET.fromstring((out / "learning_curves.svg").read_text())
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 8  # 4 metrics x (raw + smoothed)

    def test_reliability_diagram_points(self, tmp_path):
        # reliability rows from the 4-element worked example
        from capeseg.calibration import bin_assignment, build_bins

        preds = [0.1, 0.2, 0.3, 0.4]
        table = build_bins(preds, [0, 0, 1, 1], bin_assignment(preds, 2))
        rel = tmp_path / "reliability.csv"
        storage.write_reliability_csv(rel, table)
        out = tmp_path / "plots"
        assert main(["plot", "--input", str(rel), "--out", str(out)]) == 0
        root = ET.fromstring((out / "reliability.svg").read_text())
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f".//{ns}circle")
        assert len(circles) == 2
        # unit square maps linearly onto the plot area
        def px(x):
            return svg.PLOT_LEFT + x * (svg.PLOT_RIGHT - svg.PLOT_LEFT)

        def py(y):
            return svg.PLOT_BOTTOM - y * (svg.PLOT_BOTTOM - svg.PLOT_TOP)

        got = sorted((float(c.get("cx")), float(c.get("cy"))) for c in circles)
        expected = sorted([(px(0.15), py(0.0)), (px(0.35), py(1.0))])
        for (gx, gy), (ex, ey) in zip(got, expected):
            assert abs(gx - ex) < 0.01 and abs(gy - ey) < 0.01

    def test_moving_average_of_constant(self):
        assert svg.moving_average([2.5] * 7, 3) == [2.5] * 7

    @pytest.mark.parametrize(
        "header, row",
        [
            (b"epoch,phase,train_loss,val_loss,brier,kl", b"1,warmup,{},0.5,0.2,"),
            (b"bin,edge_lo,edge_hi,count,prob_pred,prob_true", b"0,0.0,1.0,4,{},0.5"),
        ],
        ids=["epochs", "reliability"],
    )
    @pytest.mark.parametrize(
        "cell", [b"oops", b"nan", b"inf", b"0.\xff"], ids=["oops", "nan", "inf", "undecodable"]
    )
    def test_malformed_csv_reports_line(self, tmp_path, capsys, header, row, cell):
        bad = tmp_path / "report.csv"
        good = row.replace(b"{}", b"0.25")
        bad.write_bytes(b"\n".join([header, good, row.replace(b"{}", cell), good, b""]))
        out = tmp_path / "p"
        assert main(["plot", "--input", str(bad), "--out", str(out)]) == 2
        assert f"{bad}:3:" in capsys.readouterr().err
        assert not out.exists()

    def test_forced_plot_of_the_other_chart_removes_the_first(self, trained, tmp_path):
        out = tmp_path / "plots"
        assert main(["plot", "--input", str(trained / "epochs.csv"), "--out", str(out)]) == 0
        rel = tmp_path / "reliability.csv"
        rel.write_text("bin,edge_lo,edge_hi,count,prob_pred,prob_true\n0,0.0,1.0,4,0.25,0.5\n")
        assert main(["plot", "--input", str(rel), "--out", str(out)]) == 1
        assert main(["plot", "--input", str(rel), "--out", str(out), "--force"]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "reliability.svg"]

    def test_directory_input_is_format_error(self, tmp_path):
        assert main(["plot", "--input", str(tmp_path), "--out", str(tmp_path / "p")]) == 2

    def test_unrecognized_header_rejected(self, tmp_path):
        bad = tmp_path / "other.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["plot", "--input", str(bad), "--out", str(tmp_path / "p")]) == 2


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_unknown_command_usage(self):
        assert main(["frobnicate"]) == 1

    def test_missing_dataset_file_is_format_error(self, tmp_path):
        cfg = write_config(tmp_path / "t.cfg", **TRAIN_SMALL)
        assert main(["train", "--config", cfg, "--dataset", str(tmp_path / "no.bin"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_nan_dataset_input_is_format_error(self, dataset_dir, tmp_path, capsys):
        bad = poke_dataset(dataset_dir / "dataset.bin", tmp_path / "nan.bin", "inputs", np.nan)
        cfg = write_config(tmp_path / "t.cfg", **TRAIN_SMALL)
        assert main(["train", "--config", cfg, "--dataset", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "non-finite inputs" in capsys.readouterr().err
        assert not (tmp_path / "o" / "bce_arm.ckpt").exists()

    @pytest.mark.parametrize("defect", ["mismatched shapes", "nan bias"])
    def test_bad_checkpoint_is_format_error(self, dataset_dir, tmp_path, defect):
        ckpt = tmp_path / "m.ckpt"
        if defect == "mismatched shapes":
            write_mismatched_checkpoint(ckpt)
        else:
            params = init_params(3, 4, Rng(8))
            params.conv2_b[0] = np.nan
            storage.write_checkpoint(ckpt, params)
        assert main([
            "evaluate", "--checkpoint", str(ckpt), "--dataset",
            str(dataset_dir / "dataset.bin"), "--out", str(tmp_path / "ev"),
        ]) == 2
        assert not (tmp_path / "ev").exists()

    def test_out_path_that_is_a_file_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "gen.cfg", **{**GEN_SMALL, "n_samples": 6})
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["generate", "--config", cfg, "--out", str(taken)]) == 1
        assert taken.read_text() == "not a directory"

    def test_out_below_a_file_is_usage_error_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_generation(*args, **kwargs):
            raise AssertionError("generation started")

        monkeypatch.setattr(cli_module, "generate_dataset", no_generation)
        cfg = write_config(tmp_path / "gen.cfg", **{**GEN_SMALL, "n_samples": 6})
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["generate", "--config", cfg, "--out", str(taken / "sub")]) == 1
        assert f"{taken} exists and is not a directory" in capsys.readouterr().err

    def test_os_error_is_a_one_line_format_error(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "train.cfg", **TRAIN_SMALL)
        unreadable = tmp_path / "dir.bin"
        unreadable.mkdir()  # reading a directory raises IsADirectoryError
        assert main([
            "train", "--config", cfg, "--dataset", str(unreadable), "--out", str(tmp_path / "o"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, tmp_path, threads):
        cfg = write_config(tmp_path / "sweep.cfg", **SWEEP_SMALL)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", threads]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_bins_below_one_is_usage_error(self, dataset_dir, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "train.cfg", **TRAIN_SMALL)
        out = tmp_path / "out"
        argv = [command, *(["--config", cfg] if command == "train" else ["--oracle"])]
        dataset = str(dataset_dir / "dataset.bin")
        assert main([*argv, "--bins", "0", "--dataset", dataset, "--out", str(out)]) == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_bins_fails_before_training(
        self, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        # 24 samples in 3 folds: the smallest fold holds 8 * 16 * 16 = 2048 pixels.
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(pipeline, "_run_epoch", no_training)
        cfg = write_config(tmp_path / "t.cfg", **{**TRAIN_SMALL, "bins": 2049})
        assert main(["train", "--config", cfg, "--dataset", str(dataset_dir / "dataset.bin"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "smallest fold" in capsys.readouterr().err
        assert not (tmp_path / "o" / "epochs.csv").exists()
        assert not (tmp_path / "o").exists()

    def test_too_many_bins_for_smallest_sweep_size_fails_before_any_cell(
        self, tmp_path, monkeypatch, capsys
    ):
        # The 18-sample cell's smallest fold holds 6 * 16 * 16 = 1536 pixels;
        # the 60-sample cell could fill 1537 bins but must not start either.
        def no_cell(task):
            raise AssertionError("a sweep cell started")

        monkeypatch.setattr(pipeline, "_run_cell", no_cell)
        cfg = write_config(
            tmp_path / "sweep.cfg", **{**SWEEP_SMALL, "sizes": "60,18", "bins": 1537}
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "smallest fold" in capsys.readouterr().err
        assert not (tmp_path / "o" / "sweep.csv").exists()
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"rates": "0.2,1.5"}, "target_rate must be in (0, 1)"),
            ({"sizes": "18,0"}, "sweep sizes must be >= 1"),
            ({"rates": ""}, "at least one rate and one size"),
            ({"hidden_channels": 0}, "hidden_channels must be >= 1"),
        ],
    )
    def test_unrunnable_sweep_grid_fails_before_any_cell(
        self, tmp_path, monkeypatch, capsys, grid, message
    ):
        def no_cell(task):
            raise AssertionError("a sweep cell started")

        monkeypatch.setattr(pipeline, "_run_cell", no_cell)
        cfg = write_config(tmp_path / "sweep.cfg", **{**SWEEP_SMALL, **grid})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def run_module(argv, **env):
    """`python -m capeseg argv` in a child process, with `env` added to its environment."""
    src = str(Path(capeseg.__file__).resolve().parent.parent)
    child_env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, "-m", "capeseg", *argv],
        env=child_env, capture_output=True, text=True, timeout=120,
    )


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "argv, code, text",
        [(["--help"], 0, "usage: capeseg"), (["frobnicate"], 1, "invalid choice")],
    )
    def test_python_dash_m_capeseg(self, argv, code, text):
        run = run_module(argv)
        assert run.returncode == code
        assert text in run.stdout + run.stderr


class TestBlasThreadCount:
    def test_train_outputs_identical_for_one_and_two_blas_threads(self, tmp_path):
        """Checkpoints and epochs.csv do not depend on the BLAS thread count.

        At 64x64 with 32 hidden channels every conv matmul (the smallest is
        32x9 @ 9x4096) is large enough that OpenBLAS runs it on two threads
        when allowed to, so this compares real one- and two-thread runs.
        """
        gen = write_config(
            tmp_path / "gen.cfg", **{**GEN_SMALL, "height": 64, "width": 64, "n_samples": 9}
        )
        assert main(["generate", "--config", gen, "--out", str(tmp_path / "data")]) == 0
        cfg = write_config(
            tmp_path / "train.cfg",
            **{**TRAIN_SMALL, "max_epochs": 2, "batch_size": 3, "hidden_channels": 32},
        )
        outs = [tmp_path / f"blas{threads}" for threads in (1, 2)]
        for out, threads in zip(outs, ("1", "2")):
            run = run_module(
                ["train", "--config", cfg, "--dataset", str(tmp_path / "data" / "dataset.bin"),
                 "--out", str(out)],
                OPENBLAS_NUM_THREADS=threads,
            )
            assert run.returncode == 0, run.stderr
        for name in ("bce_arm.ckpt", "cape_arm.ckpt", "epochs.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
