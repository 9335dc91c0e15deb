import csv
import functools
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import bce_continuation, in_chunks, read_epoch_csv, read_reliability_csv

import capeseg
import capeseg.cli as cli_module
from capeseg import fieldgen, pipeline
from capeseg.cli import build_parser, main
from capeseg.cli import configfile, storage, svg
from capeseg.fieldgen import CHUNK_FIELDS, Dataset, FieldConfig, generate_chunks, generate_dataset
from capeseg.model import ModelParams, init_params
from capeseg.numerics import NumericError, Rng
from capeseg.pipeline import (
    kfold_rotation,
    split_kfold,
    train_warmup,
)


def poke_dataset(src, dst, field, value, sample=0):
    """Copy a dataset file with the first value of `sample`'s `field` replaced."""
    data = bytearray(src.read_bytes())
    _, _, n, c, h, w, flags = storage._HEADER.unpack_from(data)
    dtype = storage._record_dtype(c, h, w, bool(flags & storage.FLAG_TRUE_P))
    np.frombuffer(data, dtype, n, storage._HEADER.size)[field][sample].flat[0] = value
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


def write_blocks(path, blocks):
    """A checkpoint of the (name, array) `blocks`, in any order and with repeats,
    each block encoded by `write_checkpoint`."""
    bodies = []
    for name, block in blocks:
        storage.write_checkpoint(path, SimpleNamespace(blocks={name: block}))
        bodies.append(path.read_bytes()[16:])  # after magic, version and block count
    head = path.read_bytes()[:12]
    path.write_bytes(head + struct.pack("<I", len(blocks)) + b"".join(bodies))
    return path


CKPT_BLOCKS = list(init_params(3, 4, Rng(2)).blocks.items())
CKPT_DEFECTS = {  # defect: (blocks written, edit of the file's bytes)
    "wrong version": (CKPT_BLOCKS, lambda data: data[:8] + struct.pack("<I", 2) + data[12:]),
    "cut inside a block header": (CKPT_BLOCKS, lambda data: data[: data.index(b"conv1_b") + 3]),
    "one trailing byte": (CKPT_BLOCKS, lambda data: data + b"\0"),
    "zero filters": (list(ModelParams(3, 0).blocks.items()), bytes),
    "missing block": (CKPT_BLOCKS[:3], bytes),
    "repeated block": (CKPT_BLOCKS + CKPT_BLOCKS[1:2], bytes),
    "5x5 conv1 kernel": ([("conv1_w", np.zeros((4, 3, 5, 5))), *CKPT_BLOCKS[1:]], bytes),
    "valid blocks in another order": ([CKPT_BLOCKS[i] for i in (0, 2, 1, 3)], bytes),
}


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


# What each command needs besides --out to parse, for reading its declaration.
REQUIRED_ARGS = {
    "generate": ["--config", "c"],
    "train": ["--config", "c", "--dataset", "d"],
    "evaluate": ["--oracle", "--dataset", "d"],
    "sweep": ["--config", "c"],
    "plot": ["--input", "i"],
}


def assert_declared(out):
    """Every output that `out`'s manifest lists is one its command declares."""
    manifest = json.loads((out / "manifest.json").read_text())
    command = manifest["command"]
    args = build_parser().parse_args([command, *REQUIRED_ARGS[command], "--out", "o"])
    assert {e["path"] for e in manifest["outputs"]} <= set(args.outputs)


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
    return configfile.build(pipeline.TrainConfig, configfile.coerce(text, configfile.TRAIN_KEYS))


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

    @pytest.mark.parametrize(
        "key, field, text, value",
        [("lambda", "cal_weight", "0.25", 0.25), ("cape_epochs_override", "cape_epochs", "6", 6)],
    )
    def test_config_key_maps_to_its_field(self, key, field, text, value):
        cfg = configfile.coerce({key: text}, configfile.TRAIN_KEYS)
        tc = configfile.build(pipeline.TrainConfig, cfg)
        assert getattr(tc, field) == value
        # The field's own name is no key: an old config's `cape_epochs`, an
        # epoch budget shared with the warm-up, fails rather than changing meaning.
        with pytest.raises(configfile.ConfigError, match=f"unknown config key.*{field}"):
            configfile.coerce({field: text}, configfile.TRAIN_KEYS)


README_CONFIGS = dict(re.findall(
    r"^cat > (\w+)\.cfg <<EOF\n(.*?)^EOF$",
    (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8"),
    re.MULTILINE | re.DOTALL,
))


@pytest.mark.parametrize(
    "name, schema, config_class",
    [
        ("gen", configfile.GENERATE_SCHEMA, FieldConfig),
        ("train", configfile.TRAIN_KEYS, pipeline.TrainConfig),
        ("early", configfile.TRAIN_KEYS, pipeline.TrainConfig),
        ("sweep", configfile.SWEEP_SCHEMA, pipeline.TrainConfig),
    ],
)
def test_readme_config_is_valid_for_its_command(name, schema, config_class):
    """Each `cat > NAME.cfg` block in README reads under its command's schema,
    so a removed or misspelled key in the documented configs fails here."""
    assert sorted(README_CONFIGS) == ["early", "gen", "sweep", "train"]
    cfg = configfile.coerce(
        configfile.parse_kv_text(README_CONFIGS[name], source=f"README {name}.cfg"), schema
    )
    configfile.build(config_class, cfg)


class TestDatasetRoundTrip:
    def test_roundtrip_preserves_outcomes_and_f32_floats(self, tmp_path):
        cfg = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3, seed=5)
        ds = generate_dataset(cfg, 3)
        path = tmp_path / "d.bin"
        storage.write_dataset(path, in_chunks(ds))
        back = storage.read_dataset(path)
        assert len(back) == 3
        assert np.array_equal(ds.outcomes, back.outcomes)
        assert np.array_equal(back.inputs, ds.inputs.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.true_p, ds.true_p.astype(np.float32).astype(np.float64))

    def test_header_echoes_shape(self, tmp_path):
        cfg = FieldConfig(height=8, width=10, channels=2, length_scale=1.0, target_rate=0.3, seed=5)
        path = tmp_path / "d.bin"
        storage.write_dataset(path, generate_chunks(cfg, 2))
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
        path = tmp_path / "d.bin"
        storage.write_dataset(path, generate_chunks(cfg, 2))
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(storage.FormatError, match="bytes"):
            storage.read_dataset(path)

    def test_unsupported_version_rejected(self, tmp_path):
        cfg = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3, seed=5)
        path = tmp_path / "d.bin"
        storage.write_dataset(path, generate_chunks(cfg, 1))
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
            ("outcomes", 2, "non-binary outcome bytes"),
            ("true_p", np.nan, r"true_p outside \[0, 1\]"),
            ("true_p", 1.5, r"true_p outside \[0, 1\]"),
            ("true_p", -0.25, r"true_p outside \[0, 1\]"),
        ],
    )
    def test_bad_values_rejected(self, tmp_path, field, value, match):
        cfg = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3, seed=5)
        path = tmp_path / "d.bin"
        storage.write_dataset(path, generate_chunks(cfg, 2))
        poke_dataset(path, path, field, value)
        with pytest.raises(storage.FormatError, match=f"sample 0 has {match}"):
            storage.read_dataset(path)

    @pytest.mark.parametrize(
        "counts,match",
        [
            ((0, 3, 8, 8, 0), "empty"),
            ((1, 3, 70000, 70000, 0), "implausible"),
            ((1, 3, 8, 8, storage.FLAG_TRUE_P | 2), "unknown header flags 0x3"),
        ],
    )
    def test_bad_header_counts_rejected(self, tmp_path, counts, match):
        path = tmp_path / "d.bin"
        path.write_bytes(
            storage._HEADER.pack(storage.DATASET_MAGIC, storage.DATASET_VERSION, *counts)
        )
        with pytest.raises(storage.FormatError, match=match):
            storage.read_dataset(path)


class TestDefectPrecedenceAcrossChunks:
    """A non-finite input in sample 0 and a non-binary outcome in a sample past the
    first RECORD_CHUNK: the outcome is reported, as when the file was checked whole."""

    @pytest.fixture
    def two_defects(self, tmp_path):
        n = storage.RECORD_CHUNK // storage._record_dtype(1, 8, 8, True).itemsize + 3
        rng = Rng(4)
        dataset = Dataset(rng.normal((n, 1, 8, 8)), np.zeros((n, 8, 8)), rng.uniform((n, 8, 8)))
        path = storage.write_dataset(tmp_path / "d.bin", in_chunks(dataset)).path
        poke_dataset(path, path, "inputs", np.nan)
        poke_dataset(path, path, "outcomes", 2, sample=n - 2)
        return path, f"{path}: sample {n - 2} has non-binary outcome bytes"

    def test_reader_reports_the_outcome(self, two_defects):
        path, message = two_defects
        with pytest.raises(storage.FormatError, match=re.escape(message)):
            storage.read_dataset(path)

    def test_evaluate_exits_before_reading_the_checkpoint(self, two_defects, tmp_path, capsys):
        path, message = two_defects
        out = tmp_path / "ev"
        missing = tmp_path / "missing.ckpt"  # reading it would fail with another message
        argv = ["evaluate", "--checkpoint", str(missing), "--dataset", str(path), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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
        with pytest.raises(storage.FormatError, match="expected block conv2_w of shape"):
            storage.read_checkpoint(path)

    def test_unknown_block_rejected(self, tmp_path):
        blocks = {**init_params(3, 4, Rng(2)).blocks, "conv3_w": np.zeros(5)}
        path = tmp_path / "m.ckpt"
        storage.write_checkpoint(path, SimpleNamespace(blocks=blocks))
        with pytest.raises(
            storage.FormatError, match="expected conv1_w, conv1_b, conv2_w, conv2_b with"
        ):
            storage.read_checkpoint(path)

    def test_non_finite_block_rejected(self, tmp_path):
        params = init_params(3, 4, Rng(2))
        params.conv1_b[1] = np.nan
        path = tmp_path / "m.ckpt"
        storage.write_checkpoint(path, params)
        with pytest.raises(storage.FormatError, match="non-finite values in block conv1_b"):
            storage.read_checkpoint(path)

    @pytest.mark.parametrize("defect", CKPT_DEFECTS)
    def test_structural_defects_rejected(self, tmp_path, defect):
        blocks, edit = CKPT_DEFECTS[defect]
        path = write_blocks(tmp_path / "m.ckpt", blocks)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(storage.FormatError):
            storage.read_checkpoint(path)


class TestBinaryFormatsArePinned:
    """The readers check each file against the writers' own encoding, so a
    changed encoding would still round-trip: pin the bytes written."""

    def test_checkpoint_bytes(self, tmp_path):
        flat = (np.arange(ModelParams(3, 4).flat.size) - 60) / 8
        written = storage.write_checkpoint(tmp_path / "m.ckpt", ModelParams(3, 4, flat))
        assert hashlib.sha256(written.path.read_bytes()).hexdigest() == (
            "f38f3b1cbbc2838188a5c245421dd9c8aa41d0ee02300b0a61ea4dd5dd434041"
        )

    @pytest.mark.parametrize("with_true_p,sha256", [
        (True, "4e8b7712682c254bf877b8052e9445f7781732b382b3924038bb8d5077193ccd"),
        (False, "9ad1da9d8a3927fb15ebd6a11a28591dc4f19365804342ef19208ce668da95c5"),
    ])
    def test_dataset_bytes(self, tmp_path, with_true_p, sha256):
        dataset = Dataset(
            inputs=((np.arange(24) - 10) / 4).reshape(2, 2, 2, 3),
            outcomes=np.arange(12).reshape(2, 2, 3) % 2 * 1.0,
            true_p=np.arange(12).reshape(2, 2, 3) / 11 if with_true_p else None,
        )
        written = storage.write_dataset(tmp_path / "d.bin", in_chunks(dataset))
        assert hashlib.sha256(written.path.read_bytes()).hexdigest() == sha256


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
        assert_declared(out)
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

    def test_force_removes_stale_temporaries_of_declared_outputs(self, dataset_dir, tmp_path):
        out = tmp_path / "ev"
        dataset = str(dataset_dir / "dataset.bin")
        argv = ["evaluate", "--oracle", "--dataset", dataset, "--out", str(out)]
        assert main(argv) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        stale = [".metrics.csv.4242.tmp", ".manifest.json.17.tmp"]
        # not a temporary of an evaluate output, or not in publish's naming
        kept = [".dataset.bin.4242.tmp", ".metrics.csv.x.tmp", "metrics.csv.4242.tmp", "notes"]
        for name in stale + kept:
            (out / name).write_bytes(b"left over")
        assert main([*argv, "--force"]) == 0
        assert sorted(os.listdir(out)) == sorted([*before, *kept])
        assert all((out / name).read_bytes() == b"left over" for name in kept)
        assert (out / "metrics.csv").read_bytes() == before["metrics.csv"]
        (out / ".dataset.bin.4242.tmp").unlink()

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

    def test_rerun_identical_csv(self, trained, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "train.cfg", **TRAIN_SMALL)
        out = tmp_path / "rerun"
        code = main([
            "train", "--config", cfg, "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(out),
        ])
        assert code == 0
        stdout, stderr = capsys.readouterr()
        assert len(stdout.splitlines()) == 1 and stderr == ""
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
        _, expected = bce_continuation(warm.best_params, ds, train_idx, val_idx, tc)
        assert [r.val_loss for r in cape_rows] == [r.val_loss for r in expected]
        assert [r.train_loss for r in cape_rows] == [r.train_loss for r in expected]

    def test_outputs_are_those_of_run_fold(self, trained, dataset_dir, tmp_path):
        """`train` runs rotation 0 of its own split as one sweep fold would."""
        ds = storage.read_dataset(dataset_dir / "dataset.bin")
        tc = train_small_config()
        run = pipeline.run_fold(ds, split_kfold(len(ds), tc.folds, tc.seed), 0, tc)
        written = [
            storage.write_checkpoint(tmp_path / "bce_arm.ckpt", run.warmup.best_params),
            storage.write_checkpoint(tmp_path / "cape_arm.ckpt", run.arms[1].params),
            storage.write_epoch_csv(tmp_path / "epochs.csv", run.warmup.records + run.arms[1].records),
        ]
        for w in written:
            assert w.path.read_bytes() == (trained / w.path.name).read_bytes(), w.path.name

    def test_early_stopping_example_stops_before_its_cap(self, tmp_path):
        """README's small-n, wide-model example: its warm-up stops early (at
        epoch 14 of 60 when written), so a numerics change that keeps early
        stopping from firing shows up here."""
        gen = dict(
            height=32, width=32, channels=3, length_scale=4.0, gain=2.0,
            target_rate=0.14, obs_noise=1.0, seed=7, n_samples=30,
        )
        assert main(["generate", "--config", write_config(tmp_path / "gen.cfg", **gen),
                     "--out", str(tmp_path / "data")]) == 0
        cfg = write_config(
            tmp_path / "train.cfg", lr=0.01, max_epochs=60, patience=8, hidden_channels=32,
            folds=3, seed=7, cape_epochs_override=1,
        )
        assert main(["train", "--config", cfg, "--dataset", str(tmp_path / "data/dataset.bin"),
                     "--out", str(tmp_path / "run")]) == 0
        records = read_epoch_csv(tmp_path / "run" / "epochs.csv")
        assert max(r.epoch for r in records if r.phase == "warmup") < 60

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

    def run_train(self, dataset_dir, tmp_path, monkeypatch, capsys, cpus, name, **overrides):
        """`train` with `cpus` usable CPUs (None: as `os` reports them)."""
        if cpus is not None:
            monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = write_config(tmp_path / "early.cfg", **{**TRAIN_EARLY_STOP, **overrides})
        out = tmp_path / name
        code = main([
            "train", "--config", cfg, "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(out),
        ])
        return code, out, capsys.readouterr().out

    def slow_helper_records(self, monkeypatch, die_in=None, fail_at=None):
        """Records in the helper take 50 ms (or kill it in phase `die_in`, or raise
        NumericError for epoch `fail_at`), so each record is still running when
        the loop decides whether to wait for it."""
        parent, real_record = os.getpid(), pipeline._epoch_record

        @functools.wraps(real_record)
        def record(epoch, phase, *args, **kwargs):
            if os.getpid() != parent:
                if phase == die_in:
                    os._exit(1)
                if epoch == fail_at:
                    raise NumericError("injected non-finite record")
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

    @pytest.mark.parametrize("overrides, stop_line", [
        ({}, "stopped at epoch 8 (best epoch 7)"),  # patience 1: every record is waited for
        ({"patience": 3, "max_epochs": 20}, "stopped at epoch 10 (best epoch 7)"),
    ], ids=["patience1", "patience3"])
    def test_helper_and_inline_outputs_are_byte_identical(
        self, dataset_dir, tmp_path, monkeypatch, capsys, overrides, stop_line
    ):
        """The helper trains exactly the epochs the inline run trains: no epoch
        runs after the record that stops training."""
        self.slow_helper_records(monkeypatch)
        calls = self.count_epochs(monkeypatch)
        inline = self.run_train(
            dataset_dir, tmp_path, monkeypatch, capsys, 1, "inline", **overrides
        )
        inline_epochs = len(calls)
        helper = self.run_train(
            dataset_dir, tmp_path, monkeypatch, capsys, 2, "helper", **overrides
        )
        assert inline[0] == helper[0] == 0
        assert stop_line in inline[2]
        assert helper[2] == inline[2]
        for name in TRAIN_OUTPUTS:
            assert (helper[1] / name).read_bytes() == (inline[1] / name).read_bytes(), name
        assert len(calls) - inline_epochs == inline_epochs

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

    def test_without_sched_getaffinity_records_run_inline(
        self, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        """Where `os` has no `sched_getaffinity` (macOS, Windows), no helper is forked."""
        self.slow_helper_records(monkeypatch)
        calls = self.count_epochs(monkeypatch)
        inline = self.run_train(dataset_dir, tmp_path, monkeypatch, capsys, 1, "inline")
        inline_epochs = len(calls)
        monkeypatch.delattr(pipeline.os, "sched_getaffinity")
        bare = self.run_train(dataset_dir, tmp_path, monkeypatch, capsys, None, "bare")
        assert inline[0] == bare[0] == 0
        assert bare[2] == inline[2]
        for name in TRAIN_OUTPUTS:
            assert (bare[1] / name).read_bytes() == (inline[1] / name).read_bytes(), name
        assert len(calls) == 2 * inline_epochs  # the epochs of the inline run, again

    @pytest.mark.parametrize("k", [1, 3])
    def test_failed_cape_record_stops_the_fold_within_one_epoch(
        self, dataset_dir, tmp_path, monkeypatch, capsys, k
    ):
        """CaPE records are judged as warm-up records are: a failed record k ends
        the fold once it is done or once CaPE epoch k + 1 has trained."""
        self.slow_helper_records(monkeypatch, fail_at=8 + k)  # the warm-up stops at epoch 8
        cape_epochs, real_run_epoch = [], pipeline._run_epoch

        def run_epoch(*args):
            if args[-1] > 0:  # cal_weight, 0 in the warm-up
                cape_epochs.append(args[-1])
            return real_run_epoch(*args)

        monkeypatch.setattr(pipeline, "_run_epoch", run_epoch)
        code, out, _ = self.run_train(
            dataset_dir, tmp_path, monkeypatch, capsys, 2, "helper", cape_epochs_override=6
        )
        assert code == 3
        assert not out.exists()
        assert k <= len(cape_epochs) <= k + 1

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


GEN_TINY = dict(height=8, width=8, channels=2, length_scale=1.0, target_rate=0.3, seed=4)
CPUS = (1, 2, "bare")  # usable CPUs, or "bare": no os.sched_getaffinity


class TestSecondCore:
    """`generate` makes every second chunk, and `evaluate --checkpoint` predicts the
    second half of the samples, on a forked worker when two CPUs are usable. Their
    outputs and stdout are those of one usable CPU, and of a platform without
    `os.sched_getaffinity`, where both run inline."""

    def run(self, monkeypatch, capsys, cpus, argv):
        with monkeypatch.context() as m:
            if cpus == "bare":
                m.delattr(pipeline.os, "sched_getaffinity")
            else:
                m.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            code = main([*argv, "--force"])
        return code, capsys.readouterr().out

    def jobs_by_process(self, monkeypatch, record, die=False):
        """Log the pid of every chunk and every prediction job to `record`; with `die`,
        a worker that is handed one exits on the spot."""
        parent = os.getpid()

        def logged(module, name):
            real = getattr(module, name)

            @functools.wraps(real)
            def job(*args, **kwargs):
                with open(record, "a", encoding="utf-8") as fh:
                    fh.write(f"{name} {os.getpid() != parent}\n")
                if die and os.getpid() != parent:
                    os._exit(1)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, job)

        logged(fieldgen, "_make_chunk")
        logged(cli_module, "_predict_from")

    def outputs(self, monkeypatch, capsys, tmp_path, cpus, n):
        """Exit codes, stdout and output bytes of `generate` then `evaluate` of n samples."""
        cfg = write_config(tmp_path / "gen.cfg", **GEN_TINY, n_samples=n)
        ckpt = tmp_path / "m.ckpt"
        storage.write_checkpoint(ckpt, init_params(2, 4, Rng(3)))
        data, scores = tmp_path / "data", tmp_path / "eval"
        generate = ["generate", "--config", cfg, "--out", str(data)]
        generated = self.run(monkeypatch, capsys, cpus, generate)
        evaluated = self.run(monkeypatch, capsys, cpus, [
            "evaluate", "--checkpoint", str(ckpt), "--dataset", str(data / "dataset.bin"),
            "--out", str(scores),
        ])
        files = [data / "dataset.bin", scores / "metrics.csv", scores / "reliability.csv"]
        return generated, evaluated, [f.read_bytes() for f in files]

    @pytest.mark.parametrize(
        "n", [1, CHUNK_FIELDS - 1, CHUNK_FIELDS, CHUNK_FIELDS + 1, 2 * CHUNK_FIELDS + 1]
    )
    def test_outputs_are_byte_identical(self, tmp_path, monkeypatch, capsys, n):
        record = tmp_path / "jobs.txt"
        self.jobs_by_process(monkeypatch, record)
        runs = []
        for cpus in CPUS:
            record.write_text("")
            runs.append(self.outputs(monkeypatch, capsys, tmp_path, cpus, n))
            jobs = record.read_text().splitlines()
            forked = {line.split()[0] for line in jobs if line.endswith("True")}
            expected = {"_make_chunk"} if n > CHUNK_FIELDS else set()
            expected |= {"_predict_from"} if n > 1 else set()
            assert forked == (expected if cpus == 2 else set()), cpus
        assert runs[0][0][0] == runs[0][1][0] == 0
        assert runs[0] == runs[1] == runs[2]

    def test_a_file_without_true_p_scores_the_same(self, tmp_path, monkeypatch, capsys):
        n = 2 * CHUNK_FIELDS + 1
        full = generate_dataset(FieldConfig(**GEN_TINY), n)
        data = tmp_path / "d.bin"
        storage.write_dataset(data, in_chunks(Dataset(full.inputs, full.outcomes), [n]))
        ckpt = tmp_path / "m.ckpt"
        storage.write_checkpoint(ckpt, init_params(2, 4, Rng(3)))
        runs = []
        for cpus in CPUS:
            out = tmp_path / "eval"
            code, stdout = self.run(monkeypatch, capsys, cpus, [
                "evaluate", "--checkpoint", str(ckpt), "--dataset", str(data), "--out", str(out),
            ])
            runs.append((code, stdout, (out / "metrics.csv").read_bytes(),
                         (out / "reliability.csv").read_bytes()))
        assert runs[0][0] == 0 and "kl=n/a" in runs[0][1]
        assert runs[0] == runs[1] == runs[2]

    def test_a_dead_worker_gives_the_inline_bytes(self, tmp_path, monkeypatch, capsys):
        """The chunks and predictions of a worker that died are made here."""
        n = 3 * CHUNK_FIELDS + 1
        inline = self.outputs(monkeypatch, capsys, tmp_path, 1, n)
        record = tmp_path / "jobs.txt"
        self.jobs_by_process(monkeypatch, record, die=True)
        assert self.outputs(monkeypatch, capsys, tmp_path, 2, n) == inline
        jobs = set(record.read_text().splitlines())
        assert jobs == {f"{name} {forked}" for name in ("_make_chunk", "_predict_from")
                        for forked in (True, False)}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads open files from /proc")
    def test_the_worker_holds_no_output_temporary(self, tmp_path, monkeypatch, capsys):
        """It forks before `publish` opens dataset.bin's temporary."""
        record, parent, real = tmp_path / "fds.txt", os.getpid(), fieldgen._make_chunk

        @functools.wraps(real)
        def job(*args, **kwargs):
            if os.getpid() != parent:
                fds = os.listdir("/proc/self/fd")
                with open(record, "a", encoding="utf-8") as fh:
                    fh.writelines(os.path.realpath(f"/proc/self/fd/{fd}") + "\n" for fd in fds)
            return real(*args, **kwargs)

        monkeypatch.setattr(fieldgen, "_make_chunk", job)
        generated, _, _ = self.outputs(monkeypatch, capsys, tmp_path, 2, 3 * CHUNK_FIELDS)
        held = record.read_text().splitlines()
        assert generated[0] == 0 and held
        assert not [path for path in held if path.endswith(".tmp")]


class TestEvaluate:
    def test_reliability_counts_sum_to_pixels(self, dataset_dir, tmp_path):
        out = tmp_path / "ev"
        code = main([
            "evaluate", "--oracle", "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(out), "--bins", "10",
        ])
        assert code == 0
        assert_declared(out)
        rows = read_reliability_csv(out / "reliability.csv")
        assert len(rows) == 10
        assert sum(r["count"] for r in rows) == 24 * 16 * 16
        metrics = dict(
            line.split(",") for line in
            (out / "metrics.csv").read_text().strip().splitlines()[1:]
        )
        assert float(metrics["ece"]) < 0.05  # oracle on a small set

    @pytest.mark.parametrize("oracle", [False, True])
    def test_streamed_scores_are_those_of_the_whole_dataset(self, tmp_path, oracle):
        """100 samples of 32x32 are read in several chunks; both CSVs keep every byte
        of the report on the dataset read whole."""
        cfg = FieldConfig(height=32, width=32, target_rate=0.2, seed=3)
        data, ckpt, out = tmp_path / "d.bin", tmp_path / "m.ckpt", tmp_path / "ev"
        storage.write_dataset(data, generate_chunks(cfg, 100))
        params = init_params(3, 4, Rng(8))
        storage.write_checkpoint(ckpt, params)
        scored = ["--oracle"] if oracle else ["--checkpoint", str(ckpt)]
        argv = ["evaluate", *scored, "--dataset", str(data), "--out", str(out), "--bins", "15"]
        assert main(argv) == 0
        ds = storage.read_dataset(data)
        if oracle:
            report = pipeline.evaluate_predictions(ds.true_p, ds.outcomes, ds.true_p, 15)
        else:
            report = pipeline.evaluate_arm(params, ds, np.arange(len(ds)), 15)
        storage.write_metrics_csv(tmp_path / "metrics.csv", report)
        storage.write_reliability_csv(tmp_path / "reliability.csv", report.bin_table)
        for name in ("metrics.csv", "reliability.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

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
        assert_declared(out)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_oracle_on_a_certain_pixel_is_format_error(self, dataset_dir, tmp_path, capsys, p):
        """A true_p of 0 or 1 is valid data, but not a prediction the oracle can
        score; a checkpoint's predictions on the same file are scored."""
        data = poke_dataset(dataset_dir / "dataset.bin", tmp_path / "certain.bin", "true_p", p)
        out = tmp_path / "ev"
        assert main(["evaluate", "--oracle", "--dataset", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {data}: ")
        assert not out.exists()
        ckpt = tmp_path / "m.ckpt"
        storage.write_checkpoint(ckpt, init_params(3, 4, Rng(8)))
        argv = ["evaluate", "--checkpoint", str(ckpt), "--dataset", str(data), "--out", str(out)]
        assert main(argv) == 0
        assert "kl=n/a" not in capsys.readouterr().out

    def test_overflowing_checkpoint_is_numeric_failure(self, dataset_dir, tmp_path, capsys):
        params = init_params(3, 4, Rng(8))
        params.conv1_w[...] = params.conv2_w[...] = 1e300  # finite, so the loader takes it
        ckpt = tmp_path / "m.ckpt"
        storage.write_checkpoint(ckpt, params)
        code = main([
            "evaluate", "--checkpoint", str(ckpt), "--dataset",
            str(dataset_dir / "dataset.bin"), "--out", str(tmp_path / "ev"),
        ])
        assert code == 3
        assert capsys.readouterr().err == "numeric failure: non-finite values in logits\n"

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

    def test_checkpoint_and_oracle_together_is_usage_error(self, dataset_dir, tmp_path):
        params = init_params(3, 4, Rng(8))
        ckpt = tmp_path / "m.ckpt"
        storage.write_checkpoint(ckpt, params)
        out = tmp_path / "ev"
        assert main([
            "evaluate", "--checkpoint", str(ckpt), "--oracle", "--dataset",
            str(dataset_dir / "dataset.bin"), "--out", str(out),
        ]) == 1
        assert not out.exists()

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
def withheld(dataset_dir, tmp_path_factory):
    """GEN_SMALL's dataset written without true probabilities, and a `train` run on it."""
    tmp = tmp_path_factory.mktemp("withheld")
    ds = storage.read_dataset(dataset_dir / "dataset.bin")
    data = storage.write_dataset(tmp / "d.bin", in_chunks(Dataset(ds.inputs, ds.outcomes))).path
    cfg = write_config(tmp / "train.cfg", **TRAIN_SMALL)
    run = tmp / "run"
    assert main(["train", "--config", cfg, "--dataset", str(data), "--out", str(run)]) == 0
    return data, run


class TestWithoutTrueProbabilities:
    def test_train_leaves_the_kl_column_empty(self, withheld):
        _, run = withheld
        rows = csv_rows(run / "epochs.csv")
        assert len(rows) > TRAIN_SMALL["cape_epochs_override"]
        assert [row[storage.EPOCH_CSV_HEADER.index("kl")] for row in rows] == [""] * len(rows)

    def test_plot_draws_no_kl_series(self, withheld, tmp_path):
        _, run = withheld
        out = tmp_path / "plots"
        assert main(["plot", "--input", str(run / "epochs.csv"), "--out", str(out)]) == 0
        root = ET.fromstring((out / "learning_curves.svg").read_text())
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 6  # 3 metrics x (raw + smoothed)
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "brier" in labels and "kl" not in labels

    def test_checkpoint_evaluation_reports_no_kl(self, withheld, tmp_path, capsys):
        data, run = withheld
        out = tmp_path / "ev"
        argv = ["evaluate", "--checkpoint", str(run / "cape_arm.ckpt"), "--dataset", str(data)]
        assert main([*argv, "--out", str(out)]) == 0
        assert " kl=n/a " in capsys.readouterr().out
        metrics = dict(csv_rows(out / "metrics.csv"))
        assert metrics["kl_true"] == "" and metrics["ece"] != ""

    def test_oracle_is_format_error(self, withheld, tmp_path, capsys):
        data, _ = withheld
        out = tmp_path / "ev"
        assert main(["evaluate", "--oracle", "--dataset", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: --oracle requires a dataset with true probabilities\n"
        assert not out.exists()


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
        assert_declared(out)
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

    def test_threads_flag_gives_identical_csv(self, swept, tmp_path, capsys):
        cfg = write_config(tmp_path / "sweep.cfg", **SWEEP_SMALL)
        out = tmp_path / "threaded"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
        stdout, stderr = capsys.readouterr()
        assert stdout.startswith("wrote ") and len(stdout.splitlines()) == 1 and stderr == ""
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


def sweep_rows(sizes, rates, kl_for_bce=True, constant=False):
    """Two folds of both arms per (rate, size) cell, with metrics that vary by cell."""
    rows = []
    for rho in rates:
        for n in sizes:
            for fold in range(2):
                for arm in ("bce", "cape"):
                    ece = 0.5 if constant else rho / n + 0.01 * fold + (arm == "bce") * 0.02
                    kl = rho * (fold + 1) / 7 if kl_for_bce or arm == "cape" else None
                    rows.append(dict(rho=rho, n=n, fold=fold, arm=arm, ece=ece, kl=kl))
    return rows


def epoch_records(n_epochs, cape_from=None, kl=True):
    return [
        pipeline.EpochRecord(
            e, "cape" if cape_from and e >= cape_from else "warmup", 1.0 / e,
            1.2 / e + 0.01 * (e % 3), 0.25 - 0.001 * e, 0.3 / e if kl else None,
        )
        for e in range(1, n_epochs + 1)
    ]


def reliability_rows(n_bins):
    return [
        dict(
            bin=b, edge_lo=b / n_bins, edge_hi=(b + 1) / n_bins, count=b + 1,
            prob_pred=(b + 0.5) / n_bins, prob_true=((7 * b) % n_bins + 0.5) / n_bins,
        )
        for b in range(n_bins)
    ]


# Each chart shape from fixed inputs, with the SHA-256 of the SVG it must render.
CHART_CASES = {
    "sweep-1-size": (
        lambda: svg.sweep_chart(sweep_rows([18], [0.2, 0.3]), "ece", "ECE <&> rate", "ECE"),
        "5aacc673279784e3561bbfdc449ac3e911ab2ba1459737a819a03844d2785564",
    ),
    "sweep-7-sizes": (
        lambda: svg.sweep_chart(
            sweep_rows([9, 18, 27, 36, 45, 54, 63], [0.07, 0.2, 0.3]), "ece", "ECE", "ECE"
        ),
        "142aafa7a5b5e9f3856ad46d514b2782113e0bff66e08faae36d303e57ad6b4c",
    ),
    "sweep-kl-none-for-one-arm": (
        lambda: svg.sweep_chart(
            sweep_rows([18, 36], [0.2, 0.3], kl_for_bce=False), "kl", "KL", "KL (nats)"
        ),
        "ff89c6fa9bedcc0842a5e5e042050b442eb3be724a409f243ce95ee37164630b",
    ),
    "sweep-constant-metric": (
        lambda: svg.sweep_chart(sweep_rows([18, 36], [0.2, 0.3], constant=True), "ece", "c", "e"),
        "7af2275f97ca422e77893cca3916062f15f155a5efe8319e02b32606f1977f8d",
    ),
    "sweep-1-rate": (
        lambda: svg.sweep_chart(sweep_rows([18], [0.2]), "kl", "KL", "KL (nats)"),
        "03c17c240fd6673de000df89a88c2091300ef3cf277ca5614ec2e03b3791dc86",
    ),
    "curves-1-epoch-no-kl": (
        lambda: svg.learning_curve_chart(epoch_records(1, kl=False), "t"),
        "6bcfe14589a629ac62977cdb2dcae1654613b2a50ace7f537c60cef10ba82dd8",
    ),
    "curves-1-epoch-cape": (
        lambda: svg.learning_curve_chart(epoch_records(1, 1), "t"),
        "72b0870d54e34b9de3647d0286b7aa573149ac63c62c336d131519221ae2ff34",
    ),
    "curves-12-epochs-no-kl": (
        lambda: svg.learning_curve_chart(epoch_records(12, 9, kl=False), "Curves & <kl>"),
        "e1cb09c28349acd551a7185584b96de413add10b235460f2b0edba7337ff8822",
    ),
    "curves-60-epochs": (
        lambda: svg.learning_curve_chart(epoch_records(60, 41), "t"),
        "d533f0af9c02e851c8679ea79a9c9d648bd4539b1d2278df3215f47d40f2e239",
    ),
    "curves-60-warmup-epochs": (
        lambda: svg.learning_curve_chart(epoch_records(60), "t"),
        "972992b2699957ddceb203102a2579f54849f912d945ce2ad7ee626cd233698d",
    ),
    "reliability-1-bin": (
        lambda: svg.reliability_chart(reliability_rows(1), "r"),
        "404fa51fa389dde6023691018d0c8e981d31bd836fd041f96b114c75f4161ec1",
    ),
    "reliability-10-bins": (
        lambda: svg.reliability_chart(reliability_rows(10), "r"),
        "a6aea64edf442e85bde3e354772dee49148464933eae0091c6ad0b53145c4913",
    ),
    "reliability-50-bins": (
        lambda: svg.reliability_chart(reliability_rows(50), "r"),
        "3e44ee3cefbbb9b40fa74eef04e86ebac11f91af66da0d49a2b70fe4dd3580df",
    ),
}


class TestPlot:
    @pytest.mark.parametrize("case", list(CHART_CASES))
    def test_chart_bytes_are_pinned(self, case):
        render, digest = CHART_CASES[case]
        assert hashlib.sha256(render().encode("utf-8")).hexdigest() == digest


    def test_learning_curves_from_epoch_csv(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", **TRAIN_SMALL)
        run = tmp_path / "run"
        assert main([
            "train", "--config", cfg, "--dataset", str(dataset_dir / "dataset.bin"),
            "--out", str(run),
        ]) == 0
        out = tmp_path / "plots"
        assert main(["plot", "--input", str(run / "epochs.csv"), "--out", str(out)]) == 0
        assert_declared(out)
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
        assert_declared(out)
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
        assert svg.moving_average([2.5] * 7) == [2.5] * 7

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

    @pytest.mark.parametrize(
        "bad",
        [
            b"1,-0.1,1.0,4,0.25,0.5",
            b"1,0.0,1.5,4,0.25,0.5",
            b"1,0.0,1.0,-1,0.25,0.5",
            b"1,0.0,1.0,4,1.7,0.5",
            b"1,0.0,1.0,4,0.25,-3",
            b"2,bogus,0.25,0.5,0.2,",
        ],
        ids=["edge_lo", "edge_hi", "count", "prob_pred", "prob_true", "phase"],
    )
    def test_out_of_range_value_reports_line(self, tmp_path, capsys, bad):
        epochs = b"bogus" in bad
        header = storage.EPOCH_CSV_HEADER if epochs else storage.RELIABILITY_CSV_HEADER
        # the good row sits on the range's bounds: a count of 0, probabilities 0 and 1
        good = b"1,cape,0.25,0.5,0.2," if epochs else b"0,0.0,1.0,0,0.0,1.0"
        report = tmp_path / "report.csv"
        report.write_bytes(b"\n".join([",".join(header).encode(), good, bad, b""]))
        out = tmp_path / "p"
        assert main(["plot", "--input", str(report), "--out", str(out)]) == 2
        assert f"{report}:3: expected " in capsys.readouterr().err
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

    @pytest.mark.parametrize("defect", ["mismatched shapes", "nan bias", "repeated block"])
    def test_bad_checkpoint_is_format_error(self, dataset_dir, tmp_path, defect):
        ckpt = tmp_path / "m.ckpt"
        params = init_params(3, 4, Rng(8))
        if defect == "mismatched shapes":
            write_mismatched_checkpoint(ckpt)
        elif defect == "nan bias":
            params.conv2_b[0] = np.nan
            storage.write_checkpoint(ckpt, params)
        else:  # a second conv1_b, of 7s, after the four valid blocks
            write_blocks(ckpt, [*params.blocks.items(), ("conv1_b", np.full(4, 7.0))])
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

    @pytest.mark.parametrize("scored", ["--checkpoint", "--oracle"])
    def test_evaluate_bins_past_the_pixel_count_fails_before_any_prediction(
        self, tmp_path, monkeypatch, capsys, scored
    ):
        """3 samples of 8x8 hold 192 pixels: 192 bins are scored, 193 exit 1 with
        nothing predicted or scored and no --out."""
        cfg = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3, seed=5)
        data, ckpt = tmp_path / "d.bin", tmp_path / "m.ckpt"
        storage.write_dataset(data, generate_chunks(cfg, 3))
        storage.write_checkpoint(ckpt, init_params(3, 4, Rng(8)))
        calls = []
        for name in ("predict_split", "evaluate_predictions"):
            original = getattr(cli_module, name)
            spy = functools.partial(lambda f, *a, **k: calls.append(f) or f(*a, **k), original)
            monkeypatch.setattr(cli_module, name, spy)
        argv = ["evaluate", scored, *([str(ckpt)] if scored == "--checkpoint" else [])]
        argv += ["--dataset", str(data)]
        assert main([*argv, "--bins", "192", "--out", str(tmp_path / "ok")]) == 0
        calls.clear()
        out = tmp_path / "o"
        assert main([*argv, "--bins", "193", "--out", str(out)]) == 1
        assert calls == []
        assert "--bins 193 exceeds the 192 pixels" in capsys.readouterr().err
        assert not out.exists()

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
            ({"rates": "0.2,0.2"}, "repeated sweep rate in [0.2, 0.2]"),
            ({"sizes": "18,18"}, "repeated sweep size in [18, 18]"),
            ({"length_scale": 3.0}, "exceeds"),
            ({"seed": -1}, "seed"),
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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("cape_epochs_override", 0, "cape_epochs_override and hidden_channels must be >= 1"),
            ("cape_epochs", 6, "unknown config key(s): cape_epochs"),
            ("lambda", 2, "error: lambda must be in [0, 1]"),
        ],
        ids=["zero-cape-epochs", "old-budget-key", "lambda-out-of-range"],
    )
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_cape_epoch_count_fails_before_training(
        self, dataset_dir, tmp_path, monkeypatch, capsys, command, key, value, message
    ):
        """A CaPE phase of 0 epochs would make the cape arm the bce arm, and an
        old config's epoch budget would now mean a different count. A bad value
        is named by the key the file spells, not by the field it sets."""
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(pipeline, "_train", no_training)
        if command == "train":
            base, extra = TRAIN_SMALL, ["--dataset", str(dataset_dir / "dataset.bin")]
        else:
            base, extra = SWEEP_SMALL, []
        cfg = write_config(tmp_path / "c.cfg", **{**base, key: value})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), *extra]) == 1
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
    """Checkpoints and epochs.csv do not depend on the BLAS thread count.

    With 32 hidden channels every conv matmul (at 64x64 the smallest is
    32x9 @ 9x4096) is large enough that OpenBLAS runs it on two threads when
    allowed to, so these compare real one- and two-thread runs.
    """

    def test_train_outputs_identical_for_one_and_two_blas_threads(self, tmp_path):
        self.check(tmp_path, 64)

    def test_kernel_gradient_inner_dimension_off_a_multiple_of_32(self, tmp_path):
        """At 40x40 the kernel-gradient matmuls' inner dimension (H*Wp: 1680 for
        one sample, 5166 for a stack of three) is no multiple of 32, which
        OpenBLAS rounds differently per thread count unless it is padded to one."""
        self.check(tmp_path, 40)

    @staticmethod
    def check(tmp_path, side):
        gen = write_config(
            tmp_path / "gen.cfg", **{**GEN_SMALL, "height": side, "width": side, "n_samples": 9}
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
