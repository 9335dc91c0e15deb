"""The benchmark's workloads: inputs made from the seed, the timed CLI
commands, and the checks on their outputs.

Each workload runs its commands in-process through `capeseg.cli.main`, one
command at a time (closed loop, one caller). A pass is: set up the inputs
of pass i (timed as set-up), run the commands (timed), then check the
outputs (untimed). Pass i draws its inputs from a sub-seed of (seed, i),
except pass 0, the anchor pass, which draws them from ANCHOR_SEED, the same
for every run: its quality figures are the gated ones, so they repeat
exactly and move only when the program's results change.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import traceback
import xml.etree.ElementTree as ET
from pathlib import Path
from time import perf_counter

import numpy as np

import capeseg.cli as cli
from capeseg.cli import storage
from capeseg.model import init_params
from capeseg.numerics import Rng
from capeseg.pipeline import evaluate_arm, kfold_rotation, split_kfold

FOLDS = 3
BINS = 20
ANCHOR_SEED = 20240917  # inputs of the anchor pass and data1m's checkpoint


class CheckError(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Ops:
    """Operations attempted and failed: commands, sweep cells and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}: {detail}", file=sys.stderr)
        return ok

    def check(self, what: str, fn, *args):
        """Run one check; a raised exception counts as a failure and is not propagated."""
        try:
            result = fn(*args)
        except Exception as exc:  # a broken output must not abort the benchmark
            detail = str(exc) if isinstance(exc, CheckError) else traceback.format_exc()
            self.record(what, False, detail)
            return None
        self.record(what, True)
        return result


def sub_seed(*keys: int) -> int:
    digest = hashlib.sha256(":".join(str(k) for k in keys).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def pass_seed(seed: int, i: int, k: int) -> int:
    """Seed k of pass i; the anchor pass 0 ignores `seed`."""
    return sub_seed(ANCHOR_SEED, k) if i == 0 else sub_seed(seed, i, k)


def write_config(path: Path, **values) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def start_cli(ops: Ops) -> None:
    """Start a fresh interpreter that imports the CLI, as every real command
    does. The in-process commands skip this start-up, so work moved to import
    time would escape their timings; it shows in the set-up time instead."""
    src = Path(cli.__file__).resolve().parent.parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "import capeseg.cli"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    ops.record("start capeseg.cli", proc.returncode == 0, proc.stderr[-2000:])


def run_cli(argv: list[str], ops: Ops) -> tuple[float, str]:
    """Run one capeseg command in-process; returns (wall seconds, captured stdout)."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # an uncaught crash is a failed operation, not a benchmark abort
        code = traceback.format_exc()
    wall = perf_counter() - start
    ops.record(f"capeseg {argv[0]} exits 0", code == 0, f"exit {code}")
    return wall, out.getvalue()


def manifest_digests(outdir: Path) -> dict[str, str]:
    """Recompute the SHA-256 and size of every output the manifest lists."""
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    digests = {}
    for entry in manifest["outputs"]:
        data = (outdir / entry["path"]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        expect(digest == entry["sha256"], f"{entry['path']}: digest {digest} != manifest")
        expect(len(data) == entry["bytes"], f"{entry['path']}: size differs from manifest")
        digests[f"{outdir.name}/{entry['path']}"] = digest
    return digests


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def fold_sizes(n: int) -> list[int]:
    return [len(part) for part in np.array_split(np.arange(n), FOLDS)]


class Pass:
    """Outcome of one pass: timings, quality, output digests and work done."""

    def __init__(self, index: int, setup_s: float):
        self.index = index
        self.setup_s = setup_s
        self.times: dict[str, float] = {}
        self.stdout: dict[str, str] = {}
        self.quality: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.train_passes = 0

    @property
    def command_s(self) -> float:
        return sum(self.times.values())


class Fold32:
    """One `capeseg train` fold at 32x32 with the epoch counts pinned."""

    name = "fold32"
    passes = 3
    setup_batch = 1
    train_key = "train_s"  # the timed command that trains
    n_samples = 600
    warmup_epochs = 12
    cape_epochs = 10

    def setup(self, work: Path, seed: int, i: int, ops: Ops) -> dict:
        gen = write_config(
            work / "gen.cfg", height=32, width=32, channels=3, length_scale=4.0, gain=2.0,
            target_rate=0.14, obs_noise=1.0, n_samples=self.n_samples,
            seed=pass_seed(seed, i, 0),
        )
        train_seed = pass_seed(seed, i, 1)
        train = write_config(
            work / "train.cfg", lr=0.01, max_epochs=self.warmup_epochs,
            patience=self.warmup_epochs - 1, batch_size=16, bins=BINS, folds=FOLDS,
            cape_epochs_override=self.cape_epochs, hidden_channels=8, seed=train_seed,
            **{"lambda": 0.5},
        )
        run_cli(["generate", "--config", str(gen), "--out", str(work / "data")], ops)
        return {"work": work, "train": train, "train_seed": train_seed}

    def commands(self, inp: dict) -> list[tuple[str, list[str]]]:
        work = inp["work"]
        return [("train_s", ["train", "--config", str(inp["train"]), "--dataset",
                             str(work / "data" / "dataset.bin"), "--out", str(work / "train")])]

    def check(self, inp: dict, p: Pass, ops: Ops) -> None:
        work = inp["work"]
        for name in ("data", "train"):
            p.digests.update(ops.check(f"{name} manifest digests", manifest_digests, work / name) or {})
        ops.check("epochs.csv rows", self._check_epochs, work / "train" / "epochs.csv")
        ops.check("checkpoints reload and match printed ECE", self._quality, inp, p)

    def _check_epochs(self, path: Path) -> None:
        phases = [row["phase"] for row in read_csv(path)]
        expected = ["warmup"] * self.warmup_epochs + ["cape"] * self.cape_epochs
        expect(phases == expected, f"{len(phases)} epoch rows, expected {len(expected)} pinned")

    def _quality(self, inp: dict, p: Pass) -> None:
        work = inp["work"]
        dataset = storage.read_dataset(work / "data" / "dataset.bin")
        folds = split_kfold(len(dataset), FOLDS, inp["train_seed"])
        train_idx, _, test_idx = kfold_rotation(folds, 0)
        reports = {}
        for arm in ("bce", "cape"):
            params = storage.read_checkpoint(work / "train" / f"{arm}_arm.ckpt")
            for block in (params.conv1_w, params.conv1_b, params.conv2_w, params.conv2_b):
                expect(bool(np.isfinite(block).all()), f"{arm} checkpoint has non-finite values")
            reports[arm] = evaluate_arm(params, dataset, test_idx, BINS)
        printed = re.search(r"test ECE bce=(\S+) cape=(\S+)", p.stdout["train_s"])
        expect(printed is not None, "train did not print the test ECE line")
        expect(
            printed.groups() == (f"{reports['bce'].ece:.4f}", f"{reports['cape'].ece:.4f}"),
            f"printed ECE {printed.groups()} differs from the reloaded checkpoints",
        )
        cape = reports["cape"]
        set_training_quality(p, reports["bce"].ece, cape.ece, cape.kl_true, cape.brier)
        p.train_passes = (self.warmup_epochs + self.cape_epochs) * len(train_idx)


def set_training_quality(p: Pass, ece_bce: float, ece_cape: float, kl: float, brier: float) -> None:
    p.quality = {"ece": ece_cape, "ece_gain": ece_bce - ece_cape, "kl": kl, "brier": brier}


class Sweep16:
    """`capeseg sweep --threads 2` on a 2x2 grid at 16x16 with epochs pinned."""

    name = "sweep16"
    passes = 1
    setup_batch = 5
    train_key = "sweep_s"
    rates = (0.07, 0.3)
    sizes = (200, 600)
    warmup_epochs = 8
    cape_epochs = 6
    threads = 2

    def setup(self, work: Path, seed: int, i: int, ops: Ops) -> dict:
        cfg = write_config(
            work / "sweep.cfg", height=16, width=16, channels=3, length_scale=2.0, gain=2.0,
            obs_noise=1.0, rates=", ".join(map(str, self.rates)),
            sizes=", ".join(map(str, self.sizes)), lr=0.01, max_epochs=self.warmup_epochs,
            patience=self.warmup_epochs - 1, cape_epochs_override=self.cape_epochs,
            batch_size=16, bins=BINS, folds=FOLDS, hidden_channels=8,
            seed=pass_seed(seed, i, 0), **{"lambda": 0.5},
        )
        return {"work": work, "cfg": cfg}

    def commands(self, inp: dict) -> list[tuple[str, list[str]]]:
        return [("sweep_s", ["sweep", "--config", str(inp["cfg"]), "--out",
                             str(inp["work"] / "sweep"), "--threads", str(self.threads)])]

    def check(self, inp: dict, p: Pass, ops: Ops) -> None:
        out = inp["work"] / "sweep"
        cells = len(self.rates) * len(self.sizes)
        failed_cells = ops.check("failures.csv", self._failed_cells, out)
        for cell in range(cells):
            ops.record(f"sweep cell {cell}", failed_cells is not None and cell >= failed_cells,
                       "cell failed")
        p.digests.update(ops.check("sweep manifest digests", manifest_digests, out) or {})
        for name in ("ece_vs_rate.svg", "kl_vs_rate.svg"):
            ops.check(f"{name} parses", self._check_svg, out / name)
        ops.check("sweep.csv rows", self._rows, out / "sweep.csv", p)

    @staticmethod
    def _failed_cells(out: Path) -> int:
        failures = out / "failures.csv"
        return len(read_csv(failures)) if failures.exists() else 0

    @staticmethod
    def _check_svg(path: Path) -> None:
        expect(ET.parse(path).getroot().tag.endswith("svg"), f"{path.name}: root is not <svg>")

    def _rows(self, path: Path, p: Pass) -> None:
        rows = read_csv(path)
        cells = len(self.rates) * len(self.sizes)
        expect(len(rows) == cells * FOLDS * 2, f"{len(rows)} rows, expected {cells * FOLDS * 2}")
        keys = [(r["rho"], r["n"], r["fold"], r["arm"]) for r in rows]
        expect(len(set(keys)) == len(keys), "duplicate (rho, n, fold, arm) rows")
        expect(all(int(r["stop_epoch"]) == self.warmup_epochs for r in rows), "warm-up stopped early")

        def mean(arm: str, key: str) -> float:
            return float(np.mean([float(r[key]) for r in rows if r["arm"] == arm]))

        set_training_quality(
            p, mean("bce", "ece"), mean("cape", "ece"), mean("cape", "kl"), mean("cape", "brier")
        )
        for r in rows:
            if r["arm"] == "cape":
                rot = int(r["fold"])
                sizes = fold_sizes(int(r["n"]))
                train = int(r["n"]) - sizes[rot] - sizes[(rot + 1) % FOLDS]
                p.train_passes += (int(r["stop_epoch"]) + self.cape_epochs) * train


class Data1m:
    """`capeseg generate` of 1000 32x32 samples, then `evaluate` and `evaluate --oracle`."""

    name = "data1m"
    passes = 3
    setup_batch = 1
    train_key = None
    n_samples = 1000
    target_rate = 0.14

    def setup(self, work: Path, seed: int, i: int, ops: Ops) -> dict:
        gen = write_config(
            work / "gen.cfg", height=32, width=32, channels=3, length_scale=4.0, gain=2.0,
            target_rate=self.target_rate, obs_noise=1.0, n_samples=self.n_samples,
            seed=pass_seed(seed, i, 0),
        )
        ckpt = work / "model.ckpt"
        storage.write_checkpoint(ckpt, init_params(3, 8, Rng(ANCHOR_SEED)))
        return {"work": work, "gen": gen, "ckpt": ckpt}

    def commands(self, inp: dict) -> list[tuple[str, list[str]]]:
        work = inp["work"]
        dataset = str(work / "data" / "dataset.bin")
        return [
            ("generate_s", ["generate", "--config", str(inp["gen"]), "--out", str(work / "data")]),
            ("evaluate_s", ["evaluate", "--checkpoint", str(inp["ckpt"]), "--dataset", dataset,
                            "--out", str(work / "eval")]),
            ("oracle_s", ["evaluate", "--oracle", "--dataset", dataset, "--out",
                          str(work / "oracle")]),
        ]

    def check(self, inp: dict, p: Pass, ops: Ops) -> None:
        work = inp["work"]
        for name in ("data", "eval", "oracle"):
            p.digests.update(ops.check(f"{name} manifest digests", manifest_digests, work / name) or {})
        pixels = self.n_samples * 32 * 32
        for name in ("eval", "oracle"):
            ops.check(f"{name} reliability counts", self._check_counts, work / name, pixels)
        ops.check("oracle calibration and event rate", self._check_oracle, work / "oracle")
        metrics = ops.check("evaluate metrics", self._metrics, work / "eval")
        if metrics:
            p.quality = {"ece": metrics["ece"], "kl": metrics["kl_true"], "brier": metrics["brier"]}

    @staticmethod
    def _metrics(outdir: Path) -> dict[str, float]:
        return {r["metric"]: float(r["value"]) for r in read_csv(outdir / "metrics.csv")}

    def _check_counts(self, outdir: Path, pixels: int) -> None:
        counts = sum(int(r["count"]) for r in read_csv(outdir / "reliability.csv"))
        expect(counts == pixels, f"reliability counts sum to {counts}, expected {pixels}")
        expect(self._metrics(outdir)["n_pixels"] == pixels, "metrics.csv n_pixels is wrong")

    def _check_oracle(self, outdir: Path) -> None:
        metrics = self._metrics(outdir)
        expect(metrics["ece"] < 0.01, f"oracle ECE {metrics['ece']} >= 0.01")
        expect(metrics["kl_true"] < 1e-4, f"oracle KL {metrics['kl_true']} >= 1e-4")
        rows = read_csv(outdir / "reliability.csv")
        events = sum(int(r["count"]) * float(r["prob_true"]) for r in rows)
        rate = events / sum(int(r["count"]) for r in rows)
        expect(abs(rate - self.target_rate) <= 0.005, f"event rate {rate} off target")


WORKLOADS = {w.name: w for w in (Fold32(), Sweep16(), Data1m())}
