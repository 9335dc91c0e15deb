"""What the capeseg benchmark measures: workloads, metrics and their bounds.

This module is the single source of BENCHMARK.json (see
`run.py --write-benchmark-json`) and imports nothing heavy, so the entry
point can read it before numpy is loaded.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

# One line each: why the workload was chosen, and which layers it leaves idle.
WORKLOADS = [
    {
        "name": "fold32",
        "why": "train 600x32x32 C=3, 12+10 epochs pinned: numerics conv fwd/bwd and the "
        "CaPE refresh binning dominate; fieldgen only in setup; idle: cli.svg, sweep pool",
    },
    {
        "name": "sweep16",
        "why": "sweep --threads 2 on 16x16 rates{.07,.3} x sizes{200,600}: per-call overhead, "
        "fieldgen in cells, pool straggler; worker spans shipped back; idle: dataset/ckpt I/O",
    },
    {
        "name": "data1m",
        "why": "generate 1000x32x32 (1.02M px), evaluate a fixed-seed ckpt, evaluate --oracle: "
        "fieldgen, 1M-pixel sorts, dataset write+read; idle: backward, Adam, losses, svg, pool",
    },
]

# Gated metrics. Every workload reports every one of them (see README.md
# for how each maps onto the per-command figures in the report line).
# Bounds follow sets of 10 seeds on a 2-core shared VM (README.md). Its speed
# drifts by up to 1.6x over tens of seconds, so the gated times are scaled to
# a reference speed measured by a fixed probe in the same run; the report
# line keeps them as measured. The quality figures come from the anchor
# pass, whose inputs are fixed, so they repeat exactly; reordering the conv
# sums left them unchanged to 7 digits, so a tight bound flags a changed
# result without flagging float noise.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "command_ref_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "ok_share", "unit": "ratio", "better": "higher", "bound": 0.05},
    {"name": "ece", "unit": "ratio", "better": "lower", "bound": 0.1},
    {"name": "kl", "unit": "nats", "better": "lower", "bound": 0.05},
    {"name": "brier", "unit": "ratio", "better": "lower", "bound": 0.02},
]

# The per-command figures researchers quote. Printed on the `report:` line
# of every run (null where a workload does not run that command); not gated.
REPORT = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("sweep_s", "s"),
    ("generate_s", "s"),
    ("evaluate_s", "s"),
    ("oracle_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("peak_rss_mb", "MB"),
    ("ece_cape", "ratio"),
    ("ece_gain", "ratio"),
    ("kl_cape", "nats"),
    ("brier_cape", "ratio"),
    ("failed_share", "ratio"),
    ("probe_s", "s"),
]


def _layer(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


def _timed(span: str, *stats: str) -> list[dict]:
    return [_layer(f"{span}.{stat}", "count" if stat == "calls" else "s") for stat in stats]


# Layer metrics from the traced run. `.s` is busy time summed over spans
# (across both sweep workers), `.self_s` is busy time minus child spans.
PER_LAYER = [
    *_timed("fieldgen.generate_dataset", "s"),
    *_timed("fieldgen.calibrate_offset", "s"),
    *_timed("fieldgen.make_sample", "calls", "s"),
    *_timed("numerics.conv2d_forward", "calls", "s"),
    *_timed("numerics.conv2d_backward", "calls", "s"),
    *_timed("numerics.adam_step", "calls", "s"),
    _layer("numerics.conv.flops", "flop"),
    _layer("numerics.conv.bytes", "B"),
    _layer("numerics.conv.gflop_per_s", "GFLOP/s", "higher"),
    *_timed("model.forward", "calls", "self_s"),
    *_timed("model.backward", "calls", "self_s"),
    *_timed("model.predict", "calls"),
    *_timed("calibration.build_bins", "calls", "s"),
    _layer("calibration.build_bins.pixels", "count"),
    *_timed("calibration.bin_assignment", "calls", "s"),
    *_timed("calibration.loss", "calls", "s"),
    *_timed("calibration.evaluate_predictions", "s"),
    *_timed("calibration.kl_to_true", "s"),
    *_timed("pipeline.train_warmup", "s", "self_s"),
    *_timed("pipeline.train_cape", "s", "self_s"),
    *_timed("pipeline.evaluate_arm", "s"),
    _layer("pipeline.epochs", "count"),
    _layer("pipeline.refreshes", "count"),
    *_timed("pipeline.run_experiment", "s"),
    _layer("pipeline.cell.s_median", "s"),
    _layer("pipeline.cell.s_max", "s"),
    _layer("pipeline.worker_idle_share", "ratio"),
    *_timed("storage.read_dataset", "s"),
    _layer("storage.read_dataset.bytes", "B"),
    *_timed("storage.write_dataset", "s"),
    _layer("storage.write_dataset.bytes", "B"),
    *_timed("storage.checkpoint", "s"),
    *_timed("storage.csv", "s"),
    *_timed("storage.write_manifest", "s"),
    _layer("storage.write_manifest.bytes_hashed", "B"),
    *_timed("svg", "s"),
    *_timed("cli.main", "self_s"),
    _layer("trace.overhead_s", "s"),
    _layer("trace.overhead_share", "ratio"),
]

# Counts that depend only on the code and the workload shape, never on the
# seed or the clock; the traced run fails a check if two passes disagree.
EXACT_COUNTS = [
    m["name"]
    for m in PER_LAYER
    if m["unit"] in ("count", "flop") or m["name"].endswith(".bytes")
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
