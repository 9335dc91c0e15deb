"""capeseg benchmark: command wall times, calibration quality and layer spans.

    python3 perfbench/run.py --workload fold32 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-benchmark-json

Runs one workload from workloads.py in-process through `capeseg.cli.main`,
using the `src/` tree of the checkout it sits in, and checks every output.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
spec.py with `--trace 0`, the per-layer metrics with `--trace 1`. Earlier
lines give the machine and a report of the per-command figures. Details
and spans go to `.perfbench_out/` in the checkout.

Timing uses `time.perf_counter` and `resource.getrusage` only.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
# One BLAS/OpenMP thread per process: matmuls run at a known thread count and
# the two sweep workers never oversubscribe a 2-core machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TRACED_PASSES = 2
# Median time of probe() on the reference machine (README.md). Gated times
# are given at this speed: measured time * PROBE_REF_S / the run's probe time.
PROBE_REF_S = 0.0235


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measure at least this long (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_benchmark_json:
        parser.error("--workload is required")
    return args


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    """Larger of this process's and its children's peak RSS (ru_maxrss is KiB on Linux)."""
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / 1024.0


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def probe() -> float:
    """Seconds the fixed reference work takes: the median of three repeats.

    The work mixes interpreter steps, strided array copies and sorts, as the
    workloads do, and calls no capeseg code, so no program change moves it.
    It tracks the speed of the machine, which on a shared host drifts by up
    to 1.6x over tens of seconds."""
    import numpy as np

    cube = np.arange(64 * 32 * 32, dtype=np.float64).reshape(64, 32, 32)
    values = np.random.default_rng(0).random(200_000)
    times = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        rolled = cube
        for _ in range(20):
            rolled = np.roll(rolled, 1, axis=1) + np.roll(rolled, -1, axis=2)
        np.sort(values)
        np.argsort(values)
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure(wl, seed: int, seconds: float, tracer, work: Path, ops):
    """Untraced passes, then with a tracer two traced passes on the same sub-seeds.

    Without a tracer a run makes at least wl.passes passes, then more while
    the next one is expected to end within `seconds`. Before the first pass
    and after each pass it sets up wl.setup_batch more times alone, so that
    the set-up samples spread over the whole run as the commands do. It runs
    the probe after each set-up and after each command.
    With a tracer it makes at most two untraced passes, which serve the
    overhead and repeat checks, each followed by the traced pass on the same
    inputs.
    Returns (set-up seconds, probe seconds, untraced passes, traced passes,
    clean), where clean holds one bool per pass, its set-ups alone included:
    True if none of its operations failed."""
    from workloads import Pass, run_cli, start_cli

    setups: list[float] = []
    probes: list[float] = []
    clean: list[bool] = []

    def timed_setup(i: int, where: Path):
        start = perf_counter()
        start_cli(ops)
        inp = wl.setup(where, seed, i, ops)
        setups.append(perf_counter() - start)
        if tracer is None:
            probes.append(probe())
        return inp

    def grouped(what: str, fn, *args):
        """Run fn as one checked operation; note whether any operation in it failed."""
        failed = ops.failed
        result = ops.check(what, fn, *args)
        clean.append(result is not None and ops.failed == failed)
        return result

    def setup_batch():
        for _ in range(wl.setup_batch):
            where = work / f"setup{len(setups)}"
            timed_setup(len(setups), where)
            shutil.rmtree(where, ignore_errors=True)

    def one_pass(i: int, trace_id=None):
        if tracer is None and i == 0:
            setup_batch()
        where = work / f"pass{len(setups)}"
        inp = timed_setup(i, where)
        p = Pass(i, setups[-1])
        tracer_on = tracer is not None and trace_id is not None
        if tracer_on:
            tracer.trace = trace_id
        try:
            for key, argv in wl.commands(inp):
                p.times[key], p.stdout[key] = run_cli(argv, ops)
                if tracer is None:
                    probes.append(probe())
        finally:
            if tracer_on:
                tracer.trace = None
                tracer.merge_shipped()
        wl.check(inp, p, ops)
        shutil.rmtree(where, ignore_errors=True)
        if tracer is None:
            setup_batch()
        return p

    untraced, traced = [], []
    if tracer is None:
        start = perf_counter()
        while len(untraced) < wl.passes or (
            (perf_counter() - start) * (len(untraced) + 1) / len(untraced) <= seconds
        ):
            untraced.append(grouped(f"pass {len(untraced)}", one_pass, len(untraced)))
    else:  # alternate, so that drift of the machine's speed hits both kinds alike
        for i in range(TRACED_PASSES):
            if i < wl.passes:
                untraced.append(grouped(f"pass {i}", one_pass, i))
            tracer.install()
            try:
                traced.append(grouped(f"traced pass {i}", one_pass, i, i))
            finally:
                tracer.uninstall()
    return setups, probes, [p for p in untraced if p], [p for p in traced if p], clean


def end_to_end(wl, setups, probes, passes, clean, ops) -> tuple[dict, dict]:
    """(gated metrics, report of the per-command figures) from untraced passes.

    The gated times are scaled to the reference speed by PROBE_REF_S over the
    run's median probe time; the report gives them as measured. Quality comes
    from pass 0, the anchor pass."""
    anchor = passes[0].quality if passes and passes[0].index == 0 else {}
    quality = {k: anchor.get(k) for k in ("ece", "ece_gain", "kl", "brier")}
    training = wl.train_key is not None

    def command(key):
        return median_or_none([p.times.get(key) for p in passes])

    failed_share = ops.failed / ops.attempted
    probe_s = statistics.median(probes)
    scale = PROBE_REF_S / probe_s
    setup_s = statistics.median(setups)
    command_s = median_or_none([p.command_s for p in passes])
    metrics = {
        "setup_s": setup_s * scale,
        "command_ref_s": command_s * scale if command_s is not None else None,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": sum(clean) / len(clean),
        "ece": quality["ece"],
        "kl": quality["kl"],
        "brier": quality["brier"],
    }
    report = {
        "setup_s": setup_s,
        **{k: command(k) for k in ("train_s", "sweep_s", "generate_s", "evaluate_s", "oracle_s")},
        "train_samples_per_s": median_or_none(
            [p.train_passes / p.times[wl.train_key] for p in passes if p.train_passes]
        ) if training else None,
        "peak_rss_mb": metrics["peak_rss_mb"],
        "ece_cape": quality["ece"] if training else None,
        "ece_gain": quality["ece_gain"] if training else None,
        "kl_cape": quality["kl"] if training else None,
        "brier_cape": quality["brier"] if training else None,
        "failed_share": failed_share,
        "probe_s": probe_s,
    }
    return metrics, report


def per_layer(tracer, untraced, traced, ops) -> dict:
    """Median over traced passes of each layer metric; counts must repeat exactly."""
    from tracing import LayerStats

    per_pass = [LayerStats(tracer.spans, i).metrics() for i in range(len(traced))]
    for i, (u, t) in enumerate(zip(untraced, traced)):
        ops.record(f"pass {i} outputs repeat under tracing",
                   u.digests == t.digests and u.quality == t.quality and bool(t.digests),
                   "traced outputs differ from the untraced pass on the same inputs")
    for m in per_pass[1:]:
        diff = {k: (per_pass[0][k], m[k]) for k in spec.EXACT_COUNTS if m[k] != per_pass[0][k]}
        ops.record("exact counts repeat between passes", not diff, json.dumps(diff))
    metrics = {k: per_pass[0][k] if k in spec.EXACT_COUNTS else statistics.median(m[k] for m in per_pass)
               for k in (per_pass[0] if per_pass else {})}
    plain = median_or_none([p.command_s for p in untraced])
    with_spans = median_or_none([p.command_s for p in traced])
    if plain and with_spans:
        metrics["trace.overhead_s"] = with_spans - plain
        metrics["trace.overhead_share"] = (with_spans - plain) / plain
    return metrics


def write_spans(path: Path, spans: list[list]) -> None:
    fields = ["name", "start", "end", "parent", "trace", "work"]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": fields, "spans": spans}, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8"
        )
        return 0
    if not (SRC / "capeseg" / "cli" / "__init__.py").is_file():
        print(f"error: no capeseg sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(THREAD_ENV)  # before numpy loads; children inherit it
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS, Ops

    wl = WORKLOADS[args.workload]
    info = machine()
    print("machine: " + json.dumps(info), flush=True)
    ops = Ops()
    tracer = Tracer() if args.trace else None
    work = WORK / f"{wl.name}-{os.getpid()}"
    try:
        setups, probes, untraced, traced, clean = measure(
            wl, args.seed, args.seconds, tracer, work, ops
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = None
    if args.trace:
        values = per_layer(tracer, untraced, traced, ops)
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
    else:
        values, report = end_to_end(wl, setups, probes, untraced, clean, ops)
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
        print("report: " + json.dumps({k: {"value": report[k], "unit": u} for k, u in spec.REPORT}))
    metrics = {k: {"value": values.get(k), "unit": u} for k, u in units.items()}
    missing = [k for k, m in metrics.items() if m["value"] is None]
    if missing:
        print(f"failed: no value for {', '.join(missing)}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": wl.name, "seed": args.seed, "machine": info, "report": report,
        "metrics": metrics, "setup_s": setups, "probe_s": probes,
        "passes": [{"setup_s": p.setup_s, "times": p.times, "quality": p.quality}
                   for p in untraced + traced],
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        write_spans(stem.with_suffix(".spans.json.gz"), tracer.spans)

    print(json.dumps({
        "correct": ops.failed == 0 and not missing,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
