"""Span tracing of capeseg from outside the program.

`Tracer.install` replaces, for the duration of a traced run, each name a
caller looks up (for example `capeseg.pipeline.forward`, which the
training loop calls, or `capeseg.cli.storage.read_dataset`, which the CLI
calls) with a wrapper that records a span: name, start, end, parent span
and the id of the command pass it belongs to. Spans stay in memory and are
written out when the run ends.

Sweep workers are forked, so they inherit the wrappers. Each worker keeps
the spans of one cell, attaches them to the cell's result object, and the
wrapper around `run_experiment` in the parent moves them into the parent's
span list (ship-back, rather than tracing the cells in-process).
"""

from __future__ import annotations

import functools
import os
import statistics
from time import perf_counter

from spec import PER_LAYER

NAME, START, END, PARENT, TRACE, WORK = range(6)
_SHIPPED = "_perfbench_spans"


def _conv_forward_work(args, kwargs, result):
    """Computed (flops, bytes) of one same-padded conv: 2*F*C*k*k*H*W flops;
    bytes read and written once (input, kernels, bias, output), cache misses ignored."""
    c, h, w = args[0].shape
    f, _, k, _ = args[1].shape
    return 2 * f * c * k * k * h * w, 8 * (c * h * w + f * c * k * k + f + f * h * w)


def _conv_backward_work(args, kwargs, result):
    """Computed (flops, bytes) of one conv backward: kernel and input gradients,
    2*F*C*k*k*H*W flops each; reads input, upstream and kernels, writes the gradients."""
    cache = args[0]
    f, h, w = cache.out_shape
    c, _, _ = cache.padded.shape
    k = cache.kernels.shape[2]
    flops = 4 * f * c * k * k * h * w
    return flops, 8 * (2 * c * h * w + f * h * w + 2 * f * c * k * k + f)


def _pixels(args, kwargs, result):
    return int(args[0].size)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _hashed_bytes(args, kwargs, result):
    return sum(os.path.getsize(p) for p in args[4])


def _threads(args, kwargs, result):
    return int(args[4] if len(args) > 4 else kwargs.get("threads", 1))


def _targets():
    """(module, attribute, span name, kind, work) for every traced call site."""
    import capeseg.calibration as calibration
    import capeseg.cli as cli
    import capeseg.fieldgen as fieldgen
    import capeseg.model as model
    import capeseg.pipeline as pipeline
    from capeseg.cli import storage, svg

    span, event = "span", "event"
    return [
        (cli, "main", "cli.main", span, None),
        (cli, "generate_dataset", "fieldgen.generate_dataset", span, None),
        (pipeline, "generate_dataset", "fieldgen.generate_dataset", span, None),
        (fieldgen, "calibrate_offset", "fieldgen.calibrate_offset", span, None),
        (fieldgen, "make_sample", "fieldgen.make_sample", span, None),
        (model, "conv2d_forward", "numerics.conv2d_forward", span, _conv_forward_work),
        (model, "conv2d_backward", "numerics.conv2d_backward", span, _conv_backward_work),
        (pipeline, "adam_step", "numerics.adam_step", span, None),
        (pipeline, "forward", "model.forward", span, None),
        (model, "forward", "model.forward", span, None),  # the one predict calls
        (pipeline, "backward", "model.backward", span, None),
        (pipeline, "predict", "model.predict", span, None),
        (pipeline, "build_bins", "calibration.build_bins", span, _pixels),
        (calibration, "build_bins", "calibration.build_bins", span, _pixels),
        (pipeline, "bin_assignment", "calibration.bin_assignment", span, None),
        (calibration, "bin_assignment", "calibration.bin_assignment", span, None),
        (pipeline, "bce_loss", "calibration.loss", span, None),
        (pipeline, "combined_loss", "calibration.loss", span, None),
        (pipeline, "evaluate_predictions", "calibration.evaluate_predictions", span, None),
        (cli, "evaluate_predictions", "calibration.evaluate_predictions", span, None),
        (pipeline, "kl_to_true", "calibration.kl_to_true", span, None),
        (calibration, "kl_to_true", "calibration.kl_to_true", span, None),
        (cli, "train_warmup", "pipeline.train_warmup", span, None),
        (pipeline, "train_warmup", "pipeline.train_warmup", span, None),
        (cli, "train_cape", "pipeline.train_cape", span, None),
        (pipeline, "train_cape", "pipeline.train_cape", span, None),
        (cli, "evaluate_arm", "pipeline.evaluate_arm", span, None),
        (pipeline, "evaluate_arm", "pipeline.evaluate_arm", span, None),
        (pipeline, "_run_epoch", "pipeline.epoch", event, None),
        (pipeline, "assign_p_emp", "pipeline.refresh", event, None),
        (cli, "run_experiment", "pipeline.run_experiment", "sweep", _threads),
        (pipeline, "_run_cell", "pipeline.cell", "cell", None),
        (storage, "read_dataset", "storage.read_dataset", span, _file_bytes),
        (storage, "write_dataset", "storage.write_dataset", span, _file_bytes),
        (storage, "read_checkpoint", "storage.checkpoint", span, None),
        (storage, "write_checkpoint", "storage.checkpoint", span, None),
        (storage, "write_epoch_csv", "storage.csv", span, None),
        (storage, "write_sweep_csv", "storage.csv", span, None),
        (storage, "write_metrics_csv", "storage.csv", span, None),
        (storage, "write_reliability_csv", "storage.csv", span, None),
        (storage, "write_failures_csv", "storage.csv", span, None),
        (storage, "write_manifest", "storage.write_manifest", span, _hashed_bytes),
        (svg, "sweep_chart", "svg", span, None),
    ]


class Tracer:
    """In-memory span recorder. Records only while `trace` is set."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trace id, work]
        self.stack: list[int] = []
        self.trace = None
        self.shipped: list[tuple[int, list[list]]] = []  # (mark, spans) from sweep workers
        self.pid = os.getpid()
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, kind, work in _targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, getattr(self, f"_{kind}")(name, original, work))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _span(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.trace is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer.trace, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer.stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            return result

        return traced

    def _event(self, name, fn, work):
        """Zero-length span: counts a call without taking its time from the caller's self time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.trace is not None:
                now = perf_counter()
                parent = tracer.stack[-1] if tracer.stack else -1
                tracer.spans.append([name, now, now, parent, tracer.trace, None])
            return fn(*args, **kwargs)

        return traced

    def _cell(self, name, fn, work):
        tracer = self
        traced_cell = self._span(name, fn, work)

        @functools.wraps(fn)
        def traced(task):
            if tracer.trace is None or os.getpid() == tracer.pid:
                return traced_cell(task)
            mark = len(tracer.spans)  # forked worker: ship this cell's spans back
            result = traced_cell(task)
            setattr(result, _SHIPPED, (mark, tracer.spans[mark:]))
            del tracer.spans[mark:]
            return result

        return traced

    def _sweep(self, name, fn, work):
        tracer = self
        traced_sweep = self._span(name, fn, work)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = traced_sweep(*args, **kwargs)
            for cell in result.cells:
                shipped = cell.__dict__.pop(_SHIPPED, None)
                if shipped is not None:
                    tracer.shipped.append(shipped)
            return result

        return traced

    def merge_shipped(self) -> None:
        """Append the spans workers shipped back; done outside the timed commands.
        Parents below a worker's `mark` were open here when it forked, so their
        indices are still valid."""
        for mark, spans in self.shipped:
            base = len(self.spans)
            for span in spans:
                parent = span[PARENT]
                if parent >= mark:
                    parent += base - mark
                self.spans.append([*span[:PARENT], parent, *span[TRACE:]])
        self.shipped.clear()


class LayerStats:
    """Per-span-name totals for the spans of one traced command pass."""

    def __init__(self, spans: list[list], trace_id):
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[TRACE] == trace_id and span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.work: dict[str, list] = {}
        self.durations: dict[str, list[float]] = {}
        for i, span in enumerate(spans):
            if span[TRACE] != trace_id:
                continue
            name, dur = span[NAME], span[END] - span[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[i]
            self.durations.setdefault(name, []).append(dur)
            if span[WORK] is not None:
                self.work.setdefault(name, []).append(span[WORK])

    def work_sum(self, name: str, field: int | None = None) -> int:
        items = self.work.get(name, [])
        return sum(w if field is None else w[field] for w in items)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        conv = ("numerics.conv2d_forward", "numerics.conv2d_backward")
        flops = sum(self.work_sum(n, 0) for n in conv)
        conv_s = sum(self.busy.get(n, 0.0) for n in conv)
        cells = self.durations.get("pipeline.cell", [])
        sweep_wall = self.busy.get("pipeline.run_experiment", 0.0)
        workers = min(self.work_sum("pipeline.run_experiment"), len(cells))
        special = {
            "numerics.conv.flops": flops,
            "numerics.conv.bytes": sum(self.work_sum(n, 1) for n in conv),
            "numerics.conv.gflop_per_s": flops / conv_s / 1e9 if conv_s else 0.0,
            "calibration.build_bins.pixels": self.work_sum("calibration.build_bins"),
            "pipeline.epochs": self.calls.get("pipeline.epoch", 0),
            "pipeline.refreshes": self.calls.get("pipeline.refresh", 0),
            "pipeline.cell.s_median": statistics.median(cells) if cells else 0.0,
            "pipeline.cell.s_max": max(cells, default=0.0),
            "pipeline.worker_idle_share": (
                1.0 - sum(cells) / (workers * sweep_wall) if cells and sweep_wall else 0.0
            ),
            "storage.read_dataset.bytes": self.work_sum("storage.read_dataset"),
            "storage.write_dataset.bytes": self.work_sum("storage.write_dataset"),
            "storage.write_manifest.bytes_hashed": self.work_sum("storage.write_manifest"),
        }
        stats = {"calls": self.calls, "s": self.busy, "self_s": self.self_time}
        out = {}
        for metric in PER_LAYER:
            name = metric["name"]
            if name.startswith("trace."):
                continue
            if name in special:
                out[name] = special[name]
            else:
                span_name, stat = name.rsplit(".", 1)
                out[name] = stats[stat].get(span_name, 0 if stat == "calls" else 0.0)
        return out
