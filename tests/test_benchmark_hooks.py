"""The benchmark in perfbench/ wraps program functions by module and name.

Renaming or moving one of those names breaks a traced benchmark run, and a
caller that stops looking one up silently zeroes its counters; these tests
make both show up in the test suite instead.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import capeseg
from capeseg import cli, pipeline
from capeseg.cli import storage
from capeseg.fieldgen import FieldConfig, generate_chunks, generate_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracing

        yield tracing
    finally:
        for name in ("spec", "tracing", "workloads"):
            sys.modules.pop(name, None)


def test_tracer_targets_exist_and_workloads_import(tracing):
    targets = tracing._targets()
    originals = [getattr(module, attr) for module, attr, *_ in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, *_ in targets:
            assert hasattr(getattr(module, attr), "__wrapped__"), f"{attr} not wrapped"
    finally:
        tracer.uninstall()
    for (module, attr, *_), original in zip(targets, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"

    import workloads

    assert set(workloads.WORKLOADS) == {"fold32", "sweep16", "data1m"}


def unused_imports(path: Path) -> set[str]:
    """The names a module's import statements bind that its code never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_names_imported_only_for_the_tracer_are_its_targets(tracing):
    """A capeseg module imports a name it never uses only so that the tracer can
    wrap it there; a name the tracer no longer wraps is a stale import."""
    package = Path(capeseg.__file__).parent
    targets = {(module.__name__, attr) for module, attr, *_ in tracing._targets()}
    unused = set()
    for path in package.rglob("*.py"):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        unused |= {(module, name) for name in unused_imports(path)}
    assert unused - targets == set()


def test_traced_fold_counts_its_phases_epochs_and_refreshes(tracing):
    dataset = generate_dataset(
        FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3, seed=3), 12
    )
    config = pipeline.TrainConfig(
        lr=0.01, max_epochs=4, patience=2, batch_size=4, bins=4, folds=3,
        cape_epochs=3, hidden_channels=2, seed=5,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.trace = 1
        run = pipeline.run_fold(dataset, pipeline.split_kfold(12, 3, 5), 0, config)
    finally:
        tracer.uninstall()
    calls = Counter(span[tracing.NAME] for span in tracer.spans)
    warmup_epochs, cape_epochs = run.warmup.stop_epoch, len(run.arms[1].records)
    assert cape_epochs == 3
    assert calls["pipeline.epoch"] == warmup_epochs + cape_epochs
    assert calls["pipeline.refresh"] == cape_epochs
    assert calls["pipeline.train_warmup"] == calls["pipeline.train_cape"] == 1


def test_traced_serial_sweep_counts_its_cells(tracing):
    field = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.5, seed=3)
    config = pipeline.TrainConfig(
        lr=0.01, max_epochs=3, patience=2, batch_size=4, bins=4, folds=3,
        cape_epochs=2, hidden_channels=2, seed=5,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.trace = 1
        result = cli.run_experiment(field, [0.2, 0.4], [9, 12], config, 1)
    finally:
        tracer.uninstall()
    assert [cell.error for cell in result.cells] == [None] * 4
    calls = Counter(span[tracing.NAME] for span in tracer.spans)
    assert calls["pipeline.run_experiment"] == 1
    assert calls["pipeline.cell"] == 4
    assert calls["pipeline.train_warmup"] == calls["pipeline.train_cape"] == 12


def test_traced_train_repeats_untraced_outputs_and_counts(tracing, tmp_path, monkeypatch):
    """As the benchmark's fold32 check does: `train` with the forked record helper
    writes the same outputs untraced and traced, and two traced runs make the
    same calls."""
    dataset = tmp_path / "dataset.bin"
    storage.write_dataset(dataset, generate_chunks(
        FieldConfig(height=16, width=16, length_scale=2.0, target_rate=0.2, seed=21), 24
    ))
    config = tmp_path / "train.cfg"
    config.write_text(
        "lr = 0.01\nmax_epochs = 3\npatience = 2\nbatch_size = 8\nbins = 10\nfolds = 3\n"
        "cape_epochs_override = 2\nhidden_channels = 4\nseed = 13\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1})

    def train(name):
        out = tmp_path / name
        argv = ["train", "--config", str(config), "--dataset", str(dataset), "--out", str(out)]
        assert cli.main(argv) == 0
        return [(out / n).read_bytes() for n in ("bce_arm.ckpt", "cape_arm.ckpt", "epochs.csv")]

    untraced = train("untraced")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for trace in (1, 2):
            tracer.trace = trace
            traced.append(train(f"traced{trace}"))
    finally:
        tracer.uninstall()
    assert traced == [untraced, untraced]
    calls = [
        Counter(span[tracing.NAME] for span in tracer.spans if span[tracing.TRACE] == trace)
        for trace in (1, 2)
    ]
    assert calls[0] == calls[1]
    assert calls[0]["pipeline.epoch"] == 5
    assert calls[0]["pipeline.evaluate_arm"] == 1  # the bce arm is scored on the helper
