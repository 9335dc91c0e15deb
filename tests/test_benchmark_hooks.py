"""The benchmark in perfbench/ wraps program functions by module and name.

Renaming or moving one of those names breaks a traced benchmark run, and a
caller that stops looking one up silently zeroes its counters; these tests
make both show up in the test suite instead.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from capeseg import cli, pipeline
from capeseg.fieldgen import FieldConfig, generate_dataset

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


def test_traced_fold_counts_its_phases_epochs_and_refreshes(tracing):
    dataset = generate_dataset(
        FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.3, seed=3), 12
    )
    config = pipeline.TrainConfig(
        lr=0.01, max_epochs=4, patience=2, batch_size=4, bins=4, folds=3,
        cape_epochs_override=3, hidden_channels=2, seed=5,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.trace = 1
        run = pipeline.run_fold(dataset, pipeline.split_kfold(12, 3, 5), 0, config)
    finally:
        tracer.uninstall()
    calls = Counter(span[tracing.NAME] for span in tracer.spans)
    warmup_epochs, cape_epochs = run.warmup.stop_epoch, len(run.cape_records)
    assert cape_epochs == 3
    assert calls["pipeline.epoch"] == warmup_epochs + cape_epochs
    assert calls["pipeline.refresh"] == cape_epochs
    assert calls["pipeline.train_warmup"] == calls["pipeline.train_cape"] == 1


def test_traced_serial_sweep_counts_its_cells(tracing):
    field = FieldConfig(height=8, width=8, length_scale=1.0, target_rate=0.5, seed=3)
    config = pipeline.TrainConfig(
        lr=0.01, max_epochs=3, patience=2, batch_size=4, bins=4, folds=3,
        cape_epochs_override=2, hidden_channels=2, seed=5,
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
