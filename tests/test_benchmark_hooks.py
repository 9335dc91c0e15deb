"""The benchmark in perfbench/ wraps program functions by module and name.

Renaming or moving one of those names breaks a traced benchmark run; this
test makes that show up in the test suite instead.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_exist_and_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracing

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
    finally:
        for name in ("spec", "tracing", "workloads"):
            sys.modules.pop(name, None)
