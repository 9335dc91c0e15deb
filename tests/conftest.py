import multiprocessing
import re

import pytest

_PUBLISH_TEMPORARY = re.compile(r"\..+\.\d+\.tmp")  # storage.publish's ".<name>.<pid>.tmp"


@pytest.fixture(autouse=True)
def nothing_left_behind(request):
    """Fail a test that leaves a child process running, such as a record
    helper or a sweep worker that was never shut down, or a publish
    temporary under its tmp_path."""
    tmp_path = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running after the test: {left}"
    if tmp_path is not None:
        temporaries = [p for p in tmp_path.rglob(".*.tmp") if _PUBLISH_TEMPORARY.fullmatch(p.name)]
        assert not temporaries, f"publish temporaries left after the test: {temporaries}"
