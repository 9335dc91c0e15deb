import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as a record
    helper or a sweep worker that was never shut down."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running after the test: {left}"
