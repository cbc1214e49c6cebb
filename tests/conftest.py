"""Suite-wide guards."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_live_child_process():
    """Fail a test that leaves a worker process running: every pool must end with its call."""
    yield
    left = multiprocessing.active_children()
    if left:
        for child in left:
            child.terminate()
            child.join()
        pytest.fail(f"the test left {len(left)} live child process(es): {left}")
