"""Fixtures for every test: no test may leave a worker process running."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_left_running():
    yield
    left = multiprocessing.active_children()
    assert left == [], f"the test left child processes running: {left}"
