"""Fixtures shared by the DSO tests."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Thread hygiene: once a test and the fixtures that close its
    kernels have finished, every OS thread its kernels started is gone
    (an autouse fixture is set up first, so it is torn down last)."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before, (
        f"{threading.active_count() - before} OS thread(s) outlived the "
        f"test: {[thread.name for thread in threading.enumerate()]}")
