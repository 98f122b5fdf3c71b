"""Shared test fixtures.

Each test starts with no radial kernel held by the transform engine and
no moment table kept by the series engine, so rows a test fakes (or
counts) never reach the next one, and fails if it leaves more threads
running than it found, as a pool that is not shut down would.
"""

import threading

import pytest

import finitenet.mgf as mgf
import finitenet.rlpg as rlpg


@pytest.fixture(autouse=True)
def _no_held_kernel():
    mgf._held_kernel = None
    rlpg._held_table = None


@pytest.fixture(autouse=True)
def _no_thread_left_running():
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, "threads left running"
