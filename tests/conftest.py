"""Shared test settings.

Property tests run derandomized, so every run draws the same examples, and
without a per-example deadline, so a loaded machine cannot fail them on time.
Each test starts with no radial kernel held by the transform engine, so
rows a test fakes (or counts) never reach the next one.
"""

import pytest
from hypothesis import settings

import finitenet.mgf as mgf

settings.register_profile("finitenet", derandomize=True, deadline=None)
settings.load_profile("finitenet")


@pytest.fixture(autouse=True)
def _no_held_kernel():
    mgf._held_kernel = None
