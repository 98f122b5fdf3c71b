"""Shared test settings.

Property tests run derandomized, so every run draws the same examples, and
without a per-example deadline, so a loaded machine cannot fail them on time.
"""

from hypothesis import settings

settings.register_profile("finitenet", derandomize=True, deadline=None)
settings.load_profile("finitenet")
