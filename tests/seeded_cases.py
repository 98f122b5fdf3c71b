"""Random test cases that every host draws alike.

A case generator is a function of a Draws source. check_cases builds each
case from a generator seeded on (seed, case index) alone, so the cases do
not depend on the host, on how long earlier cases ran or on the other
cases.
"""

import math

import numpy as np


class Draws:
    """Seeded draws of integers, floats and choices for a case generator."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, lo, hi):
        """A whole number in [lo, hi]."""
        return int(self._rng.integers(lo, hi, endpoint=True))

    def floats(self, lo, hi):
        """A float in [lo, hi]; one draw in eight is an end of the range."""
        pick = self._rng.integers(16)
        if pick < 2:
            return (lo, hi)[pick]
        return lo + (hi - lo) * self._rng.random()

    def log_floats(self, lo, hi):
        """A float in [lo, hi] uniform in its logarithm, so every order of
        magnitude of a scale is drawn alike."""
        log_lo, log_hi = math.log(lo), math.log(hi)
        x = math.exp(log_lo + (log_hi - log_lo) * self._rng.random())
        return min(hi, max(lo, x))

    def sampled_from(self, items):
        return items[self.integers(0, len(items) - 1)]


def check_cases(check, make, count, seed):
    """check(*make(Draws((seed, i)))) for i in range(count); a failing case
    is named with its index and its arguments."""
    for i in range(count):
        case = make(Draws((seed, i)))
        try:
            check(*case)
        except Exception as exc:
            raise AssertionError(f"case {i} of seed {seed}: {case!r}") \
                from exc
