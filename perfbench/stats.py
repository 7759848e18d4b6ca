"""Latency percentiles, reported only with enough samples beyond them."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def nearest_rank(samples, q: float) -> float:
    """The q-quantile by the nearest-rank rule, so always a measured sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def tail(samples, q: float):
    """The q-quantile, or None with fewer than MIN_BEYOND samples above it."""
    n = len(samples)
    if n - max(1, math.ceil(q * n)) < MIN_BEYOND:
        return None
    return nearest_rank(samples, q)
