"""Summaries of timing samples."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile
CAP = 99         # the highest percentile reported


def tail_percentile(values):
    """The highest whole percentile q <= CAP with at least MIN_BEYOND samples
    above it, by the nearest-rank rule.

    Returns (value, q, n). Raises ValueError when even the median would
    have fewer than MIN_BEYOND samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for q in range(CAP, 49, -1):
        rank = max(math.ceil(q * n / 100), 1)
        if n - rank >= MIN_BEYOND:
            return xs[rank - 1], q, n
    raise ValueError(f"{n} samples are too few for a tail percentile")


def rate(pairs):
    """Work per second over (work, seconds) pairs: total work / total time."""
    return sum(n for n, _ in pairs) / sum(t for _, t in pairs)
