"""Order statistics for the benchmark report."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# Tail percentiles tried from the lowest up; exact fractions so that the
# "samples beyond" count has no rounding error at n = 1000 or 10000.
TAIL_LADDER = (Fraction(90), Fraction(99), Fraction(999, 10), Fraction(9999, 100))
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Percentile by linear interpolation between the closest ranks, so
    that p=50 is the usual median."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    h = (len(ordered) - 1) * float(p) / 100
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def tail_percentile(n: int) -> Fraction | None:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it, or None when even p90 has fewer."""
    best = None
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= MIN_BEYOND:
            best = p
    return best


def tail_label(p: Fraction) -> str:
    """``p90``, ``p99``, ``p99.9``: the suffix used in metric names."""
    return f"p{float(p):g}"
