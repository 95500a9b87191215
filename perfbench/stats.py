"""Summary statistics shared by the benchmark, its spread check and tests."""

import math
import statistics


def tail_percentile(n):
    """Highest whole percentile that leaves at least ten of n samples above
    it, by the nearest-rank rule; 100 (the maximum) when n <= 10."""
    if n <= 10:
        return 100
    return (100 * (n - 10)) // n


def percentile(values, pct):
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def tail(values):
    """(percentile, value) of the tail rule above."""
    pct = tail_percentile(len(values))
    return pct, percentile(values, pct)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def ratio(num, den):
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0
