"""The benchmark's arithmetic: every reported statistic is computed here
from raw samples, so the tests in perfbench/tests cover all of it."""

import statistics


class Refused(ValueError):
    """A statistic asked of too few samples."""


class Stat(float):
    """A float that remembers how many samples it was computed from."""

    def __new__(cls, value, count):
        obj = super().__new__(cls, value)
        obj.count = count
        return obj


def median(samples):
    """Median (midpoint of the two middle values for an even count)."""
    if not samples:
        raise Refused("median of no samples")
    return Stat(statistics.median(samples), len(samples))


def min_samples(q):
    """Fewest samples for which percentile ``q`` has at least ten samples
    beyond it: p90 needs 100, p75 needs 40, p50 needs 20."""
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    return round(1000 / (100 - q))


def percentile(samples, q):
    """Nearest-rank percentile ``q`` of ``samples``. Refuses when fewer
    than ten samples lie beyond it (the median is exempt: it is the
    centre, not a tail), and carries the sample count."""
    n = len(samples)
    if q == 50:
        return median(samples)
    if n < min_samples(q):
        raise Refused(f"p{q:g} needs at least {min_samples(q)} samples, got {n}")
    ordered = sorted(samples)
    rank = -(-q * n // 100)  # ceil(q·n/100), the nearest-rank definition
    return Stat(ordered[int(rank) - 1], n)


def tail(samples, q):
    """``percentile(samples, q)``, or the refusal itself when there are too
    few samples (so a report can print why the tail is missing)."""
    try:
        return percentile(samples, q)
    except Refused as e:
        return e


def rate(count, seconds):
    """Work items per second over a timed window."""
    if seconds <= 0:
        raise ValueError("rate over an empty window")
    return count / seconds


def per(total, items):
    """``total`` normalised per work item (per unit or per job)."""
    if items <= 0:
        raise ValueError("normalising by zero items")
    return total / items


def error_pct(failed, attempted):
    """Share of attempted jobs that failed, were refused, timed out or
    failed the output check."""
    if attempted <= 0:
        raise ValueError("no jobs attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return 100.0 * failed / attempted


def verified_pct(failed, attempted):
    """Share of attempted jobs whose output passed the check."""
    return 100.0 - error_pct(failed, attempted)


def mean(values):
    if not values:
        raise Refused("mean of no values")
    return statistics.fmean(values)


def spread(values):
    """Interquartile distance as a share of the median, computed the way
    the acceptance check does: ``statistics.quantiles(values, n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
