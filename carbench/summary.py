"""Sample summaries and span arithmetic for the CAR recovery benchmark.

Quantiles follow Python's statistics.quantiles (the "exclusive" method), so
the spreads printed here are the ones a reader recomputes from the raw
values with the standard library.
"""

import math
import statistics

# Percentiles considered for the tail report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) of a non-empty sequence.

    One sample gives itself three times; otherwise the quartiles are
    statistics.quantiles(values, n=4).
    """
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None when there are too few samples for any of them."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0:
            ordered = sorted(values)
            # Nearest-rank percentile: the smallest value with at least p%
            # of the samples at or below it.
            rank = max(1, math.ceil(p * n / 100.0))
            return p, ordered[rank - 1]
    return None


def relative_spread(values):
    """Interquartile range as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0
    return (q3 - q1) / abs(q2)


def describe(values):
    """Summary row of one metric: sample count, median, quartiles, tail."""
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": q2,
        "q1": q1,
        "q3": q3,
        "tail": tail_percentile(values),
    }


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    `spans` is a list of dicts with start_s, end_s and parent (an index into
    the same list, -1 for a root).  Children of one span never overlap (the
    driver is single-threaded at span boundaries), so their durations add.
    """
    own = [s["end_s"] - s["start_s"] for s in spans]
    for s in spans:
        parent = s["parent"]
        if parent >= 0:
            own[parent] -= s["end_s"] - s["start_s"]
    return own


def self_time_by_iteration(spans):
    """{iteration: {span name: summed self time}}."""
    own = self_times(spans)
    out = {}
    for span, seconds in zip(spans, own):
        names = out.setdefault(span["iteration"], {})
        names[span["name"]] = names.get(span["name"], 0.0) + seconds
    return out

