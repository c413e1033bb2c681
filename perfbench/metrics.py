"""Pure helpers of the benchmark: percentiles, span self time, metric names.

Kept free of I/O so that test_metrics.py can check them directly.
"""

import math
import re
import statistics

# A metric name: starts with a letter or digit, then up to 63 more of
# [A-Za-z0-9_.-].
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")


def valid_metric_name(name):
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def nearest_rank(samples, q):
    """Nearest-rank q-quantile of `samples` and how many samples lie
    beyond it: the value at rank ceil(q * n) of the sorted samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples, q, min_beyond=10):
    """The q-quantile, refused unless at least `min_beyond` samples lie
    beyond it (a tail percentile needs samples in its tail)."""
    value, beyond = nearest_rank(samples, q)
    if beyond < min_beyond:
        raise ValueError(
            f"p{round(q * 100)} of {len(samples)} samples has {beyond} "
            f"beyond it; at least {min_beyond} are needed")
    return value


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its children (the union of their intervals,
    clipped to the parent). `spans` is a list of dicts with id, parent,
    t0 and t1; returns {id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s["t0"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], end, s["t0"]), min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
            end = max(end, hi)
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
