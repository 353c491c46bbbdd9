"""Arithmetic behind the reported numbers: medians, tail percentiles, span
self time and failure ratios.  Pure Python, so it imports nothing the
timed program uses."""

import math

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of an empty sequence")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail_percentile(values, min_beyond=10):
    """Highest percentile of `TAIL_PERCENTILES` with `min_beyond` samples above it.

    Uses the nearest-rank definition: percentile p is the k-th smallest
    sample with k = ceil(p * n / 100), and n - k samples lie beyond it.
    Returns {"percentile", "value", "beyond", "n"}, or None when no
    candidate leaves enough samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        k = max(1, math.ceil(p * n / 100.0))
        if n - k >= min_beyond:
            return {"percentile": p, "value": xs[k - 1], "beyond": n - k, "n": n}
    return None


def self_times(spans):
    """Self time of each span: its duration minus the durations of its children.

    `spans` holds dicts with keys id, parent (None for a root), start, end.
    Spans of one thread nest, so children never overlap and the self times
    of a tree sum to the duration of its root.  Raises ValueError for a
    span that is unfinished or not inside its parent.
    """
    by_id = {s["id"]: s for s in spans}
    own = {}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            raise ValueError(f"span {s['id']} is unfinished or ends before it starts")
        own[s["id"]] = s["end"] - s["start"]
    out = dict(own)
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            raise ValueError(f"span {s['id']} escapes its parent {s['parent']}")
        out[s["parent"]] -= own[s["id"]]
    return out


def failure_ratio(failed, attempted):
    """Failed operations as a share of attempted ones."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted
