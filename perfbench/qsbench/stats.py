"""Sample summaries: medians and the tail-percentile rule.

Timings are reported as a median plus the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it, always with the sample
count, so a tail figure is never read off a handful of points.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Optional, Sequence

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10
#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest ladder percentile with ``min_beyond`` samples past it."""
    for q in TAIL_LADDER:
        if beyond(n, q) >= min_beyond:
            return q
    return None


def summarize(samples: Iterable[float]) -> Dict[str, Optional[float]]:
    """``n``, ``p50``, the tail percentile ``tail_q`` and its value ``tail``."""
    values = list(samples)
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "tail_q": None, "tail": None}
    q = tail_percentile(n)
    return {
        "n": n,
        "p50": statistics.median(values),
        "tail_q": q,
        "tail": percentile(values, q) if q is not None else None,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
