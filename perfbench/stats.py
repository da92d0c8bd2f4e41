"""Summary statistics with the benchmark's sample-count rule."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it; a higher percentile over fewer samples is one outlier.
MIN_TAIL_SAMPLES = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> tuple[float | None, int]:
    """The ``q``-th percentile (nearest rank) and the samples beyond it.

    Returns ``(None, beyond)`` when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond the percentile, so it cannot be reported.
    """
    if not 0 < q < 100:
        raise ValueError("q must be in (0, 100)")
    ordered = sorted(values)
    if not ordered:
        return None, 0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_TAIL_SAMPLES:
        return None, beyond
    return float(ordered[rank - 1]), beyond

