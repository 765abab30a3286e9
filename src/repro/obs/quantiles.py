"""Streaming quantile estimates over fixed-bucket histogram counts.

:func:`histogram_quantile` is what the metrics registry uses to report
p50/p95/p99 without storing a single sample.  Estimates interpolate
linearly *within* the winning bucket and are clamped to the exact
observed min/max, so ``p95 >= p50 > 0`` holds whenever the observations
were positive.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["histogram_quantile"]


def histogram_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    q: float,
    *,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> float:
    """Estimate the ``q``-th quantile from fixed-bucket histogram counts.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; ``counts`` has one extra trailing entry for the overflow
    bucket (> ``bounds[-1]``).  The estimate interpolates linearly within
    the bucket holding the target rank, using the previous bound (or
    ``minimum``) as the bucket floor, and clamps to the exact observed
    ``[minimum, maximum]`` envelope when given — that keeps estimates
    monotone in ``q`` and inside the data's true range.
    """
    if len(counts) != len(bounds) + 1:
        raise ValueError(
            f"counts must have len(bounds)+1 entries, got {len(counts)} "
            f"for {len(bounds)} bounds"
        )
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile q must be in [0, 1], got {q}")
    total = int(sum(counts))
    if total == 0:
        raise ValueError("histogram_quantile() of empty histogram")

    # Rank of the target observation, 1-based, clamped into [1, total].
    rank = max(1, min(total, int(np.ceil(q * total)) or 1))
    cumulative = 0
    estimate: float = bounds[-1] if bounds else 0.0
    for index, count in enumerate(counts):
        if count == 0:
            cumulative += count
            continue
        if cumulative + count >= rank:
            floor = (
                bounds[index - 1]
                if index > 0
                else (minimum if minimum is not None else 0.0)
            )
            ceil = bounds[index] if index < len(bounds) else (
                maximum if maximum is not None else bounds[-1]
            )
            if ceil < floor:
                ceil = floor
            fraction = (rank - cumulative) / count
            estimate = floor + (ceil - floor) * fraction
            break
        cumulative += count

    if minimum is not None:
        estimate = max(estimate, minimum)
    if maximum is not None:
        estimate = min(estimate, maximum)
    return float(estimate)
