"""Order statistics shared by ``run.py`` and ``compare.py``.

Quartiles use :func:`statistics.quantiles` (its default "exclusive"
method), the same estimator the spread check over repeated runs uses, so a
spread printed here and one computed from the raw samples agree.
"""

from __future__ import annotations

import statistics

#: Fewest samples that leave 10 beyond the 80th percentile.
TAIL_MIN_SAMPLES = 50


def quartiles(samples: list) -> tuple:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def p80(samples: list) -> float:
    """80th percentile when at least 10 samples lie beyond it; otherwise the
    median, because fewer samples support no estimate of the tail."""
    if len(samples) < TAIL_MIN_SAMPLES:
        return quartiles(samples)[1]
    return statistics.quantiles(samples, n=5)[3]


def spread(samples: list) -> float:
    """Interquartile range as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def summarize(samples: list, unit: str, value: "float | None" = None) -> dict:
    """A metric record: headline ``value`` (the median unless given), its
    unit, sample count, quartiles and the raw samples."""
    q1, q2, q3 = quartiles(samples)
    return {
        "value": q2 if value is None else value,
        "unit": unit,
        "n": len(samples),
        "q1": q1,
        "q3": q3,
        "samples": list(samples),
    }
