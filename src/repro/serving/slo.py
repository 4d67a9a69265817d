"""Service-level objectives and percentile math."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence


def percentile_sorted(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an **already sorted** sample.

    The indexing half of :func:`percentile`: callers that need several
    percentiles of one sample sort once and index repeatedly instead of
    paying an O(n log n) sort per query. Same float-coercion contract.
    """
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if not 0 < pct <= 100:
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the convention serving dashboards use).

    Always returns a ``float``, regardless of the element type of
    ``values`` — callers compare percentiles against float SLO limits
    and feed them into float arithmetic, so an int sample must not leak
    an int out.

    >>> percentile([1, 2, 3, 4], 50)
    2.0
    """
    return percentile_sorted(sorted(values), pct)


@dataclass(frozen=True)
class Slo:
    """A latency SLO: ``pct`` of requests must finish within ``limit_s``."""

    limit_s: float
    pct: float = 99.0

    def __post_init__(self) -> None:
        if not 0 < self.limit_s < math.inf:  # phrased to reject NaN too
            raise ValueError(f"SLO limit must be positive and finite, "
                             f"got {self.limit_s}")
        if not 0 < self.pct <= 100:
            raise ValueError(
                f"SLO percentile must be in (0, 100], got {self.pct}")

    def met_by(self, latencies_s: Sequence[float]) -> bool:
        """Whether a latency sample satisfies the SLO.

        An empty sample is **vacuously met**: no request was served, so
        no request was late. Callers that consider "no traffic" a
        failure (e.g. a fleet whose every chip is down) must check
        sample size themselves — this predicate is about latency only.
        """
        if not latencies_s:
            return True
        return percentile(latencies_s, self.pct) <= self.limit_s

    def violation_fraction(self, latencies_s: Sequence[float]) -> float:
        """Fraction of requests over the limit.

        An empty sample has **zero violations** by definition (0 of 0
        requests were late), matching :meth:`met_by`'s vacuous truth —
        never a ZeroDivisionError.
        """
        if not latencies_s:
            return 0.0
        over = sum(1 for l in latencies_s if l > self.limit_s)
        return over / len(latencies_s)

    def violation_fraction_sorted(self, ordered: Sequence[float]) -> float:
        """:meth:`violation_fraction` of an **already sorted** sample.

        Counts the over-limit suffix with one bisection instead of a
        full scan; same count, same division, same float as the unsorted
        form — and the same zero-violations contract on an empty sample.
        """
        if not ordered:
            return 0.0
        over = len(ordered) - bisect_right(ordered, self.limit_s)
        return over / len(ordered)
