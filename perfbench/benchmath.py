"""The benchmark's own arithmetic: percentiles, the rate ladder, medians.

Everything here is a pure function of its inputs so that
``test_perfbench.py`` can check it on synthetic series.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Percentiles the reporting rule may choose from, in per-mille
#: (999 = p99.9).  Highest first.
PERCENTILES_PERMILLE = (999, 990, 950, 900, 500)

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: The serve ladder's latency limit on the tail percentile.
LATENCY_LIMIT_MS = 50.0

#: The generator's backlog counts as growing when the median send
#: lateness of a phase's last quarter exceeds that of its first quarter
#: by more than this.
BACKLOG_GROWTH_MS = 10.0


def nearest_rank(sorted_values: Sequence[float], permille: int) -> float:
    """The nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(permille * len(sorted_values) / 1000)
    return sorted_values[max(rank, 1) - 1]


def percentile_label(permille: int) -> str:
    """``990`` -> ``"p99"``, ``999`` -> ``"p99.9"``."""
    whole, tenth = divmod(permille, 10)
    return f"p{whole}" if tenth == 0 else f"p{whole}.{tenth}"


def tail_percentile(values: Sequence[float]) -> Tuple[str, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(label, value, sample_count)``.  Failed operations enter
    the sample as ``math.inf``, so they count as missing every limit.
    A sample too small for even the median's rule falls back to the
    median.
    """
    ordered = sorted(values)
    n = len(ordered)
    for permille in PERCENTILES_PERMILLE:
        if n * (1000 - permille) >= MIN_TAIL_SAMPLES * 1000:
            return percentile_label(permille), nearest_rank(ordered, permille), n
    return "p50", nearest_rank(ordered, 500), n


def percentile_if_supported(values: Sequence[float], permille: int) -> float:
    """The ``permille`` percentile, or ``inf`` when the sample is too small.

    A tail the sample cannot support is treated as failing any limit.
    """
    n = len(values)
    if n == 0 or n * (1000 - permille) < MIN_TAIL_SAMPLES * 1000:
        return math.inf
    return nearest_rank(sorted(values), permille)


@dataclass
class CpuTime:
    """CPU seconds, split as the kernel charges them."""

    user: float
    system: float

    @property
    def total(self) -> float:
        return self.user + self.system

    def __sub__(self, other: "CpuTime") -> "CpuTime":
        return CpuTime(self.user - other.user, self.system - other.system)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def backlog_grows(lateness_ms: Sequence[float]) -> bool:
    """True when the generator fell further behind across the phase."""
    n = len(lateness_ms)
    if n < 8:
        return False
    quarter = n // 4
    first = statistics.median(lateness_ms[:quarter])
    last = statistics.median(lateness_ms[-quarter:])
    return last - first > BACKLOG_GROWTH_MS


@dataclass
class Step:
    """One fixed-rate phase of the open loop."""

    rate: float
    latencies_ms: List[float]  # from the due time; inf for a failure
    lateness_ms: List[float]  # send time minus due time
    sets: int = 0  # task sets in the requests answered

    @property
    def p99_ms(self) -> float:
        return percentile_if_supported(self.latencies_ms, 990)

    @property
    def passed(self) -> bool:
        return self.p99_ms <= LATENCY_LIMIT_MS and not backlog_grows(self.lateness_ms)


def ladder_max_rate(steps: Sequence[Step]) -> Optional[Step]:
    """The highest passing rate the ladder found.

    ``steps`` are the ladder's steps in the order they ran, starting at
    the loaded rate.  If that first step passed, the ladder climbed and
    the answer is the last pass before the first miss (a lucky pass
    above a miss does not count).  If it missed, the ladder descended
    and the answer is the first step that passes.  Returns ``None``
    when no step qualifies.
    """
    if not steps:
        return None
    if not steps[0].passed:
        return next((step for step in steps[1:] if step.passed), None)
    best = steps[0]
    for step in steps[1:]:
        if not step.passed:
            break
        best = step
    return best


def ladder_next_rate(steps: Sequence[Step]) -> Optional[float]:
    """The ladder's next rate, or ``None`` once it has its answer.

    It climbs in steps of at most 10% while steps pass, and descends in
    steps of at most 10% while they miss.
    """
    last = steps[-1]
    if steps[0].passed:
        return next_ladder_rate(last.rate) if last.passed else None
    return None if last.passed else lower_ladder_rate(last.rate)


def next_ladder_rate(rate: float, growth: float = 1.1) -> float:
    """The next rate up: at most ``growth`` times the last one."""
    return float(math.floor(rate * growth))


def lower_ladder_rate(rate: float, growth: float = 1.1) -> float:
    """The next rate down: the last one is at most ``growth`` times it."""
    return float(math.ceil(rate / growth))
