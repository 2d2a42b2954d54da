"""Variable-speed uniprocessor model with energy accounting.

The processor executes the running job at its current *speed* (work per
unit time); the scheduler raises the speed to ``s`` on entering HI mode
and restores nominal speed at the reset instant.  Energy is integrated
as ``power(speed) * dt`` with the standard cubic DVFS proxy
``power = speed ** alpha`` (alpha = 3 by default), giving the
cost-of-speedup numbers used by the energy extension benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class SpeedSegment:
    """A maximal interval of constant processor speed."""

    start: float
    end: float
    speed: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Processor:
    """Tracks speed changes over time and integrates work and energy.

    Two speed timelines are kept: the *actual* delivered speed (what the
    running job progresses at — the existing segment record) and the
    *requested* operating point (what the scheduler asked for).  Without
    faults the two coincide; with an actuation fault layer the gap
    between them is the platform's boost deficit, exposed via
    :meth:`speed_deficit`.
    """

    def __init__(self, nominal_speed: float = 1.0, alpha: float = 3.0) -> None:
        if nominal_speed <= 0.0:
            raise ValueError(f"nominal speed must be positive, got {nominal_speed}")
        if alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        self.nominal_speed = nominal_speed
        self.alpha = alpha
        self._speed = nominal_speed
        self._segments: List[SpeedSegment] = []
        self._segment_start = 0.0
        self._requested = nominal_speed
        self._req_segments: List[SpeedSegment] = []
        self._req_start = 0.0

    @property
    def speed(self) -> float:
        """Current execution rate (work per time unit)."""
        return self._speed

    def set_speed(self, time: float, speed: float) -> None:
        """Change the actual speed at ``time`` (closes the current segment)."""
        if speed <= 0.0:
            raise ValueError(f"speed must be positive, got {speed}")
        if speed == self._speed:
            return
        self._close_segment(time)
        self._speed = speed

    def request_speed(self, time: float, speed: float) -> None:
        """Record the *requested* operating point changing at ``time``.

        Callers pair this with :meth:`set_speed` (possibly at later
        instants, via a fault layer) so that requested-vs-actual
        accounting stays meaningful.
        """
        if speed <= 0.0:
            raise ValueError(f"speed must be positive, got {speed}")
        if speed == self._requested:
            return
        if time > self._req_start:
            self._req_segments.append(
                SpeedSegment(self._req_start, time, self._requested)
            )
        self._req_start = max(self._req_start, time)
        self._requested = speed

    def reset_speed(self, time: float) -> None:
        """Return to nominal speed at ``time`` (actual and requested)."""
        self.request_speed(time, self.nominal_speed)
        self.set_speed(time, self.nominal_speed)

    def _close_segment(self, time: float) -> None:
        if time > self._segment_start:
            self._segments.append(SpeedSegment(self._segment_start, time, self._speed))
        self._segment_start = time

    def finish(self, time: float) -> None:
        """Close the trailing segments at the simulation horizon."""
        self._close_segment(time)
        if time > self._req_start:
            self._req_segments.append(SpeedSegment(self._req_start, time, self._requested))
            self._req_start = time

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def segments(self) -> List[SpeedSegment]:
        """Completed constant-speed segments (call :meth:`finish` first)."""
        return list(self._segments)

    def time_at_speed(self, predicate) -> float:
        """Total duration of segments whose speed satisfies ``predicate``."""
        return sum(seg.duration for seg in self._segments if predicate(seg.speed))

    @property
    def boosted_time(self) -> float:
        """Total time spent above nominal speed."""
        return self.time_at_speed(lambda s: s > self.nominal_speed + 1e-12)

    @property
    def requested_segments(self) -> List[SpeedSegment]:
        """Completed requested-speed segments (call :meth:`finish` first)."""
        return list(self._req_segments)

    def speed_deficit(self) -> float:
        """Integral of ``max(0, requested - actual)`` over closed segments.

        Zero on a fault-free run; positive when the platform under-
        delivered the boost (ramp latency, capping, throttling, negative
        jitter).  Units: work (speed x time) the protocol was promised
        but never received.
        """
        deficit = 0.0
        actual = iter(self._segments)
        seg = next(actual, None)
        for req in self._req_segments:
            t = req.start
            while seg is not None and t < req.end - 1e-15:
                if seg.end <= t + 1e-15:
                    seg = next(actual, None)
                    continue
                lo = max(t, seg.start)
                hi = min(req.end, seg.end)
                if hi > lo:
                    deficit += max(0.0, req.speed - seg.speed) * (hi - lo)
                t = hi
                if seg.end <= req.end + 1e-15 and seg.end <= hi + 1e-15:
                    seg = next(actual, None)
        return deficit

    def energy(self, idle_power: float = 0.0, busy_fraction_of: str = "wall") -> float:
        """Cubic-proxy energy over all closed segments.

        The model charges ``speed ** alpha`` per unit time regardless of
        idling (DVFS energy is dominated by the operating point); pass
        ``idle_power`` to add a constant leakage floor.
        """
        total = 0.0
        for seg in self._segments:
            total += (seg.speed ** self.alpha + idle_power) * seg.duration
        return total

    def energy_overhead_vs_nominal(self) -> float:
        """Extra energy relative to running every segment at nominal speed."""
        base = sum(self.nominal_speed ** self.alpha * seg.duration for seg in self._segments)
        return self.energy() - base
