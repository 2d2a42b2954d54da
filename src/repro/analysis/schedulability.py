"""EDF schedulability tests for both operation modes.

* LO mode (Section III): the system is schedulable at nominal speed iff
  ``sum_i DBF_LO(tau_i, Delta) <= Delta`` for all ``Delta >= 0``
  (processor demand criterion for EDF on a unit-speed processor).
* HI mode (Theorem 2): schedulable at speedup ``s`` iff
  ``sum_i DBF_HI(tau_i, Delta) <= s * Delta`` for all ``Delta >= 0``.

Both scans are pseudo-polynomial: beyond the envelope horizon
``B / (speed - rate)`` the demand can no longer catch the supply line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Union

from repro.analysis.kernels import MEMO, CompiledTaskSet, get_evaluator
from repro.analysis.resetting import ResettingResult, resetting_time
from repro.analysis.result import decode_float, encode_float
from repro.analysis.speedup import SpeedupResult, min_speedup, speedup_schedulable
from repro.model.taskset import TaskSet

_RTOL = 1e-9


def _scan_horizon(deadline_periods, speed: float, rate: float, excess: float) -> float:
    """Demand-test scan horizon for ``dbf <= rate*Delta + excess``.

    Normally ``excess / (speed - rate)``.  When the utilization sits at
    the supply limit that bound degenerates, but the demand is periodic
    up to a linear term: ``dbf(Delta + P) = dbf(Delta) + rate * P`` for
    the period hyperperiod ``P``, so when ``rate == speed`` checking one
    hyperperiod (plus the largest deadline) is exact.  For non-integral
    periods exact equality is measure-zero; a generous multiple of the
    largest period is used as a practical cutoff.
    """
    return _bounded_horizon(
        speed,
        rate,
        excess,
        max(d for d, _ in deadline_periods),
        _period_span([p for _, p in deadline_periods]),
    )


def _period_span(periods: Sequence[float]) -> float:
    """The periodic cap of :func:`_scan_horizon`, without the deadline.

    ``float(hyperperiod)`` for integral periods — which raises
    ``OverflowError`` once the hyperperiod exceeds the float range — and
    ``1e4`` times the largest period otherwise.  It depends on the
    periods alone, so a caller scanning many deadline variants of one
    set (the exact-``x`` bisection) computes it once.
    """
    if all(float(p).is_integer() for p in periods):
        lcm = 1
        for p in periods:
            lcm = math.lcm(lcm, int(p))
        return float(lcm)
    return 1e4 * max(periods)


def _bounded_horizon(
    speed: float, rate: float, excess: float, max_d: float, span: float
) -> float:
    """:func:`_scan_horizon` from its parts: the envelope bound, capped at
    ``span + max_d``."""
    denom = speed - rate
    direct = excess / denom if denom > _RTOL * max(1.0, speed) else math.inf
    return min(direct, span + max_d)


def lo_mode_schedulable(
    taskset: Union[TaskSet, CompiledTaskSet],
    speed: float = 1.0,
    *,
    engine: str = "compiled",
) -> bool:
    """Exact EDF demand test for LO mode at the given processor speed."""
    if speed <= 0.0:
        return len(taskset) == 0
    if len(taskset) == 0:
        return True
    ev = get_evaluator(taskset, engine)
    memo_key = None
    if isinstance(ev, CompiledTaskSet):
        memo_key = ("lo_mode_schedulable", ev.memo_token, speed)
        cached = MEMO.lookup(memo_key)
        if cached is not None:
            return cached
    verdict = _lo_mode_scan(ev, speed)
    if memo_key is not None:
        MEMO.store(memo_key, verdict)
    return verdict


def _lo_mode_scan(ev, speed: float) -> bool:
    """The LO-mode demand scan over an engine evaluator."""
    rate = ev.lo_rate
    if rate > speed * (1.0 + _RTOL):
        return False
    # dbf_LO(Delta) <= rate*Delta + B with B = sum U_i*(T_i - D_i), so any
    # violation of the supply line happens before B/(speed - rate).  For
    # implicit deadlines B = 0: the utilization test above was exact.
    excess = ev.lo_excess
    if excess <= 0.0:
        return True
    horizon = _scan_horizon(
        [(float(d), float(p)) for d, p in zip(ev.d_lo, ev.t_lo)],
        speed,
        rate,
        excess,
    )
    window_lo = 0.0
    step = 2.0 * ev.lo_max_period
    density = ev.lo_density
    max_window = 200_000 / density if density > 0 else math.inf
    while window_lo < horizon:
        window_hi = min(window_lo + step, horizon, window_lo + max_window)
        candidates = ev.breakpoints_in(window_lo, window_hi, kind="lo")
        if candidates.size:
            # Engine-dispatched: the compiled engine stripe-prunes the
            # supply comparison (kernels.CompiledTaskSet.lo_demand_ok),
            # the scalar engine evaluates every candidate; the verdict is
            # identical either way.
            if not ev.lo_demand_ok(candidates, speed, _RTOL):
                return False
        window_lo = window_hi
        step *= 2.0
    return True


def hi_mode_schedulable(
    taskset: Union[TaskSet, CompiledTaskSet], s: float, *, engine: str = "compiled"
) -> bool:
    """Theorem-2 test: HI mode meets all deadlines at speedup ``s``."""
    return speedup_schedulable(taskset, s, engine=engine)


@dataclass(frozen=True)
class SchedulabilityReport:
    """Full dual-mode verdict for a configured task set.

    Attributes
    ----------
    lo_ok:
        LO-mode EDF feasibility at nominal speed.
    s_min:
        Theorem-2 minimum HI-mode speedup (:class:`SpeedupResult`).
    hi_ok_at:
        The speedup the HI-mode verdict was evaluated at (``None`` when
        no target speedup was supplied).
    hi_ok:
        HI-mode feasibility at ``hi_ok_at`` (vacuously True when no
        target speedup was supplied but ``s_min`` is finite).
    resetting:
        Corollary-5 resetting time at ``hi_ok_at`` (``None`` without a
        target speedup).
    """

    lo_ok: bool
    s_min: SpeedupResult
    hi_ok_at: Optional[float]
    hi_ok: bool
    resetting: Optional[ResettingResult]

    @property
    def schedulable(self) -> bool:
        """True when both modes are feasible (at the target speedup)."""
        return self.lo_ok and self.hi_ok

    def within_reset_budget(self, budget: float) -> bool:
        """Schedulable *and* recovers within ``budget`` time units.

        This is the Figure-7 acceptance criterion (``s = 2``,
        ``Delta_R <= 5 s``).
        """
        if not self.schedulable:
            return False
        if self.resetting is None:
            return False
        return self.resetting.delta_r <= budget * (1.0 + _RTOL)

    # -- AnalysisResult protocol (repro.analysis.result) ----------------
    @property
    def ok(self) -> bool:
        """True when both modes are feasible (the dual-mode verdict)."""
        return self.schedulable

    @property
    def value(self) -> float:
        """Headline number: the Theorem-2 minimum speedup."""
        return self.s_min.s_min

    @property
    def diagnostics(self) -> Dict[str, Any]:
        """Secondary facts: per-mode verdicts and the resetting bound."""
        return {
            "lo_ok": self.lo_ok,
            "hi_ok": self.hi_ok,
            "hi_ok_at": self.hi_ok_at,
            "delta_r": None if self.resetting is None else self.resetting.delta_r,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding; inverted exactly by :meth:`from_dict`."""
        return {
            "lo_ok": self.lo_ok,
            "s_min": self.s_min.to_dict(),
            "hi_ok_at": encode_float(self.hi_ok_at),
            "hi_ok": self.hi_ok,
            "resetting": None if self.resetting is None else self.resetting.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SchedulabilityReport":
        resetting = data.get("resetting")
        return cls(
            lo_ok=bool(data["lo_ok"]),
            s_min=SpeedupResult.from_dict(data["s_min"]),
            hi_ok_at=decode_float(data["hi_ok_at"]),
            hi_ok=bool(data["hi_ok"]),
            resetting=None if resetting is None else ResettingResult.from_dict(resetting),
        )


def system_schedulable(
    taskset: TaskSet,
    s: Optional[float] = None,
    *,
    drop_terminated_carryover: bool = False,
    engine: str = "compiled",
) -> SchedulabilityReport:
    """Evaluate the complete protocol of Section II for ``taskset``.

    With ``s`` given, HI mode is checked at that speedup and the
    resetting time is computed; otherwise only ``s_min`` is reported.
    On the compiled engine all three analyses share one
    :class:`~repro.analysis.kernels.CompiledTaskSet`.
    """
    lo_ok = lo_mode_schedulable(taskset, engine=engine)
    s_min = min_speedup(taskset, engine=engine)
    if s is None:
        return SchedulabilityReport(
            lo_ok=lo_ok,
            s_min=s_min,
            hi_ok_at=None,
            hi_ok=math.isfinite(s_min.s_min),
            resetting=None,
        )
    hi_ok = s_min.upper_bound <= s * (1.0 + _RTOL)
    reset = (
        resetting_time(
            taskset,
            s,
            drop_terminated_carryover=drop_terminated_carryover,
            engine=engine,
        )
        if hi_ok
        else None
    )
    return SchedulabilityReport(
        lo_ok=lo_ok,
        s_min=s_min,
        hi_ok_at=s,
        hi_ok=hi_ok,
        resetting=reset,
    )
