"""EDF schedulability tests for both operation modes.

* LO mode (Section III): the system is schedulable at nominal speed iff
  ``sum_i DBF_LO(tau_i, Delta) <= Delta`` for all ``Delta >= 0``
  (processor demand criterion for EDF on a unit-speed processor).
* HI mode (Theorem 2): schedulable at speedup ``s`` iff
  ``sum_i DBF_HI(tau_i, Delta) <= s * Delta`` for all ``Delta >= 0``.

Both scans are pseudo-polynomial: beyond the envelope horizon
``B / (speed - rate)`` the demand can no longer catch the supply line.
The LO-mode scan is written once, as the generator
:func:`lo_scan_steps`, which :func:`lo_mode_schedulable` and the
population lockstep (:mod:`repro.analysis.population`) both drive.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.kernels import (
    MEMO,
    CompiledTaskSet,
    Evaluator,
    Steps,
    drive,
    get_evaluator,
)
from repro.analysis.speedup import speedup_schedulable
from repro.model.taskset import TaskSet

if TYPE_CHECKING:  # type-only: repro.pipeline imports this module
    from repro.pipeline.request import AnalysisReport

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
    ``1e4`` times the largest period otherwise.
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
    ev = get_evaluator(taskset, engine)
    memo_key = None
    if isinstance(ev, CompiledTaskSet):
        memo_key = ("lo_mode_schedulable", ev.memo_token, speed)
        cached = MEMO.lookup(memo_key)
        if cached is not None:
            return cached

    def window_ok(window: Tuple[float, float, float]) -> bool:
        lo, hi, supply = window
        candidates = ev.breakpoints_in(lo, hi, kind="lo")
        return not candidates.size or ev.lo_demand_ok(candidates, supply, _RTOL)

    verdict = drive(lo_scan_steps(ev, speed), {"window": window_ok})
    if memo_key is not None:
        MEMO.store(memo_key, verdict)
    return verdict


class LoProbe(NamedTuple):
    """A set's LO-mode scan inputs at an Eq.-(13) probe: the probe's
    ``D(LO)`` column and ``lo_excess`` (the only LO aggregates that depend
    on ``x``) beside the set's own.  The population's exact-``x``
    bisection scans these instead of deriving a probe snapshot."""

    n: int
    lo_rate: float
    lo_max_period: float
    lo_density: float
    t_lo: np.ndarray
    d_lo: np.ndarray
    lo_excess: float


def lo_scan_steps(ev: Union[Evaluator, LoProbe], speed: float) -> Steps[bool]:
    """The exact LO-mode EDF demand test at ``speed``, as a scan generator.

    Reads the set's LO-mode scalars from ``ev`` and yields:

    * ``("window", (lo, hi, speed))`` — whether ``DBF_LO(Delta) <=
      speed * Delta`` (within ``_RTOL``) at every ``DBF_LO`` breakpoint
      in ``(lo, hi]``.

    Returns the verdict; a NaN ``speed`` fails the test.  Raises
    ``OverflowError`` when the scan reaches a horizon whose hyperperiod
    exceeds the float range.
    """
    if not (speed > 0.0):
        return ev.n == 0
    if ev.n == 0:
        return True
    rate = ev.lo_rate
    if rate > speed * (1.0 + _RTOL):
        return False
    # dbf_LO(Delta) <= rate*Delta + B with B = sum U_i*(T_i - D_i), so any
    # violation of the supply line happens before B/(speed - rate).  For
    # implicit deadlines B = 0: the utilization test above was exact.
    excess = ev.lo_excess
    if excess <= 0.0:
        return True
    horizon = _bounded_horizon(
        speed,
        rate,
        excess,
        max(ev.d_lo.tolist()),
        _period_span(ev.t_lo.tolist()),
    )
    window_lo = 0.0
    step = 2.0 * ev.lo_max_period
    density = ev.lo_density
    max_window = 200_000 / density if density > 0 else math.inf
    while window_lo < horizon:
        window_hi = min(window_lo + step, horizon, window_lo + max_window)
        # The compiled engine stripe-prunes the supply comparison
        # (kernels.CompiledTaskSet.lo_demand_ok), the scalar engine
        # evaluates every candidate; the verdict is identical either way.
        if not (yield "window", (window_lo, window_hi, speed)):
            return False
        window_lo = window_hi
        step *= 2.0
    return True


def hi_mode_schedulable(
    taskset: Union[TaskSet, CompiledTaskSet], s: float, *, engine: str = "compiled"
) -> bool:
    """Theorem-2 test: HI mode meets all deadlines at speedup ``s``."""
    return speedup_schedulable(taskset, s, engine=engine)


def system_schedulable(
    taskset: TaskSet,
    s: Optional[float] = None,
    *,
    drop_terminated_carryover: bool = False,
    engine: str = "compiled",
) -> AnalysisReport:
    """Deprecated: call :func:`repro.api.analyze`, which this forwards to.

    Returns ``repro.api.analyze(taskset, speedup=s, ...)``'s
    :class:`~repro.pipeline.request.AnalysisReport`; README's migration
    note maps the fields of the report type this used to return.
    """
    warnings.warn(
        "system_schedulable is deprecated; call repro.api.analyze(taskset, "
        "speedup=s, budget=b), which returns an AnalysisReport",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.api import analyze  # repro.api imports this module

    return analyze(
        taskset,
        speedup=s,
        drop_terminated_carryover=drop_terminated_carryover,
        engine=engine,
    )
