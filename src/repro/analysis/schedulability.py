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
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.analysis.kernels import (
    LO_SUPPLY_RTOL as _RTOL,
    MEMO,
    ArrayLike,
    CompiledTaskSet,
    Evaluator,
    Steps,
    _period_span,
    drive,
    get_evaluator,
)
from repro.analysis.speedup import speedup_schedulable
from repro.model.taskset import TaskSet

if TYPE_CHECKING:  # type-only: repro.pipeline imports this module
    from repro.pipeline.request import AnalysisReport


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


def _bounded_horizon(
    speed: float, rate: ArrayLike, excess: ArrayLike, max_d: ArrayLike, span: ArrayLike
) -> Any:
    """:func:`_scan_horizon` from its parts: the envelope bound, capped at
    ``span + max_d``.  Floats or arrays (one entry per set)."""
    denom = speed - rate
    steep = denom > _RTOL * max(1.0, speed)
    direct = _where(steep, excess / _where(steep, denom, 1.0), math.inf)
    cap = span + max_d
    return _where(direct <= cap, direct, cap)


def _where(cond: Any, a: Any, b: Any) -> Any:
    """``np.where`` over arrays, and the plain conditional for one set's
    floats, which spares the per-set scan a NumPy call per step."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


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
        return not candidates.size or ev.lo_demand_ok(candidates, supply)

    verdict = drive(lo_scan_steps(ev, speed), {"window": window_ok})
    if memo_key is not None:
        MEMO.store(memo_key, verdict)
    return verdict


class LoProbe(NamedTuple):
    """A set's LO-mode scan inputs at an Eq.-(13) probe: the probe's
    ``D(LO)`` column and ``lo_excess`` (the only LO aggregates that depend
    on ``x``) beside the set's own.  The population's exact-``x``
    bisection scans these when a probe needs more than one window,
    instead of deriving a probe snapshot."""

    n: int
    lo_rate: float
    lo_max_period: float
    lo_density: float
    lo_span: float
    d_lo: np.ndarray
    lo_excess: float


class LoStart(NamedTuple):
    """Where the LO-mode scan starts, for one set (floats) or one entry
    per set (arrays): :func:`lo_scan_start`."""

    fails: Any
    holds: Any
    horizon: Any
    step: Any
    max_window: Any
    first: Any


def lo_scan_start(
    speed: float,
    rate: ArrayLike,
    excess: ArrayLike,
    max_d: ArrayLike,
    span: Callable[[Any], ArrayLike],
    max_period: ArrayLike,
    density: ArrayLike,
) -> LoStart:
    """The LO-mode scan at ``speed`` up to its first window, written once
    for :func:`lo_scan_steps` (floats) and the population's columnar
    exact-``x`` rounds (arrays, one entry per set).

    The test ``fails`` where the LO rate exceeds the speed, and
    ``holds`` where it does not and the excess ``B = sum U_i*(T_i - D_i)``
    is not positive: ``dbf_LO(Delta) <= rate*Delta + B``, so the rate
    test was exact.  Elsewhere the scan runs windows up to the envelope
    ``horizon`` (:func:`_bounded_horizon`); the first is ``(0, first]``
    with ``first = min(step, horizon, max_window)``, and each later one
    doubles ``step``.  ``span(scans)`` returns the horizon's periodic
    cap wherever the mask ``scans`` holds (any value elsewhere); callers
    compute it only there, since ``float(lcm)`` can overflow.
    """
    limit = speed * (1.0 + _RTOL)
    fails = rate > limit
    holds = (rate <= limit) & (excess <= 0.0)
    horizon = _bounded_horizon(
        speed, rate, excess, max_d, span((rate <= limit) & (excess > 0.0))
    )
    step = 2.0 * max_period
    dense = density > 0.0
    max_window = _where(dense, 200_000 / _where(dense, density, 1.0), math.inf)
    first = _where(step <= horizon, step, horizon)
    first = _where(first <= max_window, first, max_window)
    return LoStart(fails, holds, horizon, step, max_window, first)


def lo_scan_steps(ev: Union[Evaluator, LoProbe], speed: float) -> Steps[bool]:
    """The exact LO-mode EDF demand test at ``speed``, as a scan generator.

    Reads the set's LO-mode scalars from ``ev`` and yields:

    * ``("window", (lo, hi, speed))`` — whether ``DBF_LO(Delta) <=
      kernels.lo_supply_threshold(speed, Delta)`` at every ``DBF_LO``
      breakpoint in ``(lo, hi]``.

    Returns the verdict; a NaN ``speed`` fails the test.  Raises
    ``OverflowError`` when the scan reaches a horizon whose hyperperiod
    exceeds the float range.
    """
    if not (speed > 0.0):
        return ev.n == 0
    if ev.n == 0:
        return True
    start = lo_scan_start(
        speed,
        ev.lo_rate,
        ev.lo_excess,
        max(ev.d_lo.tolist()),
        lambda scans: ev.lo_span if scans else 0.0,
        ev.lo_max_period,
        ev.lo_density,
    )
    if start.fails:
        return False
    if start.holds:
        return True
    horizon, step, max_window = start.horizon, start.step, start.max_window
    window_lo, window_hi = 0.0, start.first
    while window_lo < horizon:
        # The compiled engine stripe-prunes the supply comparison
        # (kernels.CompiledTaskSet.lo_demand_ok), the scalar engine
        # evaluates every candidate; the verdict is identical either way.
        if not (yield "window", (window_lo, window_hi, speed)):
            return False
        window_lo = window_hi
        step *= 2.0
        window_hi = min(window_lo + step, horizon, window_lo + max_window)
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
