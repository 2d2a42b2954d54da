"""Corollary 5: service resetting time under HI-mode speedup.

The resetting time is the first guaranteed idle instant after the switch:

    Delta_R = min { Delta >= 0 : sum_i ADB_HI(tau_i, Delta) <= s * Delta }   (12)

where ``ADB_HI`` is the worst-case *arrived* demand bound of Theorem 4.
At that instant the processor has certainly caught up with every arrived
job, so the system can safely fall back to LO mode and nominal speed.

``sum ADB_HI`` is piecewise linear and right-continuous with upward
jumps, so the first crossing with the supply line ``s * Delta`` lies
either exactly at a breakpoint or in the interior of a linear segment;
both cases are located by scanning breakpoints in growing windows and
solving the linear segment equation for interior crossings.

Existence: with ``rate = sum C_i(HI)/T_i(HI)`` the demand satisfies
``sum ADB_HI(Delta) <= rate * Delta + B*``, so for ``s > rate`` the
crossing occurs no later than ``B* / (s - rate)``; for ``s <= rate`` the
system may never drain and ``Delta_R = +inf``.

The scan is written once, as the generator :func:`crossing_steps`,
which :func:`resetting_time` and the population lockstep
(:mod:`repro.analysis.population`) both drive.  The generator keeps the
window growth, the horizon, the scan end and the budget; the arithmetic
of a window — segment midpoints and slopes, the interior and breakpoint
tests, the first hit — is written once too, as :func:`window_crossings`
over many windows in columns.  :func:`resetting_time` answers each
window with it on one window (:func:`crossing_window`), the lockstep on
every window of a round at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Tuple, Union

import numpy as np

from repro.analysis.budget import CandidateBudget
from repro.analysis.kernels import (
    MEMO,
    CompiledTaskSet,
    Evaluator,
    Steps,
    drive,
    get_evaluator,
)
from repro.analysis.result import VERDICT_RTOL, decode_float, encode_float
from repro.model.taskset import TaskSet
from repro.obs import trace

#: Default cap on the number of breakpoints examined by the scan.
DEFAULT_MAX_CANDIDATES = 2_000_000


@dataclass(frozen=True)
class ResettingResult:
    """Outcome of the Corollary-5 computation.

    Attributes
    ----------
    delta_r:
        Safe lower bound on the service resetting time (``inf`` when the
        HI-mode demand rate is not smaller than the speedup).
    speedup:
        The speedup factor ``s`` the bound was computed for.
    at_breakpoint:
        True when the crossing happened exactly at a demand breakpoint,
        False for an interior segment crossing.
    demand_at_crossing:
        Total arrived demand at ``delta_r`` (equals ``s * delta_r`` up to
        numerical tolerance for interior crossings).
    """

    delta_r: float
    speedup: float
    at_breakpoint: bool
    demand_at_crossing: float

    @property
    def finite(self) -> bool:
        """True when the system provably recovers."""
        return math.isfinite(self.delta_r)

    def within(self, budget: float) -> bool:
        """Corollary-5 verdict: the system recovers within ``budget``.

        This is the Figure-7 acceptance criterion (``s = 2``,
        ``Delta_R <= 5 s``).
        """
        return self.delta_r <= budget * (1.0 + VERDICT_RTOL)

    # -- AnalysisResult protocol (repro.analysis.result) ----------------
    @property
    def ok(self) -> bool:
        """True when the system provably recovers (finite ``Delta_R``)."""
        return self.finite

    @property
    def value(self) -> float:
        """Headline number: the resetting-time bound ``Delta_R``."""
        return self.delta_r

    @property
    def diagnostics(self) -> Dict[str, Any]:
        """Secondary facts about where the supply/demand crossing landed."""
        return {
            "speedup": self.speedup,
            "at_breakpoint": self.at_breakpoint,
            "demand_at_crossing": self.demand_at_crossing,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding; inverted exactly by :meth:`from_dict`."""
        return {
            "delta_r": encode_float(self.delta_r),
            "speedup": encode_float(self.speedup),
            "at_breakpoint": self.at_breakpoint,
            "demand_at_crossing": encode_float(self.demand_at_crossing),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResettingResult":
        return cls(
            delta_r=decode_float(data["delta_r"]),
            speedup=decode_float(data["speedup"]),
            at_breakpoint=bool(data["at_breakpoint"]),
            demand_at_crossing=decode_float(data["demand_at_crossing"]),
        )

    def __float__(self) -> float:  # pragma: no cover - trivial
        return self.delta_r


_RTOL = 1e-9


def _tol(value: float) -> float:
    return _RTOL * (1.0 + abs(value))


def resetting_time(
    taskset: Union[TaskSet, CompiledTaskSet],
    s: float,
    *,
    drop_terminated_carryover: bool = False,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    engine: str = "compiled",
) -> ResettingResult:
    """Compute Corollary 5's resetting-time bound at speedup ``s``.

    Parameters
    ----------
    taskset:
        Task set with its HI-mode parameters (degraded or terminated LO
        tasks included); a pre-compiled
        :class:`~repro.analysis.kernels.CompiledTaskSet` is accepted
        directly on the compiled engine.
    s:
        HI-mode speedup factor (> 0).  Values below 1 model slow-down.
    drop_terminated_carryover:
        Ablation switch: assume terminated LO tasks' in-flight jobs are
        killed at the switch instead of finishing (DESIGN.md Section 5).
    max_candidates:
        Cap on examined breakpoints.  Unlike Theorem 2's supremum, the
        first-crossing search cannot return a certified partial answer,
        so exceeding the cap raises
        :class:`~repro.analysis.budget.AnalysisBudgetExceeded` (with
        scan-progress diagnostics) instead of hanging on degenerate
        inputs where ``s`` barely exceeds the demand rate.
    engine:
        ``"compiled"`` (fused kernels, memoised per task-set content) or
        ``"scalar"`` (per-task oracle loops; never memoised).
    """
    ev = get_evaluator(taskset, engine)

    memo_key = None
    if isinstance(ev, CompiledTaskSet):
        memo_key = (
            "resetting_time",
            ev.memo_token,
            s,
            drop_terminated_carryover,
            max_candidates,
        )
        cached = MEMO.lookup(memo_key)
        if cached is not None:
            return cached

    def window(request: Tuple[float, float, float, float, bool]) -> Tuple[int, Outcome]:
        lo, hi, prev_delta, prev_demand, drop = request
        breaks = ev.breakpoints_in(lo, hi, kind="adb")
        return breaks.size, crossing_window(ev, s, breaks, prev_delta, prev_demand, drop)

    with trace.span("resetting.scan", engine=engine, n_tasks=len(taskset)):
        result = drive(
            crossing_steps(
                ev,
                s,
                drop_terminated_carryover=drop_terminated_carryover,
                max_candidates=max_candidates,
            ),
            {
                "zero": lambda drop: float(
                    ev.total_adb_hi(0.0, drop_terminated_carryover=drop)
                ),
                "window": window,
            },
        )
    if memo_key is not None:
        MEMO.store(memo_key, result)
    return result


def crossing_steps(
    ev: Evaluator,
    s: float,
    *,
    drop_terminated_carryover: bool = False,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> Steps[ResettingResult]:
    """Corollary 5's first-crossing scan at speedup ``s``, as a scan
    generator.

    Reads the set's scalars from ``ev`` and yields:

    * ``("zero", drop)`` — ``sum ADB_HI(0)`` as a float;
    * ``("window", (lo, hi, prev_delta, prev_demand, drop))`` — the
      number of ``ADB_HI`` breakpoints in ``(lo, hi]`` and the window's
      outcome after the breakpoint ``prev_delta`` of demand
      ``prev_demand``, as :func:`window_crossings` gives it: the last
      breakpoint's ``(delta, demand)`` (the scan goes on), or the
      crossing's ``(delta_r, at_breakpoint, demand)``;

    with ``drop`` the ``drop_terminated_carryover`` flag.  Returns the
    :class:`ResettingResult`.  Raises ``ValueError`` for a speedup that
    is not positive (NaN included) and
    :class:`~repro.analysis.budget.AnalysisBudgetExceeded` once the scan
    has examined more than ``max_candidates`` breakpoints.
    """
    if not (s > 0.0):
        raise ValueError(f"speedup must be positive, got {s}")
    if ev.n == 0:
        return ResettingResult(0.0, s, True, 0.0)
    drop = bool(drop_terminated_carryover)
    demand_zero = yield "zero", drop
    if demand_zero <= _tol(0.0):
        return ResettingResult(0.0, s, True, demand_zero)
    rate = ev.rate
    if s <= rate + _RTOL * max(1.0, rate):
        return ResettingResult(math.inf, s, False, math.inf)

    # The envelope gives ADB(h) <= rate*h + B* = s*h at h = B*/(s - rate),
    # so the first crossing lies at or before this horizon.
    horizon = ev.adb_excess(drop_terminated_carryover=drop) / (s - rate)
    if ev.candidate_density("adb") <= 0.0:
        # Every task is terminated: the arrived demand is the constant
        # carry-over block, and the crossing is exactly demand / s.
        return ResettingResult(demand_zero / s, s, False, demand_zero)
    prev_delta = 0.0
    prev_demand = demand_zero
    window_lo = 0.0
    step = min(ev.initial_window(), max(horizon, 1e-12))
    # Scan past the horizon until the first breakpoint beyond the crossing
    # has been processed (the interior-crossing logic then locates it); a
    # breakpoint is guaranteed within two periods past the horizon.
    scan_end = horizon + 2.0 * ev.max_finite_period() + 1e-9
    budget = CandidateBudget(max_candidates, operation="resetting_time")

    while window_lo <= scan_end:
        window_hi = ev.clamp_window(
            window_lo,
            min(window_lo + step, scan_end * (1.0 + 1e-9) + 1e-12),
            kind="adb",
        )
        size, outcome = yield "window", (window_lo, window_hi, prev_delta, prev_demand, drop)
        if size > budget.remaining:  # the charge raises: say how far the scan got
            budget.context = (
                f"s={s:.6g}, demand rate={rate:.6g}, crossing horizon={horizon:.6g}, "
                f"scan reached Delta={window_lo:.6g} of {scan_end:.6g}"
            )
        budget.charge(size)
        if len(outcome) == 3:
            delta_r, at_breakpoint, demand = outcome
            return ResettingResult(delta_r, s, at_breakpoint, demand)
        prev_delta, prev_demand = outcome
        window_lo = window_hi
        step *= 2.0

    # Unreachable for s > rate: the envelope forces a crossing before the
    # horizon and a breakpoint beyond it within the scanned range.
    raise RuntimeError(  # pragma: no cover - defensive
        f"resetting-time scan exhausted at Delta={window_lo} (s={s})"
    )


#: A window's outcome: the last breakpoint's ``(delta, demand)`` when the
#: scan goes on, or the crossing's ``(delta_r, at_breakpoint, demand)``.
Outcome = Tuple[Any, ...]


def window_crossings(
    speeds: np.ndarray,
    breaks: np.ndarray,
    bounds: np.ndarray,
    prev_delta: np.ndarray,
    prev_demand: np.ndarray,
    demand: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
    at_crossings: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> List[Outcome]:
    """Corollary 5 on many scan windows at once: each window's outcome.

    Window ``j`` scans at speed ``speeds[j]`` the ascending breakpoints
    ``breaks[bounds[j]:bounds[j + 1]]`` (at least one), after the
    breakpoint ``prev_delta[j]`` whose demand is ``prev_demand[j]``.
    ``demand(breaks, mids)`` returns ``sum ADB_HI`` at the breakpoints and
    at the midpoints of the segments before them, and
    ``at_crossings(points, windows)`` at each interior crossing
    ``points[k]`` of window ``windows[k]``; each is called at most once.

    Returns one :data:`Outcome` per window: the crossing in the window's
    first segment or at its first breakpoint where the demand meets the
    supply line ``s * Delta``, or else its last breakpoint's
    ``(delta, demand)``.
    """
    heads = bounds[:-1]
    prevs = np.empty(breaks.size)
    prevs[1:] = breaks[:-1]
    prevs[heads] = prev_delta
    # Interior crossing strictly inside (prevs[j], breaks[j]): the
    # demand there is linear from prev_vals[j] to its left limit at
    # breaks[j].  Probe midpoints to recover the segment lines
    # exactly.  A crossing landing exactly on a breakpoint does not
    # count — the demand jumps upward there, so the post-jump value
    # decides instead.
    mids = 0.5 * (prevs + breaks)
    values, mid_vals = demand(breaks, mids)
    prev_vals = np.empty(breaks.size)
    prev_vals[1:] = values[:-1]
    prev_vals[heads] = prev_demand
    s = speeds.repeat(bounds[1:] - heads)
    lengths = breaks - prevs
    left_limits = 2.0 * mid_vals - prev_vals
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.where(lengths > 0, (left_limits - prev_vals) / np.where(lengths > 0, lengths, 1.0), np.inf)
        crossings = prevs + (prev_vals - s * prevs) / (s - slopes)
    tol_b = _RTOL * (1.0 + np.abs(breaks))
    interior_ok = (
        (lengths > 0)
        & (s > slopes)
        & (prev_vals > s * prevs + _RTOL * (1.0 + np.abs(prev_vals)))
        & (crossings >= prevs)
        & (crossings < breaks - tol_b)
    )
    break_ok = values <= s * breaks + _RTOL * (1.0 + np.abs(values))
    # Each window's first hit, else its last breakpoint; an interior
    # crossing comes before the breakpoint that closes its segment.
    at = np.minimum(
        np.minimum.reduceat(
            np.where(interior_ok | break_ok, np.arange(breaks.size), breaks.size), heads
        ),
        bounds[1:] - 1,
    )
    inside = interior_ok[at]
    # max(crossing, prev) with Python's tie rule.
    crossing = np.where(prevs[at] > crossings[at], prevs[at], crossings[at])
    delta = np.where(inside, crossing, breaks[at])
    value = values[at]
    if inside.any():
        crossed = inside.nonzero()[0]
        value[crossed] = at_crossings(delta[crossed], crossed)
    return [
        (d, v) if not kind else (d, kind == 1, v)
        for d, v, kind in zip(
            delta.tolist(), value.tolist(), np.where(inside, 2, break_ok[at]).tolist()
        )
    ]


def crossing_window(
    ev: Evaluator, s: float, breaks: np.ndarray, prev_delta: float, prev_demand: float,
    drop: bool,
) -> Outcome:
    """One window's :func:`window_crossings` outcome on one evaluator:
    ``sum ADB_HI`` on the breakpoints, then on the midpoints, then at an
    interior crossing.  A window without breakpoints keeps the previous
    breakpoint's ``(delta, demand)``."""
    if not breaks.size:
        return prev_delta, prev_demand

    def adb(points: np.ndarray) -> np.ndarray:
        return np.asarray(ev.total_adb_hi(points, drop_terminated_carryover=drop), dtype=float)

    (outcome,) = window_crossings(
        np.array([s]),
        breaks,
        np.array([0, breaks.size]),
        np.array([prev_delta]),
        np.array([prev_demand]),
        lambda points, mids: (adb(points), adb(mids)),
        lambda points, _: adb(points),
    )
    return outcome


def resetting_curve(
    taskset: TaskSet,
    speedups: Iterable[float],
    *,
    drop_terminated_carryover: bool = False,
    engine: str = "compiled",
) -> "list[ResettingResult]":
    """Evaluate :func:`resetting_time` over an iterable of speedups.

    Convenience used by the Figure 3b / Figure 4b parametric sweeps; the
    compiled engine reuses one :class:`CompiledTaskSet` across the whole
    curve.
    """
    return [
        resetting_time(
            taskset,
            float(s),
            drop_terminated_carryover=drop_terminated_carryover,
            engine=engine,
        )
        for s in speedups
    ]
