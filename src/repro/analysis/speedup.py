"""Theorem 2: minimum processor speedup guaranteeing HI-mode deadlines.

The minimum speedup is

    s_min = sup_{Delta >= 0}  sum_i DBF_HI(tau_i, Delta) / Delta        (8)

with the convention that positive demand in a zero-length interval means
``s_min = +inf`` (which happens exactly when some HI task keeps
``D(LO) = D(HI)`` while ``C(HI) > C(LO)``, see the discussion after
Theorem 2).

The supremum is computed by scanning the breakpoints of the
piecewise-linear total demand in geometrically growing windows.  Within a
linear segment ``f(Delta) = a*Delta + b`` the ratio ``f/Delta`` is
monotone, so it is maximised at segment endpoints; because ``f`` is
right-continuous and jumps upward, every local maximum of the ratio is
attained *at* a breakpoint.  Enumeration stops once the envelope bound

    f(Delta) <= rate * Delta + B,   rate = sum_i U_i,   U_i = C_i(HI)/T_i(HI),
    B = sum_i sup_Delta (DBF_HI(tau_i, Delta) - U_i * Delta)

proves that no later breakpoint can beat the best ratio found so far
(``B`` is the tight intercept of
:func:`repro.analysis.dbf.dbf_hi_excess_bound`).  As ``Delta -> inf``
the ratio tends to ``rate``, so the result is ``max(rate, best
breakpoint ratio)``.  ``B = 0`` proves ``s_min = rate`` without a scan
and a rounding-sized ``B`` proves it in the first window: the common
case on Fig-7 sets, whose tuning clamps the HI tasks' ``D(LO)`` to
``C(LO)``.  Otherwise the best ratio usually beats the rate early and
the stopping point ``B / (best - rate)`` comes within a few windows.
Only when the best breakpoint ratio stays at or below a positive-``B``
rate does the scan run until the envelope gap ``B/Delta`` drops below
a relative tolerance, which the candidate budget may cut short; the
returned :class:`SpeedupResult` then carries a certified upper bound.

Demand evaluation goes through :mod:`repro.analysis.kernels`: the
default ``engine="compiled"`` uses the fused struct-of-arrays kernels
(with fingerprint-keyed memoisation of whole results), while
``engine="scalar"`` walks the per-task oracle loops of
:mod:`repro.analysis.dbf` — both produce bit-identical results.  The
scan is written once, as the generator :func:`supremum_steps`:
:func:`min_speedup` answers it on one evaluator, and
:mod:`repro.analysis.population` answers many sets' scans in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.analysis.budget import AnalysisBudgetExceeded
from repro.analysis.kernels import (
    MEMO,
    PERF,
    CompiledTaskSet,
    Evaluator,
    Steps,
    drive,
    get_evaluator,
)
from repro.analysis.result import VERDICT_RTOL, decode_float, encode_float
from repro.model.taskset import TaskSet
from repro.obs import trace


@dataclass(frozen=True)
class SpeedupResult:
    """Outcome of the Theorem-2 computation.

    Attributes
    ----------
    s_min:
        The minimum speedup factor (may be ``inf``; may be below 1, in
        which case the system can even *slow down* in HI mode, cf.
        Example 1).
    critical_delta:
        An interval length attaining (or, for the asymptotic case,
        approaching) the supremum; ``None`` when ``s_min`` is infinite
        or a zero envelope intercept proved ``s_min = rate`` unscanned.
    exact:
        True when the scan terminated with a proof of optimality,
        False when it was cut off by the candidate budget.
    upper_bound:
        A certified upper bound on the true ``s_min`` (equals ``s_min``
        when ``exact``).
    candidates_examined:
        Number of breakpoints evaluated (diagnostic).
    perf:
        Kernel perf counters accumulated by this computation on the
        compiled engine (``None`` on the scalar path).  Excluded from
        equality and serialisation: the analysis outcome is the other
        five fields.
    """

    s_min: float
    critical_delta: Optional[float]
    exact: bool
    upper_bound: float
    candidates_examined: int
    perf: Optional[Dict[str, Any]] = field(default=None, compare=False)

    @property
    def requires_speedup(self) -> bool:
        """True when the HI mode needs more than nominal speed."""
        return self.s_min > 1.0

    def admits(self, s: float) -> bool:
        """Theorem-2 verdict: HI mode meets every deadline at speedup ``s``.

        Compares the certified ``upper_bound``, not ``s_min``: a
        budget-cut scan's ``s_min`` is only a lower bound.  A NaN ``s``
        is not admitted.
        """
        return self.upper_bound <= s * (1.0 + VERDICT_RTOL)

    # -- AnalysisResult protocol (repro.analysis.result) ----------------
    @property
    def ok(self) -> bool:
        """True when a finite speedup exists (HI mode is feasible at all)."""
        return math.isfinite(self.s_min)

    @property
    def value(self) -> float:
        """Headline number: the minimum speedup ``s_min``."""
        return self.s_min

    @property
    def diagnostics(self) -> Dict[str, Any]:
        """Secondary facts about how the supremum scan terminated."""
        return {
            "critical_delta": self.critical_delta,
            "exact": self.exact,
            "upper_bound": self.upper_bound,
            "candidates_examined": self.candidates_examined,
            "perf": self.perf,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding; inverted exactly by :meth:`from_dict`."""
        return {
            "s_min": encode_float(self.s_min),
            "critical_delta": encode_float(self.critical_delta),
            "exact": self.exact,
            "upper_bound": encode_float(self.upper_bound),
            "candidates_examined": self.candidates_examined,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpeedupResult":
        return cls(
            s_min=decode_float(data["s_min"]),
            critical_delta=decode_float(data["critical_delta"]),
            exact=bool(data["exact"]),
            upper_bound=decode_float(data["upper_bound"]),
            candidates_examined=int(data["candidates_examined"]),
        )

    def __float__(self) -> float:  # pragma: no cover - trivial
        return self.s_min


#: Relative tolerance for declaring the asymptotic rate dominant.
DEFAULT_RTOL = 1e-9

#: Default cap on the number of breakpoints examined.
DEFAULT_MAX_CANDIDATES = 2_000_000


def _positive_at_zero(demand_at_zero: float) -> bool:
    """True when ``sum DBF_HI(tau_i, 0) > 0`` (infinite speedup needed)."""
    return demand_at_zero > 1e-12


def supremum_steps(
    ev: Evaluator,
    *,
    rtol: float = DEFAULT_RTOL,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    on_budget: str = "inexact",
) -> Steps[SpeedupResult]:
    """Theorem 2's Eq.-8 supremum scan, as a scan generator.

    Reads the set's scalars from ``ev`` and yields the demand arithmetic
    it needs (:func:`~repro.analysis.kernels.drive` and the population
    lockstep answer it):

    * ``("zero", None)`` — ``sum DBF_HI(0)`` as a float;
    * ``("peak", (lo, hi, best_ratio))`` — the number of ``DBF_HI``
      breakpoints in ``(lo, hi]`` and their ``(ratio, delta)`` peak, as
      :func:`~repro.analysis.kernels.window_peaks` finds it
      (``(0, best_ratio, None)`` for a window without breakpoints).

    Returns the :class:`SpeedupResult`, or raises
    :class:`~repro.analysis.budget.AnalysisBudgetExceeded` on budget
    exhaustion with ``on_budget="raise"``.
    """
    if ev.n == 0:
        return SpeedupResult(0.0, None, True, 0.0, 0)
    if _positive_at_zero((yield "zero", None)):
        return SpeedupResult(math.inf, None, True, math.inf, 0)
    # dbf_excess is a sum of non-negative intercepts, so exact zero is
    # equivalent to <= 0 — no float equality needed.  A zero intercept
    # means DBF_HI(Delta) <= rate * Delta everywhere while the ratio
    # tends to the rate: the supremum is the rate (0.0 when every task
    # is terminated).
    if ev.dbf_excess <= 0.0:
        return SpeedupResult(ev.rate, None, True, ev.rate, 0)
    window_lo, window_hi = 0.0, ev.initial_window()
    best_ratio, best_delta = 0.0, None
    rate = ev.rate
    excess = ev.dbf_excess
    examined = 0

    while True:
        window_hi = ev.clamp_window(window_lo, window_hi, kind="dbf")
        # The compiled engine prunes stripes that provably cannot beat
        # best_ratio (kernels.window_peaks, one window per set or a
        # lockstep round's windows in columns), the scalar engine
        # evaluates every candidate.  Both yield the identical
        # (best_ratio, best_delta) trajectory.
        size, peak_ratio, peak_delta = yield "peak", (window_lo, window_hi, best_ratio)
        if peak_ratio > best_ratio:
            best_ratio = peak_ratio
            best_delta = peak_delta
        examined += size

        # Envelope pruning: any Delta > window_hi has ratio <= rate + B/Delta.
        future_cap = rate + excess / window_hi
        target = max(best_ratio, rate)
        if future_cap <= target * (1.0 + rtol) + rtol:
            if best_ratio >= rate:
                return SpeedupResult(best_ratio, best_delta, True, best_ratio, examined)
            # The supremum is the (possibly unattained) asymptotic rate.
            return SpeedupResult(rate, best_delta, True, rate, examined)
        if examined >= max_candidates:
            if on_budget == "raise":
                raise AnalysisBudgetExceeded(
                    "min_speedup",
                    examined,
                    max_candidates,
                    f"best ratio so far {max(best_ratio, rate):.6g} "
                    f"(certified upper bound {max(best_ratio, future_cap):.6g}), "
                    f"demand rate {rate:.6g}, scan reached Delta={window_hi:.6g}",
                )
            upper = max(best_ratio, future_cap)
            return SpeedupResult(max(best_ratio, rate), best_delta, False, upper, examined)

        window_lo = window_hi
        if best_ratio > rate * (1.0 + rtol) + rtol:
            # A finite stopping point exists: beyond it the envelope cannot
            # reach best_ratio.
            stop = excess / (best_ratio - rate)
            window_hi = min(max(2.0 * window_hi, window_lo * 1.5), max(stop, window_lo * 1.1))
            if window_hi <= window_lo:
                return SpeedupResult(best_ratio, best_delta, True, best_ratio, examined)
        else:
            window_hi = 2.0 * window_hi


def _answers(ev: Evaluator) -> Dict[str, Callable[[Any], Any]]:
    """Answer :func:`supremum_steps` requests on one evaluator."""

    def peak(window: Tuple[float, float, float]) -> Tuple[int, float, Optional[float]]:
        lo, hi, best_ratio = window
        candidates = ev.breakpoints_in(lo, hi, kind="dbf")
        if not candidates.size:
            return 0, best_ratio, None
        return (int(candidates.size), *ev.window_peak(candidates, best_ratio))

    return {"zero": lambda _: float(ev.total_dbf_hi(0.0)), "peak": peak}


def min_speedup(
    taskset: Union[TaskSet, CompiledTaskSet],
    *,
    rtol: float = DEFAULT_RTOL,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    on_budget: str = "inexact",
    engine: str = "compiled",
) -> SpeedupResult:
    """Compute Theorem 2's minimum HI-mode speedup for ``taskset``.

    Parameters
    ----------
    taskset:
        The dual-criticality task set (already carrying its LO-mode
        deadline preparation and HI-mode degradation parameters); a
        pre-compiled :class:`~repro.analysis.kernels.CompiledTaskSet`
        is accepted directly on the compiled engine.
    rtol:
        Relative tolerance used when the supremum coincides with the
        asymptotic demand rate.
    max_candidates:
        Budget on examined breakpoints; exceeding it returns an inexact
        result with a certified ``upper_bound`` (default), or raises
        :class:`~repro.analysis.budget.AnalysisBudgetExceeded` with
        ``on_budget="raise"``.
    on_budget:
        ``"inexact"`` or ``"raise"``.
    engine:
        ``"compiled"`` (fused kernels, memoised per task-set content) or
        ``"scalar"`` (per-task oracle loops; never memoised).
    """
    if on_budget not in ("inexact", "raise"):
        raise ValueError(f"on_budget must be 'inexact' or 'raise', got {on_budget!r}")
    ev = get_evaluator(taskset, engine)

    memo_key = None
    if isinstance(ev, CompiledTaskSet):
        memo_key = ("min_speedup", ev.memo_token, rtol, max_candidates, on_budget)
        cached = MEMO.lookup(memo_key)
        if cached is not None:
            return cached

    before = PERF.snapshot() if memo_key is not None else None
    with trace.span("speedup.min_speedup", engine=engine, n_tasks=len(taskset)) as sp:
        result = drive(
            supremum_steps(
                ev, rtol=rtol, max_candidates=max_candidates, on_budget=on_budget
            ),
            _answers(ev),
        )
        sp.add("candidates", result.candidates_examined)
    if memo_key is not None:
        result = replace(result, perf=PERF.delta_since(before))
        MEMO.store(memo_key, result)
    return result


def speedup_schedulable(
    taskset: Union[TaskSet, CompiledTaskSet],
    s: float,
    *,
    rtol: float = DEFAULT_RTOL,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    on_budget: str = "inexact",
    engine: str = "compiled",
) -> bool:
    """HI-mode schedulability test at a *given* speedup ``s`` (Theorem 2).

    The :meth:`SpeedupResult.admits` verdict on :func:`min_speedup`, whose
    parameters it takes: ``max_candidates`` caps the whole scan, and a
    budget-cut scan admits ``s`` only when its certified upper bound
    does.  Returns False for ``s`` below the demand rate and for a NaN
    ``s``.
    """
    result = min_speedup(
        taskset, rtol=rtol, max_candidates=max_candidates, on_budget=on_budget,
        engine=engine,
    )
    return result.admits(s)
