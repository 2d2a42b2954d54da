"""Population-scale analysis front-end: many task sets per kernel call.

The per-set scans (:func:`repro.analysis.speedup.min_speedup`,
:func:`repro.analysis.resetting.resetting_time`,
:func:`repro.analysis.schedulability.lo_mode_schedulable`,
:func:`repro.analysis.tuning.exact_preparation_factor`) spend most of
their wall-clock on *dispatch* when task sets are small: every window of
every set pays a separate breakpoint generation and a separate fused
kernel call.  This module advances **all sets in lockstep**: each scan
round collects every still-unconverged set's window, generates all
breakpoints in one fused pass
(:meth:`~repro.analysis.kernels.CompiledPopulation.breakpoints_many`)
and evaluates all demand values in one fused pass per bucket
(:meth:`~repro.analysis.kernels.CompiledPopulation.eval_many`), while
the cheap per-set state machines (window growth, envelope cut-offs,
crossing solves, bisection bounds) stay in plain Python.

**Bit-exactness contract.**  Each per-set trajectory — window bounds,
candidate sets, demand values, best-ratio updates, tie-breaks, budget
charges and even the budget-exhaustion message — runs the identical
elementary float operations as the per-set scan, so
``min_speedup_many(tasksets)[i] == min_speedup(tasksets[i])`` holds
bitwise (and likewise for the other entry points).  Converged sets are
masked out of later rounds; they contribute nothing to the fused calls.

Results carry no perf snapshots (``SpeedupResult.perf`` is ``None``)
and the shared :class:`~repro.analysis.kernels.AnalysisMemo` is neither
consulted nor populated: population scans always compute, which keeps
their results trivially independent of call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.budget import AnalysisBudgetExceeded, CandidateBudget
from repro.analysis.kernels import (
    PERF,
    _PRUNE_GUARD,
    _STRIPE,
    CompiledPopulation,
    CompiledTaskSet,
    compile_population,
    compile_taskset,
    compile_tasksets,
)
from repro.analysis.resetting import _RTOL as _RESET_RTOL
from repro.analysis.resetting import _tol as _reset_tol
from repro.analysis.resetting import ResettingResult
from repro.analysis.schedulability import _RTOL as _SCHED_RTOL
from repro.analysis.schedulability import _scan_horizon
from repro.analysis.speedup import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_RTOL,
    SpeedupResult,
)
from repro.analysis.tuning import density_preparation_factor, structural_floor
from repro.model.task import ModelError
from repro.model.taskset import TaskSet
from repro.obs import trace

Analyzable = Union[TaskSet, CompiledTaskSet]

#: A scan outcome that is either a value or the exception the per-set
#: path would have raised for that set (other sets are unaffected).
SpeedupOutcome = Union[SpeedupResult, AnalysisBudgetExceeded]
ResettingOutcome = Union[ResettingResult, AnalysisBudgetExceeded, ValueError]


def _count_batch(size: int) -> None:
    PERF.population_batches += 1
    PERF.population_sets += size


# ---------------------------------------------------------------------------
# Theorem 2 in lockstep
# ---------------------------------------------------------------------------
@dataclass
class _SpeedupState:
    rate: float
    excess: float
    window_lo: float
    window_hi: float
    rtol: float
    max_candidates: int
    best_ratio: float = 0.0
    best_delta: Optional[float] = None
    examined: int = 0


def _min_speedup_lockstep(
    members: Sequence[CompiledTaskSet],
    *,
    rtol: float,
    max_candidates_list: Sequence[int],
    on_budget: str,
    pop: Optional[CompiledPopulation] = None,
) -> List[SpeedupOutcome]:
    """All members' Eq.-8 supremum scans, advanced one window per round.

    Mirrors :func:`repro.analysis.speedup._supremum_scan` (plus the
    ``min_speedup`` entry shortcuts) per member, bit for bit.  With
    ``on_budget="raise"`` a budget-exhausted member's outcome is the
    :class:`AnalysisBudgetExceeded` it would have raised — the caller
    decides whether to raise or capture it.
    """
    if pop is None:
        pop = compile_population(members)
    pop.prepare_tables("dbf")
    outcomes: List[Optional[SpeedupOutcome]] = [None] * len(members)
    states: List[Optional[_SpeedupState]] = [None] * len(members)

    zero_probe = [
        (index, np.array([0.0], dtype=float))
        for index, member in enumerate(members)
        if member.n > 0
    ]
    zero_demand = pop.eval_many("dbf", zero_probe)
    zero_of = {index: values for (index, _), values in zip(zero_probe, zero_demand)}

    for index, member in enumerate(members):
        if member.n == 0:
            outcomes[index] = SpeedupResult(0.0, None, True, 0.0, 0)
        elif float(zero_of[index][0]) > 1e-12:
            outcomes[index] = SpeedupResult(math.inf, None, True, math.inf, 0)
        elif member.dbf_excess <= 0.0:
            outcomes[index] = SpeedupResult(
                member.rate, None, True, member.rate, 0
            )
        else:
            states[index] = _SpeedupState(
                rate=member.rate,
                excess=member.dbf_excess,
                window_lo=0.0,
                window_hi=member.initial_window(),
                rtol=rtol,
                max_candidates=int(max_candidates_list[index]),
            )

    active = [index for index in range(len(members)) if states[index] is not None]
    while active:
        windows: List[Tuple[int, float, float]] = []
        for index in active:
            st = states[index]
            assert st is not None
            st.window_hi = members[index].clamp_window(
                st.window_lo, st.window_hi, kind="dbf"
            )
            windows.append((index, st.window_lo, st.window_hi))
        breaks = pop.breakpoints_many(windows, kind="dbf")
        # Every window peak runs the same stripe-pruned evaluation as the
        # per-set ``window_peak`` (bit-identical to the exhaustive
        # first-argmax by its pruning contract): fused items batch their
        # coarse pass and their surviving stripes through two population
        # kernel calls per round; items too large to fuse go through the
        # member's own pruned evaluator directly.
        peak_of: Dict[int, Tuple[float, float]] = {}
        cand_of: Dict[int, np.ndarray] = {}
        coarse_of: Dict[int, Optional[np.ndarray]] = {}
        coarse_items: List[Tuple[int, np.ndarray]] = []
        for (index, _, _), cand in zip(windows, breaks):
            if not cand.size:
                continue
            st = states[index]
            assert st is not None
            cand_of[index] = cand
            if not pop.fuses(index, cand.size):
                peak_of[index] = members[index].window_peak(
                    cand, st.best_ratio
                )
            elif cand.size < 3 * _STRIPE:
                # Too few breakpoints to stripe: exhaustive fused eval.
                coarse_of[index] = None
                coarse_items.append((index, cand))
            else:
                coarse = np.arange(_STRIPE - 1, cand.size, _STRIPE)
                if coarse[-1] != cand.size - 1:
                    coarse = np.append(coarse, cand.size - 1)
                coarse_of[index] = coarse
                coarse_items.append((index, cand[coarse]))
        fill_items: List[Tuple[int, np.ndarray]] = []
        fill_of: Dict[int, Optional[Tuple[np.ndarray, float, int]]] = {}
        for (index, probe), demand in zip(
            coarse_items, pop.eval_many("dbf", coarse_items)
        ):
            st = states[index]
            assert st is not None
            cand = cand_of[index]
            coarse = coarse_of[index]
            if coarse is None:
                ratios = demand / probe
                at = int(np.argmax(ratios))
                peak_of[index] = (float(ratios[at]), float(probe[at]))
                continue
            r_coarse = demand / probe
            at_coarse = int(np.argmax(r_coarse))
            coarse_peak = float(r_coarse[at_coarse])
            best_eff = (
                st.best_ratio
                if st.best_ratio > coarse_peak
                else coarse_peak
            )
            starts = np.empty(coarse.size, dtype=np.int64)
            starts[0] = 0
            starts[1:] = coarse[:-1] + 1
            bounds = demand / cand[starts]
            live_idx = np.flatnonzero(
                bounds * (1.0 + _PRUNE_GUARD) >= best_eff
            )
            if live_idx.size == coarse.size:
                # No stripe can be ruled out: exhaustive re-evaluation of
                # the whole window, exactly like the per-set fallback.
                fill_of[index] = None
                fill_items.append((index, cand))
                continue
            segments = [
                np.arange(starts[j], coarse[j], dtype=np.int64)
                for j in live_idx
            ]
            segments = [seg for seg in segments if seg.size]
            peak_index = int(coarse[at_coarse])
            if segments:
                interior = np.concatenate(segments)
                fill_of[index] = (interior, coarse_peak, peak_index)
                fill_items.append((index, cand[interior]))
            else:
                PERF.pruned += int(cand.size - coarse.size)
                peak_of[index] = (coarse_peak, float(cand[peak_index]))
        for (index, probe), demand in zip(
            fill_items, pop.eval_many("dbf", fill_items)
        ):
            cand = cand_of[index]
            fill = fill_of[index]
            ratios = demand / probe
            at = int(np.argmax(ratios))
            if fill is None:
                peak_of[index] = (float(ratios[at]), float(probe[at]))
                continue
            interior, peak, peak_index = fill
            # Exact tie-break: on ratio equality prefer the earlier
            # breakpoint so the pruned scan reports the same critical
            # delta as the scalar oracle's left-to-right argmax.
            if float(ratios[at]) > peak or (
                float(ratios[at]) == peak  # repro-lint: ignore[RL002] first-strict-maximum tie-break is exact by spec
                and int(interior[at]) < peak_index
            ):
                peak = float(ratios[at])
                peak_index = int(interior[at])
            coarse = coarse_of[index]
            assert coarse is not None
            PERF.pruned += int(cand.size - coarse.size - interior.size)
            peak_of[index] = (peak, float(cand[peak_index]))
        still_active: List[int] = []
        for (index, _, _), candidates in zip(windows, breaks):
            st = states[index]
            assert st is not None
            if candidates.size:
                peak_ratio, peak_delta = peak_of[index]
                if peak_ratio > st.best_ratio:
                    st.best_ratio = peak_ratio
                    st.best_delta = peak_delta
                st.examined += int(candidates.size)

            future_cap = st.rate + st.excess / st.window_hi
            target = max(st.best_ratio, st.rate)
            if future_cap <= target * (1.0 + st.rtol) + st.rtol:
                if st.best_ratio >= st.rate:
                    outcomes[index] = SpeedupResult(
                        st.best_ratio, st.best_delta, True,
                        st.best_ratio, st.examined,
                    )
                else:
                    outcomes[index] = SpeedupResult(
                        st.rate, st.best_delta, True, st.rate, st.examined
                    )
                continue
            if st.examined >= st.max_candidates:
                if on_budget == "raise":
                    outcomes[index] = AnalysisBudgetExceeded(
                        "min_speedup",
                        st.examined,
                        st.max_candidates,
                        f"best ratio so far {max(st.best_ratio, st.rate):.6g} "
                        f"(certified upper bound "
                        f"{max(st.best_ratio, future_cap):.6g}), "
                        f"demand rate {st.rate:.6g}, "
                        f"scan reached Delta={st.window_hi:.6g}",
                    )
                else:
                    upper = max(st.best_ratio, future_cap)
                    outcomes[index] = SpeedupResult(
                        max(st.best_ratio, st.rate), st.best_delta, False,
                        upper, st.examined,
                    )
                continue

            st.window_lo = st.window_hi
            if st.best_ratio > st.rate * (1.0 + st.rtol) + st.rtol:
                stop = st.excess / (st.best_ratio - st.rate)
                st.window_hi = min(
                    max(2.0 * st.window_hi, st.window_lo * 1.5),
                    max(stop, st.window_lo * 1.1),
                )
                if st.window_hi <= st.window_lo:
                    outcomes[index] = SpeedupResult(
                        st.best_ratio, st.best_delta, True,
                        st.best_ratio, st.examined,
                    )
                    continue
            else:
                st.window_hi = 2.0 * st.window_hi
            still_active.append(index)
        active = still_active

    return [outcome for outcome in outcomes if outcome is not None]


def min_speedup_many(
    tasksets: Sequence[Analyzable],
    *,
    rtol: float = DEFAULT_RTOL,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    on_budget: str = "inexact",
) -> List[SpeedupResult]:
    """Theorem 2's minimum speedup for every task set, one fused scan.

    Bit-identical, set by set, to calling
    :func:`repro.analysis.speedup.min_speedup` with the same parameters
    (compiled or scalar engine — they agree), but the whole population
    shares each round's breakpoint generation and demand kernel calls.
    With ``on_budget="raise"`` the first (by input order) budget-exceeded
    set raises; other sets' work is discarded.
    """
    if on_budget not in ("inexact", "raise"):
        raise ValueError(
            f"on_budget must be 'inexact' or 'raise', got {on_budget!r}"
        )
    if not tasksets:
        return []
    members = compile_tasksets(tasksets)
    _count_batch(len(members))
    with trace.span("population.min_speedup", sets=len(members)):
        outcomes = _min_speedup_lockstep(
            members,
            rtol=rtol,
            max_candidates_list=[max_candidates] * len(members),
            on_budget=on_budget,
        )
    results: List[SpeedupResult] = []
    for outcome in outcomes:
        if isinstance(outcome, AnalysisBudgetExceeded):
            raise outcome
        results.append(outcome)
    return results


# ---------------------------------------------------------------------------
# LO-mode EDF demand test in lockstep
# ---------------------------------------------------------------------------
@dataclass
class _LoState:
    speed: float
    horizon: float
    window_lo: float
    step: float
    max_window: float


def _lo_schedulable_lockstep(
    members: Sequence[CompiledTaskSet],
    speeds: Sequence[float],
    *,
    pop: Optional[CompiledPopulation] = None,
) -> List[bool]:
    """All members' LO-mode demand scans, advanced one window per round.

    Mirrors :func:`repro.analysis.schedulability._lo_mode_scan` (plus the
    ``lo_mode_schedulable`` entry shortcuts) per member; the exhaustive
    supply comparison per window matches the per-set verdict exactly
    (stripe pruning there is verdict-preserving).
    """
    if pop is None:
        pop = compile_population(members)
    pop.prepare_tables("lo")
    verdicts: List[Optional[bool]] = [None] * len(members)
    states: List[Optional[_LoState]] = [None] * len(members)
    for index, member in enumerate(members):
        speed = float(speeds[index])
        if speed <= 0.0:
            verdicts[index] = member.n == 0
            continue
        if member.n == 0:
            verdicts[index] = True
            continue
        rate = member.lo_rate
        if rate > speed * (1.0 + _SCHED_RTOL):
            verdicts[index] = False
            continue
        excess = member.lo_excess
        if excess <= 0.0:
            verdicts[index] = True
            continue
        horizon = _scan_horizon(
            [(float(d), float(p)) for d, p in zip(member.d_lo, member.t_lo)],
            speed,
            rate,
            excess,
        )
        density = member.lo_density
        states[index] = _LoState(
            speed=speed,
            horizon=horizon,
            window_lo=0.0,
            step=2.0 * member.lo_max_period,
            max_window=200_000 / density if density > 0 else math.inf,
        )

    active = [index for index in range(len(members)) if states[index] is not None]
    while active:
        windows: List[Tuple[int, float, float]] = []
        for index in active:
            st = states[index]
            assert st is not None
            window_hi = min(
                st.window_lo + st.step,
                st.horizon,
                st.window_lo + st.max_window,
            )
            windows.append((index, st.window_lo, window_hi))
        breaks = pop.breakpoints_many(windows, kind="lo")
        # Items too large to fuse go through the member's pruned
        # lo_demand_ok — verdict-identical (pruned stripes provably hold
        # no violation), with stripe pruning intact.
        eval_items = []
        verdict_of: Dict[int, bool] = {}
        for (index, _, _), cand in zip(windows, breaks):
            if not cand.size:
                continue
            if pop.fuses(index, cand.size):
                eval_items.append((index, cand))
            else:
                st = states[index]
                assert st is not None
                verdict_of[index] = members[index].lo_demand_ok(
                    cand, st.speed, _SCHED_RTOL
                )
        demands = pop.eval_many("lo", eval_items)
        demand_of = {
            index: values for (index, _), values in zip(eval_items, demands)
        }
        still_active: List[int] = []
        for (index, _, window_hi), candidates in zip(windows, breaks):
            st = states[index]
            assert st is not None
            if candidates.size:
                if index in verdict_of:
                    if not verdict_of[index]:
                        verdicts[index] = False
                        continue
                else:
                    demand = demand_of[index]
                    threshold = (
                        st.speed * candidates * (1.0 + _SCHED_RTOL)
                        + _SCHED_RTOL
                    )
                    if bool(np.any(demand > threshold)):
                        verdicts[index] = False
                        continue
            st.window_lo = window_hi
            st.step *= 2.0
            if st.window_lo < st.horizon:
                still_active.append(index)
            else:
                verdicts[index] = True
        active = still_active

    return [bool(verdict) for verdict in verdicts]


def lo_mode_schedulable_many(
    tasksets: Sequence[Analyzable], speed: float = 1.0
) -> List[bool]:
    """LO-mode EDF feasibility for every task set, one fused scan.

    Bit-identical, set by set, to
    :func:`repro.analysis.schedulability.lo_mode_schedulable` at the same
    ``speed``.
    """
    if not tasksets:
        return []
    members = compile_tasksets(tasksets)
    _count_batch(len(members))
    with trace.span("population.lo_mode", sets=len(members)):
        return _lo_schedulable_lockstep(members, [speed] * len(members))


# ---------------------------------------------------------------------------
# Corollary 5 in lockstep
# ---------------------------------------------------------------------------
@dataclass
class _ResettingState:
    s: float
    rate: float
    horizon: float
    scan_end: float
    prev_delta: float
    prev_demand: float
    window_lo: float
    step: float
    budget: CandidateBudget
    drop: bool


def _resetting_lockstep(
    members: Sequence[CompiledTaskSet],
    speeds: Sequence[float],
    drops: Sequence[bool],
    max_candidates_list: Sequence[int],
    *,
    pop: Optional[CompiledPopulation] = None,
) -> List[ResettingOutcome]:
    """All members' Corollary-5 first-crossing scans, lockstepped.

    Mirrors :func:`repro.analysis.resetting._resetting_scan` (plus the
    ``resetting_time`` entry validation and shortcuts) per member.  A
    member whose budget is exhausted (or whose speedup is non-positive)
    gets the exception the per-set path would have raised as its
    outcome; other members continue unaffected.  Fused demand calls are
    grouped by the ``drop_terminated_carryover`` flag.
    """
    if pop is None:
        pop = compile_population(members)
    pop.prepare_tables("adb")
    outcomes: List[Optional[ResettingOutcome]] = [None] * len(members)
    states: List[Optional[_ResettingState]] = [None] * len(members)

    zero_items: List[Tuple[int, np.ndarray]] = []
    for index, member in enumerate(members):
        s = float(speeds[index])
        if s <= 0.0:
            outcomes[index] = ValueError(f"speedup must be positive, got {s}")
        elif member.n == 0:
            outcomes[index] = ResettingResult(0.0, s, True, 0.0)
        else:
            zero_items.append((index, np.array([0.0], dtype=float)))
    zero_of: Dict[int, float] = {}
    for drop in (False, True):
        subset = [
            item for item in zero_items if bool(drops[item[0]]) is drop
        ]
        if subset:
            for (index, _), values in zip(
                subset,
                pop.eval_many("adb", subset, drop_terminated_carryover=drop),
            ):
                zero_of[index] = float(values[0])

    for index, _ in zero_items:
        member = members[index]
        s = float(speeds[index])
        drop = bool(drops[index])
        demand_zero = zero_of[index]
        if demand_zero <= _reset_tol(0.0):
            outcomes[index] = ResettingResult(0.0, s, True, demand_zero)
            continue
        rate = member.rate
        if s <= rate + _RESET_RTOL * max(1.0, rate):
            outcomes[index] = ResettingResult(math.inf, s, False, math.inf)
            continue
        horizon = member.adb_excess(drop_terminated_carryover=drop) / (s - rate)
        if member.candidate_density("adb") <= 0.0:
            outcomes[index] = ResettingResult(demand_zero / s, s, False, demand_zero)
            continue
        states[index] = _ResettingState(
            s=s,
            rate=rate,
            horizon=horizon,
            scan_end=horizon + 2.0 * member.max_finite_period() + 1e-9,
            prev_delta=0.0,
            prev_demand=demand_zero,
            window_lo=0.0,
            step=min(member.initial_window(), max(horizon, 1e-12)),
            budget=CandidateBudget(
                int(max_candidates_list[index]), operation="resetting_time"
            ),
            drop=drop,
        )

    active = [index for index in range(len(members)) if states[index] is not None]
    while active:
        windows: List[Tuple[int, float, float]] = []
        for index in active:
            st = states[index]
            assert st is not None
            if st.window_lo > st.scan_end:
                raise RuntimeError(  # pragma: no cover - defensive
                    f"resetting-time scan exhausted at Delta={st.window_lo} "
                    f"(s={st.s})"
                )
            window_hi = members[index].clamp_window(
                st.window_lo,
                min(st.window_lo + st.step, st.scan_end * (1.0 + 1e-9) + 1e-12),
                kind="adb",
            )
            st.budget.context = (
                f"s={st.s:.6g}, demand rate={st.rate:.6g}, "
                f"crossing horizon={st.horizon:.6g}, "
                f"scan reached Delta={st.window_lo:.6g} of {st.scan_end:.6g}"
            )
            windows.append((index, st.window_lo, window_hi))
        all_breaks = pop.breakpoints_many(windows, kind="adb")

        # Per-set budget charge first (the per-set path charges inside
        # breakpoints_in, before any demand evaluation).
        charged: List[Tuple[int, float, np.ndarray]] = []
        eval_items: List[Tuple[int, np.ndarray]] = []
        mids_of: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for (index, _, window_hi), breaks in zip(windows, all_breaks):
            st = states[index]
            assert st is not None
            try:
                st.budget.charge(breaks.size)
            except AnalysisBudgetExceeded as error:
                outcomes[index] = error
                states[index] = None
                continue
            charged.append((index, window_hi, breaks))
            if breaks.size:
                prevs = np.concatenate(([st.prev_delta], breaks[:-1]))
                mids = 0.5 * (prevs + breaks)
                mids_of[index] = (prevs, mids)
                eval_items.append((index, breaks))
                eval_items.append((index, mids))

        values_of: Dict[int, List[np.ndarray]] = {}
        for drop in (False, True):
            subset = []
            for item in eval_items:
                st = states[item[0]]
                if st is not None and st.drop is drop:
                    subset.append(item)
            if subset:
                evaluated = pop.eval_many(
                    "adb", subset, drop_terminated_carryover=drop
                )
                for (index, _), values in zip(subset, evaluated):
                    values_of.setdefault(index, []).append(values)

        still_active: List[int] = []
        for index, window_hi, breaks in charged:
            st = states[index]
            assert st is not None
            if breaks.size:
                values = np.asarray(values_of[index][0], dtype=float)
                mid_vals = np.asarray(values_of[index][1], dtype=float)
                prevs, _mids = mids_of[index]
                prev_vals = np.concatenate(([st.prev_demand], values[:-1]))
                lengths = breaks - prevs
                left_limits = 2.0 * mid_vals - prev_vals
                with np.errstate(divide="ignore", invalid="ignore"):
                    slopes = np.where(
                        lengths > 0,
                        (left_limits - prev_vals)
                        / np.where(lengths > 0, lengths, 1.0),
                        np.inf,
                    )
                    crossings = prevs + (prev_vals - st.s * prevs) / (
                        st.s - slopes
                    )
                tol_b = _RESET_RTOL * (1.0 + np.abs(breaks))
                interior_ok = (
                    (lengths > 0)
                    & (st.s > slopes)
                    & (
                        prev_vals
                        > st.s * prevs + _RESET_RTOL * (1.0 + np.abs(prev_vals))
                    )
                    & (crossings >= prevs)
                    & (crossings < breaks - tol_b)
                )
                break_ok = values <= st.s * breaks + _RESET_RTOL * (
                    1.0 + np.abs(values)
                )
                int_hits = np.flatnonzero(interior_ok)
                brk_hits = np.flatnonzero(break_ok)
                first_int = int(int_hits[0]) if int_hits.size else breaks.size
                first_brk = int(brk_hits[0]) if brk_hits.size else breaks.size
                if first_int <= first_brk and first_int < breaks.size:
                    j = first_int
                    crossing = float(max(crossings[j], prevs[j]))
                    outcomes[index] = ResettingResult(
                        crossing,
                        st.s,
                        False,
                        float(
                            members[index].total_adb_hi(
                                crossing, drop_terminated_carryover=st.drop
                            )
                        ),
                    )
                    continue
                if first_brk < breaks.size:
                    j = first_brk
                    outcomes[index] = ResettingResult(
                        float(breaks[j]), st.s, True, float(values[j])
                    )
                    continue
                st.prev_delta = float(breaks[-1])
                st.prev_demand = float(values[-1])
            st.window_lo = window_hi
            st.step *= 2.0
            still_active.append(index)
        active = [index for index in still_active if states[index] is not None]

    return [outcome for outcome in outcomes if outcome is not None]


def resetting_many(
    tasksets: Sequence[Analyzable],
    speedup: float,
    *,
    drop_terminated_carryover: bool = False,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> List[ResettingResult]:
    """Corollary 5's resetting time for every task set, one fused scan.

    Bit-identical, set by set, to
    :func:`repro.analysis.resetting.resetting_time` at speedup
    ``speedup``; the first (by input order) set whose candidate budget
    is exhausted raises its
    :class:`~repro.analysis.budget.AnalysisBudgetExceeded`.
    """
    if not tasksets:
        return []
    members = compile_tasksets(tasksets)
    _count_batch(len(members))
    with trace.span("population.resetting", sets=len(members)):
        outcomes = _resetting_lockstep(
            members,
            [speedup] * len(members),
            [drop_terminated_carryover] * len(members),
            [max_candidates] * len(members),
        )
    results: List[ResettingResult] = []
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        results.append(outcome)
    return results


# ---------------------------------------------------------------------------
# Exact preparation-factor bisection in lockstep
# ---------------------------------------------------------------------------
@dataclass
class _BisectState:
    base: CompiledTaskSet
    floor: float
    phase: str  # "hi" -> "lo" -> "bisect"
    tol: float
    lo: float = 0.0
    hi: float = 1.0
    probe: float = 1.0
    result: Optional[float] = None
    done: bool = False
    member: Optional[CompiledTaskSet] = field(default=None, repr=False)


def _exact_x_lockstep(
    tasksets: Sequence[TaskSet], *, tol: float
) -> List[Optional[float]]:
    """All sets' exact-``x`` bisections, one fused LO scan per level.

    Mirrors :func:`repro.analysis.tuning.exact_preparation_factor`
    (compiled engine) per set: identical probe sequence, identical
    derived snapshots, identical bisection arithmetic — every set
    advances one probe per round and the probes' LO-mode scans run
    through one population.  Sets without HI tasks resolve on the first
    round via the same base-set LO scan.
    """
    results: List[Optional[float]] = [None] * len(tasksets)
    states: List[Optional[_BisectState]] = [None] * len(tasksets)
    for index, taskset in enumerate(tasksets):
        base = compile_taskset(taskset)
        if not taskset.hi_tasks:
            # No HI tasks: one base-set feasibility probe settles it.
            states[index] = _BisectState(
                base=base, floor=0.0, phase="plain", tol=tol
            )
            continue
        states[index] = _BisectState(
            base=base,
            floor=structural_floor(taskset),
            phase="hi",
            tol=tol,
            probe=1.0,
        )

    pending = [index for index in range(len(tasksets)) if states[index] is not None]
    while pending:
        probe_members: List[CompiledTaskSet] = []
        probe_owners: List[int] = []
        for index in pending:
            st = states[index]
            assert st is not None
            if st.phase == "plain":
                st.member = st.base
            else:
                st.member = st.base.with_hi_lo_deadline_factor(st.probe)
            probe_members.append(st.member)
            probe_owners.append(index)
        feasible = _lo_schedulable_lockstep(
            probe_members, [1.0] * len(probe_members)
        )
        next_pending: List[int] = []
        for index, ok in zip(probe_owners, feasible):
            st = states[index]
            assert st is not None
            if st.phase == "plain":
                results[index] = 1.0 if ok else None
                continue
            if st.phase == "hi":
                if not ok:
                    results[index] = None
                    continue
                st.lo = max(st.floor, 1e-9)
                st.hi = 1.0
                st.phase = "lo"
                st.probe = st.lo
                next_pending.append(index)
                continue
            if st.phase == "lo":
                if ok:
                    results[index] = st.lo
                    continue
                st.phase = "bisect"
            else:  # bisect: the probe was the midpoint
                if ok:
                    st.hi = st.probe
                else:
                    st.lo = st.probe
            if st.hi - st.lo > st.tol * st.hi:
                st.probe = 0.5 * (st.lo + st.hi)
                next_pending.append(index)
            else:
                results[index] = st.hi
        pending = next_pending

    return results


def min_preparation_factor_many(
    tasksets: Sequence[TaskSet],
    *,
    method: str = "density",
    tol: float = 1e-4,
) -> List[Optional[float]]:
    """Minimal feasible preparation factor ``x`` for every task set.

    ``"density"`` is closed-form (no batching needed); ``"exact"`` runs
    all bisections in lockstep, one fused LO-mode scan per probe level.
    Both return, set by set, exactly what
    :func:`repro.analysis.tuning.min_preparation_factor` returns.
    """
    if method == "density":
        return [density_preparation_factor(taskset) for taskset in tasksets]
    if method != "exact":
        raise ModelError(f"unknown method: {method!r}")
    if not tasksets:
        return []
    _count_batch(len(tasksets))
    with trace.span("population.exact_x", sets=len(tasksets)):
        return _exact_x_lockstep(tasksets, tol=tol)
