"""Population-scale analysis front-end: many task sets per kernel call.

Every analysis scan is written once, as a scan generator next to its
per-set entry point: :func:`~repro.analysis.speedup.supremum_steps`
(Theorem 2), :func:`~repro.analysis.schedulability.lo_scan_steps` (the
LO-mode demand test), :func:`~repro.analysis.resetting.crossing_steps`
(Corollary 5) and :func:`~repro.analysis.tuning.bisection_steps` (the
exact-``x`` bisection).  A generator holds its scan's whole state
machine — entry shortcuts, window growth, envelope stops, budget
charges, crossing solves, bisection bounds, results and errors — and
yields only what needs demand arithmetic.  The per-set entry points
answer one generator on one evaluator
(:func:`~repro.analysis.kernels.drive`).

This module is the other driver.  :func:`_lockstep` advances every
set's generator in rounds: each round visits the scan's phases in a
fixed order and answers all generators parked at a phase with one call.
A window phase — the Theorem-2 ``peak``, the Corollary-5 ``window``, the
LO verdict — answers all parked windows in columns: one flat breakpoint
pass
(:meth:`~repro.analysis.kernels.CompiledPopulation.breakpoints_flat`),
then the window arithmetic the per-set scans run on one window
(:func:`~repro.analysis.kernels.window_peaks`,
:func:`~repro.analysis.resetting.window_crossings`, the LO supply line)
over all of them, with one fused demand pass per bucket
(:meth:`~repro.analysis.kernels.CompiledPopulation.eval_flat`) for each
of its demand rounds.  A window the flat pass leaves alone takes its
points from the member's ``breakpoints_in``, and a window that alone
fills an evaluation chunk is answered by the member's own pruned
evaluator.  A generator with nothing to ask at a phase waits for the
next round, and a settled one drops out, so a converged set contributes
nothing to later rounds.  Every answer is bit-identical to its per-set
counterpart, and so is every result: ``min_speedup_many(tasksets)[i] ==
min_speedup(tasksets[i])``, and likewise for the other entry points.
An error a generator raises for its set (a budget, a hyperperiod beyond
the float range, a speedup that is not positive) becomes that set's
outcome; the other sets go on.

The exact-``x`` bisection never derives a snapshot per probe, and answers
each probe level in columns: it builds the group's base population once
and, at each level, writes the pending sets' probe ``D(LO)`` rows into
that population's LO tables, decides every set's LO shortcuts and first
window with :func:`~repro.analysis.schedulability.lo_scan_start` over
arrays, and scans all first windows in one flat breakpoint pass, one
demand pass per bucket and one supply comparison.  Only a set without HI
tasks, or a probe whose first window passes short of its horizon, goes on
as its own :func:`~repro.analysis.schedulability.lo_scan_steps`
generator; ``lo_scan_steps`` stays the one multi-window LO scan.

Results carry no perf snapshots (``SpeedupResult.perf`` is ``None``)
and the shared :class:`~repro.analysis.kernels.AnalysisMemo` is neither
consulted nor populated: population scans always compute, which keeps
their results trivially independent of call order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.budget import AnalysisBudgetExceeded
from repro.analysis.kernels import (
    PERF,
    CompiledPopulation,
    CompiledTaskSet,
    Steps,
    compile_population,
    compile_tasksets,
    lo_supply_threshold,
    window_peaks,
)
from repro.analysis.resetting import (
    ResettingResult,
    crossing_steps,
    crossing_window,
    window_crossings,
)
from repro.analysis.schedulability import LoProbe, lo_scan_start, lo_scan_steps
from repro.analysis.speedup import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_RTOL,
    SpeedupResult,
    supremum_steps,
)
from repro.analysis.tuning import (
    EXACT_X_TOL,
    bisection_steps,
    density_preparation_factor,
)
from repro.model.task import ModelError
from repro.model.taskset import TaskSet
from repro.obs import trace

Analyzable = Union[TaskSet, CompiledTaskSet]

#: A scan outcome that is either a value or the exception the per-set
#: path would have raised for that set (other sets are unaffected).
SpeedupOutcome = Union[SpeedupResult, AnalysisBudgetExceeded]
ResettingOutcome = Union[ResettingResult, AnalysisBudgetExceeded, ValueError]
LoOutcome = Union[bool, ArithmeticError, ValueError]
#: A tuned ``x`` (``None``: infeasible for every ``x <= 1``) or an error.
TuningOutcome = Union[float, None, ArithmeticError, ValueError]

#: Errors a scan raises for its set alone: the lockstep returns them as
#: that member's outcome.
_MEMBER_ERRORS = (ArithmeticError, ValueError, AnalysisBudgetExceeded)

#: One phase's batched answer: the parked generators' population indices
#: and request payloads in, one reply per generator out.
Phase = Callable[[List[int], List[Any]], Sequence[Any]]

#: The one-point probe of a scan's demand at ``Delta = 0``.
_ZERO = np.zeros(1)


def _lockstep(
    steps: Sequence[Steps[Any]],
    phases: Mapping[str, Phase],
    owners: Optional[Sequence[int]] = None,
    first: Optional[Sequence[Any]] = None,
) -> List[Any]:
    """Drive scan generators in lockstep rounds; return their outcomes.

    Each round visits ``phases`` in order and answers every generator
    parked at a phase with one call, ``phases[phase](members,
    payloads)``, where ``members`` are the parked generators' population
    indices in generator order (``owners[k]`` for generator ``k``, by
    default ``k``).  A generator that asks for a phase already visited
    this round waits for the next.  An outcome is a generator's result or
    the member error it raised; a reply that is an exception is thrown
    into its generator.  ``first[k]`` is sent to generator ``k`` to start
    (``None`` for a fresh one; a reply for one already parked at a
    request that was answered elsewhere).
    """
    members = range(len(steps)) if owners is None else owners
    outcomes: List[Any] = [None] * len(steps)
    waiting: Dict[str, List[Tuple[int, Any]]] = {phase: [] for phase in phases}

    def resume(ks: Sequence[int], replies: Sequence[Any]) -> None:
        for k, reply in zip(ks, replies):
            step = steps[k]
            try:
                if isinstance(reply, Exception):
                    phase, payload = step.throw(reply)
                else:
                    phase, payload = step.send(reply)
            except StopIteration as done:
                outcomes[k] = done.value
            except _MEMBER_ERRORS as error:
                outcomes[k] = error
            else:
                waiting[phase].append((k, payload))

    resume(range(len(steps)), [None] * len(steps) if first is None else first)
    while any(waiting.values()):
        for phase, answer in phases.items():
            parked = waiting[phase]
            if parked:
                waiting[phase] = []
                parked.sort(key=itemgetter(0))
                ks = [k for k, _ in parked]
                resume(ks, answer([members[k] for k in ks], [p for _, p in parked]))
    return outcomes


def _window_points(
    pop: CompiledPopulation, kind: str, at: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every window's breakpoints, window by window: ``(lo[j], hi[j]]`` of
    member ``at[j]``.  One flat lattice expansion
    (:meth:`~repro.analysis.kernels.CompiledPopulation.breakpoints_flat`);
    a window it leaves alone takes its points from the member's
    ``breakpoints_in`` (its probe snapshot's,
    :meth:`~repro.analysis.kernels.CompiledPopulation.snapshot`).
    Returns ``(points, owner, bounds)``: window ``j``'s ascending points
    are ``points[bounds[j]:bounds[j + 1]]``, and ``owner`` tags each
    point with its window."""
    points, owner, alone = pop.breakpoints_flat(kind, at, lo, hi)
    if alone.size:
        own = [
            pop.snapshot(int(at[pos])).breakpoints_in(float(lo[pos]), float(hi[pos]), kind=kind)
            for pos in alone.tolist()
        ]
        owner = np.concatenate([owner, np.repeat(alone, [c.size for c in own])])
        order = np.argsort(owner, kind="stable")
        points = np.concatenate([points, *own])[order]
        owner = owner[order]
    return points, owner, np.searchsorted(owner, np.arange(at.size + 1))


def _split_off(
    pop: CompiledPopulation,
    at: np.ndarray,
    points: np.ndarray,
    owner: np.ndarray,
    bounds: np.ndarray,
    alone: Callable[[int, np.ndarray], Any],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Dict[int, Any]]:
    """Answer each window that alone fills an evaluation chunk
    (:meth:`~repro.analysis.kernels.CompiledPopulation.fuses`) with
    ``alone(window, its points)``: the member's own pruned evaluator,
    same answer.  Returns the other windows' ``(points, owner)``, the
    ones among them with points and their ``bounds`` in ``points``, and
    the answers by window."""
    sizes = bounds[1:] - bounds[:-1]
    fused = pop.fuses(at, sizes)
    answers: Dict[int, Any] = {}
    if not fused.all():
        answers = {
            pos: alone(pos, points[bounds[pos] : bounds[pos + 1]])
            for pos in (~fused).nonzero()[0].tolist()
        }
        keep = fused[owner]
        points, owner = points[keep], owner[keep]
        sizes = sizes * fused
    present = sizes.nonzero()[0]
    return points, owner, present, np.concatenate(([0], sizes[present].cumsum())), answers


def _run(name: str, size: int, lockstep: Callable[[], List[Any]]) -> List[Any]:
    """One front-end batch: count it, run its lockstep under a
    ``population.<name>`` span and raise the first (by input order)
    member error, as the per-set call would."""
    PERF.population_batches += 1
    PERF.population_sets += size
    with trace.span(f"population.{name}", sets=size):
        outcomes = lockstep()
    for outcome in outcomes:
        if isinstance(outcome, _MEMBER_ERRORS):
            raise outcome
    return outcomes


# ---------------------------------------------------------------------------
# Theorem 2 in lockstep
# ---------------------------------------------------------------------------
def _min_speedup_lockstep(
    members: Sequence[CompiledTaskSet],
    *,
    rtol: float,
    max_candidates_list: Sequence[int],
    on_budget: str,
) -> List[SpeedupOutcome]:
    """All members' :func:`~repro.analysis.speedup.supremum_steps`,
    fused per round: the demand at 0, and every window's peak in columns
    (:func:`~repro.analysis.kernels.window_peaks`).  With ``on_budget="raise"`` a budget-exhausted
    member's outcome is the :class:`AnalysisBudgetExceeded` it raised —
    the caller decides whether to raise or capture it."""
    pop = compile_population(members)
    pop.prepare_tables("dbf")

    def peaks(at: List[int], windows: List[Any]) -> List[Any]:
        # Every window's stripe-pruned peak in columns (window_peaks): one
        # fused pass over the coarse points, one over the live stripes —
        # the cells the pruned per-set scan evaluates.
        idx = np.array(at, dtype=np.int64)
        lo, hi, best = (np.array(column, dtype=float) for column in zip(*windows))
        points, owner, bounds = _window_points(pop, "dbf", idx, lo, hi)
        sizes = np.diff(bounds).tolist()
        points, owner, present, bounds, alone = _split_off(
            pop, idx, points, owner, bounds,
            lambda pos, candidates: members[at[pos]].window_peak(candidates, best[pos]),
        )
        replies = [(0, b, None) for b in best.tolist()]
        if present.size:
            ratio, delta = window_peaks(
                points, bounds, best[present],
                lambda chosen: pop.eval_flat("dbf", idx[owner[chosen]], points[chosen]),
            )
            for pos, r, d in zip(present.tolist(), ratio.tolist(), delta.tolist()):
                replies[pos] = (sizes[pos], r, d)
        for pos, peak in alone.items():
            replies[pos] = (sizes[pos], *peak)
        return replies

    return _lockstep(
        [
            supremum_steps(
                member, rtol=rtol, max_candidates=int(budget), on_budget=on_budget
            )
            for member, budget in zip(members, max_candidates_list)
        ],
        {
            "zero": lambda at, _: [
                float(d[0]) for d in pop.eval_many("dbf", [(index, _ZERO) for index in at])
            ],
            "peak": peaks,
        },
    )


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
    return _run(
        "min_speedup",
        len(members),
        lambda: _min_speedup_lockstep(
            members,
            rtol=rtol,
            max_candidates_list=[max_candidates] * len(members),
            on_budget=on_budget,
        ),
    )


# ---------------------------------------------------------------------------
# LO-mode EDF demand test in lockstep
# ---------------------------------------------------------------------------
def _lo_verdicts(
    pop: CompiledPopulation,
    at: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    speeds: np.ndarray,
) -> np.ndarray:
    """Every window's LO verdict, in columns: whether ``DBF_LO(Delta) <=
    lo_supply_threshold(speeds[j], Delta)`` at each breakpoint of member
    ``at[j]``'s window ``(lo[j], hi[j]]``.

    One flat lattice expansion, one fused demand pass per bucket and one
    segmented supply comparison serve all windows; the per-element
    operations are the per-window ones, so each verdict is too.  A
    window that alone fills an evaluation chunk is answered by the
    member's own ``lo_demand_ok``, which prunes stripes that provably
    hold no violation, and a window the flat expansion leaves alone
    takes its points from the member's ``breakpoints_in``.
    """
    points, owner, bounds = _window_points(pop, "lo", at, lo, hi)
    points, owner, _, _, alone = _split_off(
        pop, at, points, owner, bounds,
        lambda pos, candidates: pop.snapshot(int(at[pos])).lo_demand_ok(
            candidates, float(speeds[pos])
        ),
    )
    ok = np.ones(at.size, dtype=bool)
    if points.size:
        demand = pop.eval_flat("lo", at[owner], points)
        late = demand > lo_supply_threshold(speeds[owner], points)
        ok[owner[late]] = False
    for pos, verdict in alone.items():
        ok[pos] = verdict
    return ok


def _lo_phases(pop: CompiledPopulation) -> Dict[str, Phase]:
    """The phase of :func:`~repro.analysis.schedulability.lo_scan_steps`
    on ``pop``: the windows' verdicts, in columns (:func:`_lo_verdicts`)."""
    pop.prepare_tables("lo")

    def windows_ok(at: List[int], windows: List[Any]) -> List[bool]:
        lo, hi, speeds = (np.array(column, dtype=float) for column in zip(*windows))
        return _lo_verdicts(pop, np.array(at, dtype=np.int64), lo, hi, speeds).tolist()

    return {"window": windows_ok}


def _lo_schedulable_lockstep(
    members: Sequence[CompiledTaskSet], speeds: Sequence[float]
) -> List[LoOutcome]:
    """Every member's own LO-mode demand scan, one population, lockstep."""
    return _lockstep(
        [lo_scan_steps(member, float(speed)) for member, speed in zip(members, speeds)],
        _lo_phases(compile_population(members)),
    )


def lo_mode_schedulable_many(
    tasksets: Sequence[Analyzable], speed: float = 1.0
) -> List[bool]:
    """LO-mode EDF feasibility for every task set, one fused scan.

    Bit-identical, set by set, to
    :func:`repro.analysis.schedulability.lo_mode_schedulable` at the same
    ``speed``; the first (by input order) set whose scan raises raises
    its error.
    """
    if not tasksets:
        return []
    members = compile_tasksets(tasksets)
    return _run(
        "lo_mode",
        len(members),
        lambda: _lo_schedulable_lockstep(members, [speed] * len(members)),
    )


# ---------------------------------------------------------------------------
# Corollary 5 in lockstep
# ---------------------------------------------------------------------------
def _resetting_lockstep(
    members: Sequence[CompiledTaskSet],
    speeds: Sequence[float],
    drops: Sequence[bool],
    max_candidates_list: Sequence[int],
) -> List[ResettingOutcome]:
    """All members' :func:`~repro.analysis.resetting.crossing_steps`,
    fused per round: the demand at 0, and every window in columns
    (:func:`~repro.analysis.resetting.window_crossings`) — one flat
    breakpoint pass, one demand pass over the breakpoints and midpoints
    and one at the interior crossings.  Demand passes are grouped by the
    ``drop_terminated_carryover`` flag: one fused call per flag."""
    pop = compile_population(members)
    pop.prepare_tables("adb")
    speed = np.array(speeds, dtype=float)

    def adb(at: np.ndarray, points: np.ndarray, flags: np.ndarray) -> np.ndarray:
        # ``sum ADB_HI`` at ``points[j]`` of member ``at[j]``, with its
        # ``drop_terminated_carryover`` flag ``flags[j]``.
        values = np.empty(points.size)
        for drop in (False, True):
            chosen = flags == drop
            if chosen.any():
                values[chosen] = pop.eval_flat(
                    "adb", at[chosen], points[chosen], drop_terminated_carryover=drop
                )
        return values

    def windows(at: List[int], requests: List[Any]) -> List[Any]:
        idx = np.array(at, dtype=np.int64)
        lo, hi, prev_delta, prev_demand, flags = (np.array(column) for column in zip(*requests))
        points, owner, bounds = _window_points(pop, "adb", idx, lo, hi)
        sizes = np.diff(bounds).tolist()
        points, owner, present, bounds, alone = _split_off(
            pop, idx, points, owner, bounds,
            lambda pos, breaks: crossing_window(
                members[at[pos]], float(speed[at[pos]]), breaks, *requests[pos][2:]
            ),
        )
        replies = [(0, (d, v)) for d, v in zip(prev_delta.tolist(), prev_demand.tolist())]
        if present.size:
            twice = np.concatenate((idx[owner], idx[owner]))
            flagged = np.concatenate((flags[owner], flags[owner]))

            def demand(breaks: np.ndarray, mids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
                values = adb(twice, np.concatenate((breaks, mids)), flagged)
                return values[: breaks.size], values[breaks.size :]

            outcomes = window_crossings(
                speed[idx[present]], points, bounds, prev_delta[present],
                prev_demand[present], demand,
                lambda crossings, crossed: adb(
                    idx[present[crossed]], crossings, flags[present[crossed]]
                ),
            )
            for pos, outcome in zip(present.tolist(), outcomes):
                replies[pos] = (sizes[pos], outcome)
        for pos, outcome in alone.items():
            replies[pos] = (sizes[pos], outcome)
        return replies

    return _lockstep(
        [
            crossing_steps(
                member,
                float(s),
                drop_terminated_carryover=drop,
                max_candidates=int(budget),
            )
            for member, s, drop, budget in zip(
                members, speeds, drops, max_candidates_list
            )
        ],
        {
            "zero": lambda at, flags: adb(
                np.array(at, dtype=np.int64), np.zeros(len(at)), np.array(flags, dtype=bool)
            ).tolist(),
            "window": windows,
        },
    )


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
    ``speedup``; the first (by input order) set whose scan raises — a
    speedup that is not positive, an exhausted candidate budget — raises
    its error.
    """
    if not tasksets:
        return []
    members = compile_tasksets(tasksets)
    return _run(
        "resetting",
        len(members),
        lambda: _resetting_lockstep(
            members,
            [speedup] * len(members),
            [drop_terminated_carryover] * len(members),
            [max_candidates] * len(members),
        ),
    )


# ---------------------------------------------------------------------------
# Exact preparation-factor bisection in lockstep
# ---------------------------------------------------------------------------
def _exact_x_lockstep(
    tasksets: Sequence[TaskSet], *, tol: float = EXACT_X_TOL
) -> List[TuningOutcome]:
    """All sets' :func:`~repro.analysis.tuning.bisection_steps` on one
    population of the base sets, one columnar round per probe level.

    :meth:`~repro.analysis.kernels.CompiledPopulation.probe_lo_deadline_factors`
    writes the probed members' ``D(LO)`` rows into the population's LO
    tables — the columns the per-set path's
    :meth:`~repro.analysis.kernels.CompiledTaskSet.with_hi_lo_deadline_factor`
    snapshot holds — and returns each probe's ``lo_excess`` and largest
    ``D(LO)``.  :func:`~repro.analysis.schedulability.lo_scan_start`
    decides the LO shortcuts and every first window over those columns,
    and :func:`_lo_verdicts` answers all first windows at once.  Two
    kinds of member go on as their own scan generator, in a nested
    lockstep: a set without HI tasks (``x = None``, asked once, on its
    base columns), and a probe whose first window passes short of its
    horizon (its scan reads a
    :class:`~repro.analysis.schedulability.LoProbe` and is sent that
    first verdict, so no window is scanned twice).  A set's period span
    is read once (``lo_span``), when a scan first reaches the horizon;
    if it overflows, the ``OverflowError`` is the probe's outcome, as
    the set's own scan would raise it.
    """
    bases = compile_tasksets(tasksets)
    pop = compile_population(bases)
    lo_phases = _lo_phases(pop)
    rate, max_period, density = (
        np.array([getattr(base, name) for base in bases], dtype=float)
        for name in ("lo_rate", "lo_max_period", "lo_density")
    )
    spans = np.full(len(bases), np.nan)  # NaN: not read yet, or overflowed
    overflows: Dict[int, OverflowError] = {}

    def span(idx: np.ndarray, scanning: np.ndarray) -> np.ndarray:
        at = idx[scanning]
        for index in at[np.isnan(spans[at])].tolist():
            try:
                spans[index] = bases[index].lo_span
            except OverflowError as error:
                overflows[index] = error
        return np.where(scanning, spans[idx], 0.0)

    def columnar(
        idx: np.ndarray, xs: List[float]
    ) -> Tuple[List[Any], List[Tuple[int, Steps[bool]]]]:
        """One probe level of members ``idx``: each one's verdict (or its
        span's error), and the scans that go on, by position in ``idx``."""
        d_lo, bounds, excess, max_d = pop.probe_lo_deadline_factors(idx, xs)
        start = lo_scan_start(
            1.0, rate[idx], excess, max_d, lambda scanning: span(idx, scanning),
            max_period[idx], density[idx],
        )
        scanning = ~(start.fails | start.holds)
        windowed = np.flatnonzero(scanning & (0.0 < start.horizon))
        first = start.first[windowed]
        passed = _lo_verdicts(
            pop, idx[windowed], np.zeros(first.size), first, np.ones(first.size)
        )
        verdicts = ~start.fails
        verdicts[windowed] = passed
        replies: List[Any] = verdicts.tolist()
        for j in np.flatnonzero(scanning & np.isnan(spans[idx])).tolist():
            replies[j] = overflows[int(idx[j])]
        going_on: List[Tuple[int, Steps[bool]]] = []
        for j in windowed[passed & (first < start.horizon[windowed])].tolist():
            base = bases[idx[j]]
            scan = lo_scan_steps(
                LoProbe(
                    base.n, base.lo_rate, base.lo_max_period, base.lo_density,
                    base.lo_span, d_lo[bounds[j] : bounds[j + 1]], float(excess[j]),
                ),
                1.0,
            )
            next(scan)  # its first window, answered above
            going_on.append((j, scan))
        return replies, going_on

    def probe(at: List[int], xs: List[Optional[float]]) -> List[Any]:
        replies: List[Any] = [None] * len(at)
        scans: List[Tuple[int, Steps[bool], Optional[bool]]] = [
            (pos, lo_scan_steps(bases[at[pos]], 1.0), None)
            for pos, x in enumerate(xs)
            if x is None
        ]
        probed = [pos for pos, x in enumerate(xs) if x is not None]
        if probed:
            verdicts, going_on = columnar(
                np.array([at[pos] for pos in probed], dtype=np.int64),
                [xs[pos] for pos in probed],
            )
            for pos, verdict in zip(probed, verdicts):
                replies[pos] = verdict
            scans += [(probed[j], scan, True) for j, scan in going_on]
        if scans:
            outcomes = _lockstep(
                [scan for _, scan, _ in scans],
                lo_phases,
                owners=[at[pos] for pos, _, _ in scans],
                first=[sent for _, _, sent in scans],
            )
            for (pos, _, _), outcome in zip(scans, outcomes):
                replies[pos] = outcome
        return replies

    return _lockstep(
        [bisection_steps(taskset, tol=tol) for taskset in tasksets], {"probe": probe}
    )


def min_preparation_factor_many(
    tasksets: Sequence[TaskSet],
    *,
    method: str = "density",
    tol: float = EXACT_X_TOL,
) -> List[Optional[float]]:
    """Minimal feasible preparation factor ``x`` for every task set.

    ``"density"`` is closed-form (no batching needed); ``"exact"`` runs
    all bisections in lockstep, one columnar round per probe level.
    Both return, set by set, exactly what
    :func:`repro.analysis.tuning.min_preparation_factor` returns; the
    first (by input order) set whose exact bisection raises raises its
    error.
    """
    if method == "density":
        return [density_preparation_factor(taskset) for taskset in tasksets]
    if method != "exact":
        raise ModelError(f"unknown method: {method!r}")
    if not tasksets:
        return []
    return _run("exact_x", len(tasksets), lambda: _exact_x_lockstep(tasksets, tol=tol))
