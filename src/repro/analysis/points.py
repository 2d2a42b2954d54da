"""Candidate-point enumeration for the piecewise-linear demand functions.

Both ``DBF_HI`` (Eq. 7) and ``ADB_HI`` (Eq. 10) are piecewise-linear and
right-continuous in ``Delta``, with all discontinuities and slope changes
at per-task *breakpoints*:

* ``DBF_HI`` of task ``tau``: offsets ``{D(HI)-D(LO),
  D(HI)-D(LO)+C(LO)}`` and the period boundary, repeated every ``T(HI)``.
  A LO task with ``T(HI) = inf`` but finite ``D(HI)`` keeps one
  carry-over job in HI mode: its two offsets occur once, not as a
  lattice (:func:`dbf_hi_carry_points`).
* ``ADB_HI`` of task ``tau``: offsets ``{T(HI)-D(LO),
  T(HI)-D(LO)+C(LO)}`` and the period boundary, repeated every ``T(HI)``.

Between consecutive breakpoints of the *system* (union over tasks) the
total demand is linear, so extrema of ``demand/Delta`` and first
crossings of ``demand - s*Delta`` can be located by inspecting
breakpoints plus one probe per segment.  This yields the
pseudo-polynomial procedures the paper alludes to ("Computation
efficiency" paragraphs of Sections III and IV).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.analysis.budget import CandidateBudget
from repro.model.task import MCTask
from repro.model.taskset import TaskSet


def dbf_hi_offsets(task: MCTask) -> List[float]:
    """In-period breakpoint offsets of ``DBF_HI`` for ``task``.

    Returns an empty list for tasks terminated in HI mode (their demand is
    identically zero) and for tasks without a finite ``T(HI)``, whose
    breakpoints :func:`dbf_hi_carry_points` gives.
    """
    if task.terminated_in_hi or math.isinf(task.t_hi):
        return []
    gap = task.d_hi - task.d_lo
    offsets = {gap, gap + task.c_lo, task.t_hi}
    return sorted(o for o in offsets if 0.0 <= o <= task.t_hi)


def dbf_hi_carry_points(task: MCTask) -> List[float]:
    """``DBF_HI`` breakpoints of a task whose only HI-mode job carries over.

    A LO task with ``T(HI) = inf`` and finite ``D(HI)`` releases no job
    after the switch, but the one pending at it still runs: its demand
    jumps at ``gap = D(HI) - D(LO)`` and stops rising at ``gap + C(LO)``
    (Eq. 6 with ``Delta mod inf = Delta``).  Both points occur once.
    Empty for every other task.
    """
    if task.terminated_in_hi or not math.isinf(task.t_hi):
        return []
    gap = task.d_hi - task.d_lo
    return sorted({gap, gap + task.c_lo})


def adb_hi_offsets(task: MCTask) -> List[float]:
    """In-period breakpoint offsets of ``ADB_HI`` for ``task``."""
    if math.isinf(task.t_hi):
        return []
    gap = task.t_hi - task.d_lo
    offsets = {0.0, gap, gap + task.c_lo, task.t_hi}
    return sorted(o for o in offsets if 0.0 <= o <= task.t_hi)


def _task_points(period: float, offsets: Sequence[float], lo: float, hi: float) -> np.ndarray:
    """All points ``k * period + offset`` inside ``(lo, hi]``."""
    if not offsets or math.isinf(period):
        return np.empty(0)
    pieces = []
    for offset in offsets:
        k_min = math.floor((lo - offset) / period) if period > 0 else 0
        k_min = max(0, k_min)
        k_max = math.floor((hi - offset) / period + 1e-12)
        if k_max < k_min:
            continue
        ks = np.arange(k_min, k_max + 1, dtype=float)
        pts = ks * period + offset
        pieces.append(pts)
    if not pieces:
        return np.empty(0)
    points = np.concatenate(pieces)
    return points[(points > lo) & (points <= hi)]


def _union_points(pieces) -> np.ndarray:
    """Sorted union of per-task point arrays (empty pieces dropped)."""
    pieces = [p for p in pieces if p.size]
    if not pieces:
        return np.empty(0)
    return np.unique(np.concatenate(pieces))


def breakpoints_in(
    taskset: TaskSet,
    lo: float,
    hi: float,
    *,
    kind: str = "dbf",
    budget: Optional[CandidateBudget] = None,
) -> np.ndarray:
    """Sorted, de-duplicated system breakpoints in the window ``(lo, hi]``.

    ``kind`` selects the demand function: ``"dbf"`` for ``DBF_HI`` or
    ``"adb"`` for ``ADB_HI``.  When a ``budget`` is given, the returned
    candidates are charged against it (raising
    :class:`~repro.analysis.budget.AnalysisBudgetExceeded` when the scan
    has materialised more points than the budget allows).
    """
    if kind not in ("dbf", "adb"):
        raise ValueError(f"unknown kind: {kind!r}")
    offsets_of = dbf_hi_offsets if kind == "dbf" else adb_hi_offsets
    pieces = [
        _task_points(task.t_hi, offsets_of(task), lo, hi)
        for task in taskset
        if not math.isinf(task.t_hi)
    ]
    if kind == "dbf":
        # ADB_HI needs no counterpart: with T(HI) = inf it is the constant
        # C(HI) (Eq. 9 gives w* = -inf, so no carry term).
        once = np.array(
            [point for task in taskset for point in dbf_hi_carry_points(task)],
            dtype=float,
        )
        pieces.append(once[(once > lo) & (once <= hi)])
    points = _union_points(pieces)
    if not points.size:
        return points
    # Merge floating-point near-duplicates (within relative 1e-12) so that
    # downstream segment logic never sees zero-length segments.
    if points.size > 1:
        keep = np.empty(points.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(points) > 1e-12 * np.maximum(1.0, points[1:])
        points = points[keep]
    if budget is not None:
        budget.charge(points.size)
    return points


def dbf_lo_breakpoints_in(taskset: TaskSet, lo: float, hi: float) -> np.ndarray:
    """Breakpoints of the system ``DBF_LO`` in ``(lo, hi]`` (deadlines)."""
    return _union_points(
        _task_points(task.t_lo, [task.d_lo], lo, hi) for task in taskset
    )


def candidate_density(taskset: TaskSet, kind: str = "dbf") -> float:
    """Expected breakpoints per unit of Delta (for window sizing).

    Used to clamp scan windows so a single window never materialises more
    than a bounded number of candidate points, regardless of how large
    the pruning horizon is relative to the periods.
    """
    offsets_of = dbf_hi_offsets if kind == "dbf" else adb_hi_offsets
    density = 0.0
    for task in taskset:
        if math.isinf(task.t_hi):
            continue
        count = len(offsets_of(task))
        if count:
            density += count / task.t_hi
    return density


def clamp_window(
    taskset: TaskSet, start: float, desired_end: float, *,
    kind: str = "dbf", max_points: int = 200_000,
) -> float:
    """Largest window end <= desired_end keeping candidates <= max_points."""
    density = candidate_density(taskset, kind)
    if density <= 0.0:
        return desired_end
    limit = start + max_points / density
    return min(desired_end, max(limit, start * 1.0 + 1e-12))


def max_finite_period(taskset: TaskSet) -> float:
    """Largest finite HI-mode period; 0.0 when every task is terminated."""
    periods = [t.t_hi for t in taskset if not math.isinf(t.t_hi)]
    return max(periods) if periods else 0.0


def initial_window(taskset: TaskSet) -> float:
    """A reasonable first search window: two largest HI-mode periods."""
    period = max_finite_period(taskset)
    if period <= 0.0:
        return 1.0
    return 2.0 * period


def windows(start: float, grow: float = 2.0) -> Iterable[float]:
    """Yield geometrically growing window end points: start, start*grow, ..."""
    end = start
    while True:
        yield end
        end *= grow
