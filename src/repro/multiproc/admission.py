"""Per-core admission tests for partitioned deployment.

A partitioning heuristic asks, for each task in turn, *which cores can
take it* — one trial set per core.  The answers are the expensive part
of partitioning: the paper's own admission (LO-mode EDF feasibility at
nominal speed + Theorem-2 requirement within the per-core speedup cap)
runs two demand-curve scans per trial, so a 50-task set on 8 cores asks
for hundreds of scans.

Admission runs on the analysis engines (:mod:`repro.analysis.kernels`):

* ``"compiled"`` — kernel-backed: all of a task's per-core trial sets
  compile into one ragged struct-of-arrays population and both scans run
  in lockstep (:func:`repro.analysis.population.lo_mode_schedulable_many`
  / :func:`~repro.analysis.population.min_speedup_many`), sharing each
  round's breakpoint generation and fused demand kernels across every
  core.
* ``"scalar"`` — the reference oracle: one
  :func:`~repro.analysis.schedulability.lo_mode_schedulable` plus one
  :func:`~repro.analysis.speedup.min_speedup` call per (core, candidate)
  trial, on the per-task scalar engine.

The lockstep scans drive the per-set scans' own generators, so
**both engines admit exactly the same cores** — partitioning decisions
are byte-identical (property-tested on seeded populations).

Identical-content trials are evaluated once: every still-empty core
offers the same trial set ``{candidate}``, so one verdict covers all of
them on either engine (the analysis is deterministic, so this is a pure
dispatch saving, not a behaviour change).

The :class:`EdfVdDegradedAdmission` gives the same batched interface to
the no-speedup baseline — per-core EDF-VD with degraded quality
guarantees — so the comparison experiment partitions both schemes
through one heuristic loop.

All admission objects count their evaluated trials into
:data:`repro.analysis.kernels.PERF` (``admission_trials``), which the
pipeline ships back per chunk and the metrics registry surfaces as
``kernels.admission_trials``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

from repro.analysis.kernels import PERF
from repro.analysis.population import (
    lo_mode_schedulable_many,
    min_speedup_many,
)
from repro.analysis.schedulability import lo_mode_schedulable
from repro.analysis.speedup import min_speedup
from repro.baselines.edf_vd_degraded import edf_vd_degraded_schedulable
from repro.model.task import MCTask
from repro.model.taskset import TaskSet

if TYPE_CHECKING:  # type-only: importing repro.sim at runtime would
    from repro.sim.degradation import Rung  # cycle through repro.api.

#: Admission engines accepted by :func:`speedup_admission` and the
#: partitioning entry points: the analysis engine names.
ADMISSION_ENGINES = ("compiled", "scalar")


class SpeedupAdmission:
    """The paper's dual-mode admission under a per-core speedup cap.

    A candidate fits on a core iff the core's task set plus the
    candidate (i) stays LO-mode EDF-feasible at nominal speed and
    (ii) keeps its Theorem-2 minimum HI-mode speedup within
    ``speedup_cap``.
    """

    def __init__(self, speedup_cap: float, *, engine: str = "compiled") -> None:
        if speedup_cap <= 0.0:
            raise ValueError(f"speedup cap must be positive, got {speedup_cap}")
        if engine not in ADMISSION_ENGINES:
            raise ValueError(
                f"admission engine must be one of {ADMISSION_ENGINES}, "
                f"got {engine!r}"
            )
        self.speedup_cap = float(speedup_cap)
        self.engine = engine

    def admitting_cores(
        self,
        bins: Sequence[Sequence[MCTask]],
        candidate: MCTask,
        core_indices: Sequence[int],
    ) -> List[int]:
        """The subset of ``core_indices`` whose core admits ``candidate``.

        ``bins[i]`` holds core ``i``'s already-assigned tasks.  Returned
        in ascending core order (the order heuristics tie-break on).
        """
        if not core_indices:
            return []
        # Deduplicate identical trial contents: all empty cores share the
        # verdict of the single-task trial {candidate}.
        empty = [i for i in core_indices if not bins[i]]
        loaded = [i for i in core_indices if bins[i]]
        trial_owners: List[List[int]] = []
        trials: List[TaskSet] = []
        if empty:
            trial_owners.append(empty)
            trials.append(TaskSet([candidate]))
        for i in loaded:
            trial_owners.append([i])
            trials.append(TaskSet(list(bins[i]) + [candidate]))
        verdicts = self._admit_trials(trials)
        admitted = [
            i
            for owners, ok in zip(trial_owners, verdicts)
            if ok
            for i in owners
        ]
        return sorted(admitted)

    def _admit_trials(self, trials: List[TaskSet]) -> List[bool]:
        PERF.admission_trials += len(trials)
        if self.engine == "scalar":
            return [self._admit_scalar(trial) for trial in trials]
        verdicts = [False] * len(trials)
        lo_ok = lo_mode_schedulable_many(trials)
        feasible = [k for k, ok in enumerate(lo_ok) if ok]
        if feasible:
            speedups = min_speedup_many([trials[k] for k in feasible])
            for k, result in zip(feasible, speedups):
                verdicts[k] = result.admits(self.speedup_cap)
        return verdicts

    def _admit_scalar(self, trial: TaskSet) -> bool:
        if not lo_mode_schedulable(trial, engine="scalar"):
            return False
        return min_speedup(trial, engine="scalar").admits(self.speedup_cap)


class EdfVdDegradedAdmission:
    """Per-core EDF-VD-with-degraded-quality admission (no speedup).

    A candidate fits on a core iff the core's task set plus the
    candidate passes the Liu-et-al. degraded-quality EDF-VD test on a
    unit-speed core — the utilization-based baseline the speedup scheme
    is mapped against.  The test is closed form, so there is nothing to
    batch; the class exists to give both schemes one admission
    interface.
    """

    def __init__(
        self,
        *,
        y: float = 2.0,
        rungs: Optional[Mapping[str, "Rung"]] = None,
    ) -> None:
        if not (y >= 1.0):
            raise ValueError(f"degradation factor y must be >= 1 (or inf), got {y}")
        self.y = float(y)
        self.rungs = dict(rungs) if rungs is not None else None

    def admitting_cores(
        self,
        bins: Sequence[Sequence[MCTask]],
        candidate: MCTask,
        core_indices: Sequence[int],
    ) -> List[int]:
        """The subset of ``core_indices`` whose core admits ``candidate``."""
        admitted: List[int] = []
        seen_empty: Optional[bool] = None
        for i in core_indices:
            if not bins[i] and seen_empty is not None:
                if seen_empty:
                    admitted.append(i)
                continue
            PERF.admission_trials += 1
            trial = TaskSet(list(bins[i]) + [candidate])
            ok = edf_vd_degraded_schedulable(
                trial, y=self.y, rungs=self.rungs
            ).schedulable
            if not bins[i]:
                seen_empty = ok
            if ok:
                admitted.append(i)
        return admitted


def speedup_admission(
    speedup_cap: float, *, engine: str = "compiled"
) -> SpeedupAdmission:
    """Build the default (paper) admission test for ``partition_tasks``."""
    return SpeedupAdmission(speedup_cap, engine=engine)


def finite_or_none(value: float) -> Optional[float]:
    """``value`` when finite, else ``None`` (report-payload helper)."""
    return value if math.isfinite(value) else None
