"""Static task partitioning with per-core speedup analysis.

Strategy: classical bin-packing heuristics over a utilization proxy,
with an *admission test per core* that is the paper's own dual-mode
analysis — a task fits on a core iff the core's task set stays LO-mode
feasible and its Theorem-2 requirement stays within the per-core
speedup cap.  After assignment, each core gets its exact ``s_min`` and
``Delta_R`` so heterogeneous boost budgets can be provisioned.

The admission question — *which cores can take this task?* — is
delegated to an admission object (:mod:`repro.multiproc.admission`), so
one heuristic loop serves both the paper's speedup scheme and the
EDF-VD-with-degraded-quality baseline, and the speedup admission can
batch all of a task's per-core trials through the population kernels
(``engine="compiled"``, the default) instead of running the scalar
oracle per (core, candidate) pair (``engine="scalar"``).  Both engines
are byte-identical in their decisions; the batched one just shares each
scan round's breakpoint generation and demand kernels across the cores.

Heuristics:

* ``"first_fit"``  — first core that admits the task;
* ``"worst_fit"``  — emptiest admitting core (balances load, tends to
  equalize the per-core speedup requirements);
* ``"best_fit"``   — fullest admitting core (packs tightly, frees whole
  cores for future growth).

Ties on the load proxy break to the *lowest core index* (Python's
``min``/``max`` keep the first optimum), so a heuristic's choice is a
pure function of the admission verdicts — deterministic across runs,
job counts, and admission engines.

Tasks are considered in decreasing LO-utilization order (the standard
decreasing-first-fit family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
)

from repro.analysis.resetting import ResettingResult, resetting_time
from repro.analysis.speedup import SpeedupResult, min_speedup
from repro.model.task import Criticality, MCTask
from repro.model.taskset import TaskSet
from repro.multiproc.admission import (
    ADMISSION_ENGINES,
    EdfVdDegradedAdmission,
    SpeedupAdmission,
)

if TYPE_CHECKING:  # type-only: importing repro.sim at runtime would
    from repro.sim.degradation import Rung  # cycle through repro.api.

_HEURISTICS = ("first_fit", "worst_fit", "best_fit")


class PartitioningError(ValueError):
    """Raised when the task set cannot be partitioned onto the cores."""


class AdmissionTest(Protocol):
    """What a partitioning heuristic needs from an admission policy."""

    def admitting_cores(
        self,
        bins: Sequence[Sequence[MCTask]],
        candidate: MCTask,
        core_indices: Sequence[int],
    ) -> List[int]:
        """Subset of ``core_indices`` whose core admits ``candidate``."""
        ...  # pragma: no cover - protocol


@dataclass
class CoreDesign:
    """Per-core outcome of the partitioned design."""

    index: int
    taskset: TaskSet
    s_min: SpeedupResult
    resetting: Optional[ResettingResult]

    @property
    def u_lo(self) -> float:
        return self.taskset.u_lo_system


@dataclass
class PartitionedDesign:
    """A complete multi-core deployment.

    Attributes
    ----------
    cores:
        Per-core task sets with their exact analysis results.
    speedup_cap:
        The per-core speedup cap the admission used.
    max_s_min:
        The largest *finite* per-core requirement (provision the boost
        for this).  Cores whose requirement is non-finite — an edge set
        whose exact analysis reports ``inf`` despite passing the capped
        admission — are excluded rather than letting ``inf`` poison the
        provisioning figure.
    max_delta_r:
        The slowest per-core recovery at the cap.
    """

    cores: List[CoreDesign]
    speedup_cap: float

    @property
    def max_s_min(self) -> float:
        finite = [
            c.s_min.s_min
            for c in self.cores
            if c.taskset and math.isfinite(c.s_min.s_min)
        ]
        return max(finite) if finite else 0.0

    @property
    def max_delta_r(self) -> float:
        values = [
            c.resetting.delta_r for c in self.cores if c.resetting is not None
        ]
        return max(values) if values else 0.0

    @property
    def used_cores(self) -> int:
        return sum(1 for c in self.cores if len(c.taskset) > 0)

    def assignment(self) -> Dict[str, int]:
        """``task name -> core index`` mapping."""
        return {
            task.name: core.index for core in self.cores for task in core.taskset
        }

    def table(self) -> str:
        """Per-core summary table."""
        header = f"{'core':>5} {'tasks':>6} {'U_LO':>7} {'s_min':>8} {'Delta_R':>9}"
        lines = [header, "-" * len(header)]
        for core in self.cores:
            dr = core.resetting.delta_r if core.resetting else float("nan")
            lines.append(
                f"{core.index:>5d} {len(core.taskset):>6d} {core.u_lo:>7.3f} "
                f"{core.s_min.s_min:>8.3f} {dr:>9.3f}"
            )
        return "\n".join(lines)


def _partition_with(
    taskset: TaskSet,
    n_cores: int,
    admission: AdmissionTest,
    heuristic: str,
    what: str,
) -> List[TaskSet]:
    if n_cores < 1:
        raise PartitioningError(f"need at least one core, got {n_cores}")
    if heuristic not in _HEURISTICS:
        raise PartitioningError(f"unknown heuristic {heuristic!r}")

    bins: List[List[MCTask]] = [[] for _ in range(n_cores)]
    order = sorted(
        taskset, key=lambda t: t.utilization(Criticality.LO), reverse=True
    )
    all_cores = list(range(n_cores))
    for task in order:
        candidates = admission.admitting_cores(bins, task, all_cores)
        if not candidates:
            raise PartitioningError(
                f"task {task.name!r} fits on no core ({n_cores} cores, {what})"
            )
        if heuristic == "first_fit":
            chosen = candidates[0]
        elif heuristic == "worst_fit":
            chosen = min(
                candidates, key=lambda i: sum(t.c_lo / t.t_lo for t in bins[i])
            )
        else:  # best_fit
            chosen = max(
                candidates, key=lambda i: sum(t.c_lo / t.t_lo for t in bins[i])
            )
        bins[chosen].append(task)
    return [
        TaskSet(tasks, name=f"{taskset.name}|core{i}") for i, tasks in enumerate(bins)
    ]


def partition_tasks(
    taskset: TaskSet,
    n_cores: int,
    *,
    speedup_cap: float = 2.0,
    heuristic: str = "first_fit",
    engine: str = "compiled",
) -> List[TaskSet]:
    """Assign every task to one of ``n_cores`` cores.

    ``engine`` selects the admission's analysis engine (``"compiled"``
    batches each task's per-core trials through the lockstep kernels,
    ``"scalar"`` runs the scalar oracle per trial); the partitioning
    decisions are byte-identical either way.

    Raises :class:`PartitioningError` when some task fits nowhere under
    the per-core admission test.
    """
    if speedup_cap <= 0.0:
        raise PartitioningError(f"speedup cap must be positive, got {speedup_cap}")
    if engine not in ADMISSION_ENGINES:
        raise PartitioningError(
            f"admission engine must be one of {ADMISSION_ENGINES}, got {engine!r}"
        )
    admission = SpeedupAdmission(speedup_cap, engine=engine)
    return _partition_with(
        taskset, n_cores, admission, heuristic, f"cap {speedup_cap:g}"
    )


def partition_tasks_edf_vd_degraded(
    taskset: TaskSet,
    n_cores: int,
    *,
    y: float = 2.0,
    rungs: Optional[Mapping[str, "Rung"]] = None,
    heuristic: str = "first_fit",
) -> List[TaskSet]:
    """Partition under the EDF-VD-with-degraded-quality admission.

    Same heuristic loop as :func:`partition_tasks`, but a core admits a
    task iff its set passes the unit-speed degraded-quality EDF-VD test
    (:func:`repro.baselines.edf_vd_degraded.edf_vd_degraded_schedulable`
    with factor ``y`` and per-task quality ``rungs``) — the no-speedup
    baseline of the region maps.
    """
    admission = EdfVdDegradedAdmission(y=y, rungs=rungs)
    return _partition_with(
        taskset, n_cores, admission, heuristic, f"EDF-VD-degraded y={y:g}"
    )


def partitioned_design(
    taskset: TaskSet,
    n_cores: int,
    *,
    speedup_cap: float = 2.0,
    heuristic: str = "first_fit",
    evaluate_at_cap: bool = True,
    engine: str = "compiled",
) -> PartitionedDesign:
    """Partition and fully analyse every core.

    ``evaluate_at_cap`` computes each core's ``Delta_R`` at the common
    cap (uniform provisioning); otherwise at the core's own ``s_min``
    times 1.01, clamped below by ``1 + 1e-6`` (heterogeneous
    provisioning).  The clamp is part of the contract: a core whose
    tasks are so light that ``s_min < 1`` is still provisioned at a
    (marginal) *speedup* — recovery is never evaluated at a slowdown,
    which Corollary 5 does not model.  ``engine`` runs the admission and
    every per-core analysis, so ``"scalar"`` compiles nothing.
    """
    partitions = partition_tasks(
        taskset,
        n_cores,
        speedup_cap=speedup_cap,
        heuristic=heuristic,
        engine=engine,
    )
    cores: List[CoreDesign] = []
    for index, core_set in enumerate(partitions):
        requirement = min_speedup(core_set, engine=engine)
        reset = None
        if len(core_set) and math.isfinite(requirement.s_min):
            s = (
                speedup_cap
                if evaluate_at_cap
                else max(requirement.s_min * 1.01, 1.0 + 1e-6)
            )
            reset = resetting_time(core_set, s, engine=engine)
        cores.append(
            CoreDesign(index=index, taskset=core_set, s_min=requirement, resetting=reset)
        )
    return PartitionedDesign(cores=cores, speedup_cap=speedup_cap)


def min_cores(
    taskset: TaskSet,
    *,
    speedup_cap: float = 2.0,
    heuristic: str = "first_fit",
    max_cores: int = 64,
    engine: str = "compiled",
) -> int:
    """Smallest core count the heuristic can partition ``taskset`` onto."""
    for n in range(1, max_cores + 1):
        try:
            partition_tasks(
                taskset,
                n,
                speedup_cap=speedup_cap,
                heuristic=heuristic,
                engine=engine,
            )
            return n
        except PartitioningError:
            continue
    raise PartitioningError(
        f"not partitionable within {max_cores} cores (cap {speedup_cap:g})"
    )
