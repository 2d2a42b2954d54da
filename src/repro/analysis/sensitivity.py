"""Sensitivity analysis: how much overrun can a platform absorb?

The evaluation sweeps the WCET uncertainty ``gamma = C(HI)/C(LO)``
(Figure 5b) and the speedup ``s``; deployment asks the inverse
questions, answered here by monotone bisection on the exact analysis:

* :func:`max_tolerable_gamma` — largest uniform HI/LO WCET ratio the
  platform's speedup cap can still guarantee (optionally within a
  recovery budget);
* :func:`min_speedup_margin` — how far the configured ``s`` sits above
  the Theorem-2 requirement (slack for WCET estimation error);
* :func:`max_tolerable_load_scale` — largest uniform inflation of every
  ``C`` (both levels) the design survives, the classic criticality
  scaling factor.

All three exploit monotonicity: inflating WCETs only increases demand
in every interval, so feasibility is a threshold property and bisection
is sound.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

from repro.analysis.kernels import compile_taskset
from repro.analysis.resetting import resetting_time
from repro.analysis.schedulability import lo_mode_schedulable
from repro.analysis.speedup import min_speedup
from repro.model.task import MCTask
from repro.model.taskset import TaskSet
from repro.model.transform import scale_wcet_uncertainty


def _gamma_feasible(
    base: TaskSet, gamma: float, s: float, reset_budget: float, engine: str
) -> bool:
    """Does the design hold with every HI task's C(HI) = gamma * C(LO)?

    The compiled engine rescales one column of a shared snapshot per
    probe; repeated probes (bisection endpoints, the shared ``gamma = 1``
    check) additionally hit the fingerprint memo inside
    :func:`min_speedup` / :func:`resetting_time`.
    """
    try:
        if engine == "compiled":
            scaled = compile_taskset(base).with_wcet_uncertainty(gamma)
        else:
            scaled = scale_wcet_uncertainty(base, gamma)
    except Exception:
        return False  # C(HI) would exceed some deadline: structurally out
    if not min_speedup(scaled, engine=engine).admits(s):
        return False
    if math.isfinite(reset_budget):
        return resetting_time(scaled, s, engine=engine).within(reset_budget)
    return True


def max_tolerable_gamma(
    taskset: TaskSet,
    s: float,
    *,
    reset_budget: float = math.inf,
    gamma_cap: float = 20.0,
    tol: float = 1e-3,
    engine: str = "compiled",
) -> Optional[float]:
    """Largest uniform ``gamma`` schedulable at speedup ``s``.

    ``taskset`` provides the LO-level WCETs and the (prepared/degraded)
    deadlines; gamma rescales every HI task's ``C(HI)``.  Returns
    ``None`` when even ``gamma = 1`` (no overrun band) fails.
    """
    if not (s > 0.0):
        raise ValueError(f"speedup must be positive, got {s}")
    if not _gamma_feasible(taskset, 1.0, s, reset_budget, engine):
        return None
    lo, hi = 1.0, gamma_cap
    if _gamma_feasible(taskset, hi, s, reset_budget, engine):
        return hi
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if _gamma_feasible(taskset, mid, s, reset_budget, engine):
            lo = mid
        else:
            hi = mid
    return lo


def min_speedup_margin(taskset: TaskSet, s: float, *, engine: str = "compiled") -> float:
    """Slack between the configured speedup and the exact requirement.

    Positive values are headroom; negative means the design is broken.
    ``-inf`` when the requirement itself is infinite.
    """
    requirement = min_speedup(taskset, engine=engine).s_min
    if math.isinf(requirement):
        return -math.inf
    return s - requirement


def _load_feasible(base: TaskSet, factor: float, s: float, engine: str) -> bool:
    def inflate(task: MCTask) -> MCTask:
        c_lo = task.c_lo * factor
        c_hi = task.c_hi * factor
        if c_lo > task.d_lo or c_hi > min(task.d_hi, task.t_hi):
            return None
        return replace(task, c_lo=c_lo, c_hi=c_hi)

    inflated = [inflate(t) for t in base]
    if any(t is None for t in inflated):
        return False
    scaled = TaskSet(inflated, name=f"{base.name}|x{factor:g}")
    if not lo_mode_schedulable(scaled, engine=engine):
        return False
    return min_speedup(scaled, engine=engine).admits(s)


def max_tolerable_load_scale(
    taskset: TaskSet,
    s: float,
    *,
    cap: float = 10.0,
    tol: float = 1e-3,
    engine: str = "compiled",
) -> Optional[float]:
    """Largest uniform WCET inflation (both levels) the design survives.

    The criticality-scaling-factor analogue for this scheme: LO-mode
    feasibility at nominal speed *and* the Theorem-2 requirement within
    ``s`` must both hold after inflating every ``C`` by the factor.
    Returns ``None`` when the un-inflated design already fails.
    """
    if not (s > 0.0):
        raise ValueError(f"speedup must be positive, got {s}")
    if not _load_feasible(taskset, 1.0, s, engine):
        return None
    lo, hi = 1.0, cap
    if _load_feasible(taskset, hi, s, engine):
        return hi
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if _load_feasible(taskset, mid, s, engine):
            lo = mid
        else:
            hi = mid
    return lo
