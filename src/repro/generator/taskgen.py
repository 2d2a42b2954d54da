"""Random task-set generator of Baruah et al. [4], Section VI parameters.

The generator "starts with an empty task set and continuously adds new
random tasks to this set until certain system utilization U_bound is
met".  Per-task parameters follow the caption of Figure 6:

* minimum inter-arrival times drawn uniformly from [2 ms, 2 s]
  (log-uniform draws available via the config);
* LO-criticality utilization ``C(LO)/T(LO)`` uniform in [0.01, 0.2];
* WCET uncertainty ``gamma = C(HI)/C(LO)`` uniform in [1, 3] for HI
  tasks (Figure 7 uses gamma = 10);
* criticality HI with probability 0.5;
* implicit deadlines (``D = T`` on every level; overrun preparation and
  degradation are applied afterwards via the Section-V transforms).

The dimensioning metric ``U_bound`` defaults to the average of the
LO-mode and HI-mode system utilizations of the base set (before
preparation/degradation);
see :class:`GeneratorConfig` for alternatives.  Overshoot handling is
configurable; the default rescales the final task's utilization so the
target is hit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.model.task import Criticality, MCTask, ModelError
from repro.model.taskset import TaskSet


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic generator (defaults: Figure 6 caption).

    Attributes
    ----------
    period_range:
        Bounds (inclusive) for minimum inter-arrival times, in ms.
    u_lo_range:
        Bounds for the per-task LO-criticality utilization.
    gamma_range:
        Bounds for the HI/LO WCET ratio of HI tasks.  A degenerate range
        ``(g, g)`` pins gamma (Figure 7 uses ``(10, 10)``).
    p_hi:
        Probability that a new task is HI-criticality.
    log_uniform_periods:
        Draw periods log-uniformly instead of uniformly (default False,
        the plain reading of the Figure-6 caption).
    overshoot:
        What to do when the last task pushes past the target utilization:
        ``"scale"`` (shrink its utilization to land exactly on target),
        ``"drop"`` (discard it and stop below target) or ``"resample"``
        (retry the last task up to 100 times with a smaller utilization
        draw, else scale).
    metric:
        Dimensioning metric for ``U_bound``.  ``"avg"`` (default)
        averages the LO-mode and HI-mode *system* utilizations — the
        only convention consistent with the paper's "speedup < 1
        whenever U_bound <= 0.5" observation (see EXPERIMENTS.md).
        ``"avg_crit"`` is ``(U^LO_LO + U^HI_HI) / 2`` (EDF-VD
        literature); ``"max"`` takes the larger mode; ``"lo"``/``"hi"``
        one mode only.
    cap_each_mode:
        With the ``"avg"`` metric, optionally keep each individual
        mode's utilization at or below this cap (1.0 keeps both modes
        individually unit-speed feasible).  The default ``inf`` matches
        the paper: HI-mode overload beyond 1 is exactly what the
        speedup absorbs, and LO-infeasible draws are simply reported as
        unschedulable.
    """

    period_range: Tuple[float, float] = (2.0, 2000.0)
    u_lo_range: Tuple[float, float] = (0.01, 0.2)
    gamma_range: Tuple[float, float] = (1.0, 3.0)
    p_hi: float = 0.5
    log_uniform_periods: bool = False
    overshoot: str = "scale"
    metric: str = "avg"
    cap_each_mode: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.period_range[0] <= self.period_range[1]:
            raise ModelError(f"bad period range {self.period_range}")
        if not 0.0 < self.u_lo_range[0] <= self.u_lo_range[1] <= 1.0:
            raise ModelError(f"bad utilization range {self.u_lo_range}")
        if not 1.0 <= self.gamma_range[0] <= self.gamma_range[1]:
            raise ModelError(f"bad gamma range {self.gamma_range}")
        if not 0.0 <= self.p_hi <= 1.0:
            raise ModelError(f"bad HI probability {self.p_hi}")
        if self.overshoot not in ("scale", "drop", "resample"):
            raise ModelError(f"unknown overshoot policy {self.overshoot!r}")
        if self.metric not in ("avg_crit", "avg", "max", "lo", "hi"):
            raise ModelError(f"unknown metric {self.metric!r}")
        if self.cap_each_mode <= 0.0:
            raise ModelError(f"cap_each_mode must be positive, got {self.cap_each_mode}")


#: The Figure 7 configuration: pinned gamma = 10, otherwise Figure 6.
FIG7_CONFIG = GeneratorConfig(gamma_range=(10.0, 10.0))


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``float(rng.uniform(lo, hi))``, bit for bit, without its call overhead.

    NumPy's ``uniform`` returns ``low + (high - low) * next_double`` from
    one draw, the same draw ``rng.random()`` makes, and refuses an
    infinite range before drawing; so does this.
    """
    low = float(lo)
    span = float(hi) - low
    if not span < math.inf:
        raise OverflowError("high - low range exceeds valid bounds")
    return low + span * rng.random()


def _draw_period(rng: np.random.Generator, config: GeneratorConfig) -> float:
    lo, hi = config.period_range
    if config.log_uniform_periods:
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    return _uniform(rng, lo, hi)


#: One drawn task before it is built: ``(crit, period, c_lo, c_hi)``.
_Draw = Tuple[Criticality, float, float, float]


def _draw(
    rng: np.random.Generator, config: GeneratorConfig, crit: Optional[Criticality]
) -> _Draw:
    """Draw one implicit-deadline task's parameters (see :func:`random_task`)."""
    if crit is None:
        crit = Criticality.HI if rng.random() < config.p_hi else Criticality.LO
    period = _draw_period(rng, config)
    c_lo = _uniform(rng, *config.u_lo_range) * period
    if crit is Criticality.HI:
        gamma = _uniform(rng, *config.gamma_range)
        return crit, period, c_lo, min(gamma * c_lo, period)  # C(HI) <= D(HI) = T
    return crit, period, c_lo, c_lo


def _build(name: str, draw: _Draw, scale: float = 1.0) -> MCTask:
    """The task of ``draw``, its WCETs (so its utilizations) times ``scale``."""
    crit, period, c_lo, c_hi = draw
    if crit is Criticality.HI:
        return MCTask.hi(
            name, c_lo=c_lo * scale, c_hi=c_hi * scale, d_lo=period, d_hi=period, period=period
        )
    return MCTask.lo(name, c=c_lo * scale, d_lo=period, t_lo=period)


def random_task(
    rng: np.random.Generator,
    config: GeneratorConfig = GeneratorConfig(),
    *,
    name: str = "task",
    crit: Optional[Criticality] = None,
) -> MCTask:
    """Draw one implicit-deadline task with the Figure-6 distributions.

    ``crit`` forces the criticality level (used by the Figure-7 variant
    that fills HI and LO budgets independently).
    """
    return _build(name, _draw(rng, config, crit))


class _Terms:
    """The ``C/T`` terms of a growing task set, one list per sum, in task order.

    Every utilization is a ``sum()`` over one of these lists, never a
    running total: from Python 3.12 ``sum()`` of floats is compensated,
    so only the same terms summed in the same order draw the same sets
    on every Python version.
    """

    __slots__ = ("metric_name", "lo", "hi", "lo_of_lo", "hi_of_hi")

    def __init__(self, metric_name: str) -> None:
        self.metric_name = metric_name
        self.lo: List[float] = []  # C(LO)/T(LO) of every task
        self.hi: List[float] = []  # C(HI)/T(HI) of every task
        self.lo_of_lo: List[float] = []  # C(LO)/T(LO) of the LO tasks
        self.hi_of_hi: List[float] = []  # C(HI)/T(HI) of the HI tasks

    def push(self, draw: _Draw) -> None:
        crit, period, c_lo, c_hi = draw
        self.lo.append(c_lo / period)
        self.hi.append(c_hi / period)
        if crit is Criticality.HI:
            self.hi_of_hi.append(self.hi[-1])
        else:
            self.lo_of_lo.append(self.lo[-1])

    def pop(self, draw: _Draw) -> None:
        self.lo.pop()
        self.hi.pop()
        (self.hi_of_hi if draw[0] is Criticality.HI else self.lo_of_lo).pop()

    def metric(self) -> float:
        """The dimensioning metric ``U_bound`` of the set (see GeneratorConfig)."""
        if self.metric_name == "avg_crit":
            return 0.5 * (sum(self.lo_of_lo) + sum(self.hi_of_hi))
        if self.metric_name == "avg":
            return 0.5 * (sum(self.lo) + sum(self.hi))
        if self.metric_name == "max":
            return max(sum(self.lo), sum(self.hi))
        if self.metric_name == "lo":
            return sum(self.lo)
        return sum(self.hi)


def _max_admissible_scale(
    terms: _Terms,
    base: float,
    candidate: _Draw,
    u_bound: float,
    config: GeneratorConfig,
) -> float:
    """Largest factor ``f`` so that the set plus ``f*candidate`` respects
    both the metric target and the per-mode cap (utilizations are linear
    in f); ``base`` is the set's metric."""
    terms.push(candidate)
    load = terms.metric() - base
    terms.pop(candidate)
    factors = [1.0]
    if load > 0.0:
        factors.append((u_bound - base) / load)
    if config.metric in ("avg", "avg_crit") and math.isfinite(config.cap_each_mode):
        _, period, c_lo, c_hi = candidate
        u_lo, u_hi = c_lo / period, c_hi / period
        if u_lo > 0.0:
            factors.append((config.cap_each_mode - sum(terms.lo)) / u_lo)
        if u_hi > 0.0:
            factors.append((config.cap_each_mode - sum(terms.hi)) / u_hi)
    return min(factors)


def generate_taskset(
    u_bound: float,
    rng: np.random.Generator,
    config: GeneratorConfig = GeneratorConfig(),
    *,
    name: str = "synthetic",
    min_u_floor: float = 1e-4,
) -> TaskSet:
    """Generate one task set with dimensioning metric ``= u_bound``.

    Follows the add-until-met loop of [4] with the configured overshoot
    policy and dimensioning metric (see :class:`GeneratorConfig`).  The
    returned set is implicit-deadline and un-prepared; apply
    :func:`repro.model.transform.apply_uniform_scaling` afterwards.
    """
    if not 0.0 < u_bound <= 1.0 + 1e-9:
        raise ModelError(f"u_bound must be in (0, 1], got {u_bound}")
    tasks: List[MCTask] = []
    terms = _Terms(config.metric)
    while True:
        base = terms.metric()
        if not base < u_bound - 1e-12:
            return TaskSet(tasks, name=name)
        task_name = f"{name}_{len(tasks)}"
        candidate = _draw(rng, config, None)
        attempts = 0
        while True:
            scale = _max_admissible_scale(terms, base, candidate, u_bound, config)
            if scale >= 1.0 - 1e-12:
                tasks.append(_build(task_name, candidate))
                terms.push(candidate)
                break
            if config.overshoot == "drop":
                return TaskSet(tasks, name=name)
            if config.overshoot == "resample" and attempts < 100:
                candidate = _draw(rng, config, None)
                attempts += 1
                continue
            # "scale" (and resample fallback): shrink the candidate so every
            # constraint is met exactly, then stop (nothing more fits).
            if scale <= min_u_floor:
                return TaskSet(tasks, name=name)
            tasks.append(_build(task_name, candidate, scale))
            return TaskSet(tasks, name=name)


def generate_taskset_with_targets(
    u_hi_target: float,
    u_lo_target: float,
    rng: np.random.Generator,
    config: GeneratorConfig = FIG7_CONFIG,
    *,
    name: str = "synthetic",
    jitter: float = 0.0,
) -> TaskSet:
    """Generate a set hitting Figure 7's per-criticality utilizations.

    ``U_HI = sum over HI tasks of C(HI)/T`` and ``U_LO = sum over LO
    tasks of C(LO)/T`` are filled independently; ``jitter`` perturbs each
    target uniformly within ``±jitter`` (the paper samples a ±0.025
    neighbourhood of each grid point).
    """
    if jitter < 0.0:
        raise ModelError(f"jitter must be non-negative, got {jitter}")
    tasks: List[MCTask] = []
    targets = {
        Criticality.HI: max(1e-6, u_hi_target + float(rng.uniform(-jitter, jitter))),
        Criticality.LO: max(1e-6, u_lo_target + float(rng.uniform(-jitter, jitter))),
    }
    for crit, target in targets.items():
        # This level's tasks' utilizations at their own level, in task
        # order; every sum is a sum() over them (see _Terms).
        level_terms: List[float] = []
        while sum(level_terms) < target - 1e-12:
            task_name = f"{name}_{len(tasks)}"
            candidate = _draw(rng, config, crit)
            _, period, c_lo, c_hi = candidate
            used = sum(level_terms)
            level_terms.append((c_hi if crit is Criticality.HI else c_lo) / period)
            with_candidate = sum(level_terms)
            if with_candidate - target > 1e-12:
                load = with_candidate - used
                headroom = target - used
                if load <= 0.0 or headroom <= 1e-6:
                    break
                tasks.append(_build(task_name, candidate, headroom / load))
                break
            tasks.append(_build(task_name, candidate))
    return TaskSet(tasks, name=name)


def population(
    u_bound: float,
    count: int,
    seed: int,
    config: GeneratorConfig = GeneratorConfig(),
) -> List[TaskSet]:
    """Generate ``count`` independent task sets at one utilization point.

    A convenience for the Figure-6 sweeps (500 sets per point in the
    paper); seeded for reproducibility.
    """
    rng = np.random.default_rng(seed)
    return [
        generate_taskset(u_bound, rng, config, name=f"u{u_bound:g}_{i}")
        for i in range(count)
    ]
