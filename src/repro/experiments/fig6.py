"""Figure 6: extensive simulations on synthesized task sets.

For each system-utilization point ``U_bound`` the paper generates 500
random task sets (generator of [4], Figure-6 caption parameters), sets
``x`` to the minimum guaranteeing LO-mode schedulability, applies the
degradation ``y``, and reports:

* (a) the distribution (box-whisker) of the Theorem-2 minimum speedup
  ``s_min``, for ``y = 2``; plus the share of sets schedulable without
  speedup (``s_min <= 1``) vs with ``s_min <= 1.9``;
* (b) the median ``s_min`` across ``U_bound`` for several ``y``;
* (c) the distribution of the Corollary-5 resetting time at ``s = 3``,
  ``y = 2`` (milliseconds);
* (d) the median resetting time for several ``(s, y)`` combinations.

The per-set evaluation goes through the batch pipeline
(:func:`repro.api.analyze_many`): generation stays sequential (it
consumes the seeded RNG), analysis fans out over ``jobs`` worker
processes with optional result caching — the populations are shared
between panels (a)/(c) and the (b)/(d) sweep, so a cache turns the
second pass into pure lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import api
from repro.experiments import common
from repro.generator.taskgen import GeneratorConfig, generate_taskset
from repro.model.taskset import TaskSet


@dataclass(frozen=True)
class PointSample:
    """Per-task-set outcome at one utilization point."""

    s_min: float
    delta_r: float
    lo_feasible: bool


@dataclass
class Fig6Point:
    """All samples collected at one ``U_bound``."""

    u_bound: float
    y: float
    s_for_reset: float
    samples: List[PointSample] = field(default_factory=list)

    @property
    def s_min_values(self) -> List[float]:
        return [s.s_min for s in self.samples if s.lo_feasible]

    @property
    def delta_r_values(self) -> List[float]:
        return [s.delta_r for s in self.samples if s.lo_feasible]

    def schedulable_fraction(self, s: float) -> float:
        """Share of sets feasible in both modes at speedup ``s``."""
        if not self.samples:
            return 0.0
        ok = sum(
            1 for x in self.samples if x.lo_feasible and x.s_min <= s * (1 + 1e-9)
        )
        return ok / len(self.samples)

    def s_min_stats(self) -> common.BoxStats:
        return common.BoxStats.of(self.s_min_values)

    def delta_r_stats(self) -> common.BoxStats:
        return common.BoxStats.of(self.delta_r_values)


def _request(
    taskset: TaskSet,
    y: float,
    s_for_reset: float,
    x: Optional[float] = None,
) -> api.AnalysisRequest:
    """The Figure-6 evaluation of one set as a pipeline request.

    Without a precomputed ``x`` the request tunes the minimal exact
    ``x`` itself.  ``resetting="always"`` reproduces the figure's
    convention: the resetting time is reported whenever ``s_min`` is
    finite, not only when the set is feasible at ``s_for_reset``.
    """
    if x is None:
        return api.AnalysisRequest(
            taskset=taskset, speedup=s_for_reset, auto_x="exact", y=y,
            resetting="always",
        )
    return api.AnalysisRequest(
        taskset=taskset, speedup=s_for_reset, x=x, y=y, resetting="always"
    )


def _sample(report: api.AnalysisReport) -> PointSample:
    return PointSample(report.s_min, report.delta_r, bool(report.lo_ok))


def run(
    u_bounds: Sequence[float] = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    sets_per_point: int = 500,
    y: float = 2.0,
    s_for_reset: float = 3.0,
    seed: int = 2015,
    config: GeneratorConfig = GeneratorConfig(),
    jobs: int = 1,
    core: Optional[api.WorkQueueCore] = None,
) -> List[Fig6Point]:
    """Panels (a) and (c): distributions at each utilization point.

    ``jobs`` fans the per-set analyses over worker processes (results are
    identical to the serial run); pass a :class:`~repro.api.WorkQueueCore`
    as ``core`` instead to run on its cache and worker pool.
    """
    points: List[Fig6Point] = []
    owners: List[Fig6Point] = []
    requests: List[api.AnalysisRequest] = []
    for k, u in enumerate(u_bounds):
        rng = np.random.default_rng(seed + 1000 * k)
        point = Fig6Point(u_bound=u, y=y, s_for_reset=s_for_reset)
        points.append(point)
        for i in range(sets_per_point):
            ts = generate_taskset(u, rng, config, name=f"u{u:g}_{i}")
            owners.append(point)
            requests.append(_request(ts, y, s_for_reset))
    reports = api.analyze_many(requests, jobs=jobs, core=core)
    for point, report in zip(owners, reports):
        point.samples.append(_sample(report))
    return points


def run_sweep(
    u_bounds: Sequence[float] = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    ys: Sequence[float] = (1.5, 2.0, 3.0),
    s_values: Sequence[float] = (2.0, 3.0),
    sets_per_point: int = 200,
    seed: int = 2015,
    config: GeneratorConfig = GeneratorConfig(),
    jobs: int = 1,
    core: Optional[api.WorkQueueCore] = None,
) -> Dict[Tuple[float, float], List[Fig6Point]]:
    """Panels (b) and (d): medians across ``(s, y)`` combinations.

    Returns ``{(s, y): [Fig6Point per u_bound]}``; the same generated
    populations (and the same tuned ``x``) are reused across
    combinations for paired comparisons.  The exact-``x`` tuning runs
    across each whole population in lockstep.
    """
    populations: List[List[TaskSet]] = []
    xs: List[List[Optional[float]]] = []
    for k, u in enumerate(u_bounds):
        rng = np.random.default_rng(seed + 1000 * k)
        tasksets = [
            generate_taskset(u, rng, config, name=f"u{u:g}_{i}")
            for i in range(sets_per_point)
        ]
        populations.append(tasksets)
        xs.append(api.min_preparation_factor_many(tasksets, method="exact"))
    out: Dict[Tuple[float, float], List[Fig6Point]] = {}
    owners: List[Fig6Point] = []
    requests: List[api.AnalysisRequest] = []
    for s in s_values:
        for y in ys:
            series = []
            for u, tasksets, x_list in zip(u_bounds, populations, xs):
                point = Fig6Point(u_bound=u, y=y, s_for_reset=s)
                series.append(point)
                for ts, x in zip(tasksets, x_list):
                    owners.append(point)
                    requests.append(_request(ts, y, s, x=x))
            out[(s, y)] = series
    reports = api.analyze_many(requests, jobs=jobs, core=core)
    for point, report in zip(owners, reports):
        point.samples.append(_sample(report))
    return out


def render(points: List[Fig6Point], sweep: Dict[Tuple[float, float], List[Fig6Point]]) -> str:
    """All four panels as text tables."""
    out = [f"Figure 6a: s_min distribution (y = {points[0].y:g})"]
    for p in points:
        out.append(f"  U={p.u_bound:<5g} {p.s_min_stats().row()}")
    out.append("")
    out.append("  Schedulable fraction at U = max point:")
    last = points[-1]
    for s in (1.0, 1.9):
        out.append(
            f"    s_min <= {s:<4g}: {100 * last.schedulable_fraction(s):.1f}% "
            f"(paper at U=0.9: ~25% for s=1, ~75% for s=1.9)"
        )
    out.append("")
    out.append(
        f"Figure 6c: Delta_R distribution in ms (y = {points[0].y:g}, "
        f"s = {points[0].s_for_reset:g})"
    )
    for p in points:
        out.append(f"  U={p.u_bound:<5g} {p.delta_r_stats().row()}")
    out.append("")
    if sweep:
        us = [p.u_bound for p in next(iter(sweep.values()))]
        out.append("Figure 6b: median s_min vs U_bound per y")
        cols = {}
        for (s, y), series in sweep.items():
            cols[f"y={y:g}"] = [p.s_min_stats().median for p in series]
        # s does not affect s_min; deduplicate columns by name.
        out.append(common.series_table("U", us, dict(sorted(cols.items()))))
        out.append("")
        out.append("Figure 6d: median Delta_R (ms) vs U_bound per (s, y)")
        cols = {
            f"s={s:g},y={y:g}": [p.delta_r_stats().median for p in series]
            for (s, y), series in sorted(sweep.items())
        }
        out.append(common.series_table("U", us, cols))
    return "\n".join(out)
