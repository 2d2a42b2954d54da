"""Figure 7: schedulability regions under temporary processor speedup.

Grid sweep over ``(U_HI, U_LO)`` (per-criticality utilizations of the
Figure-7 caption), with LO tasks *terminated* in HI mode, ``gamma = 10``,
``s = 2`` and the temporariness constraint ``Delta_R <= 5 s``.  For each
grid point many task sets are generated in a ``+-0.025`` neighbourhood
and the fraction accepted is reported; the no-speedup region — classic
EDF-VD with termination on a unit-speed processor, the prior state of
the art the paper contrasts against — is computed alongside.

Acceptance at speedup ``s``:

1. LO mode EDF-feasible at nominal speed with the minimal ``x``;
2. Theorem-2 minimum speedup ``<= s``;
3. Corollary-5 resetting time at ``s`` within the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import api
from repro.baselines.edf_vd import edf_vd_schedulable
from repro.experiments import common
from repro.generator.taskgen import FIG7_CONFIG, GeneratorConfig, generate_taskset_with_targets


@dataclass(frozen=True)
class Fig7Grid:
    """Schedulable fractions over the (U_HI, U_LO) grid."""

    u_hi: np.ndarray
    u_lo: np.ndarray
    with_speedup: np.ndarray     # fraction accepted at s, Delta_R budget
    without_speedup: np.ndarray  # fraction accepted by classic EDF-VD (s = 1)
    s: float
    reset_budget: float


def _request(
    taskset,
    s: float,
    reset_budget: float,
    x: Optional[float] = None,
    method: str = "exact",
) -> api.AnalysisRequest:
    """The Figure-7 acceptance of one terminated-LO set as a request.

    An infinite budget skips the resetting-time computation entirely
    (acceptance is then decided by the speedup verdict alone).
    """
    budget = None if math.isinf(reset_budget) else reset_budget
    options = dict(
        taskset=taskset,
        speedup=s,
        reset_budget=budget,
        y=math.inf,
        resetting="never" if budget is None else "auto",
    )
    if x is None:
        options["auto_x"] = method
    else:
        options["x"] = x
    return api.AnalysisRequest(**options)


def _accepted(report: api.AnalysisReport) -> bool:
    if not report.lo_ok or not report.hi_ok:
        return False
    if report.reset_budget is None:
        return True
    return bool(report.within_budget)


def accept(
    taskset,
    s: float,
    reset_budget: float,
    x: float = None,
    method: str = "exact",
) -> bool:
    """Apply the three acceptance criteria to one terminated-LO set.

    ``x`` may be precomputed and shared across acceptance evaluations of
    the same set at different speedups.
    """
    return _accepted(api.evaluate_request(_request(taskset, s, reset_budget, x, method)))


def run(
    u_points: Sequence[float] = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85),
    sets_per_point: int = 100,
    s: float = 2.0,
    reset_budget: float = 5000.0,
    seed: int = 715,
    config: GeneratorConfig = FIG7_CONFIG,
    jitter: float = 0.025,
    jobs: int = 1,
    core: Optional[api.WorkQueueCore] = None,
) -> Fig7Grid:
    """Sweep the grid; ``reset_budget`` is in ms (5 s = 5000 ms).

    ``jobs`` fans the per-set acceptance analyses over worker processes
    (grid values are identical to the serial run); the EDF-VD baseline
    stays inline — it is cheap next to the speedup analysis.
    """
    u_hi = np.asarray(u_points, dtype=float)
    u_lo = np.asarray(u_points, dtype=float)
    with_speedup = np.zeros((u_hi.size, u_lo.size))
    without = np.zeros_like(with_speedup)
    cells: List[tuple] = []
    requests: List[api.AnalysisRequest] = []
    for i, uh in enumerate(u_hi):
        for j, ul in enumerate(u_lo):
            rng = np.random.default_rng(seed + 97 * i + 13 * j)
            ok_1 = 0
            for k in range(sets_per_point):
                ts = generate_taskset_with_targets(
                    float(uh), float(ul), rng, config,
                    name=f"g{i}_{j}_{k}", jitter=jitter,
                )
                cells.append((i, j))
                requests.append(_request(ts, s, reset_budget))
                if edf_vd_schedulable(ts).schedulable:
                    ok_1 += 1
            without[i, j] = ok_1 / sets_per_point
    reports = api.analyze_many(requests, jobs=jobs, core=core)
    accepted = np.zeros_like(with_speedup)
    for (i, j), report in zip(cells, reports):
        if _accepted(report):
            accepted[i, j] += 1
    with_speedup = accepted / sets_per_point
    return Fig7Grid(
        u_hi=u_hi,
        u_lo=u_lo,
        with_speedup=with_speedup,
        without_speedup=without,
        s=s,
        reset_budget=reset_budget,
    )


def render(grid: Fig7Grid) -> str:
    """Both heat maps plus the paper's headline cell."""
    out = [
        f"Figure 7: schedulable fraction, s = {grid.s:g}, "
        f"Delta_R <= {grid.reset_budget:g} ms, LO terminated, gamma pinned"
    ]
    out.append("")
    out.append("With temporary speedup:")
    out.append(
        common.contour_grid("U_HI", "U_LO", grid.u_hi, grid.u_lo, grid.with_speedup)
    )
    out.append("")
    out.append("Without speedup (classic EDF-VD, s = 1):")
    out.append(
        common.contour_grid("U_HI", "U_LO", grid.u_hi, grid.u_lo, grid.without_speedup)
    )
    # Headline: ~90% schedulable at U_HI = U_LO = 0.85 with 2x speedup.
    i = int(np.argmin(np.abs(grid.u_hi - 0.85)))
    j = int(np.argmin(np.abs(grid.u_lo - 0.85)))
    out.append("")
    out.append(
        f"Headline cell (U_HI~{grid.u_hi[i]:g}, U_LO~{grid.u_lo[j]:g}): "
        f"{100 * grid.with_speedup[i, j]:.0f}% with speedup vs "
        f"{100 * grid.without_speedup[i, j]:.0f}% without (paper: ~90% with 2x)"
    )
    return "\n".join(out)
