"""Figure M: the multiprocessor speedup frontier (extension).

The paper's evaluation is single-processor.  This experiment family
maps the *partitioned multiprocessor* trade space it implies, following
the comparison framed by the related work: per point it generates
random workloads and reports which of three schemes can schedule them —

* **temporary speedup** — partition under the paper's per-core
  admission (LO-mode feasible and Theorem-2 ``s_min`` within the
  per-core ``speedup_cap``), full LO service preserved;
* **degraded quality** — partition under EDF-VD-with-degraded-quality
  (Liu et al.): no speedup, LO tasks keep only ``1/y`` of their service
  after a mode switch;
* **fluid** — the dual-rate fluid reference (MC-Fluid family): no
  partitioning losses, full LO service; an upper frontier.

The map is a schedulability-region grid over per-core utilization
``U`` x core count ``m`` x speedup cap ``s``: each workload merges
``m`` independently generated per-core sets at ``U`` (the generator
dimensions sets to a single core, so multi-core load is built by
union), and the acceptance fraction per cell is the region height.

The speedup scheme is evaluated on the ``x``-prepared set
(:func:`repro.model.transform.apply_uniform_scaling` with a fixed
preparation factor — the merged set has total utilization above 1, so
the single-processor minimal-``x`` tuning does not apply); the
baselines see the raw set, since deadline preparation is the speedup
protocol's own knob.

Every cell routes through the batch/population pipeline
(:func:`repro.api.analyze_many` over multiproc
:class:`~repro.pipeline.request.AnalysisRequest` items), so caching,
checkpoints, chaos hardening and the ``/metrics`` counters
(``kernels.admission_trials``) all apply, and results are byte-identical
across ``--jobs`` counts.  Workloads are generated once per ``(U, m)``
and shared across the cap sweep (paired samples; with a cache the
baseline verdicts per set are computed once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import api
from repro.experiments import common
from repro.generator.taskgen import GeneratorConfig, generate_taskset
from repro.model.taskset import TaskSet


@dataclass(frozen=True)
class CellSample:
    """Per-workload verdicts of the three schemes."""

    speedup_ok: bool
    degraded_ok: bool
    fluid_ok: bool
    max_s_min: Optional[float]


@dataclass
class FigMCell:
    """All samples at one ``(U, m, cap)`` grid point."""

    u_bound: float
    cores: int
    speedup_cap: float
    samples: List[CellSample] = field(default_factory=list)

    def _fraction(self, key: str) -> float:
        if not self.samples:
            return 0.0
        return sum(
            1 for s in self.samples if getattr(s, key)
        ) / len(self.samples)

    @property
    def speedup_fraction(self) -> float:
        return self._fraction("speedup_ok")

    @property
    def degraded_fraction(self) -> float:
        return self._fraction("degraded_ok")

    @property
    def fluid_fraction(self) -> float:
        return self._fraction("fluid_ok")


def merged_workload(
    u_bound: float,
    cores: int,
    rng: np.random.Generator,
    config: GeneratorConfig,
    name: str,
) -> TaskSet:
    """One ``cores``-processor workload: the union of per-core sets.

    The generator dimensions a set to a single core (``u_bound <= 1``),
    so an ``m``-core workload at per-core utilization ``U`` is ``m``
    independently drawn sets merged under distinct task names.
    """
    per_core = [
        generate_taskset(u_bound, rng, config, name=f"{name}c{k}")
        for k in range(cores)
    ]
    return TaskSet(
        [task for ts in per_core for task in ts], name=name
    )


def _sample(report: api.AnalysisReport) -> CellSample:
    info: Dict[str, Any] = report.multiproc or {}
    max_s = info.get("max_s_min")
    return CellSample(
        speedup_ok=bool(info.get("speedup_ok")),
        degraded_ok=bool(info.get("degraded_ok")),
        fluid_ok=bool(info.get("fluid_ok")),
        max_s_min=max_s if isinstance(max_s, float) else None,
    )


def run(
    u_bounds: Sequence[float] = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    core_counts: Sequence[int] = (2, 4, 8),
    speedup_caps: Sequence[float] = (1.5, 2.0, 3.0),
    sets_per_point: int = 100,
    x_prep: float = 0.5,
    degraded_y: float = 2.0,
    heuristic: str = "worst_fit",
    seed: int = 2015,
    config: GeneratorConfig = GeneratorConfig(),
    jobs: int = 1,
    core: Optional[api.WorkQueueCore] = None,
) -> List[FigMCell]:
    """Evaluate the full region grid.

    Returns one :class:`FigMCell` per ``(U, m, cap)`` point, in
    row-major (``U`` outer, ``m``, then ``cap``) order.  Generation is
    sequential (it consumes the seeded RNG); the analyses fan out over
    ``jobs`` worker processes with byte-identical results.  Multiproc
    items evaluate per item; their admission batches internally.
    """
    cells: List[FigMCell] = []
    owners: List[FigMCell] = []
    requests: List[api.AnalysisRequest] = []
    for k, u in enumerate(u_bounds):
        for m in core_counts:
            rng = np.random.default_rng(seed + 1000 * k + m)
            workloads = [
                merged_workload(u, m, rng, config, name=f"u{u:g}m{m}_{i}")
                for i in range(sets_per_point)
            ]
            point_cells = [
                FigMCell(u_bound=u, cores=m, speedup_cap=cap)
                for cap in speedup_caps
            ]
            cells.extend(point_cells)
            for workload in workloads:
                for cell in point_cells:
                    owners.append(cell)
                    requests.append(
                        api.AnalysisRequest(
                            taskset=workload,
                            cores=m,
                            speedup_cap=cell.speedup_cap,
                            heuristic=heuristic,
                            degraded_y=degraded_y,
                            x=x_prep,
                        )
                    )
    reports = api.analyze_many(requests, jobs=jobs, core=core)
    for cell, report in zip(owners, reports):
        cell.samples.append(_sample(report))
    return cells


def render(cells: List[FigMCell]) -> str:
    """The region maps as one table per core count.

    Rows are per-core utilization points; columns are the acceptance
    fractions of the speedup scheme at each cap, then the degraded and
    fluid baselines (cap-independent — their column repeats the shared
    per-``(U, m)`` verdicts).
    """
    if not cells:
        return "Figure M: (no cells)"
    core_counts = sorted({c.cores for c in cells})
    caps = sorted({c.speedup_cap for c in cells})
    us = sorted({c.u_bound for c in cells})
    by_key = {(c.u_bound, c.cores, c.speedup_cap): c for c in cells}
    out = [
        "Figure M: partitioned multiprocessor schedulability regions",
        "(fraction of workloads schedulable; speedup scheme keeps full LO "
        "service, 'degraded' is EDF-VD with degraded quality, 'fluid' is "
        "the dual-rate fluid reference)",
    ]
    for m in core_counts:
        out.append("")
        out.append(f"m = {m} cores (per-core utilization U)")
        columns: Dict[str, List[float]] = {}
        for cap in caps:
            columns[f"spd@{cap:g}"] = [
                by_key[(u, m, cap)].speedup_fraction for u in us
            ]
        columns["degraded"] = [
            by_key[(u, m, caps[0])].degraded_fraction for u in us
        ]
        columns["fluid"] = [
            by_key[(u, m, caps[0])].fluid_fraction for u in us
        ]
        out.append(common.series_table("U", list(us), columns))
    return "\n".join(out)
