"""One-shot design reports: analysis + validation + sensitivity as text.

``build_report`` runs the complete design pipeline on a task set and
returns a markdown-ish document a reviewer can read end to end:

1. the task table and utilization summary;
2. dual-mode schedulability (LO test, Theorem 2, Corollary 5);
3. closed-form comparison where the Section-V special case applies;
4. sensitivity margins (speedup headroom, max tolerable gamma);
5. simulator validation under the adversarial workload, with a Gantt
   snippet of the first overrun episode.

Exposed on the CLI as ``repro-mc analyze --taskset ... --report``.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.analysis.sensitivity import max_tolerable_gamma, min_speedup_margin
from repro.model.taskset import TaskSet
from repro.pipeline.request import AnalysisRequest, evaluate_request
from repro.sim.metrics import summarize
from repro.sim.scheduler import SimConfig, simulate
from repro.sim.workload import OverrunModel, SynchronousWorstCaseSource


def build_report(
    taskset: TaskSet,
    s: float = 2.0,
    *,
    reset_budget: Optional[float] = None,
    simulate_horizon: Optional[float] = None,
    gantt_width: int = 72,
) -> str:
    """Produce the full design report for ``taskset`` at speedup ``s``."""
    lines = [f"# Design report: {taskset.name}", ""]
    lines.append(taskset.table())
    lines.append("")
    lines.append(
        f"Utilizations: U_LO(system) = {taskset.u_lo_system:.3f}, "
        f"U_HI(system) = {taskset.u_hi_system:.3f}, "
        f"max gamma = {taskset.max_gamma:.3g}"
    )
    lines.append("")

    # ------------------------------------------------------------------
    # Dual-mode analysis
    # ------------------------------------------------------------------
    lines.append("## Offline analysis")
    report = evaluate_request(
        AnalysisRequest(taskset, speedup=s, reset_budget=reset_budget)
    )
    schedulable = report.lo_ok and report.hi_ok
    lines.append(f"* LO mode feasible at nominal speed: **{report.lo_ok}**")
    lines.append(f"* Theorem 2 minimum speedup: **{report.s_min:.6g}**")
    lines.append(f"* HI mode feasible at s = {s:g}: **{report.hi_ok}**")
    if report.resetting_result is not None:
        lines.append(
            f"* Corollary 5 resetting time at s = {s:g}: "
            f"**{report.delta_r:.6g}**"
        )
        if reset_budget is not None:
            # The whole design: LO feasible and recovered in budget.
            lines.append(
                f"* Within recovery budget {reset_budget:g}: **{report.ok}**"
            )
    lines.append("")

    # ------------------------------------------------------------------
    # Sensitivity
    # ------------------------------------------------------------------
    lines.append("## Sensitivity")
    margin = min_speedup_margin(taskset, s)
    lines.append(f"* Speedup headroom at s = {s:g}: **{margin:.6g}**")
    if schedulable:
        gamma = max_tolerable_gamma(
            taskset, s,
            reset_budget=reset_budget if reset_budget is not None else math.inf,
        )
        if gamma is not None:
            lines.append(f"* Max tolerable WCET ratio gamma: **{gamma:.4g}**")
    lines.append("")

    # ------------------------------------------------------------------
    # Simulation validation
    # ------------------------------------------------------------------
    if schedulable:
        lines.append("## Simulated worst case")
        horizon = simulate_horizon
        if horizon is None:
            horizon = 20.0 * max(t.t_lo for t in taskset)
        source = SynchronousWorstCaseSource(
            OverrunModel(first_job_overruns=True, probability=1.0)
        )
        result = simulate(taskset, SimConfig(speedup=s, horizon=horizon), source)
        lines.append("```")
        lines.append(summarize(result, taskset))
        lines.append("```")
        if result.episodes:
            first = result.episodes[0]
            end = first.end if first.end is not None else horizon
            window = min(end + 2.0 * (end - first.start + 1.0), horizon)
            lines.append("")
            lines.append(
                f"First overrun episode: t = {first.start:g} .. {end:g} "
                f"(bound {report.delta_r:.4g})"
            )
            lines.append("```")
            lines.append(result.trace.gantt(width=gantt_width, end=window))
            lines.append("```")
        verdict = (
            "PASS" if result.miss_count == 0
            and result.max_episode_length <= report.delta_r + 1e-9
            else "FAIL"
        )
        lines.append("")
        lines.append(f"Validation verdict: **{verdict}**")
    else:
        lines.append("## Simulated worst case")
        lines.append("Skipped: the configuration is not schedulable at the "
                      "requested speedup.")
    return "\n".join(lines)
