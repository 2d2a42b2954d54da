"""Grouped evaluation: the batch pipeline's path for two or more requests.

:func:`evaluate_chunk_grouped` evaluates a group of
:class:`~repro.pipeline.request.AnalysisRequest` items through the
population front-end (:mod:`repro.analysis.population`) instead of one
:func:`~repro.pipeline.request.evaluate_request` call per item: the
group advances stage-major — one batched compile of the base sets, then
all ``x`` tunings, all LO tests, all Theorem-2 scans, all Corollary-5
scans and the per-item extras — so each stage's breakpoint generation
and demand kernels run fused across every set in the group.  In the
small-set regime (figs 6–7) this converts hundreds of tiny kernel calls
into a handful of population calls.  Tuning stays on compiled columns
throughout: the exact-``x`` bisections run on one population, and a
tuned item's configured snapshot derives from its base columns
(:meth:`~repro.analysis.kernels.CompiledTaskSet.with_uniform_scaling`)
instead of rebuilding, validating and compiling a task set.  The batch
runner (:class:`~repro.pipeline.runner.BatchRunner`) evaluates every
group of two or more requests this way, inline and in pool workers; a
singleton group keeps the per-item path, which is cheaper for one set.

**Byte-identity contract.**  Every per-item report equals the one
``evaluate_captured(request)`` produces, bit for bit: the lockstep scans
are bit-exact mirrors of the per-set scans, the stage logic below
replays ``_evaluate_request``'s control flow per item (tuning verdicts,
``lo_test`` defaulting, resetting policies, budget thresholds), and
per-item analysis errors — raised in a per-item step or returned as a
member's lockstep outcome — capture into the same
:class:`~repro.pipeline.request.AnalysisFailure` payloads with the same
stage labels, so one failing set never aborts its group.  The per-item
path (``apply_uniform_scaling`` and the per-set bisection) stays the
independent reference the parity tests compare against.  Only execution
grouping changes, so the kernel perf counters (``kernel_evals``,
``cells``) differ from a per-item run; the runner keeps them
``jobs``-invariant by cutting the same groups at any job count.

Each stage runs under its own ``grouped.*`` trace span (tagged with
item counts only), nested in ``pipeline.evaluate_grouped``, so a traced
run still shows where a group's time went.

Requests on the scalar engine (``engine="scalar"``) do not group; they
fall back to per-item evaluation inside the same group, keeping mixed
groups valid.  Multiproc requests (``cores`` set) take the same
fallback: their partitioned admission already population-batches
internally, per candidate task.  So does a request whose ``y`` is NaN,
which request validation admits: only the per-item transform's task
validation reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.closed_form import ClosedFormBounds, closed_form_bounds
from repro.analysis.kernels import PERF, CompiledTaskSet, compile_tasksets
from repro.analysis.population import (
    _exact_x_lockstep,
    _lo_schedulable_lockstep,
    _min_speedup_lockstep,
    _resetting_lockstep,
)
from repro.analysis.resetting import ResettingResult
from repro.analysis.speedup import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_RTOL,
    SpeedupResult,
)
from repro.analysis.tuning import density_preparation_factor
from repro.obs import trace
from repro.pipeline.request import (
    AnalysisFailure,
    AnalysisReport,
    AnalysisRequest,
)

_RTOL = 1e-9  # the verdict tolerance of pipeline.request


@dataclass
class _GroupItem:
    """Per-request evaluation state while the chunk advances stage-major."""

    index: int
    request: AnalysisRequest
    member: Optional[CompiledTaskSet] = None
    x_applied: Optional[float] = None
    y_applied: Optional[float] = None
    lo_ok: Optional[bool] = None
    speedup_result: Optional[SpeedupResult] = None
    hi_ok: Optional[bool] = None
    resetting_result: Optional[ResettingResult] = None
    within_budget: Optional[bool] = None
    closed_form: Optional[ClosedFormBounds] = None
    per_task: Optional[Dict[str, Any]] = None


def _captured(fn: Callable[[], None], item: "_GroupItem") -> Optional[AnalysisReport]:
    """Run one per-item step, converting captured errors exactly as
    :func:`~repro.pipeline.runner.evaluate_captured` does."""
    from repro.pipeline.runner import _captured_errors

    try:
        fn()
        return None
    except _captured_errors() as error:
        stage = str(getattr(error, "operation", "analysis"))
        return AnalysisReport.failed(
            item.request, AnalysisFailure.from_exception(stage, error)
        )


def _fail(item: "_GroupItem", error: BaseException) -> AnalysisReport:
    stage = str(getattr(error, "operation", "analysis"))
    return AnalysisReport.failed(
        item.request, AnalysisFailure.from_exception(stage, error)
    )


def _members(items: List["_GroupItem"]) -> List[CompiledTaskSet]:
    members: List[CompiledTaskSet] = []
    for item in items:
        assert item.member is not None  # compile stage ran for every live item
        members.append(item.member)
    return members


def _budget(request: AnalysisRequest) -> int:
    return (
        request.max_candidates
        if request.max_candidates is not None
        else DEFAULT_MAX_CANDIDATES
    )


def evaluate_chunk_grouped(
    requests: Sequence[AnalysisRequest],
) -> List[AnalysisReport]:
    """Evaluate a chunk of requests with fused population scans.

    Returns reports in request order, each byte-identical to what the
    per-item path produces for the same request.
    """
    from repro.pipeline.runner import evaluate_captured

    reports: List[Optional[AnalysisReport]] = [None] * len(requests)
    live: List[_GroupItem] = []
    for index, request in enumerate(requests):
        if (
            request.engine != "compiled"
            or request.cores is not None
            or (request.y is not None and math.isnan(request.y))
        ):
            # Scalar-engine, multiproc and NaN-y items evaluate per item
            # (see the module docstring); the multiproc evaluation
            # batches internally (its partitioned admission runs the
            # population kernels per candidate task).
            reports[index] = evaluate_captured(request)
        else:
            live.append(_GroupItem(index=index, request=request))
    if live:
        PERF.population_batches += 1
        PERF.population_sets += len(live)
        with trace.span("pipeline.evaluate_grouped", items=len(live)):
            _evaluate_grouped(live, reports)
    out: List[AnalysisReport] = []
    for index, report in enumerate(reports):
        if report is None:  # unreachable unless a stage loses an item
            raise RuntimeError(f"grouped chunk item {index} never settled")
        out.append(report)
    return out


def _evaluate_grouped(
    live: List[_GroupItem], reports: List[Optional[AnalysisReport]]
) -> None:
    # ------------------------------------------------------------------
    # Stage 1: compile every item's base set in one batched pass (the
    # shared registry makes it a lookup for sets analysed before).
    # ------------------------------------------------------------------
    with trace.span("grouped.compile", items=len(live)):
        bases = compile_tasksets([item.request.taskset for item in live])
        for item, base in zip(live, bases):
            item.member = base

    # ------------------------------------------------------------------
    # Stage 2: preparation-factor tuning (Section-VI convention).
    # Exact bisections batch into one lockstep run; density is closed
    # form; explicit x applies directly.  A tuned item's configured
    # snapshot derives from its base columns (apply_uniform_scaling's
    # arithmetic, one column derivation).
    # ------------------------------------------------------------------
    def resolve_tuning(item: _GroupItem, x: Optional[float]) -> bool:
        """Apply a tuned x; False when the item settled (infeasible/failed)."""
        request = item.request
        taskset = request.taskset
        if x is None or (taskset.hi_tasks and x >= 1.0):
            reports[item.index] = AnalysisReport(
                name=taskset.name,
                key=request.key,
                lo_ok=False,
                x_applied=x,
                y_applied=request.y,
                target_speedup=request.speedup,
                reset_budget=request.reset_budget,
            )
            return False
        x_app = min(x, 1.0 - 1e-9) if taskset.hi_tasks else 1.0
        y_app = request.y if request.y is not None else 1.0
        item.x_applied = x_app
        item.y_applied = y_app
        base = item.member
        assert base is not None  # the compile stage ran for every live item

        def configure() -> None:
            item.member = base.with_uniform_scaling(x_app, y_app)

        failed = _captured(configure, item)
        if failed is not None:
            reports[item.index] = failed
            return False
        item.lo_ok = True
        return True

    with trace.span("grouped.tuning", items=len(live)):
        staged: List[_GroupItem] = []
        exact_items: List[_GroupItem] = []
        for item in live:
            request = item.request
            if not request.tunes_configuration:
                staged.append(item)
                continue
            if request.x is not None:
                if resolve_tuning(item, request.x):
                    staged.append(item)
                continue
            if request.auto_x == "exact":
                exact_items.append(item)
                continue
            # auto_x == "density" (request validation admits nothing else)
            x_box: List[Optional[float]] = [None]

            def tune(
                item: _GroupItem = item, box: List[Optional[float]] = x_box
            ) -> None:
                box[0] = density_preparation_factor(item.request.taskset)

            failed = _captured(tune, item)
            if failed is not None:
                reports[item.index] = failed
            elif resolve_tuning(item, x_box[0]):
                staged.append(item)
        if exact_items:
            outcomes = _exact_x_lockstep(
                [item.request.taskset for item in exact_items], tol=1e-4
            )
            for item, outcome in zip(exact_items, outcomes):
                if isinstance(outcome, Exception):
                    reports[item.index] = _fail(item, outcome)
                elif resolve_tuning(item, outcome):
                    staged.append(item)
    live = staged

    # ------------------------------------------------------------------
    # Stage 3: exact LO-mode demand test (skipped per item exactly when
    # the per-item path skips it).
    # ------------------------------------------------------------------
    lo_items = [
        item
        for item in live
        if (
            item.request.lo_test
            if item.request.lo_test is not None
            else not item.request.tunes_configuration
        )
    ]
    if lo_items:
        with trace.span("grouped.lo_test", items=len(lo_items)):
            verdicts = _lo_schedulable_lockstep(
                _members(lo_items), [1.0] * len(lo_items)
            )
            settled: set[int] = set()
            for item, verdict in zip(lo_items, verdicts):
                if isinstance(verdict, Exception):
                    reports[item.index] = _fail(item, verdict)
                    settled.add(item.index)
                else:
                    item.lo_ok = verdict
            if settled:
                live = [item for item in live if item.index not in settled]

    # ------------------------------------------------------------------
    # Stage 4: Theorem-2 minimum speedup for every item (the pipeline
    # always computes it; budget exhaustion degrades to an inexact
    # result, never an error — same as the per-item path).
    # ------------------------------------------------------------------
    if live:
        with trace.span("grouped.speedup", items=len(live)):
            speedups = _min_speedup_lockstep(
                _members(live),
                rtol=DEFAULT_RTOL,
                max_candidates_list=[_budget(item.request) for item in live],
                on_budget="inexact",
            )
            for item, outcome in zip(live, speedups):
                assert isinstance(outcome, SpeedupResult)
                item.speedup_result = outcome
                if item.request.speedup is not None:
                    cap = item.request.speedup * (1.0 + _RTOL)
                    item.hi_ok = outcome.upper_bound <= cap

    # ------------------------------------------------------------------
    # Stage 5: Corollary-5 resetting time under the request's policy.
    # Budget exhaustion here is an error per item — captured into the
    # same failed-report shape the per-item path produces.
    # ------------------------------------------------------------------
    reset_items = [
        item
        for item in live
        if (
            item.request.speedup is not None
            and item.request.resetting != "never"
            and item.speedup_result is not None
            and math.isfinite(item.speedup_result.s_min)
            and (item.request.resetting == "always" or item.hi_ok)
        )
    ]
    if reset_items:
        with trace.span("grouped.resetting", items=len(reset_items)):
            outcomes = _resetting_lockstep(
                _members(reset_items),
                [float(item.request.speedup or 0.0) for item in reset_items],
                [item.request.drop_terminated_carryover for item in reset_items],
                [_budget(item.request) for item in reset_items],
            )
            settled = set()
            for item, outcome in zip(reset_items, outcomes):
                if isinstance(outcome, Exception):
                    reports[item.index] = _fail(item, outcome)
                    settled.add(item.index)
                else:
                    item.resetting_result = outcome
            if settled:
                live = [item for item in live if item.index not in settled]

    # ------------------------------------------------------------------
    # Stage 6: verdicts and per-item extras (closed form, per-task
    # tuning) — cheap or per-set by nature, evaluated exactly as the
    # per-item path does.
    # ------------------------------------------------------------------
    with trace.span("grouped.extras", items=len(live)):
        staged = []
        for item in live:
            request = item.request
            if request.reset_budget is not None:
                item.within_budget = (
                    item.resetting_result is not None
                    and item.resetting_result.delta_r
                    <= request.reset_budget * (1.0 + _RTOL)
                )
            failed = None
            if request.closed_form and item.x_applied is not None:
                x_app = item.x_applied
                y_app = item.y_applied if item.y_applied is not None else 1.0

                def bounds(
                    item: _GroupItem = item, x_app: float = x_app, y_app: float = y_app
                ) -> None:
                    item.closed_form = closed_form_bounds(
                        item.request.taskset, x_app, y_app, item.request.speedup
                    )

                failed = _captured(bounds, item)
            if failed is None and request.per_task:

                def tune_tasks(item: _GroupItem = item) -> None:
                    from repro.analysis.per_task_tuning import tune_per_task_deadlines

                    tuned = tune_per_task_deadlines(
                        item.request.taskset, engine=item.request.engine
                    )
                    if tuned is not None:
                        item.per_task = {
                            "s_min": tuned.s_min,
                            "uniform_s_min": tuned.uniform_s_min,
                            "moves": [[name, d_lo] for name, d_lo in tuned.moves],
                            "d_lo": {t.name: t.d_lo for t in tuned.taskset.hi_tasks},
                        }

                failed = _captured(tune_tasks, item)
            if failed is not None:
                reports[item.index] = failed
            else:
                staged.append(item)

    for item in staged:
        request = item.request
        reports[item.index] = AnalysisReport(
            name=request.taskset.name,
            key=request.key,
            lo_ok=item.lo_ok,
            x_applied=item.x_applied,
            y_applied=item.y_applied,
            target_speedup=request.speedup,
            reset_budget=request.reset_budget,
            speedup=item.speedup_result,
            hi_ok=item.hi_ok,
            resetting_result=item.resetting_result,
            within_budget=item.within_budget,
            closed_form=item.closed_form,
            per_task=item.per_task,
        )
