"""Grouped evaluation: the batch pipeline's path for two or more requests.

:func:`evaluate_chunk_grouped` is the second evaluator of the request
flow :func:`~repro.pipeline.request.analysis_steps`; the first,
:func:`~repro.pipeline.request.evaluate_request`, answers one request's
steps with the per-set scans.  This one compiles the group's base
sets in one batched pass, starts one step generator per request and
walks the stages in order (:data:`~repro.pipeline.request.STAGES`):
all steps waiting at a stage are answered by one lockstep population
scan (:mod:`repro.analysis.population`), and each outcome is sent back
into its generator.  In the small-set regime (figs 6–7) this turns
hundreds of tiny kernel calls into a handful of population calls.  The
request semantics — tuning verdicts, ``lo_test`` defaulting, resetting
policies, verdict thresholds, extras and report assembly — live only in
the generator; this module only decides how a stage's scans run.

**Byte-identity contract.**  Every report equals the one
``evaluate_captured(request)`` produces, bit for bit: the lockstep
scans drive the per-set scans' own generators with bit-identical
demand answers, and an error a lockstep scan returns for one member is
thrown into that member's generator, so the request fails exactly as
the per-set exception would and one failing set never aborts its
group.  Only execution grouping
changes, so the kernel perf counters (``kernel_evals``, ``cells``)
differ from a per-item run; the runner keeps them ``jobs``-invariant by
cutting the same groups at any job count.

Each stage runs under its own ``grouped.*`` trace span (tagged with
item counts only), nested in ``pipeline.evaluate_grouped``, so a traced
run still shows where a group's time went.

Scalar-engine requests and multiproc requests (``cores`` set) evaluate
per item inside the same group, keeping mixed groups valid; multiproc
admission batches internally, per candidate task.  The batch runner
sends a singleton group down the per-item path as well: a one-member
lockstep costs two to three times the per-set scans (DESIGN.md §9.1).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.analysis.kernels import PERF, compile_tasksets
from repro.analysis.population import (
    _exact_x_lockstep,
    _lo_schedulable_lockstep,
    _min_speedup_lockstep,
    _resetting_lockstep,
)
from repro.analysis.speedup import DEFAULT_RTOL
from repro.obs import trace
from repro.pipeline.request import (
    CAPTURED_ERRORS,
    STAGES,
    AnalysisReport,
    AnalysisRequest,
    Step,
    analysis_steps,
    evaluate_captured,
)

_Steps = Generator[Step, Any, AnalysisReport]


def _answer_lockstep(stage: str, steps: Sequence[Step]) -> List[Any]:
    """Answer every step waiting at ``stage`` with one lockstep scan.

    The grouped counterpart of
    :func:`~repro.pipeline.request.answer_step`; a member's outcome may
    be the exception its per-set scan would have raised.
    """
    if stage == "extras":
        return [None] * len(steps)
    if stage == "tuning":
        return _exact_x_lockstep([step.target for step in steps])
    members = compile_tasksets([step.target for step in steps])
    budgets = [step.max_candidates for step in steps]
    if stage == "lo_test":
        return _lo_schedulable_lockstep(members, [1.0] * len(steps))
    if stage == "speedup":
        return _min_speedup_lockstep(
            members, rtol=DEFAULT_RTOL, max_candidates_list=budgets, on_budget="inexact"
        )
    return _resetting_lockstep(
        members,
        [step.speedup for step in steps],
        [step.drop_terminated_carryover for step in steps],
        budgets,
    )


def evaluate_chunk_grouped(
    requests: Sequence[AnalysisRequest],
) -> List[AnalysisReport]:
    """Evaluate a chunk of requests with fused population scans.

    Returns reports in request order, each byte-identical to what the
    per-item path produces for the same request.
    """
    reports: List[Optional[AnalysisReport]] = [None] * len(requests)
    live: List[int] = []
    for index, request in enumerate(requests):
        if request.engine != "compiled" or request.cores is not None:
            reports[index] = evaluate_captured(request)
        else:
            live.append(index)
    if live:
        PERF.population_batches += 1
        PERF.population_sets += len(live)
        with trace.span("pipeline.evaluate_grouped", items=len(live)):
            _evaluate_grouped(requests, live, reports)
    out: List[AnalysisReport] = []
    for index, report in enumerate(reports):
        if report is None:  # unreachable unless a stage loses an item
            raise RuntimeError(f"grouped chunk item {index} never settled")
        out.append(report)
    return out


def _evaluate_grouped(
    requests: Sequence[AnalysisRequest],
    live: List[int],
    reports: List[Optional[AnalysisReport]],
) -> None:
    """Drive one step generator per live request through the stages in
    order, settling each report into ``reports``."""
    waiting: Dict[int, Tuple[_Steps, Step]] = {}

    def advance(index: int, steps: _Steps, outcome: Any = None) -> None:
        """Send an outcome in (throw it, if it is an error); then park the
        generator at its next step or settle its report."""
        try:
            if isinstance(outcome, Exception):
                step = steps.throw(outcome)
            else:
                step = steps.send(outcome)
        except StopIteration as done:
            reports[index] = done.value
        except CAPTURED_ERRORS as error:
            reports[index] = AnalysisReport.captured(requests[index], error)
        else:
            waiting[index] = (steps, step)

    def answer(stage: str, parked: List[int]) -> None:
        outcomes = _answer_lockstep(stage, [waiting[index][1] for index in parked])
        for index, outcome in zip(parked, outcomes):
            advance(index, waiting.pop(index)[0], outcome)

    def parked_at(stage: str) -> List[int]:
        return [index for index, (_, step) in waiting.items() if step.stage == stage]

    # One batched compile of every base set (a registry lookup for sets
    # analysed before); every later lookup of a base set is a cache hit.
    with trace.span("grouped.compile", items=len(live)):
        compile_tasksets([requests[index].taskset for index in live])
    with trace.span("grouped.tuning", items=len(live)):
        # Starting a generator applies an explicit or density-tuned x
        # inline; exact tunings wait for one lockstep bisection.
        for index in live:
            advance(index, analysis_steps(requests[index]))
        tuning = parked_at("tuning")
        if tuning:
            answer("tuning", tuning)
    for stage in STAGES[1:]:
        parked = parked_at(stage)
        if parked:
            with trace.span(f"grouped.{stage}", items=len(parked)):
                answer(stage, parked)
