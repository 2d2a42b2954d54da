"""Analysis requests and reports: the unit of work of the batch pipeline.

One :class:`AnalysisRequest` bundles a task set with every knob the
paper's evaluation turns — the Section-V design factors ``x``/``y`` (or
the tuning method that picks ``x``), the target HI-mode speedup, the
recovery budget, closed-form and per-task-tuning extras — and one
:class:`AnalysisReport` carries every number that comes back:

* LO-mode feasibility (from the exact demand test or from ``x`` tuning);
* Theorem 2 (:class:`~repro.analysis.speedup.SpeedupResult`);
* Corollary 5 (:class:`~repro.analysis.resetting.ResettingResult`);
* Lemma 6/7 closed-form bounds
  (:class:`~repro.analysis.closed_form.ClosedFormBounds`);
* per-task deadline tuning summary;
* or a structured :class:`AnalysisFailure` when the computation blew its
  candidate budget / rejected the input — a failed item never crashes a
  sweep.

The request semantics are written once, in the generator
:func:`analysis_steps`: ``x``/``y`` configuration, the ``lo_test``
default, the resetting policy, the verdict thresholds, the extras and
report assembly.  It yields each scan it needs as a :class:`Step`
(exact-``x`` tuning, the LO test, the Theorem-2 scan, the Corollary-5
scan, and a final ``extras`` boundary) and receives the outcome back.
Two evaluators answer the steps:

* :func:`evaluate_request` answers one request's steps with the per-set
  scan functions (:func:`answer_step`) — the single taskset→verdict
  function (the API shape of Easwaran's demand-based test and the
  EDF-VD literature) that ``BatchRunner`` runs for lone requests;
* :func:`repro.pipeline.grouping.evaluate_chunk_grouped` advances a
  group's generators stage by stage and answers each stage's steps with
  one lockstep population scan.

Both are pure and deterministic, so ``jobs=1`` and ``jobs=N`` produce
identical reports and results can be cached under the request's content
hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Generator, NamedTuple, Optional, Tuple

from repro.analysis.budget import AnalysisBudgetExceeded
from repro.analysis.closed_form import ClosedFormBounds, closed_form_bounds
from repro.analysis.kernels import compile_taskset
from repro.analysis.population import Analyzable
from repro.analysis.resetting import ResettingResult, resetting_time
from repro.analysis.result import AnalysisResult, decode_float, encode_float
from repro.analysis.schedulability import lo_mode_schedulable
from repro.analysis.speedup import DEFAULT_MAX_CANDIDATES, SpeedupResult, min_speedup
from repro.analysis.tuning import density_preparation_factor, exact_preparation_factor
from repro.model.task import ModelError
from repro.model.taskset import TaskSet
from repro.model.transform import apply_uniform_scaling
from repro.obs import trace
from repro.pipeline.cache import request_fingerprint
from repro.pipeline.payload import FailurePayload, ReportPayload

#: Exceptions converted into per-item failure records instead of
#: aborting a batch.  Deliberately narrow: programming errors
#: (AttributeError, TypeError, ...) still surface immediately.
CAPTURED_ERRORS = (ValueError, ArithmeticError, AnalysisBudgetExceeded)

#: Resetting-time policies: compute only when HI mode is feasible at the
#: target speedup ("auto", the `repro-mc analyze` convention), whenever
#: the minimum speedup is finite ("always", the Figure-6 convention), or
#: skip entirely ("never").
RESETTING_POLICIES = ("auto", "always", "never")

#: Preparation-factor tuning methods accepted for ``auto_x``.
AUTO_X_METHODS = ("density", "exact")

#: Partitioning heuristics accepted for multiproc requests (mirrors
#: ``repro.multiproc.partition`` without importing it at module load).
PARTITION_HEURISTICS = ("first_fit", "worst_fit", "best_fit")

#: Request fields that have no meaning for a multiproc (``cores``)
#: request: the per-core protocol knobs are fixed by the partitioned
#: design itself (admission at ``speedup_cap``, recovery at the cap).
_MULTIPROC_FORBIDDEN = (
    "speedup",
    "reset_budget",
    "auto_x",
    "lo_test",
    "closed_form",
    "per_task",
)

#: Numeric request fields: a ``bool`` is rejected there (JSON ``true``
#: would otherwise pass as 1 under its own cache key).
_NUMERIC_FIELDS = ("speedup", "reset_budget", "x", "y", "cores", "speedup_cap",
                   "degraded_y", "max_candidates")


@dataclass(frozen=True)
class AnalysisRequest:
    """One task set plus every analysis option, as a hashable work item.

    Parameters
    ----------
    taskset:
        The base dual-criticality task set.
    speedup:
        Target HI-mode speedup ``s``; enables the HI feasibility verdict
        and the Corollary-5 resetting time.
    reset_budget:
        Recovery budget checked against the resetting time (Figure-7
        acceptance), in the task set's time unit.
    x:
        Explicit overrun-preparation factor (Eq. 13).  Values ``>= 1``
        on a set with HI tasks mark the configuration infeasible, the
        Section-VI convention.
    auto_x:
        Tune ``x`` to the minimum guaranteeing LO-mode schedulability
        (``"density"`` or ``"exact"``, see
        :func:`repro.analysis.tuning.min_preparation_factor`).  Ignored
        when ``x`` is given.
    y:
        Service-degradation factor (Eq. 14); ``math.inf`` terminates LO
        tasks.  Only applied together with ``x``/``auto_x``.
    lo_test:
        Run the exact LO-mode demand test.  Default (``None``): run it
        exactly when no ``x`` knob is in play (with a knob, feasibility
        is decided by the tuning itself).
    resetting:
        One of :data:`RESETTING_POLICIES`.
    closed_form:
        Also evaluate the Lemma-6/7 bounds at the applied ``(x, y)``.
    per_task:
        Also run the greedy per-task deadline tuning and record its
        improvement over the uniform ``x``.
    drop_terminated_carryover:
        Ablation switch forwarded to the resetting-time analysis.
    cores:
        Number of processors for a *multiproc* request.  When set, the
        item is evaluated by :func:`_evaluate_multiproc` instead of the
        uniprocessor flow: partitioned Theorem-2 admission under
        ``speedup_cap``, the EDF-VD-with-degraded-quality partitioned
        baseline at ``degraded_y``, and the dual-rate fluid reference —
        the three frontiers of the ``figM`` region maps.  An explicit
        ``x`` (with ``y``) prepares the set before partitioning; the
        uniprocessor-only knobs (``speedup``, ``reset_budget``,
        ``auto_x``, ``lo_test``, ``closed_form``, ``per_task``) are
        rejected.
    speedup_cap:
        Per-core temporary-speedup cap the partitioned admission tests
        against (required with ``cores``).
    heuristic:
        Bin-packing heuristic for the partitioning
        (:data:`PARTITION_HEURISTICS`).
    degraded_y:
        Eq.-14 degradation factor of the EDF-VD-degraded baseline
        (default 2; ``inf`` reduces it to classic EDF-VD).
    max_candidates:
        Breakpoint budget forwarded to the scans (``None`` = defaults).
    engine:
        Demand-evaluation engine (``"compiled"`` fused kernels or
        ``"scalar"`` per-task oracle, see :mod:`repro.analysis.kernels`).
        Both produce byte-identical reports; the scalar engine exists as
        the reference the compiled path is property-tested against.
    """

    taskset: TaskSet
    speedup: Optional[float] = None
    reset_budget: Optional[float] = None
    x: Optional[float] = None
    auto_x: Optional[str] = None
    y: Optional[float] = None
    lo_test: Optional[bool] = None
    resetting: str = "auto"
    closed_form: bool = False
    per_task: bool = False
    drop_terminated_carryover: bool = False
    cores: Optional[int] = None
    speedup_cap: Optional[float] = None
    heuristic: str = "first_fit"
    degraded_y: Optional[float] = None
    max_candidates: Optional[int] = None
    engine: str = "compiled"

    def __post_init__(self) -> None:
        if not isinstance(self.taskset, TaskSet):
            raise ModelError(
                f"AnalysisRequest needs a TaskSet, got {type(self.taskset).__name__}"
            )
        # Bounds read ``not (value > bound)`` so that NaN fails them too.
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ModelError(f"{name} must be a number, got {value!r}")
        if self.speedup is not None and not (self.speedup > 0.0):
            raise ModelError(f"speedup must be positive, got {self.speedup}")
        if self.reset_budget is not None and not (self.reset_budget >= 0.0):
            raise ModelError(f"reset budget must be >= 0, got {self.reset_budget}")
        if self.auto_x is not None and self.auto_x not in AUTO_X_METHODS:
            raise ModelError(
                f"auto_x must be one of {AUTO_X_METHODS}, got {self.auto_x!r}"
            )
        if self.x is not None and not (self.x > 0.0):
            raise ModelError(f"x must be positive, got {self.x}")
        if self.y is not None and not (self.y >= 1.0):
            raise ModelError(f"y must be >= 1 (or inf), got {self.y}")
        if self.resetting not in RESETTING_POLICIES:
            raise ModelError(
                f"resetting must be one of {RESETTING_POLICIES}, got {self.resetting!r}"
            )
        if self.max_candidates is not None and not (self.max_candidates > 0):
            raise ModelError(
                f"max_candidates must be positive, got {self.max_candidates}"
            )
        if self.engine not in ("compiled", "scalar"):
            raise ModelError(
                f'engine must be "compiled" or "scalar", got {self.engine!r}'
            )
        if self.heuristic not in PARTITION_HEURISTICS:
            raise ModelError(
                f"heuristic must be one of {PARTITION_HEURISTICS}, "
                f"got {self.heuristic!r}"
            )
        if self.degraded_y is not None and not (self.degraded_y >= 1.0):
            raise ModelError(
                f"degraded_y must be >= 1 (or inf), got {self.degraded_y}"
            )
        if self.cores is not None:
            if not (self.cores >= 1):
                raise ModelError(f"cores must be >= 1, got {self.cores}")
            if self.speedup_cap is None or not (self.speedup_cap > 0.0):
                raise ModelError(
                    "a multiproc request needs a positive speedup_cap, "
                    f"got {self.speedup_cap}"
                )
            for name in _MULTIPROC_FORBIDDEN:
                if getattr(self, name) not in (None, False):
                    raise ModelError(
                        f"{name} has no meaning for a multiproc (cores) request"
                    )
            if self.resetting != "auto":
                raise ModelError(
                    "a multiproc request evaluates per-core recovery at the "
                    "cap; the resetting policy knob has no meaning there"
                )
        elif self.speedup_cap is not None or self.degraded_y is not None:
            raise ModelError(
                "speedup_cap / degraded_y only apply to multiproc requests "
                "(set cores)"
            )

    @property
    def tunes_configuration(self) -> bool:
        """True when an ``x`` knob decides LO feasibility for this item."""
        return self.x is not None or self.auto_x is not None

    def options_payload(self) -> Dict[str, Any]:
        """The non-taskset fields as a JSON-ready dict (hashed into the key).

        ``engine`` is deliberately excluded: both engines produce
        byte-identical reports, so the cache key addresses the analysis
        content, not the implementation that computed it.
        """
        payload: Dict[str, Any] = {
            "speedup": self.speedup,
            "reset_budget": self.reset_budget,
            "x": self.x,
            "auto_x": self.auto_x,
            "y": None if self.y is None else float(self.y),
            "lo_test": self.lo_test,
            "resetting": self.resetting,
            "closed_form": self.closed_form,
            "per_task": self.per_task,
            "drop_terminated_carryover": self.drop_terminated_carryover,
            "max_candidates": self.max_candidates,
        }
        if self.cores is not None:
            # Conditional so pre-existing (uniprocessor) request keys —
            # and every cache/checkpoint entry addressed by them — stay
            # byte-stable.
            payload["cores"] = self.cores
            payload["speedup_cap"] = self.speedup_cap
            payload["heuristic"] = self.heuristic
            payload["degraded_y"] = (
                None if self.degraded_y is None else float(self.degraded_y)
            )
        return payload

    @cached_property
    def key(self) -> str:
        """Content address: SHA-256 over canonical tasks + options."""
        return request_fingerprint(self.taskset, self.options_payload())


@dataclass(frozen=True)
class AnalysisFailure:
    """Structured record of a per-item analysis failure.

    Attributes
    ----------
    stage:
        Which part of the evaluation failed (``"tuning"``, ``"speedup"``,
        ``"resetting"``, ``"closed_form"``, ``"per_task"``, ``"input"``).
    error_type:
        Exception class name (e.g. ``AnalysisBudgetExceeded``).
    message:
        Human-readable detail, straight from the exception.
    """

    stage: str
    error_type: str
    message: str

    def to_dict(self) -> FailurePayload:
        return {
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisFailure":
        return cls(
            stage=str(data["stage"]),
            error_type=str(data["error_type"]),
            message=str(data["message"]),
        )

    @classmethod
    def from_exception(cls, stage: str, error: BaseException) -> "AnalysisFailure":
        return cls(
            stage=stage, error_type=type(error).__name__, message=str(error)
        )


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one analysis run produced, uniformly serializable.

    Component results (``speedup``, ``resetting_result``, ``closed_form``)
    all implement the :mod:`repro.analysis.result` protocol, so
    :meth:`to_dict` / :meth:`to_record` serialize them without per-type
    code, and :meth:`from_dict` restores an identical report — the basis
    of the result cache and checkpoint/resume.
    """

    name: str
    key: str
    lo_ok: Optional[bool] = None
    x_applied: Optional[float] = None
    y_applied: Optional[float] = None
    target_speedup: Optional[float] = None
    reset_budget: Optional[float] = None
    speedup: Optional[SpeedupResult] = None
    hi_ok: Optional[bool] = None
    resetting_result: Optional[ResettingResult] = None
    within_budget: Optional[bool] = None
    closed_form: Optional[ClosedFormBounds] = None
    per_task: Optional[Dict[str, Any]] = None
    multiproc: Optional[Dict[str, Any]] = None
    failure: Optional[AnalysisFailure] = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def s_min(self) -> float:
        """Theorem-2 minimum speedup (``inf`` when not computed)."""
        return self.speedup.s_min if self.speedup is not None else math.inf

    @property
    def delta_r(self) -> float:
        """Corollary-5 resetting time (``inf`` when not computed)."""
        return (
            self.resetting_result.delta_r
            if self.resetting_result is not None
            else math.inf
        )

    # -- AnalysisResult protocol (repro.analysis.result) ----------------
    @property
    def ok(self) -> bool:
        """True when nothing failed and no computed verdict is negative."""
        if self.failure is not None:
            return False
        for verdict in (self.lo_ok, self.hi_ok, self.within_budget):
            if verdict is False:
                return False
        if self.multiproc is not None and not self.multiproc.get("speedup_ok"):
            return False
        return True

    @property
    def value(self) -> float:
        """Headline number: the minimum speedup."""
        return self.s_min

    @property
    def diagnostics(self) -> Dict[str, Any]:
        """Flat summary of every verdict (the ``to_record`` core)."""
        return {
            "lo_ok": self.lo_ok,
            "hi_ok": self.hi_ok,
            "within_budget": self.within_budget,
            "x_applied": self.x_applied,
            "y_applied": self.y_applied,
            "target_speedup": self.target_speedup,
            "reset_budget": self.reset_budget,
            "delta_r": self.delta_r,
            "failure": None if self.failure is None else self.failure.error_type,
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> ReportPayload:
        """JSON-ready encoding; inverted exactly by :meth:`from_dict`."""

        def opt(result: Optional[AnalysisResult]) -> Optional[Dict[str, Any]]:
            return None if result is None else result.to_dict()

        return {
            "name": self.name,
            "key": self.key,
            "lo_ok": self.lo_ok,
            "x_applied": encode_float(self.x_applied),
            "y_applied": encode_float(self.y_applied),
            "target_speedup": encode_float(self.target_speedup),
            "reset_budget": encode_float(self.reset_budget),
            "speedup": opt(self.speedup),
            "hi_ok": self.hi_ok,
            "resetting": opt(self.resetting_result),
            "within_budget": self.within_budget,
            "closed_form": opt(self.closed_form),
            "per_task": self.per_task,
            "multiproc": self.multiproc,
            "failure": None if self.failure is None else self.failure.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisReport":
        def load(field_name, loader):
            value = data.get(field_name)
            return None if value is None else loader(value)

        return cls(
            name=str(data["name"]),
            key=str(data["key"]),
            lo_ok=data.get("lo_ok"),
            x_applied=decode_float(data.get("x_applied")),
            y_applied=decode_float(data.get("y_applied")),
            target_speedup=decode_float(data.get("target_speedup")),
            reset_budget=decode_float(data.get("reset_budget")),
            speedup=load("speedup", SpeedupResult.from_dict),
            hi_ok=data.get("hi_ok"),
            resetting_result=load("resetting", ResettingResult.from_dict),
            within_budget=data.get("within_budget"),
            closed_form=load("closed_form", ClosedFormBounds.from_dict),
            per_task=data.get("per_task"),
            multiproc=data.get("multiproc"),
            failure=load("failure", AnalysisFailure.from_dict),
        )

    def to_record(self) -> Dict[str, Any]:
        """Flat dictionary for CSV export (:func:`repro.io.write_records_csv`)."""
        record: Dict[str, Any] = {"name": self.name, "ok": self.ok}
        record.update(self.diagnostics)
        record["s_min"] = self.s_min
        if self.speedup is not None:
            record["s_min_exact"] = self.speedup.exact
            record["s_min_upper_bound"] = self.speedup.upper_bound
        if self.closed_form is not None:
            record["s_min_bound"] = self.closed_form.s_min_bound
            record["delta_r_bound"] = self.closed_form.delta_r_bound
        if self.per_task is not None:
            record["per_task_s_min"] = self.per_task.get("s_min")
        if self.multiproc is not None:
            record["cores"] = self.multiproc.get("cores")
            record["speedup_ok"] = self.multiproc.get("speedup_ok")
            record["degraded_ok"] = self.multiproc.get("degraded_ok")
            record["fluid_ok"] = self.multiproc.get("fluid_ok")
        if self.failure is not None:
            record["failure"] = f"{self.failure.error_type}: {self.failure.message}"
        record["key"] = self.key
        return record

    @classmethod
    def failed(cls, request: AnalysisRequest, failure: AnalysisFailure) -> "AnalysisReport":
        """The report shape of a captured per-item error."""
        return cls(
            name=request.taskset.name,
            key=request.key,
            target_speedup=request.speedup,
            reset_budget=request.reset_budget,
            failure=failure,
        )

    @classmethod
    def captured(cls, request: AnalysisRequest, error: BaseException) -> "AnalysisReport":
        """The failed report of an analysis error raised for ``request``,
        staged by the error's ``operation`` (``"analysis"`` without one)."""
        stage = str(getattr(error, "operation", "analysis"))
        return cls.failed(request, AnalysisFailure.from_exception(stage, error))

    @classmethod
    def infeasible(cls, request: AnalysisRequest, x: Optional[float]) -> "AnalysisReport":
        """The report of a request whose ``x`` admits no finite configuration."""
        return cls(
            name=request.taskset.name,
            key=request.key,
            lo_ok=False,
            x_applied=x,
            y_applied=request.y,
            target_speedup=request.speedup,
            reset_budget=request.reset_budget,
        )


# ---------------------------------------------------------------------------
# The request flow: one step generator, answered per set or in lockstep
# ---------------------------------------------------------------------------
#: The scans :func:`analysis_steps` waits on, in the order it yields
#: them; ``"extras"`` is the boundary before the per-item extras.
STAGES = ("tuning", "lo_test", "speedup", "resetting", "extras")


class Step(NamedTuple):
    """One scan :func:`analysis_steps` waits on.

    ``stage`` is one of :data:`STAGES`.  ``target`` is the set the scan
    runs on: the base task set for exact-``x`` tuning, the configured
    set otherwise, and ``None`` at the ``extras`` boundary, which asks
    for nothing.  The remaining fields are the request's scan parameters.
    """

    stage: str
    target: Optional[Analyzable] = None
    engine: str = "compiled"
    max_candidates: int = DEFAULT_MAX_CANDIDATES
    speedup: float = 1.0
    drop_terminated_carryover: bool = False


def evaluate_request(request: AnalysisRequest) -> AnalysisReport:
    """Run the full dual-mode analysis for one request (pure function).

    Drives :func:`analysis_steps` with :func:`answer_step`.  Exceptions
    propagate to the caller; :func:`evaluate_captured` (and through it
    :class:`~repro.pipeline.runner.BatchRunner`) converts them into
    :class:`AnalysisFailure` records so a single degenerate task set
    never kills a sweep.  The whole evaluation runs under a
    ``pipeline.evaluate`` span, so per-stage spans (tuning, speedup,
    resetting) nest beneath it when tracing is on.
    """
    with trace.span(
        "pipeline.evaluate", taskset=request.taskset.name, engine=request.engine
    ):
        steps = analysis_steps(request)
        outcome: Any = None
        while True:
            try:
                step = steps.send(outcome)
            except StopIteration as done:
                return done.value
            outcome = answer_step(step)


def evaluate_captured(request: AnalysisRequest) -> AnalysisReport:
    """Evaluate one request, converting analysis errors to failure reports."""
    try:
        return evaluate_request(request)
    except CAPTURED_ERRORS as error:
        return AnalysisReport.captured(request, error)


def _configure(
    request: AnalysisRequest, x: Optional[float], *, columns: bool
) -> Optional[Tuple[float, float, Analyzable]]:
    """Apply a given or tuned ``x``, with the request's ``y``.

    Returns ``(x_applied, y_applied, configured)``, or ``None`` when no
    finite configuration exists: ``x = 1`` leaves a set with HI tasks no
    room for overrun.  With ``columns`` the configured set derives from
    the base set's compiled columns
    (:meth:`~repro.analysis.kernels.CompiledTaskSet.with_uniform_scaling`);
    otherwise :func:`~repro.model.transform.apply_uniform_scaling`
    rebuilds the tasks.  Both run the same float operations.
    """
    taskset = request.taskset
    if x is None or (taskset.hi_tasks and x >= 1.0):
        return None
    x_applied = min(x, 1.0 - 1e-9) if taskset.hi_tasks else 1.0
    y_applied = request.y if request.y is not None else 1.0
    configured: Analyzable = (
        compile_taskset(taskset).with_uniform_scaling(x_applied, y_applied)
        if columns
        else apply_uniform_scaling(taskset, x_applied, y_applied)
    )
    return x_applied, y_applied, configured


def _evaluate_multiproc(request: AnalysisRequest) -> AnalysisReport:
    """Evaluate the three multiprocessor frontiers for one request.

    The speedup scheme partitions the (optionally ``x``-prepared) set
    under the per-core Theorem-2 admission at ``speedup_cap``, on the
    request's analysis engine; the EDF-VD-degraded baseline and the
    fluid reference evaluate the *raw* set — the overrun-preparation
    shortening of HI deadlines is the speedup protocol's own knob, the
    baselines have their own mode mechanisms.  A
    :class:`~repro.multiproc.partition.PartitioningError` is the
    expected "not schedulable this way" outcome, not a failure.
    """
    # Lazy imports (the per_task precedent): keeps pipeline importable
    # without the multiproc/baselines packages on the module path walk.
    from repro.baselines.fluid import fluid_schedulable
    from repro.multiproc.partition import (
        PartitioningError,
        partition_tasks_edf_vd_degraded,
        partitioned_design,
    )

    taskset = request.taskset
    assert request.cores is not None and request.speedup_cap is not None
    x_applied: Optional[float] = None
    y_applied: Optional[float] = None
    configured: Analyzable = taskset
    lo_ok: Optional[bool] = None
    if request.x is not None:
        # Partitioning assigns task objects, so the set is rebuilt.
        prepared = _configure(request, request.x, columns=False)
        if prepared is None:
            return AnalysisReport.infeasible(request, request.x)
        x_applied, y_applied, configured = prepared
        lo_ok = True

    speedup_ok = False
    used_cores: Optional[int] = None
    max_s_min: Optional[Any] = None
    max_delta_r: Optional[Any] = None
    try:
        with trace.span("multiproc.partition", cores=request.cores):
            design = partitioned_design(
                configured,
                request.cores,
                speedup_cap=request.speedup_cap,
                heuristic=request.heuristic,
                engine=request.engine,
            )
        speedup_ok = True
        used_cores = design.used_cores
        max_s_min = encode_float(design.max_s_min)
        max_delta_r = encode_float(design.max_delta_r)
    except PartitioningError:
        pass

    degraded_y = 2.0 if request.degraded_y is None else request.degraded_y
    try:
        partition_tasks_edf_vd_degraded(
            taskset, request.cores, y=degraded_y, heuristic=request.heuristic
        )
        degraded_ok = True
    except PartitioningError:
        degraded_ok = False

    fluid = fluid_schedulable(taskset, request.cores)

    return AnalysisReport(
        name=taskset.name,
        key=request.key,
        lo_ok=lo_ok,
        x_applied=x_applied,
        y_applied=y_applied,
        multiproc={
            "cores": request.cores,
            "speedup_cap": request.speedup_cap,
            "heuristic": request.heuristic,
            "speedup_ok": speedup_ok,
            "used_cores": used_cores,
            "max_s_min": max_s_min,
            "max_delta_r": max_delta_r,
            "degraded_y": encode_float(degraded_y),
            "degraded_ok": degraded_ok,
            "fluid_ok": fluid.schedulable,
            "fluid_lo_load": encode_float(fluid.lo_load),
        },
    )


def analysis_steps(
    request: AnalysisRequest,
) -> Generator[Step, Any, AnalysisReport]:
    """The full dual-mode analysis of one request, as a generator.

    Yields a :class:`Step` for each scan and expects its outcome sent
    back: the tuned ``x`` (``None`` when infeasible), the LO verdict, the
    :class:`~repro.analysis.speedup.SpeedupResult`, the
    :class:`~repro.analysis.resetting.ResettingResult`, and nothing for
    ``extras``.  Returns the report.  An error thrown in at a step
    propagates exactly as the per-set scan's exception would.  A
    multiproc request returns its report without yielding.
    """
    if request.cores is not None:
        return _evaluate_multiproc(request)
    taskset = request.taskset
    engine = request.engine
    budget = (
        request.max_candidates
        if request.max_candidates is not None
        else DEFAULT_MAX_CANDIDATES
    )
    configured: Analyzable = taskset
    x_applied: Optional[float] = None
    y_applied: Optional[float] = None
    lo_ok: Optional[bool] = None

    if request.tunes_configuration:
        # Section-VI convention: x is tuned (or supplied) to the minimum
        # guaranteeing LO-mode schedulability, so LO feasibility is decided
        # by the tuning outcome, not by a second demand test.
        x = request.x
        if x is None and request.auto_x == "exact":
            x = yield Step("tuning", taskset, engine)
        elif x is None:
            x = density_preparation_factor(taskset)
        prepared = _configure(request, x, columns=engine == "compiled")
        if prepared is None:
            return AnalysisReport.infeasible(request, x)
        x_applied, y_applied, configured = prepared
        lo_ok = True

    run_lo_test = (
        request.lo_test
        if request.lo_test is not None
        else not request.tunes_configuration
    )
    if run_lo_test:
        lo_ok = yield Step("lo_test", configured, engine)

    speedup_result = yield Step("speedup", configured, engine, budget)

    hi_ok: Optional[bool] = None
    if request.speedup is not None:
        hi_ok = speedup_result.admits(request.speedup)

    resetting_result: Optional[ResettingResult] = None
    if (
        request.speedup is not None
        and request.resetting != "never"
        and math.isfinite(speedup_result.s_min)
        and (request.resetting == "always" or hi_ok)
    ):
        resetting_result = yield Step(
            "resetting", configured, engine, budget,
            request.speedup, request.drop_terminated_carryover,
        )

    yield Step("extras")

    within_budget: Optional[bool] = None
    if request.reset_budget is not None:
        within_budget = (
            resetting_result is not None
            and resetting_result.within(request.reset_budget)
        )

    closed_form: Optional[ClosedFormBounds] = None
    if request.closed_form and x_applied is not None:
        closed_form = closed_form_bounds(
            taskset, x_applied, y_applied, request.speedup
        )

    per_task: Optional[Dict[str, Any]] = None
    if request.per_task:
        from repro.analysis.per_task_tuning import tune_per_task_deadlines

        tuned = tune_per_task_deadlines(taskset, engine=engine)
        if tuned is not None:
            per_task = {
                "s_min": tuned.s_min,
                "uniform_s_min": tuned.uniform_s_min,
                "moves": [[name, d_lo] for name, d_lo in tuned.moves],
                "d_lo": {t.name: t.d_lo for t in tuned.taskset.hi_tasks},
            }

    return AnalysisReport(
        name=taskset.name,
        key=request.key,
        lo_ok=lo_ok,
        x_applied=x_applied,
        y_applied=y_applied,
        target_speedup=request.speedup,
        reset_budget=request.reset_budget,
        speedup=speedup_result,
        hi_ok=hi_ok,
        resetting_result=resetting_result,
        within_budget=within_budget,
        closed_form=closed_form,
        per_task=per_task,
    )


def answer_step(step: Step) -> Any:
    """Answer one step with the per-set scan functions.

    The per-item counterpart of the grouped evaluation's lockstep answers
    (:mod:`repro.pipeline.grouping`).  The scans are looked up as module
    globals at call time, so wrappers installed on them see every call.
    """
    if step.stage == "tuning":
        return exact_preparation_factor(step.target, engine=step.engine)
    if step.stage == "lo_test":
        return lo_mode_schedulable(step.target, engine=step.engine)
    if step.stage == "speedup":
        return min_speedup(
            step.target, max_candidates=step.max_candidates, engine=step.engine
        )
    if step.stage == "resetting":
        return resetting_time(
            step.target,
            step.speedup,
            drop_terminated_carryover=step.drop_terminated_carryover,
            max_candidates=step.max_candidates,
            engine=step.engine,
        )
    return None  # "extras" marks a stage boundary; it asks for nothing
