"""Offline analysis: demand bounds, minimum speedup, resetting time.

Implements the paper's analytical machinery:

* :mod:`repro.analysis.dbf` — Eq. (4), Lemma 1 (Eqs. 5-7) and
  Theorem 4 (Eqs. 9-10) demand/arrived-demand bound functions.
* :mod:`repro.analysis.points` — pseudo-polynomial candidate-point
  enumeration for the piecewise-linear demand functions.
* :mod:`repro.analysis.speedup` — Theorem 2, minimum HI-mode speedup.
* :mod:`repro.analysis.resetting` — Corollary 5, service resetting time.
* :mod:`repro.analysis.closed_form` — Lemmas 6 and 7 (implicit-deadline
  special case of Section V).
* :mod:`repro.analysis.schedulability` — LO/HI-mode EDF demand tests.
* :mod:`repro.analysis.tuning` — choosing the deadline-shortening factor.
* :mod:`repro.analysis.overrun` — Section IV remark: overrun burst
  frequency and speedup duty cycle.
* :mod:`repro.analysis.kernels` — compiled struct-of-arrays demand
  kernels (the default ``engine="compiled"`` fast path of the scans).
"""

from repro.analysis.budget import AnalysisBudgetExceeded, CandidateBudget
from repro.analysis.kernels import (
    MEMO,
    PERF,
    AnalysisMemo,
    CompiledTaskSet,
    KernelCounters,
    ScalarEvaluator,
    adopt_compiled,
    clear_compile_cache,
    clear_memo,
    compile_taskset,
    get_evaluator,
    perf_reset,
    perf_snapshot,
)
from repro.analysis.dbf import (
    adb_hi,
    dbf_hi,
    dbf_lo,
    extended_mod,
    total_adb_hi,
    total_dbf_hi,
    total_dbf_lo,
)
from repro.analysis.result import AnalysisResult
from repro.analysis.speedup import SpeedupResult, min_speedup
from repro.analysis.resetting import ResettingResult, resetting_time
from repro.analysis.closed_form import (
    ClosedFormBounds,
    closed_form_bounds,
    closed_form_resetting_time,
    closed_form_speedup,
)
from repro.analysis.schedulability import hi_mode_schedulable, lo_mode_schedulable
from repro.analysis.tuning import min_preparation_factor
from repro.analysis.overrun import max_overrun_frequency, speedup_duty_cycle
from repro.analysis.dvfs import FrequencyLadder, discrete_design
from repro.analysis.per_task_tuning import tune_per_task_deadlines
from repro.analysis.sensitivity import (
    max_tolerable_gamma,
    max_tolerable_load_scale,
    min_speedup_margin,
)

__all__ = [
    "AnalysisBudgetExceeded",
    "CandidateBudget",
    "AnalysisMemo",
    "CompiledTaskSet",
    "KernelCounters",
    "MEMO",
    "PERF",
    "ScalarEvaluator",
    "adopt_compiled",
    "clear_compile_cache",
    "clear_memo",
    "compile_taskset",
    "get_evaluator",
    "perf_reset",
    "perf_snapshot",
    "adb_hi",
    "dbf_hi",
    "dbf_lo",
    "extended_mod",
    "total_adb_hi",
    "total_dbf_hi",
    "total_dbf_lo",
    "AnalysisResult",
    "SpeedupResult",
    "min_speedup",
    "ResettingResult",
    "resetting_time",
    "ClosedFormBounds",
    "closed_form_bounds",
    "closed_form_speedup",
    "closed_form_resetting_time",
    "lo_mode_schedulable",
    "hi_mode_schedulable",
    "min_preparation_factor",
    "max_overrun_frequency",
    "speedup_duty_cycle",
    "FrequencyLadder",
    "discrete_design",
    "tune_per_task_deadlines",
    "max_tolerable_gamma",
    "max_tolerable_load_scale",
    "min_speedup_margin",
]
