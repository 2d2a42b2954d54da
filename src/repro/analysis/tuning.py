"""Choosing the overrun-preparation factor ``x``.

Section VI fixes "x ... to the minimum to guarantee LO mode
schedulability": shrinking HI tasks' LO-mode deadlines as much as LO-mode
feasibility allows minimizes the HI-mode load carried over at a switch
and hence the required speedup (Lemma 6 is monotone in ``x``).

Two methods are provided:

* ``"density"`` — the classical EDF density argument for implicit
  deadlines: LO mode is feasible if
  ``sum_LO U_i(LO) + sum_HI U_i(LO) / x <= 1``, i.e.

      x_density = sum_HI U_i(LO) / (1 - sum_LO U_i(LO)).

  Sufficient, closed-form, and the convention of the EDF-VD literature.
* ``"exact"`` — bisection on ``x`` against the exact LO-mode demand
  test (:func:`repro.analysis.schedulability.lo_mode_schedulable`);
  returns a (slightly conservative) minimal feasible ``x``.  The
  bisection is written once, as the generator :func:`bisection_steps`,
  which :func:`exact_preparation_factor` and the population lockstep
  (:mod:`repro.analysis.population`) both drive.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.kernels import MEMO, Steps, compile_taskset, drive
from repro.analysis.schedulability import lo_mode_schedulable
from repro.model.task import Criticality, ModelError
from repro.model.taskset import TaskSet
from repro.model.transform import shorten_hi_deadlines
from repro.obs import trace


def density_preparation_factor(taskset: TaskSet) -> Optional[float]:
    """Closed-form minimal ``x`` by the density test (``None`` if infeasible).

    Requires ``sum_LO U_i(LO) < 1``; returns a value clamped into the model
    domain (each HI task still needs ``C(LO) <= x * D(HI)``).
    """
    u_lo_of_lo = taskset.utilization(Criticality.LO, Criticality.LO)
    u_lo_of_hi = taskset.utilization(Criticality.LO, Criticality.HI)
    if u_lo_of_lo + u_lo_of_hi > 1.0 + 1e-12:
        return None
    if not taskset.hi_tasks:
        return 1.0
    headroom = 1.0 - u_lo_of_lo
    if headroom <= 0.0:
        return None
    x = u_lo_of_hi / headroom
    x = max(x, structural_floor(taskset))
    if x > 1.0 + 1e-12:
        return None
    return min(x, 1.0)


def structural_floor(taskset: TaskSet) -> float:
    """Smallest ``x`` the task model itself allows: ``C(LO) <= x * D(HI)``."""
    floors = [t.c_lo / t.d_hi for t in taskset.hi_tasks]
    return max(floors) if floors else 0.0


#: Relative tolerance of the exact-``x`` bisection.
EXACT_X_TOL = 1e-4

#: ``MEMO.lookup`` default: no memoised exact-``x`` result yet.
_UNTUNED = object()


def bisection_steps(
    taskset: TaskSet, *, tol: float = EXACT_X_TOL
) -> Steps[Optional[float]]:
    """The exact-``x`` bisection, as a scan generator.

    Yields ``("probe", x)`` and expects back the LO-mode verdict of
    ``taskset`` with its HI tasks' ``D(LO)`` set by Eq. (13) at ``x``
    (``x = None``: the set as it is, asked once when it has no HI
    tasks).  LO-mode feasibility is monotone non-decreasing in ``x``
    (longer LO deadlines only reduce the demand in every interval), so
    bisection on ``(floor, 1]`` is sound.  Returns the minimal feasible
    ``x`` within ``tol`` (slightly conservative), or ``None`` when even
    ``x = 1`` fails.
    """
    if not taskset.hi_tasks:
        return 1.0 if (yield "probe", None) else None
    hi = 1.0
    if not (yield "probe", hi):
        return None
    lo = max(structural_floor(taskset), 1e-9)
    if (yield "probe", lo):
        return lo
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if (yield "probe", mid):
            hi = mid
        else:
            lo = mid
    return hi


def exact_preparation_factor(
    taskset: TaskSet, *, tol: float = EXACT_X_TOL, engine: str = "compiled"
) -> Optional[float]:
    """Minimal ``x`` under the exact LO-mode demand test, via bisection.

    Drives :func:`bisection_steps` with the per-set LO test.  On the
    compiled engine each probe rescales one column of a shared
    :class:`~repro.analysis.kernels.CompiledTaskSet` instead of
    rebuilding (and re-validating) a task set.
    """
    steps = bisection_steps(taskset, tol=tol)
    if not taskset.hi_tasks:
        return drive(
            steps, {"probe": lambda _: lo_mode_schedulable(taskset, engine=engine)}
        )

    memo_key = None
    if engine == "compiled":
        base = compile_taskset(taskset)
        # The whole bisection is deterministic in (content, tol): sweeps
        # that re-tune the same base set (shrink ladders, sensitivity
        # grids) skip the repeated probe sequence entirely.
        memo_key = ("exact_x", base.memo_token, tol)
        cached = MEMO.lookup(memo_key, _UNTUNED)
        if cached is not _UNTUNED:
            return cached  # an infeasible set's ``None`` included

        def feasible(x: float) -> bool:
            return lo_mode_schedulable(base.with_hi_lo_deadline_factor(x))

    else:

        def feasible(x: float) -> bool:
            return lo_mode_schedulable(shorten_hi_deadlines(taskset, x), engine=engine)

    with trace.span("tuning.bisect", engine=engine, n_tasks=len(taskset)) as sp:

        def probed(x: float) -> bool:
            sp.add("probes")
            return feasible(x)

        result = drive(steps, {"probe": probed})
    if memo_key is not None:
        MEMO.store(memo_key, result)
    return result


def min_preparation_factor(
    taskset: TaskSet,
    *,
    method: str = "density",
    tol: float = EXACT_X_TOL,
    engine: str = "compiled",
) -> Optional[float]:
    """Minimal feasible overrun-preparation factor ``x``.

    Parameters
    ----------
    taskset:
        Base task set (HI tasks with ``D(LO) = D(HI)``; the factor is what
        :func:`repro.model.transform.shorten_hi_deadlines` will apply).
    method:
        ``"density"`` (closed form, Section-VI convention) or ``"exact"``
        (bisection against the demand-bound test).
    tol:
        Relative bisection tolerance for the exact method.
    engine:
        Demand-evaluation engine for the exact method (``"compiled"`` or
        ``"scalar"``, see :mod:`repro.analysis.kernels`); the density
        method is closed-form and ignores it.

    Returns ``None`` when LO mode is infeasible for every ``x <= 1``.
    """
    if method == "density":
        return density_preparation_factor(taskset)
    if method == "exact":
        return exact_preparation_factor(taskset, tol=tol, engine=engine)
    raise ModelError(f"unknown method: {method!r}")
