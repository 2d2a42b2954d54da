"""Demand-bound and arrived-demand-bound functions (Eqs. 4-10).

All functions accept a scalar ``delta`` or a NumPy array of interval
lengths and return the same shape; the heavy sweeps of Section VI rely on
the vectorized path.

Notation (paper Section II/III/IV):

* Eq. (4)  ``DBF_LO(tau, Delta)`` — LO-mode demand bound.
* Eq. (5)  ``w(tau, Delta) = (Delta mod T(HI)) - (D(HI) - D(LO))``.
* Eq. (6)  ``r(tau, Delta, w) = min(w, C(LO)) + C(HI) - C(LO)`` if
  ``w >= 0`` else 0 — the carry-over demand of the job unfinished at the
  mode switch.
* Eq. (7)  ``DBF_HI(tau, Delta) = floor(Delta/T(HI)) * C(HI) + r``.
* Eq. (9)  ``w*(tau, Delta) = (Delta mod T(HI)) - (T(HI) - D(LO))``.
* Eq. (10) ``ADB_HI(tau, Delta) = r(tau, Delta, w*) +
  (floor(Delta/T(HI)) + 1) * C(HI)`` — worst-case demand *arriving* in
  ``[t_switch, t_switch + Delta]`` (Theorem 4, built on Lemma 3).

The extended ``mod`` operator over the reals is
``a mod b = a - floor(a / b) * b`` (paper Section II, "Other notations");
``b = +inf`` yields ``a mod inf = a``.

Floating-point note: quotients are floored with a small relative slack so
that a ``Delta`` generated *at* a breakpoint (``k*T + offset``) lands on
the inclusive side of the jump, matching the right-continuity of the
mathematical definitions.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.model.task import Criticality, MCTask
from repro.model.taskset import TaskSet

ArrayLike = Union[float, np.ndarray]

#: Relative slack used when flooring quotients of breakpoint-aligned floats.
FLOOR_SLACK = 1e-9


def _floor_div(a: ArrayLike, b: float) -> ArrayLike:
    """``floor(a / b)`` with slack so breakpoint-aligned floats round up.

    ``b = +inf`` gives 0 (consistent with the extended mod operator).
    """
    if math.isinf(b):
        return np.zeros_like(np.asarray(a, dtype=float))
    q = np.asarray(a, dtype=float) / b
    return np.floor(q + FLOOR_SLACK * (1.0 + np.abs(q)))


def extended_mod(a: ArrayLike, b: float) -> ArrayLike:
    """The paper's extended ``mod``: ``a mod b = a - floor(a/b) * b``.

    Defined for real ``a`` and positive real or infinite ``b``.
    """
    a_arr = np.asarray(a, dtype=float)
    if math.isinf(b):
        # Defensive copy only when asarray aliased the caller's array;
        # freshly converted scalars/lists are already private.
        return a_arr.copy() if a_arr is a else a_arr
    return a_arr - _floor_div(a_arr, b) * b


def _as_result(value: np.ndarray, template: ArrayLike) -> ArrayLike:
    if np.isscalar(template) or (isinstance(template, np.ndarray) and template.ndim == 0):
        v = np.asarray(value)
        return float(v) if v.ndim == 0 else float(v.reshape(-1)[0])
    return value


# ----------------------------------------------------------------------
# Per-task demand functions
# ----------------------------------------------------------------------
def dbf_lo(task: MCTask, delta: ArrayLike) -> ArrayLike:
    """Eq. (4): LO-mode demand bound of ``task`` in an interval ``delta``."""
    d = np.asarray(delta, dtype=float)
    jobs = np.maximum(_floor_div(d - task.d_lo, task.t_lo) + 1.0, 0.0)
    return _as_result(jobs * task.c_lo, delta)


def carry_over_window(task: MCTask, delta: ArrayLike) -> ArrayLike:
    """Eq. (5): ``w(tau, Delta)`` — slack window of the carry-over job.

    Negative values mean the carry-over job's HI-mode deadline falls
    outside the interval, so it contributes nothing (Eq. 6).
    """
    d = np.asarray(delta, dtype=float)
    gap = task.d_hi - task.d_lo  # +inf for terminated LO tasks
    if math.isinf(gap):
        return _as_result(np.full_like(d, -math.inf), delta)
    return _as_result(extended_mod(d, task.t_hi) - gap, delta)


def carry_over_demand(task: MCTask, w: ArrayLike, slack: ArrayLike = 0.0) -> ArrayLike:
    """Eq. (6): ``r(tau, Delta, w)`` — demand of the carry-over job.

    The ``w >= 0`` test carries a small scale-relative ``slack`` so that a
    ``Delta`` generated exactly at the jump point (``k*T + offset`` in
    floating point) lands on the inclusive, right-continuous side — the
    same convention as :func:`_floor_div`.  Callers that know ``Delta``
    pass ``_w_slack(task, delta)``.
    """
    w_arr = np.asarray(w, dtype=float)
    demand = np.where(
        w_arr >= -np.asarray(slack, dtype=float),
        np.minimum(np.maximum(w_arr, 0.0), task.c_lo) + (task.c_hi - task.c_lo),
        0.0,
    )
    return _as_result(demand, w)


def _w_slack(task: MCTask, delta: ArrayLike) -> ArrayLike:
    """Rounding slack of the window functions at interval length ``delta``.

    The extended-mod slack grows with the quotient ``delta / T``, so the
    inclusive-side tolerance must scale with both the period and ``delta``.
    """
    period = task.t_hi if math.isfinite(task.t_hi) else 0.0
    return FLOOR_SLACK * (1.0 + period + np.abs(np.asarray(delta, dtype=float)))


def dbf_hi(task: MCTask, delta: ArrayLike) -> ArrayLike:
    """Eq. (7) / Lemma 1: HI-mode demand bound of ``task``.

    Covers HI tasks (carry-over with extra ``C(HI) - C(LO)`` execution),
    degraded LO tasks (``C(HI) == C(LO)``) and terminated LO tasks
    (identically zero).
    """
    d = np.asarray(delta, dtype=float)
    if task.terminated_in_hi:
        return _as_result(np.zeros_like(d), delta)
    body = _floor_div(d, task.t_hi) * task.c_hi
    carry = carry_over_demand(task, carry_over_window(task, d), _w_slack(task, d))
    return _as_result(body + np.asarray(carry, dtype=float), delta)


def arrival_window(task: MCTask, delta: ArrayLike) -> ArrayLike:
    """Eq. (9): ``w*(tau, Delta)`` used by the arrived-demand bound."""
    d = np.asarray(delta, dtype=float)
    if math.isinf(task.t_hi):
        return _as_result(np.full_like(d, -math.inf), delta)
    gap = task.t_hi - task.d_lo
    return _as_result(extended_mod(d, task.t_hi) - gap, delta)


def adb_hi(task: MCTask, delta: ArrayLike, *, drop_terminated_carryover: bool = False) -> ArrayLike:
    """Eq. (10) / Theorem 4: worst-case arrived demand after the switch.

    For a terminated LO task (``T(HI) = +inf``) the formula evaluates to a
    single job's ``C`` — the carry-over job pending at the switch.  With
    ``drop_terminated_carryover=True`` that job is assumed to be killed and
    the task contributes nothing (ablation of DESIGN.md Section 5).
    """
    d = np.asarray(delta, dtype=float)
    if task.terminated_in_hi and drop_terminated_carryover:
        return _as_result(np.zeros_like(d), delta)
    body = (_floor_div(d, task.t_hi) + 1.0) * task.c_hi
    carry = carry_over_demand(task, arrival_window(task, d), _w_slack(task, d))
    return _as_result(body + np.asarray(carry, dtype=float), delta)


# ----------------------------------------------------------------------
# Task-set totals (vectorized over both tasks and deltas)
# ----------------------------------------------------------------------
#: Cap on the broadcast matrix size (tasks x deltas) per chunk.
_CHUNK_CELLS = 4_000_000


def _total(taskset: TaskSet, delta: ArrayLike, per_task) -> ArrayLike:
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    if len(taskset) == 0:
        total = np.zeros_like(d)
        return _as_result(total, delta)
    chunk = max(1, _CHUNK_CELLS // max(1, len(taskset)))
    total = np.zeros_like(d)
    for start in range(0, d.size, chunk):
        block = d[start : start + chunk]
        acc = np.zeros_like(block)
        for task in taskset:
            acc += np.asarray(per_task(task, block), dtype=float)
        total[start : start + chunk] = acc
    return _as_result(total, delta)


def total_dbf_lo(taskset: TaskSet, delta: ArrayLike) -> ArrayLike:
    """System LO-mode demand: ``sum_i DBF_LO(tau_i, Delta)``."""
    return _total(taskset, delta, dbf_lo)


def total_dbf_hi(taskset: TaskSet, delta: ArrayLike) -> ArrayLike:
    """System HI-mode demand: ``sum_i DBF_HI(tau_i, Delta)`` (Theorem 2)."""
    return _total(taskset, delta, dbf_hi)


def total_adb_hi(
    taskset: TaskSet, delta: ArrayLike, *, drop_terminated_carryover: bool = False
) -> ArrayLike:
    """System arrived demand after the switch: ``sum_i ADB_HI`` (Eq. 11)."""
    return _total(
        taskset,
        delta,
        lambda task, block: adb_hi(
            task, block, drop_terminated_carryover=drop_terminated_carryover
        ),
    )


# ----------------------------------------------------------------------
# Asymptotics (used for pruning and infinity detection)
# ----------------------------------------------------------------------
def hi_mode_rate(taskset: TaskSet) -> float:
    """Long-run growth rate of both ``DBF_HI`` and ``ADB_HI``:
    ``sum_i C_i(HI)/T_i(HI)`` (terminated tasks contribute zero)."""
    return sum(t.utilization(Criticality.HI) for t in taskset)


def dbf_hi_task_excess(
    c_lo: float, c_hi: float, d_lo: float, d_hi: float, t_hi: float, terminated: bool
) -> float:
    """Tight intercept ``b = sup_Delta (DBF_HI(tau, Delta) - U * Delta)``.

    ``U = C(HI)/T(HI)``; see :func:`dbf_hi_excess_bound` for the
    derivation.  Takes the raw parameters so the scalar oracle and the
    compiled snapshot share this one closed form term by term.
    """
    if terminated:
        return 0.0
    if math.isinf(t_hi):
        return c_hi
    gap = d_hi - d_lo
    u = c_hi / t_hi
    return max(0.0, c_hi - c_lo - u * gap + min(c_lo, t_hi - gap) * (1.0 - u))


def dbf_hi_excess_bound(taskset: TaskSet) -> float:
    """``B`` with ``DBF_HI(Delta) <= rate * Delta + B`` for all ``Delta``.

    ``B = sum_i b_i`` with the tightest per-task intercept
    ``b_i = sup_Delta (DBF_HI(tau_i, Delta) - U_i * Delta)``.  Write
    ``Delta = k*T + phi`` with ``0 <= phi < T``, ``gap = D(HI) - D(LO)``
    and ``U = C(HI)/T``.  Eq. (7) gives ``k*C(HI) + r(phi - gap)`` and
    ``U*Delta = k*C(HI) + U*phi``, so the excess ``r(phi - gap) - U*phi``
    depends on ``phi`` alone:

    * ``phi < gap``: no carry-over, excess ``-U*phi <= 0``;
    * ``phi = gap + w`` with ``0 <= w < T - gap``: excess
      ``min(w, C(LO)) + C(HI) - C(LO) - U*(gap + w)``, which rises with
      slope ``1 - U >= 0`` up to ``w = C(LO)`` and falls after it.

    Hence ``b = max(0, C(HI) - C(LO) - U*gap + min(C(LO), T - gap)*(1 - U))``.
    When ``gap >= T`` the carry-over window never opens and the bracket
    reduces to ``T - gap - C(LO) < 0``, so ``b = 0``.
    An implicit-deadline HI task (``D(HI) = T``, ``D(LO) = x*T``) gets
    ``b = C(HI) * (x - C(LO)/T)``, which is 0 once tuning clamps
    ``D(LO)`` to ``C(LO)``.  A non-terminated task with ``T(HI) = inf``
    has one job: ``U = 0`` and ``b = C(HI)``.  Terminated tasks add 0.
    The terms are summed in task order (the compiled snapshot mirrors
    this loop for bit parity).
    """
    return sum(
        dbf_hi_task_excess(t.c_lo, t.c_hi, t.d_lo, t.d_hi, t.t_hi, t.terminated_in_hi)
        for t in taskset
    )


def adb_hi_excess_bound(taskset: TaskSet, *, drop_terminated_carryover: bool = False) -> float:
    """``B*`` with ``ADB_HI(Delta) <= rate * Delta + B*`` for all ``Delta``.

    Per task, ``(floor(Delta/T)+1) * C + r <= (Delta/T) * C + 2C``; a
    terminated LO task contributes one constant job ``C`` (or nothing when
    the carry-over is dropped).
    """
    total = 0.0
    for t in taskset:
        if t.terminated_in_hi:
            if not drop_terminated_carryover:
                total += t.c_hi
        else:
            total += 2.0 * t.c_hi
    return total
