"""Compiled demand kernels: the struct-of-arrays fast path of the scans.

The Theorem-2 / Theorem-4 analyses evaluate the piecewise-linear demand
functions ``DBF_LO`` (Eq. 4), ``DBF_HI`` (Eq. 7) and ``ADB_HI`` (Eq. 10)
at up to millions of candidate interval lengths.  The reference
implementation in :mod:`repro.analysis.dbf` walks Python ``MCTask``
objects task-by-task: every evaluation of a window with ``m`` candidates
issues ``O(n_tasks)`` separate NumPy calls on length-``m`` arrays, and
every window re-derives per-task breakpoint lattices with per-offset
``np.arange`` loops.  For the synthetic sweeps (thousands of task sets)
and the tuning/sensitivity search loops (dozens of probes per set) that
per-task Python overhead — not the arithmetic — dominates wall-clock.

This module compiles a :class:`~repro.model.taskset.TaskSet` once into a
:class:`CompiledTaskSet`: a struct-of-arrays snapshot (``c_lo``/``c_hi``/
``d_lo``/``d_hi``/``t_lo``/``t_hi`` vectors plus terminated/criticality
masks) with

* fused broadcast kernels :meth:`CompiledTaskSet.total_dbf_lo`,
  :meth:`~CompiledTaskSet.total_dbf_hi` and
  :meth:`~CompiledTaskSet.total_adb_hi` that evaluate all tasks at all
  deltas in one chunked ``(n_tasks, n_deltas)`` matrix expression;
* a vectorized breakpoint generator
  (:meth:`CompiledTaskSet.breakpoints_in`) that materialises the union
  lattice ``{k * T + offset}`` for a window without per-task /
  per-offset Python loops;
* cheap column derivations (:meth:`~CompiledTaskSet.with_hi_lo_deadline_factor`,
  :meth:`~CompiledTaskSet.with_lo_deadline`,
  :meth:`~CompiledTaskSet.with_uniform_scaling`) so the tuning loops and
  the grouped pipeline rescale columns instead of rebuilding,
  re-validating and re-fingerprinting ``MCTask`` objects.

:class:`CompiledPopulation` lays many snapshots out side by side for the
lockstep scans of :mod:`repro.analysis.population`; its LO tables can be
pointed at Eq.-(13) probe factors in place
(:meth:`~CompiledPopulation.probe_lo_deadline_factors`), so the grouped
exact-``x`` bisection runs every probe level on one population.

**Bit-exactness contract.**  Every kernel mirrors the scalar oracle's
elementary floating-point operations — same slacked floor
(:data:`~repro.analysis.dbf.FLOOR_SLACK`), same extended-``mod``
expansion, same task-order summation (``np.add.reduce`` over axis 0 adds
rows sequentially, exactly like the scalar per-task accumulation) — so
the compiled and scalar paths agree to the last bit, not merely within a
tolerance.  ``tests/test_kernels.py`` property-tests this equivalence and
the equality of the full ``min_speedup`` / ``resetting_time`` results.

Compilation is cached *on the task set* keyed by its content fingerprint
(:func:`repro.model.fingerprint.taskset_fingerprint`, the same
canonicalisation the batch pipeline's result cache uses): compiling the
same instance twice is free, and distinct instances with equal content
share one compiled snapshot through a bounded registry.  Derived
snapshots (rescaled columns) do not re-enter the registry; their
fingerprints are computed lazily only when a memo needs them.

:class:`AnalysisMemo` is the small fingerprint-keyed memo the scan entry
points (``min_speedup``, ``resetting_time``, ``lo_mode_schedulable``)
consult on the compiled path, so the sensitivity bisections and the
per-task tuning loop never recompute an analysis for a task-set content
they have already solved.

:data:`PERF` counts kernel invocations, evaluated matrix cells,
materialised breakpoints and kernel seconds; the scan results surface a
per-call snapshot through ``SpeedupResult.perf`` / report diagnostics.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union, cast

import numpy as np

from repro.analysis import points as pts
from repro.analysis.budget import CandidateBudget
from repro.analysis.dbf import (
    FLOOR_SLACK,
    adb_hi_excess_bound,
    dbf_hi_excess_bound,
    dbf_hi_task_excess,
    hi_mode_rate,
    total_adb_hi,
    total_dbf_hi,
    total_dbf_lo,
)
from repro.model.fingerprint import digest_task_rows, taskset_fingerprint
from repro.model.task import Criticality, ModelError
from repro.model.taskset import TaskSet
from repro.obs import trace

ArrayLike = Union[float, np.ndarray]

#: Cap on the broadcast matrix size (tasks x deltas) per kernel chunk.
#: Kept small enough that a chunk's working set (the block matrix plus a
#: handful of same-shape temporaries) stays L2-resident: with float64 and
#: ~8 live temporaries, 16 Ki cells is ~1 MiB.  Chunk boundaries are
#: numerically irrelevant — every column is computed independently — so
#: this differs from the scalar ``dbf._total`` chunking without breaking
#: bit-exactness.
_CHUNK_CELLS = 16_384
# Fused breakpoint generation handles items up to this many lattice
# points; denser windows delegate to the per-set generator (identical
# output, no owner-tagged temporaries).
_FUSE_POINTS = 4_096

# A fused-evaluation chunk window spanning at most this many constant-
# column runs iterates them as (bucket, 1) broadcast views; beyond it
# (many tiny items per window) the window's parameter columns are
# gathered once and evaluated in a single fused call.
_GATHER_RUNS = 4

#: Population bucket sizing: sets with at most this many tasks get an
#: exact-height bucket (zero padding rows — small sets are where padding
#: is proportionally worst and where the figs 6-7 sweeps live), larger
#: sets fall back to power-of-two heights so a ragged population of
#: many distinct large sizes cannot explode the bucket count.
_EXACT_BUCKET_MAX = 16

#: Stripe width of the pruned window-peak evaluation: demand is evaluated
#: at every ``_STRIPE``-th breakpoint first, and the stripes in between
#: are only evaluated when their upper bound can still beat the running
#: best ratio.
_STRIPE = 16

#: Relative safety margin of the stripe bound.  Demand is mathematically
#: nondecreasing in Delta but its float evaluation can violate
#: monotonicity by a few ulps; the guard absorbs that, so pruning never
#: discards a candidate whose float ratio could reach the running best.
_PRUNE_GUARD = 1e-9

#: Attribute under which a compiled snapshot is attached to a TaskSet.
_COMPILED_ATTR = "_repro_compiled"

#: The shared empty breakpoint array (never written to).
_NO_POINTS = np.empty(0)


# ---------------------------------------------------------------------------
# Perf counters
# ---------------------------------------------------------------------------
@dataclass
class KernelCounters:
    """Lightweight running totals of compiled-kernel work.

    Attributes
    ----------
    kernel_evals:
        Fused kernel invocations (one per ``total_*`` call).
    cells:
        ``tasks x deltas`` matrix cells evaluated across all kernels.
    candidates:
        Breakpoints materialised by the vectorized generator.
    pruned:
        Candidates whose demand evaluation the stripe-pruned window peak
        (:meth:`CompiledTaskSet.window_peak`) proved unnecessary.
    kernel_seconds:
        Wall-clock seconds spent inside the kernels and the generator.
    compiles:
        ``CompiledTaskSet`` builds (cache misses + derivations).
    memo_hits / memo_misses:
        :class:`AnalysisMemo` lookups on the compiled scan path.
    population_batches / population_sets:
        population-mode front-end batches (``repro.analysis.population``
        entry points and pipeline grouped chunks) and the total member
        sets they covered (``population_sets / population_batches`` is
        the mean sets-per-batch of the population fast path).
    admission_trials:
        Per-core (core, candidate) admission trials evaluated by the
        multiproc partitioning heuristics (both engines count here; the
        population engine folds many trials into one batch above).
    """

    kernel_evals: int = 0
    cells: int = 0
    candidates: int = 0
    pruned: int = 0
    kernel_seconds: float = 0.0
    compiles: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    population_batches: int = 0
    population_sets: int = 0
    admission_trials: int = 0

    def snapshot(self) -> Dict[str, Any]:
        """The counters as a plain dict (JSON-ready)."""
        return {
            "kernel_evals": self.kernel_evals,
            "cells": self.cells,
            "candidates": self.candidates,
            "pruned": self.pruned,
            "kernel_seconds": self.kernel_seconds,
            "compiles": self.compiles,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "population_batches": self.population_batches,
            "population_sets": self.population_sets,
            "admission_trials": self.admission_trials,
        }

    def reset(self) -> None:
        self.kernel_evals = 0
        self.cells = 0
        self.candidates = 0
        self.pruned = 0
        self.kernel_seconds = 0.0
        self.compiles = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.population_batches = 0
        self.population_sets = 0
        self.admission_trials = 0

    def delta_since(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """Difference between the current totals and a prior snapshot."""
        now = self.snapshot()
        return {key: now[key] - before.get(key, 0) for key in now}


#: Process-wide kernel counters (per-process: pool workers each get one).
PERF = KernelCounters()


def perf_snapshot() -> Dict[str, Any]:
    """Current :data:`PERF` totals (convenience for reports/benchmarks)."""
    return PERF.snapshot()


def perf_reset() -> None:
    """Zero :data:`PERF` (benchmarks call this between timed passes)."""
    PERF.reset()


# ---------------------------------------------------------------------------
# The compiled task set
# ---------------------------------------------------------------------------
class CompiledTaskSet:
    """Struct-of-arrays snapshot of a task set plus fused demand kernels.

    Build via :func:`compile_taskset` (cached), not the constructor.  All
    arrays are float64 in the *original task order* — summation order is
    part of the bit-exactness contract with the scalar oracle.
    """

    __slots__ = (
        "taskset",
        "names",
        "n",
        "c_lo",
        "c_hi",
        "d_lo",
        "d_hi",
        "t_lo",
        "t_hi",
        "is_hi",
        "terminated",
        "hi_inf",
        # (n, 1) kernel columns (full set: LO-mode kernel)
        "_c_lo_col",
        "_d_lo_col",
        "_t_lo_col",
        # active-row (non-terminated) columns for the HI-mode kernels,
        # built lazily on first HI demand evaluation
        "_hi_cols",
        # scalars mirroring the python-sum order of dbf.py / points.py;
        # the HI-mode ones are built on first use (_hi_scalars)
        "_hi",
        "lo_rate",
        "lo_excess",
        "lo_max_period",
        "lo_density",
        "_density",
        "_bp_off",
        "_bp_per",
        "_bp_once",
        "_fingerprint",
        "_memo_token",
    )

    def __init__(self) -> None:  # pragma: no cover - guarded constructor
        raise TypeError("use compile_taskset() to build a CompiledTaskSet")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _from_arrays(
        cls,
        names: Tuple[str, ...],
        is_hi: np.ndarray,
        c_lo: np.ndarray,
        c_hi: np.ndarray,
        d_lo: np.ndarray,
        d_hi: np.ndarray,
        t_lo: np.ndarray,
        t_hi: np.ndarray,
        *,
        taskset: Optional[TaskSet] = None,
        fingerprint: Optional[str] = None,
        hi_inf: Optional[np.ndarray] = None,
        terminated: Optional[np.ndarray] = None,
    ) -> "CompiledTaskSet":
        self = object.__new__(cls)
        self.taskset = taskset
        self.names = names
        self.n = len(names)
        self.c_lo = c_lo
        self.c_hi = c_hi
        self.d_lo = d_lo
        self.d_hi = d_hi
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.is_hi = is_hi
        if hi_inf is None:
            hi_inf = np.isinf(t_hi)
        self.hi_inf = hi_inf
        if terminated is None:
            # Eq. (3): a LO task is terminated when both HI-mode parameters
            # are infinite (MCTask guarantees d_hi finite for HI tasks).
            terminated = (~is_hi) & hi_inf & np.isinf(d_hi)
        self.terminated = terminated

        col = lambda a: a.reshape(-1, 1)  # noqa: E731 - tiny local alias
        self._c_lo_col = col(c_lo)
        self._d_lo_col = col(d_lo)
        self._t_lo_col = col(t_lo)
        # The HI-mode active-subset columns are deferred to first use —
        # LO-only probes (one derived compile per exact-x bisection step)
        # never touch the HI kernels.
        self._hi_cols = None

        self._compile_scalars()
        # Breakpoint tables are built lazily per kind (dbf/adb/lo): a
        # min_speedup probe never pays for the adb lattice and a tuning
        # derivation only rebuilds the kinds its scans actually touch.
        self._bp_off = {}
        self._bp_per = {}
        self._bp_once = {}
        self._density = {}
        self._fingerprint = fingerprint
        self._memo_token = fingerprint
        PERF.compiles += 1
        return self

    @classmethod
    def _from_taskset(cls, taskset: TaskSet, fingerprint: str) -> "CompiledTaskSet":
        names = tuple(t.name for t in taskset)
        mat = np.array(
            [(t.c_lo, t.c_hi, t.d_lo, t.d_hi, t.t_lo, t.t_hi) for t in taskset],
            dtype=float,
        ).reshape(-1, 6)
        cols = np.ascontiguousarray(mat.T, dtype=float)
        return cls._from_arrays(
            names,
            np.array([t.is_hi for t in taskset], dtype=bool),
            cols[0],
            cols[1],
            cols[2],
            cols[3],
            cols[4],
            cols[5],
            taskset=taskset,
            fingerprint=fingerprint,
        )

    def _compile_scalars(self) -> None:
        """LO-mode aggregates in the oracle's summation order.

        These loops intentionally mirror the scalar sums term by term — a
        NumPy reduction would use pairwise summation and could differ in
        the last bit.  The HI-mode aggregates wait for first use
        (:meth:`_hi_scalars`): an exact-``x`` bisection probe derives a
        snapshot per step and only ever runs the LO-mode scan on it.
        """
        c_lo = self.c_lo.tolist()
        d_lo = self.d_lo.tolist()
        t_lo = self.t_lo.tolist()
        lo_rate = 0
        lo_excess = 0
        lo_density = 0.0
        for i in range(self.n):
            u_lo = c_lo[i] / t_lo[i]
            lo_rate = lo_rate + u_lo
            lo_excess = lo_excess + u_lo * max(t_lo[i] - d_lo[i], 0.0)
        self.lo_rate = float(lo_rate)
        self.lo_excess = float(lo_excess)
        self.lo_max_period = max(t_lo) if self.n else 0.0
        for i in range(self.n):
            lo_density += 1.0 / t_lo[i]
        self.lo_density = lo_density
        self._hi: Optional[Tuple[float, float, float, float, float]] = None

    def _hi_scalars(self) -> Tuple[float, float, float, float, float]:
        """``(rate, dbf_excess, adb_excess, adb_excess_drop, max period)``.

        Computed once, from this snapshot's own columns, with the loops
        of :func:`repro.analysis.dbf.hi_mode_rate`,
        :func:`~repro.analysis.dbf.dbf_hi_excess_bound` and
        :func:`~repro.analysis.dbf.adb_hi_excess_bound` in task order.
        """
        if self._hi is not None:
            return self._hi
        c_lo = self.c_lo.tolist()
        c_hi = self.c_hi.tolist()
        d_lo = self.d_lo.tolist()
        d_hi = self.d_hi.tolist()
        t_hi = self.t_hi.tolist()
        terminated = self.terminated.tolist()
        rate = 0
        dbf_excess = 0
        adb_excess = 0.0
        adb_excess_drop = 0.0
        for i in range(self.n):
            period = t_hi[i]
            chi = c_hi[i]
            rate = rate + (0.0 if math.isinf(period) else chi / period)
            dbf_excess = dbf_excess + dbf_hi_task_excess(
                c_lo[i], chi, d_lo[i], d_hi[i], period, terminated[i]
            )
            if terminated[i]:
                adb_excess += chi
            else:
                adb_excess += 2.0 * chi
                adb_excess_drop += 2.0 * chi
        finite = [p for p in t_hi if not math.isinf(p)]
        self._hi = (
            float(rate),
            float(dbf_excess),
            float(adb_excess),
            float(adb_excess_drop),
            max(finite) if finite else 0.0,
        )
        return self._hi

    @property
    def rate(self) -> float:
        """HI-mode demand rate ``sum C(HI)/T(HI)`` (terminated: 0)."""
        return self._hi_scalars()[0]

    @property
    def dbf_excess(self) -> float:
        """Tight DBF_HI envelope intercept ``B`` (Theorem-2 pruning)."""
        return self._hi_scalars()[1]

    def _hi_active_cols(self) -> Dict[str, np.ndarray]:
        """Active-row (non-terminated) HI-kernel columns, built lazily.

        The HI-mode kernels only do arithmetic on the *active*
        (non-terminated) rows.  A terminated task's DBF_HI row is exactly
        +0.0 and its ADB_HI row is exactly C(HI) (a constant), so the
        expensive formula rows are restricted to the active subset and
        the rest is either skipped (+0.0 never changes a non-negative
        running sum bitwise) or filled in by assignment.
        """
        cols = self._hi_cols
        if cols is None:
            act_idx = np.flatnonzero(~self.terminated)
            term_idx = np.flatnonzero(self.terminated)
            sub = lambda a: a[act_idx].reshape(-1, 1)  # noqa: E731
            finite_period = np.where(self.hi_inf, 0.0, self.t_hi)
            cols = {
                "act_idx": act_idx,
                "term_idx": term_idx,
                "c_lo": sub(self.c_lo),
                "c_hi": sub(self.c_hi),
                "chd": sub(self.c_hi - self.c_lo),
                "t_hi": sub(self.t_hi),
                "t_hi_mult": sub(finite_period),
                "gap": sub(self.d_hi - self.d_lo),
                "gap_star": sub(self.t_hi - self.d_lo),
                "one_plus": sub(1.0 + finite_period),
                "term_c_hi": self.c_hi[term_idx].reshape(-1, 1),
            }
            self._hi_cols = cols
        return cols

    def _carry_points(self) -> np.ndarray:
        """``DBF_HI`` points that occur once, not as a lattice.

        The compiled :func:`repro.analysis.points.dbf_hi_carry_points`: a
        non-terminated task with ``T(HI) = inf`` contributes its
        carry-over job's ``gap`` and ``gap + C(LO)``.  A period-lattice
        entry cannot hold them (``0 * inf`` is NaN).
        """
        once = (~self.terminated) & self.hi_inf
        if not once.any():
            return _NO_POINTS
        gap = self.d_hi[once] - self.d_lo[once]
        return np.concatenate((gap, gap + self.c_lo[once]))

    def _ensure_breakpoint_table(self, kind: str) -> None:
        """Flatten each task's in-period offsets into the ``kind`` lattice.

        Offsets are derived with the same float arithmetic as
        :func:`repro.analysis.points.dbf_hi_offsets` /
        :func:`~repro.analysis.points.adb_hi_offsets`, then stored as
        parallel ``(offset, period)`` arrays so a window enumeration is a
        single broadcast instead of a per-task/per-offset loop.  The
        ``dbf`` kind also keeps the points that occur once
        (:meth:`_carry_points`).
        """
        if kind in self._density:
            return
        self._bp_once[kind] = self._carry_points() if kind == "dbf" else _NO_POINTS
        if kind == "lo":
            # DBF_LO breakpoints: each task's deadline lattice k*T(LO)+D(LO).
            self._bp_off[kind] = self.d_lo.copy()
            self._bp_per[kind] = self.t_lo.copy()
            self._density[kind] = self.lo_density
            return
        # Vectorized offset filtering with the oracle's exact semantics:
        # per task keep the distinct offsets in [0, period].  The period
        # itself always qualifies; the gap offsets are masked by the same
        # range test plus exact-equality dedup the scalar set-literal
        # performs.  The (offset, period) pair *order* is irrelevant —
        # `_lattice_points` unions and sorts — but the density must add
        # each task's count/period in original task order, so the final
        # reduction is a sequential Python sum, not a NumPy reduction.
        if kind == "dbf":
            sel = ~(self.terminated | self.hi_inf)
        else:
            sel = ~self.hi_inf
        p = self.t_hi[sel]
        if p.size == 0:
            self._bp_off[kind] = np.empty(0)
            self._bp_per[kind] = np.empty(0)
            self._density[kind] = 0.0
            return
        c_lo = self.c_lo[sel]
        if kind == "dbf":
            gap = self.d_hi[sel] - self.d_lo[sel]
        else:
            gap = p - self.d_lo[sel]
        gap2 = gap + c_lo
        keep_gap = (gap >= 0.0) & (gap <= p) & (gap != p)
        keep_gap2 = (gap2 >= 0.0) & (gap2 <= p) & (gap2 != p) & (gap2 != gap)
        if kind == "dbf":
            counts = keep_gap.astype(np.int64) + keep_gap2 + 1
            pieces_off = [gap[keep_gap], gap2[keep_gap2], p]
            pieces_per = [p[keep_gap], p[keep_gap2], p]
        else:
            # ADB offsets also include 0.0 for every task; dedup the gap
            # offsets against it exactly like the scalar set literal —
            # exact comparison IS the spec here (bit parity with dbf.py).
            keep_gap &= gap != 0.0  # repro-lint: ignore[RL002] exact zero-gap dedup mirrors the scalar oracle's set semantics
            keep_gap2 &= gap2 != 0.0  # repro-lint: ignore[RL002] exact zero-gap dedup mirrors the scalar oracle's set semantics
            counts = keep_gap.astype(np.int64) + keep_gap2 + 2
            zeros = np.zeros_like(p)
            pieces_off = [zeros, gap[keep_gap], gap2[keep_gap2], p]
            pieces_per = [p, p[keep_gap], p[keep_gap2], p]
        self._bp_off[kind] = np.concatenate(pieces_off)
        self._bp_per[kind] = np.concatenate(pieces_per)
        self._density[kind] = float(sum((counts / p).tolist()))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content fingerprint (lazy for derived snapshots).

        Matches :func:`repro.model.fingerprint.taskset_fingerprint` of the
        equivalent ``TaskSet`` exactly — derived snapshots hash the same
        canonical payload built straight from the arrays.
        """
        if self._fingerprint is None:
            order = sorted(range(self.n), key=lambda i: self.names[i])
            hi_crit = Criticality.HI.value
            lo_crit = Criticality.LO.value
            is_hi = self.is_hi.tolist()
            c_lo, c_hi = self.c_lo.tolist(), self.c_hi.tolist()
            d_lo, d_hi = self.d_lo.tolist(), self.d_hi.tolist()
            t_lo, t_hi = self.t_lo.tolist(), self.t_hi.tolist()
            self._fingerprint = digest_task_rows(
                (
                    self.names[i],
                    hi_crit if is_hi[i] else lo_crit,
                    c_lo[i], c_hi[i], d_lo[i], d_hi[i], t_lo[i], t_hi[i],
                )
                for i in order
            )
        return self._fingerprint

    @property
    def memo_token(self) -> Any:
        """Cheap content-identity key for the analysis memo.

        Base compiles use the content fingerprint itself; a derived
        snapshot keys as ``(parent_token, op, params...)``, which
        determines its content just as uniquely (the derivation is a
        deterministic pure function of the parent's content) without
        paying a digest per probe.  Tokens of different shapes never
        collide, so equal tokens always mean equal content — the memo's
        only requirement.  Content-equal snapshots reached by *different*
        derivation routes get distinct tokens, which merely costs a memo
        miss.
        """
        if self._memo_token is None:
            self._memo_token = self.fingerprint
        return self._memo_token

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - trivial
        src = self.taskset.name if self.taskset is not None else "derived"
        return f"CompiledTaskSet({src!r}, n={self.n})"

    # ------------------------------------------------------------------
    # Fused demand kernels
    # ------------------------------------------------------------------
    def _fused_total(
        self, delta: ArrayLike, block_fn: Callable[[np.ndarray], np.ndarray]
    ) -> ArrayLike:
        start = time.perf_counter()
        d = np.atleast_1d(np.asarray(delta, dtype=float))
        total = np.zeros_like(d)
        if self.n:
            chunk = max(1, _CHUNK_CELLS // self.n)
            for lo in range(0, d.size, chunk):
                block = d[lo : lo + chunk]
                if block.size == 1:
                    # np.add.reduce over an (n, 1) matrix falls back to
                    # NumPy's pairwise 1-D sum, which diverges from the
                    # oracle's sequential task-order accumulation once
                    # n >= 8.  Widening to two identical columns keeps the
                    # reduction on the strided row-sequential path.
                    wide = np.add.reduce(
                        block_fn(np.concatenate([block, block])), axis=0
                    )
                    total[lo : lo + 1] = wide[:1]
                else:
                    total[lo : lo + chunk] = np.add.reduce(block_fn(block), axis=0)
            PERF.cells += self.n * d.size
        PERF.kernel_evals += 1
        PERF.kernel_seconds += time.perf_counter() - start
        if np.isscalar(delta) or (isinstance(delta, np.ndarray) and delta.ndim == 0):
            return float(total.reshape(-1)[0])
        return total

    @staticmethod
    def _floor_div_rows(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Row-broadcast ``_floor_div``: slacked floor of ``num / den``.

        ``den`` entries of ``+inf`` yield 0 exactly like the scalar path
        (``q = x / inf = 0`` and ``floor(0 + slack) = 0``).  The in-place
        chaining computes ``floor(q + FLOOR_SLACK * (1.0 + |q|))`` with the
        identical elementary operations, just reusing one buffer.
        """
        q = num / den
        slack = np.abs(q)
        slack += 1.0
        slack *= FLOOR_SLACK
        slack += q
        return np.floor(slack, out=slack)

    @staticmethod
    def _carry_rows(
        block: np.ndarray,
        window: np.ndarray,
        one_plus_col: np.ndarray,
        c_lo_col: np.ndarray,
        chd_col: np.ndarray,
    ) -> np.ndarray:
        """Eq. (6) carry-over demand for a (rows x deltas) window matrix.

        Value-identical to ``carry_over_demand(.., _w_slack(..))``:
        ``where(w >= -FLOOR_SLACK*(1+T+|Delta|), min(max(w,0),C(LO))+CHD, 0)``.
        """
        slack = one_plus_col + np.abs(block)
        slack *= FLOOR_SLACK
        np.negative(slack, out=slack)
        demand = np.maximum(window, 0.0)
        np.minimum(demand, c_lo_col, out=demand)
        demand += chd_col
        return np.where(window >= slack, demand, 0.0)

    def total_dbf_lo(self, delta: ArrayLike) -> ArrayLike:
        """Fused Eq. (4): system LO-mode demand at every ``delta``."""

        def rows(block: np.ndarray) -> np.ndarray:
            jobs = self._floor_div_rows(block - self._d_lo_col, self._t_lo_col)
            jobs += 1.0
            np.maximum(jobs, 0.0, out=jobs)
            jobs *= self._c_lo_col
            return jobs

        return self._fused_total(delta, rows)

    def total_dbf_hi(self, delta: ArrayLike) -> ArrayLike:
        """Fused Eq. (7) / Lemma 1: system HI-mode demand (Theorem 2).

        Only active rows are materialised: a terminated task's row is
        exactly +0.0, and adding +0.0 to a non-negative running sum is a
        bitwise no-op, so skipping those rows keeps the reduction
        bit-identical to the scalar oracle's task-order accumulation.
        """
        hc = self._hi_active_cols()

        def rows(block: np.ndarray) -> np.ndarray:
            k = self._floor_div_rows(block, hc["t_hi"])
            # extended mod: Delta - floor(Delta/T)*T; the multiply uses the
            # zeroed-period column so k*T is 0 (not nan) for T = +inf rows,
            # matching the scalar `a mod inf = a` branch.
            window = block - k * hc["t_hi_mult"]
            window -= hc["gap"]
            carry = self._carry_rows(
                block, window, hc["one_plus"], hc["c_lo"], hc["chd"]
            )
            k *= hc["c_hi"]  # k becomes the body term
            k += carry
            return k

        return self._fused_total(delta, rows)

    def total_adb_hi(
        self, delta: ArrayLike, *, drop_terminated_carryover: bool = False
    ) -> ArrayLike:
        """Fused Eq. (10) / Theorem 4: system arrived demand (Eq. 11).

        Active rows run the full formula; a terminated task's row is the
        constant ``C(HI)`` (``(0+1)*C + 0.0`` carry), filled by assignment
        in original task order so the reduction matches the oracle bit for
        bit.  With ``drop_terminated_carryover`` the terminated rows are
        exactly +0.0 and are skipped outright.
        """
        hc = self._hi_active_cols()
        fill_terminated = (
            not drop_terminated_carryover and hc["term_idx"].size > 0
        )

        def rows(block: np.ndarray) -> np.ndarray:
            k = self._floor_div_rows(block, hc["t_hi"])
            window = block - k * hc["t_hi_mult"]
            window -= hc["gap_star"]
            carry = self._carry_rows(
                block, window, hc["one_plus"], hc["c_lo"], hc["chd"]
            )
            k += 1.0
            k *= hc["c_hi"]  # k becomes the body term
            k += carry
            if not fill_terminated:
                return k
            out = np.empty((self.n, block.size))
            out[hc["act_idx"]] = k
            out[hc["term_idx"]] = hc["term_c_hi"]
            return out

        return self._fused_total(delta, rows)

    def window_peak(
        self, candidates: np.ndarray, best_ratio: float = 0.0
    ) -> Tuple[float, float]:
        """Peak of ``DBF_HI(Delta) / Delta`` over a window's breakpoints.

        Returns ``(ratio, delta)`` for the first candidate attaining the
        maximum ratio *among the candidates whose demand was evaluated*.
        Demand is evaluated at every ``_STRIPE``-th breakpoint first; a
        stripe of in-between candidates is only filled in when its upper
        bound ``DBF_HI(c_right) / Delta_first`` (demand is nondecreasing,
        division is monotone) can still reach ``max(best_ratio,
        coarse peak)`` within the ``_PRUNE_GUARD`` margin.  Every skipped
        candidate therefore has a ratio strictly below both the running
        best and this window's maximum, so the supremum scan's
        ``(best_ratio, best_delta)`` trajectory — including first-argmax
        tie-breaking — is bit-identical to the scalar engine's
        exhaustive evaluation.
        """
        m = candidates.size
        if m < 3 * _STRIPE:
            demand = np.asarray(self.total_dbf_hi(candidates), dtype=float)
            ratios = demand / candidates
            idx = int(np.argmax(ratios))
            return float(ratios[idx]), float(candidates[idx])
        coarse = np.arange(_STRIPE - 1, m, _STRIPE)
        if coarse[-1] != m - 1:
            coarse = np.append(coarse, m - 1)
        d_coarse = np.asarray(self.total_dbf_hi(candidates[coarse]), dtype=float)
        r_coarse = d_coarse / candidates[coarse]
        at_coarse = int(np.argmax(r_coarse))
        coarse_peak = float(r_coarse[at_coarse])
        best_eff = best_ratio if best_ratio > coarse_peak else coarse_peak
        starts = np.empty(coarse.size, dtype=np.int64)
        starts[0] = 0
        starts[1:] = coarse[:-1] + 1
        bounds = d_coarse / candidates[starts]
        live_idx = np.flatnonzero(bounds * (1.0 + _PRUNE_GUARD) >= best_eff)
        if live_idx.size == coarse.size:
            demand = np.asarray(self.total_dbf_hi(candidates), dtype=float)
            ratios = demand / candidates
            idx = int(np.argmax(ratios))
            return float(ratios[idx]), float(candidates[idx])
        segments = [
            np.arange(starts[j], coarse[j], dtype=np.int64) for j in live_idx
        ]
        segments = [seg for seg in segments if seg.size]
        peak = coarse_peak
        peak_index = int(coarse[at_coarse])
        if segments:
            interior = np.concatenate(segments)
            d_interior = np.asarray(
                self.total_dbf_hi(candidates[interior]), dtype=float
            )
            r_interior = d_interior / candidates[interior]
            at = int(np.argmax(r_interior))
            # Exact tie-break: on ratio equality prefer the earlier
            # breakpoint so the pruned scan reports the same critical
            # delta as the scalar oracle's left-to-right argmax.
            if float(r_interior[at]) > peak or (
                float(r_interior[at]) == peak  # repro-lint: ignore[RL002] first-strict-maximum tie-break is exact by spec
                and int(interior[at]) < peak_index
            ):
                peak = float(r_interior[at])
                peak_index = int(interior[at])
            PERF.pruned += int(m - coarse.size - interior.size)
        else:
            PERF.pruned += int(m - coarse.size)
        return peak, float(candidates[peak_index])

    def lo_demand_ok(
        self, candidates: np.ndarray, speed: float, rtol: float
    ) -> bool:
        """``DBF_LO(Delta) <= speed * Delta`` (within ``rtol``) everywhere?

        The boolean analogue of :meth:`window_peak`: demand is evaluated
        at every ``_STRIPE``-th breakpoint first, and a stripe is only
        filled in when the demand at its right coarse point — an upper
        bound for the whole stripe, demand being nondecreasing — can
        still exceed the *smallest* supply threshold in the stripe
        within the ``_PRUNE_GUARD`` margin.  A pruned stripe therefore
        provably contains no violation, and the verdict matches the
        exhaustive scalar evaluation exactly (the verdict is a pure
        existence question, insensitive to which candidate witnesses
        it).
        """
        m = candidates.size
        threshold = lambda c: speed * c * (1.0 + rtol) + rtol  # noqa: E731
        if m < 3 * _STRIPE:
            demand = np.asarray(self.total_dbf_lo(candidates), dtype=float)
            return not bool(np.any(demand > threshold(candidates)))
        coarse = np.arange(_STRIPE - 1, m, _STRIPE)
        if coarse[-1] != m - 1:
            coarse = np.append(coarse, m - 1)
        d_coarse = np.asarray(self.total_dbf_lo(candidates[coarse]), dtype=float)
        if np.any(d_coarse > threshold(candidates[coarse])):
            return False
        starts = np.empty(coarse.size, dtype=np.int64)
        starts[0] = 0
        starts[1:] = coarse[:-1] + 1
        live_idx = np.flatnonzero(
            d_coarse * (1.0 + _PRUNE_GUARD) > threshold(candidates[starts])
        )
        segments = [
            np.arange(starts[j], coarse[j], dtype=np.int64) for j in live_idx
        ]
        segments = [seg for seg in segments if seg.size]
        if not segments:
            PERF.pruned += int(m - coarse.size)
            return True
        interior = np.concatenate(segments)
        d_interior = np.asarray(
            self.total_dbf_lo(candidates[interior]), dtype=float
        )
        PERF.pruned += int(m - coarse.size - interior.size)
        return not bool(np.any(d_interior > threshold(candidates[interior])))

    def dominant_carryover(self, delta: float) -> Tuple[int, float]:
        """Largest per-task carry-over demand at interval ``delta``.

        Returns ``(position, demand)`` where ``position`` indexes the
        HI-task subsequence in original task order (matching
        ``TaskSet.hi_tasks``), or ``(-1, 0.0)`` when no HI task carries
        positive demand.  One vectorized pass over the same Eq. (5)/(6)
        row formulas the demand kernels use, bit-identical to looping
        ``carry_over_window``/``carry_over_demand`` per task — including
        the first-strict-maximum selection order.
        """
        hc = self._hi_active_cols()
        block = np.array([float(delta)], dtype=float)
        k = self._floor_div_rows(block, hc["t_hi"])
        window = block - k * hc["t_hi_mult"]
        window -= hc["gap"]
        carry = self._carry_rows(
            block, window, hc["one_plus"], hc["c_lo"], hc["chd"]
        )
        # HI tasks are never terminated, so they all sit in the active
        # subset, in original task order.
        r = carry[self.is_hi[hc["act_idx"]], 0]
        if r.size == 0:
            return -1, 0.0
        at = int(np.argmax(r))
        best = float(r[at])
        if best <= 0.0:
            return -1, 0.0
        return at, best

    # ------------------------------------------------------------------
    # Scan plumbing (mirrors repro.analysis.points)
    # ------------------------------------------------------------------
    def adb_excess(self, *, drop_terminated_carryover: bool = False) -> float:
        """Eq. (11) envelope offset ``B*`` (both flavours built together)."""
        hi = self._hi_scalars()
        return hi[3] if drop_terminated_carryover else hi[2]

    def candidate_density(self, kind: str = "dbf") -> float:
        """Expected breakpoints per unit of Delta for window sizing."""
        self._ensure_breakpoint_table(kind)
        return self._density[kind]

    def max_finite_period(self) -> float:
        """Largest finite HI-mode period; 0.0 when every task terminated."""
        return self._hi_scalars()[4]

    def initial_window(self) -> float:
        """First search window: two largest HI-mode periods (min 1.0)."""
        period = self._hi_scalars()[4]
        if period <= 0.0:
            return 1.0
        return 2.0 * period

    def clamp_window(
        self, start: float, desired_end: float, *, kind: str = "dbf",
        max_points: int = 200_000,
    ) -> float:
        """Largest window end <= desired_end keeping candidates bounded."""
        self._ensure_breakpoint_table(kind)
        density = self._density[kind]
        if density <= 0.0:
            return desired_end
        limit = start + max_points / density
        return min(desired_end, max(limit, start * 1.0 + 1e-12))

    def breakpoints_in(
        self,
        lo: float,
        hi: float,
        *,
        kind: str = "dbf",
        budget: Optional[CandidateBudget] = None,
    ) -> np.ndarray:
        """Sorted, de-duplicated system breakpoints in ``(lo, hi]``.

        One broadcast materialises every lattice point ``k * T + offset``
        across all (task, offset) pairs at once; the result is bit-equal
        to :func:`repro.analysis.points.breakpoints_in` (``kind`` "dbf" /
        "adb") and :func:`~repro.analysis.points.dbf_lo_breakpoints_in`
        (``kind`` "lo").
        """
        if kind not in ("dbf", "adb", "lo"):
            raise ValueError(f"unknown kind: {kind!r}")
        self._ensure_breakpoint_table(kind)
        start = time.perf_counter()
        off = self._bp_off[kind]
        per = self._bp_per[kind]
        points = _lattice_points(off, per, lo, hi)
        once = self._bp_once[kind]
        if once.size:
            once = once[(once > lo) & (once <= hi)]
            points = np.unique(np.concatenate((points, once)))
        if points.size and kind != "lo":
            # Merge floating-point near-duplicates (relative 1e-12) so the
            # segment logic never sees zero-length segments — identical to
            # the scalar points.breakpoints_in merge.
            keep = np.empty(points.size, dtype=bool)
            keep[0] = True
            keep[1:] = np.diff(points) > 1e-12 * np.maximum(1.0, points[1:])
            points = points[keep]
        PERF.candidates += int(points.size)
        PERF.kernel_seconds += time.perf_counter() - start
        if budget is not None and kind != "lo":
            budget.charge(points.size)
        return points

    # ------------------------------------------------------------------
    # Column derivations (tuning/sensitivity reuse)
    # ------------------------------------------------------------------
    def _derive(
        self, token: Tuple[Any, ...], **overrides: np.ndarray
    ) -> "CompiledTaskSet":
        arrays = {
            "c_lo": self.c_lo, "c_hi": self.c_hi,
            "d_lo": self.d_lo, "d_hi": self.d_hi,
            "t_lo": self.t_lo, "t_hi": self.t_hi,
        }
        arrays.update(overrides)
        derived = CompiledTaskSet._from_arrays(
            self.names, self.is_hi,
            arrays["c_lo"], arrays["c_hi"], arrays["d_lo"],
            arrays["d_hi"], arrays["t_lo"], arrays["t_hi"],
        )
        derived._memo_token = (self.memo_token,) + token
        return derived

    def with_hi_lo_deadline_factor(self, x: float) -> "CompiledTaskSet":
        """Eq. (13) as a column rescale: ``D(LO) = max(x * D(HI), C(LO))``
        for every HI task — the compiled analogue of
        :func:`repro.model.transform.shorten_hi_deadlines` (same clamp,
        same float ops, no ``MCTask`` rebuild/validation per probe).
        """
        if not 0 < x <= 1:
            raise ModelError(f"x must be in (0, 1], got {x}")
        new_d_lo = _eq13_d_lo(x, self.is_hi, self.d_hi, self.c_lo, self.d_lo)
        return self._derive(("xfac", x), d_lo=new_d_lo)

    def with_uniform_scaling(self, x: float, y: float) -> "CompiledTaskSet":
        """Both Section-V knobs as one column derivation: the compiled
        :func:`repro.model.transform.apply_uniform_scaling`.

        Eq. (13) is the :meth:`with_hi_lo_deadline_factor` column; Eq. (14)
        then sets ``D(HI) = y * D(LO)`` and ``T(HI) = y * T(LO)`` for every
        LO task, or ``inf`` for both when ``y = inf`` (termination).  Same
        checks in the same order, same float operations, no ``MCTask``
        rebuild, validation or fingerprint.
        """
        if not 0 < x <= 1:
            raise ModelError(f"x must be in (0, 1], got {x}")
        d_lo = _eq13_d_lo(x, self.is_hi, self.d_hi, self.c_lo, self.d_lo)
        if math.isinf(y):
            d_hi = np.where(self.is_hi, self.d_hi, math.inf)
            t_hi = np.where(self.is_hi, self.t_hi, math.inf)
        else:
            if y < 1:
                raise ModelError(f"y must be >= 1, got {y}")
            d_hi = np.where(self.is_hi, self.d_hi, y * self.d_lo)
            t_hi = np.where(self.is_hi, self.t_hi, y * self.t_lo)
        return self._derive(("uniform", x, y), d_lo=d_lo, d_hi=d_hi, t_hi=t_hi)

    def with_lo_deadline(self, name: str, d_lo: float) -> "CompiledTaskSet":
        """Rescale one HI task's LO-mode deadline (per-task tuning move)."""
        try:
            index = self.names.index(name)
        except ValueError:
            raise KeyError(name) from None
        if not self.is_hi[index]:
            raise ModelError(f"{name}: only HI tasks have tunable LO deadlines")
        new_d_lo = self.d_lo.copy()
        new_d_lo[index] = float(d_lo)
        return self._derive(("dlo", index, float(d_lo)), d_lo=new_d_lo)

    def with_wcet_uncertainty(self, gamma: float) -> "CompiledTaskSet":
        """``C(HI) = gamma * C(LO)`` for HI tasks (sensitivity probes).

        Raises :class:`~repro.model.task.ModelError` when a scaled WCET
        exceeds its HI-mode deadline, mirroring
        :func:`repro.model.transform.scale_wcet_uncertainty`.
        """
        if gamma < 1:
            raise ModelError(f"gamma must be >= 1, got {gamma}")
        new_c_hi = np.where(self.is_hi, gamma * self.c_lo, self.c_hi)
        bad = self.is_hi & (new_c_hi > self.d_hi)
        if np.any(bad):
            name = self.names[int(np.flatnonzero(bad)[0])]
            raise ModelError(f"{name}: C(HI) <= D(HI) required")
        return self._derive(("gamma", gamma), c_hi=new_c_hi)


def _eq13_d_lo(
    x: ArrayLike,
    is_hi: np.ndarray,
    d_hi: np.ndarray,
    c_lo: np.ndarray,
    d_lo: np.ndarray,
) -> np.ndarray:
    """Eq. (13)'s ``D(LO)`` column: ``max(x * D(HI), C(LO))`` on HI rows.

    The clamp and float operations of
    :func:`repro.model.transform.shorten_hi_deadlines`; ``x`` is one
    factor or one per row.
    """
    return np.where(is_hi, np.maximum(x * d_hi, c_lo), d_lo)


def _task_order_sum(values: Sequence[float]) -> float:
    """Left-to-right sum from ``0``: the accumulation order of
    :meth:`CompiledTaskSet._compile_scalars` and the scalar oracle.

    Neither ``sum()`` (compensated for floats from Python 3.12) nor a
    NumPy reduction (pairwise) is guaranteed to match it in the last bit.
    """
    total = 0
    for value in values:
        total = total + value
    return float(total)


def _lattice_points(
    off: np.ndarray, per: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """All points ``k * per[i] + off[i]`` with ``k >= 0`` inside ``(lo, hi]``.

    Vectorized across every (offset, period) pair: the per-pair index
    ranges become one flat ``repeat``/``cumsum`` expansion instead of a
    Python loop of ``np.arange`` calls.  Sorted and de-duplicated.
    """
    if off.size == 0:
        return np.empty(0)
    k_min = np.maximum(0.0, np.floor((lo - off) / per))
    k_max = np.floor((hi - off) / per + 1e-12)
    counts = (k_max - k_min + 1.0).astype(np.int64)
    np.maximum(counts, 0, out=counts)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0)
    pair = np.repeat(np.arange(off.size), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(starts, counts)
    points = (k_min[pair] + within) * per[pair] + off[pair]
    points = points[(points > lo) & (points <= hi)]
    if points.size == 0:
        return np.empty(0)
    return np.unique(points)


# ---------------------------------------------------------------------------
# Compile cache
# ---------------------------------------------------------------------------
class _BoundedRegistry:
    """Tiny LRU map (fingerprint -> compiled snapshot / memoised result)."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any) -> Optional[Any]:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


#: Shared compiled snapshots keyed by content fingerprint: distinct
#: TaskSet instances with equal content compile once.
_COMPILED_REGISTRY = _BoundedRegistry(maxsize=512)


def compile_taskset(taskset: Union[TaskSet, CompiledTaskSet]) -> CompiledTaskSet:
    """Compile ``taskset`` to its struct-of-arrays form (cached).

    The snapshot is cached on the instance under a private attribute and
    in a bounded registry keyed by the set's content fingerprint, so the
    cost is paid once per distinct task-set content.  ``TaskSet`` is
    immutable by convention (every transform returns a new set); code
    that mutates one in place must not reuse it across analyses.
    """
    if isinstance(taskset, CompiledTaskSet):
        return taskset
    compiled = getattr(taskset, _COMPILED_ATTR, None)
    if compiled is not None:
        return compiled
    fingerprint = taskset_fingerprint(taskset)
    compiled = _COMPILED_REGISTRY.get(fingerprint)
    if compiled is None:
        with trace.span("kernels.compile", n_tasks=len(taskset)):
            compiled = CompiledTaskSet._from_taskset(taskset, fingerprint)
        _COMPILED_REGISTRY.put(fingerprint, compiled)
    try:
        setattr(taskset, _COMPILED_ATTR, compiled)
    except (AttributeError, TypeError):  # pragma: no cover - exotic subclasses
        pass
    return compiled


def compile_tasksets(
    tasksets: Sequence[Union[TaskSet, CompiledTaskSet]],
) -> List[CompiledTaskSet]:
    """Compile many task sets in one pass (cached like :func:`compile_taskset`).

    Returns the same snapshots ``[compile_taskset(ts) for ts in tasksets]``
    would — same instance-attribute and registry caching — but cold
    misses share one extraction pass: each task's parameters are read
    once (feeding both the content digest and the parameter matrix), all
    missed sets' rows go through a *single* ``np.array`` call, and every
    snapshot's parameter columns are views into the shared matrix.
    Population-scale front-ends compile hundreds of small sets per call,
    where the per-set ``np.array``/attribute-access overhead dominates
    the compile cost.
    """
    out: List[Optional[CompiledTaskSet]] = [None] * len(tasksets)
    miss: List[Tuple[int, Any, str, List[Tuple[Any, ...]]]] = []
    dupes: List[Tuple[int, Any, str]] = []
    pending: set = set()
    for pos, ts in enumerate(tasksets):
        if isinstance(ts, CompiledTaskSet):
            out[pos] = ts
            continue
        cached = getattr(ts, _COMPILED_ATTR, None)
        if cached is not None:
            out[pos] = cached
            continue
        rows = [
            (t.name, t.crit.value, t.c_lo, t.c_hi, t.d_lo, t.d_hi, t.t_lo, t.t_hi)
            for t in ts
        ]
        fingerprint = digest_task_rows(sorted(rows, key=lambda row: row[0]))
        cached = _COMPILED_REGISTRY.get(fingerprint)
        if cached is not None or fingerprint in pending:
            dupes.append((pos, ts, fingerprint))
            continue
        pending.add(fingerprint)
        miss.append((pos, ts, fingerprint, rows))
    if miss:
        total = sum(len(rows) for _, _, _, rows in miss)
        with trace.span("kernels.compile_batch", n_sets=len(miss)):
            big = np.array(
                [row[2:] for _, _, _, rows in miss for row in rows],
                dtype=float,
            ).reshape(-1, 6)
            cols = np.ascontiguousarray(big.T, dtype=float)
            hi_flags = np.fromiter(
                (row[1] == "HI" for _, _, _, rows in miss for row in rows),
                dtype=bool,
                count=total,
            )
            hi_inf_all = np.isinf(cols[5])
            terminated_all = (~hi_flags) & hi_inf_all & np.isinf(cols[3])
            offset = 0
            for pos, ts, fingerprint, rows in miss:
                n = len(rows)
                sl = slice(offset, offset + n)
                compiled = CompiledTaskSet._from_arrays(
                    tuple(row[0] for row in rows),
                    hi_flags[sl],
                    cols[0, sl],
                    cols[1, sl],
                    cols[2, sl],
                    cols[3, sl],
                    cols[4, sl],
                    cols[5, sl],
                    taskset=ts,
                    fingerprint=fingerprint,
                    hi_inf=hi_inf_all[sl],
                    terminated=terminated_all[sl],
                )
                _COMPILED_REGISTRY.put(fingerprint, compiled)
                try:
                    setattr(ts, _COMPILED_ATTR, compiled)
                except (AttributeError, TypeError):  # pragma: no cover
                    pass
                out[pos] = compiled
                offset += n
    for pos, ts, fingerprint in dupes:
        compiled = _COMPILED_REGISTRY.get(fingerprint)
        assert compiled is not None
        try:
            setattr(ts, _COMPILED_ATTR, compiled)
        except (AttributeError, TypeError):  # pragma: no cover
            pass
        out[pos] = compiled
    return cast(List[CompiledTaskSet], out)


def adopt_compiled(taskset: TaskSet, compiled: CompiledTaskSet) -> TaskSet:
    """Attach a derived snapshot to the ``TaskSet`` it is known to match.

    The tuning loops derive a rescaled snapshot (one column changed) and
    build the matching ``TaskSet`` separately; adopting the snapshot lets
    the next ``compile_taskset`` call skip recompiling.  The caller
    guarantees the contents agree — this is not validated.
    """
    setattr(taskset, _COMPILED_ATTR, compiled)
    return taskset


def clear_compile_cache() -> None:
    """Drop the shared compiled-snapshot registry (tests/benchmarks)."""
    _COMPILED_REGISTRY.clear()


# ---------------------------------------------------------------------------
# Population batching: one SoA layout over many task sets
# ---------------------------------------------------------------------------
class CompiledPopulation:
    """Ragged/padded struct-of-arrays layout over many compiled task sets.

    Members are grouped into height *buckets*: a set with
    ``n <= _EXACT_BUCKET_MAX`` tasks gets an exact-height bucket
    (``P = n``, no padding), larger sets land in power-of-two buckets
    (``P = 2^ceil(log2 n)``) so ragged large populations cannot explode
    the bucket count.
    Each bucket lazily materialises per-parameter ``(P, sets)`` matrices
    with the member's full task rows (original order, terminated rows
    included) in the top ``n`` rows and *neutral padding* below.  A fused
    kernel call gathers the parameter columns for a batch of
    ``(member, delta)`` pairs — possibly hundreds of sets — and runs the
    same elementary row formulas as :class:`CompiledTaskSet` on one
    ``(P, deltas)`` block per chunk, so per-call dispatch overhead is
    paid once per *population*, not once per set.

    **Bit-exactness.**  Padding rows are constructed so every kernel row
    formula yields exactly ``+0.0`` for them (``DBF_LO``: ``c_lo=0``;
    ``DBF_HI``/``ADB_HI``: ``c_hi=0`` body with a ``-inf`` carry window),
    and a terminated task's *own* row flows through the same formulas to
    exactly ``+0.0`` (``DBF_HI``) / its constant ``C(HI)`` (``ADB_HI``) —
    the same values the per-set kernels skip or fill in.  Adding ``+0.0``
    to a non-negative running sum is a bitwise no-op, so the column
    reduction over ``P`` rows is bit-identical to the per-set reduction
    over ``n`` rows, which is itself bit-identical to the scalar oracle.

    **Probes.**  :meth:`probe_lo_deadline_factors` rewrites members'
    ``D(LO)`` rows in the LO-kind tables to Eq.-(13) probe values — the
    exact-``x`` bisection's probe levels — without touching a member;
    per-set fallbacks then evaluate :meth:`snapshot`, the probe snapshot
    derived on demand.

    Build via :func:`compile_population`, not the constructor.
    """

    __slots__ = (
        "members",
        "size",
        "_bucket_of",
        "_slot_of",
        "_bucket_members",
        "_lo_mats",
        "_hi_mats",
        "_bp_cats",
        "_eval_stacks",
        # member index -> Eq.-(13) factor its LO tables hold, and the
        # probe snapshots derived so far (probe_lo_deadline_factors)
        "_lo_probes",
        "_lo_derived",
    )

    def __init__(self) -> None:  # pragma: no cover - guarded constructor
        raise TypeError("use compile_population() to build a CompiledPopulation")

    @classmethod
    def _from_members(
        cls, members: Tuple[CompiledTaskSet, ...]
    ) -> "CompiledPopulation":
        self = object.__new__(cls)
        self.members = members
        self.size = len(members)
        bucket_of: List[int] = []
        slot_of: List[int] = []
        bucket_members: Dict[int, List[int]] = {}
        for index, member in enumerate(members):
            if member.n <= _EXACT_BUCKET_MAX:
                height = member.n if member.n > 1 else 1
            else:
                height = 1 << (member.n - 1).bit_length()
            slots = bucket_members.setdefault(height, [])
            bucket_of.append(height)
            slot_of.append(len(slots))
            slots.append(index)
        self._bucket_of = bucket_of
        self._slot_of = slot_of
        self._bucket_members = bucket_members
        # Parameter matrices are built lazily per (bucket, kind): a pure
        # min_speedup batch never pays for the LO or ADB layouts.
        self._lo_mats = {}
        self._hi_mats = {}
        self._bp_cats = {}
        self._eval_stacks = {}
        self._lo_probes = {}
        self._lo_derived = {}
        return self

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CompiledPopulation(sets={self.size})"

    # ------------------------------------------------------------------
    # Lazy padded parameter matrices
    # ------------------------------------------------------------------
    def _lo_bundle(self, bucket: int) -> Dict[str, np.ndarray]:
        """``(P, sets)`` DBF_LO parameters; padding rows evaluate to +0.0
        (``c_lo = 0`` zeroes the row; ``t_lo = inf`` keeps the floor at 0).

        The three matrices are row blocks of one ``(3P, sets)`` matrix,
        which doubles as the bucket's stacked ``"lo"`` evaluation matrix
        (:meth:`_eval_bucket`), so a probe write
        (:meth:`probe_lo_deadline_factors`) reaches both at once.
        """
        mats = self._lo_mats.get(bucket)
        if mats is not None:
            return mats
        mems = [self.members[index] for index in self._bucket_members[bucket]]
        stack = np.empty((3 * bucket, len(mems)))
        mats = {
            "d_lo": stack[:bucket],
            "t_lo": stack[bucket : 2 * bucket],
            "c_lo": stack[2 * bucket :],
        }
        if all(member.n == bucket for member in mems):
            # Exact-height bucket: no padding rows, so each block is one
            # concatenate + one strided transpose-fill instead of a
            # per-slot assignment loop.
            for name, block in mats.items():
                block.T[:] = np.concatenate(
                    [getattr(m, name) for m in mems]
                ).reshape(len(mems), bucket)
        else:
            mats["d_lo"][:] = 0.0
            mats["t_lo"][:] = np.inf
            mats["c_lo"][:] = 0.0
            for slot, member in enumerate(mems):
                for name, block in mats.items():
                    block[: member.n, slot] = getattr(member, name)
        self._lo_mats[bucket] = mats
        self._eval_stacks[("lo", bucket, False)] = stack
        return mats

    @staticmethod
    def _stacked_columns(bucket: int, n_sets: int) -> Callable[[np.ndarray], np.ndarray]:
        """``(bucket * n_sets,)`` member-major flat -> C-ordered ``(bucket, n_sets)``.

        The strided transpose-fill keeps the result C-contiguous (the
        reduction-order contract of the fused kernels) while filling a
        whole bucket in one assignment.
        """

        def stack(flat: np.ndarray) -> np.ndarray:
            mat = np.empty((bucket, n_sets))
            mat.T[:] = flat.reshape(n_sets, bucket)
            return mat

        return stack

    def _hi_bundle(self, bucket: int) -> Dict[str, np.ndarray]:
        """``(P, sets)`` DBF_HI/ADB_HI parameters over *full* task rows.

        Terminated rows keep their real parameters: ``t_hi = inf`` sends
        the job count to 0 and ``gap = d_hi - d_lo = inf`` (resp.
        ``gap_star = t_hi - d_lo = inf``) sends the carry window to
        ``-inf``, so the row formula itself produces the +0.0 (DBF_HI) /
        ``(0 + 1) * C(HI)`` (ADB_HI) values the per-set kernels special-
        case.  ``c_hi_drop`` zeroes terminated rows for the
        ``drop_terminated_carryover`` flavour.  Padding rows zero the
        ``c_hi``/``c_lo``/``chd`` columns, so they evaluate to +0.0 under
        every flavour.
        """
        mats = self._hi_mats.get(bucket)
        if mats is not None:
            return mats
        indices = self._bucket_members[bucket]
        mems = [self.members[index] for index in indices]
        if all(member.n == bucket for member in mems):
            # Exact-height bucket: derive every parameter on the members'
            # concatenated rows (same elementwise ops as the per-member
            # columns) and fill each matrix in one strided assignment.
            stack = self._stacked_columns(bucket, len(mems))
            cat = np.concatenate
            t_hi_cat = cat([m.t_hi for m in mems])
            c_lo_cat = cat([m.c_lo for m in mems])
            c_hi_cat = cat([m.c_hi for m in mems])
            d_lo_cat = cat([m.d_lo for m in mems])
            finite = np.where(cat([m.hi_inf for m in mems]), 0.0, t_hi_cat)
            mats = {
                "t_hi": stack(t_hi_cat),
                "t_hi_mult": stack(finite),
                "gap": stack(cat([m.d_hi for m in mems]) - d_lo_cat),
                "gap_star": stack(t_hi_cat - d_lo_cat),
                "one_plus": stack(1.0 + finite),
                "c_lo": stack(c_lo_cat),
                "chd": stack(c_hi_cat - c_lo_cat),
                "c_hi": stack(c_hi_cat),
                "c_hi_drop": stack(
                    np.where(cat([m.terminated for m in mems]), 0.0, c_hi_cat)
                ),
            }
            self._hi_mats[bucket] = mats
            return mats
        shape = (bucket, len(indices))
        t_hi = np.full(shape, np.inf, dtype=float)
        t_hi_mult = np.zeros(shape)
        gap = np.full(shape, np.inf, dtype=float)
        gap_star = np.full(shape, np.inf, dtype=float)
        one_plus = np.ones(shape)
        c_lo = np.zeros(shape)
        chd = np.zeros(shape)
        c_hi = np.zeros(shape)
        c_hi_drop = np.zeros(shape)
        for slot, index in enumerate(indices):
            member = self.members[index]
            n = member.n
            finite_period = np.where(member.hi_inf, 0.0, member.t_hi)
            t_hi[:n, slot] = member.t_hi
            t_hi_mult[:n, slot] = finite_period
            gap[:n, slot] = member.d_hi - member.d_lo
            gap_star[:n, slot] = member.t_hi - member.d_lo
            one_plus[:n, slot] = 1.0 + finite_period
            c_lo[:n, slot] = member.c_lo
            chd[:n, slot] = member.c_hi - member.c_lo
            c_hi[:n, slot] = member.c_hi
            c_hi_drop[:n, slot] = np.where(member.terminated, 0.0, member.c_hi)
        mats = {
            "t_hi": t_hi,
            "t_hi_mult": t_hi_mult,
            "gap": gap,
            "gap_star": gap_star,
            "one_plus": one_plus,
            "c_lo": c_lo,
            "chd": chd,
            "c_hi": c_hi,
            "c_hi_drop": c_hi_drop,
        }
        self._hi_mats[bucket] = mats
        return mats

    # ------------------------------------------------------------------
    # Batched member preparation
    # ------------------------------------------------------------------
    def prepare_tables(self, kind: str) -> None:
        """Batch-build every member's ``kind`` breakpoint table.

        Value-identical to each member's lazy
        ``_ensure_breakpoint_table`` — the same elementary float ops run
        on the members' concatenated parameter arrays, and each member's
        stored ``(offset, period)`` pairs come out in the same order —
        but one vectorized pass replaces hundreds of tiny per-member
        array constructions.  Members that already built the table keep
        it untouched; lockstep scans call this up front so the per-round
        ``clamp_window``/``breakpoints_in`` calls never build lazily.
        """
        if kind not in ("dbf", "adb", "lo"):
            raise ValueError(f"unknown kind: {kind!r}")
        pending = [m for m in self.members if kind not in m._density]
        if not pending:
            return
        if kind == "lo":
            # The LO lattice is two copies and a cached density — nothing
            # to batch.
            for member in pending:
                member._ensure_breakpoint_table(kind)
            return
        cat = np.concatenate
        counts_n = np.fromiter(
            (m.n for m in pending), dtype=np.int64, count=len(pending)
        )
        owner = np.repeat(np.arange(len(pending)), counts_n)
        t_hi = cat([m.t_hi for m in pending])
        hi_inf = cat([m.hi_inf for m in pending])
        # Members owning a non-terminated T(HI) = inf row keep DBF_HI
        # points that occur once (see CompiledTaskSet._carry_points).
        carry: set[int] = set()
        if kind == "dbf":
            terminated = cat([m.terminated for m in pending])
            sel = ~(terminated | hi_inf)
            carry = set(owner[~terminated & hi_inf].tolist())
        else:
            sel = ~hi_inf
        p = t_hi[sel]
        owner_sel = owner[sel]
        c_lo = cat([m.c_lo for m in pending])[sel]
        d_lo = cat([m.d_lo for m in pending])[sel]
        if kind == "dbf":
            gap = cat([m.d_hi for m in pending])[sel] - d_lo
        else:
            gap = p - d_lo
        gap2 = gap + c_lo
        keep_gap = (gap >= 0.0) & (gap <= p) & (gap != p)
        keep_gap2 = (gap2 >= 0.0) & (gap2 <= p) & (gap2 != p) & (gap2 != gap)
        if kind == "dbf":
            counts = keep_gap.astype(np.int64) + keep_gap2 + 1
            off_all = cat((gap[keep_gap], gap2[keep_gap2], p))
            per_all = cat((p[keep_gap], p[keep_gap2], p))
            own_all = cat(
                (owner_sel[keep_gap], owner_sel[keep_gap2], owner_sel)
            )
        else:
            keep_gap &= gap != 0.0  # repro-lint: ignore[RL002] exact zero-gap dedup mirrors the scalar oracle's set semantics
            keep_gap2 &= gap2 != 0.0  # repro-lint: ignore[RL002] exact zero-gap dedup mirrors the scalar oracle's set semantics
            counts = keep_gap.astype(np.int64) + keep_gap2 + 2
            off_all = cat((np.zeros_like(p), gap[keep_gap], gap2[keep_gap2], p))
            per_all = cat((p, p[keep_gap], p[keep_gap2], p))
            own_all = cat(
                (owner_sel, owner_sel[keep_gap], owner_sel[keep_gap2], owner_sel)
            )
        # A stable sort by owner groups the global pieces per member while
        # preserving the per-member piece order of the lazy build.
        order = np.argsort(own_all, kind="stable")
        off_all = off_all[order]
        per_all = per_all[order]
        bounds = np.searchsorted(
            own_all[order], np.arange(len(pending) + 1)
        )
        terms = counts / p
        term_bounds = np.searchsorted(owner_sel, np.arange(len(pending) + 1))
        for i, member in enumerate(pending):
            member._bp_once[kind] = (
                member._carry_points() if i in carry else _NO_POINTS
            )
            member._bp_off[kind] = off_all[bounds[i] : bounds[i + 1]]
            member._bp_per[kind] = per_all[bounds[i] : bounds[i + 1]]
            member._density[kind] = float(
                sum(terms[term_bounds[i] : term_bounds[i + 1]].tolist())
            )

    # ------------------------------------------------------------------
    # Eq.-(13) probes in place (the exact-x bisection)
    # ------------------------------------------------------------------
    def probe_lo_deadline_factors(
        self, indices: Sequence[int], xs: Sequence[float]
    ) -> List[Tuple[np.ndarray, float]]:
        """Point members' LO-kind tables at Eq.-(13) probe factors.

        Member ``indices[k]``'s ``D(LO)`` column becomes the one
        ``members[indices[k]].with_hi_lo_deadline_factor(xs[k])`` holds —
        the same elementwise operations, run on the members' concatenated
        real rows — in the ``"lo"`` parameter matrices (and with them the
        stacked ``"lo"`` evaluation matrix) and in the ``"lo"`` breakpoint
        table.  Only this population's own tables are written, never a
        member: per-set fallbacks go through :meth:`snapshot`, which
        derives the probe snapshot on first use.  The HI-kind tables keep
        the members' columns, so a probed population serves LO demand
        only (:meth:`eval_many` and :meth:`breakpoints_many` refuse the
        HI kinds).

        Returns each probed member's ``D(LO)`` row and its ``lo_excess``,
        the only LO-mode aggregates that depend on ``x``, summed in task
        order like :meth:`CompiledTaskSet._compile_scalars`.
        """
        for x in xs:
            if not 0 < x <= 1:
                raise ModelError(f"x must be in (0, 1], got {x}")
        if not indices:
            return []
        mems = [self.members[index] for index in indices]
        sizes = np.fromiter((m.n for m in mems), dtype=np.int64, count=len(mems))
        cat = np.concatenate
        c_lo = cat([m.c_lo for m in mems])
        t_lo = cat([m.t_lo for m in mems])
        d_lo = _eq13_d_lo(
            np.repeat(np.asarray(xs, dtype=float), sizes),
            cat([m.is_hi for m in mems]),
            cat([m.d_hi for m in mems]),
            c_lo,
            cat([m.d_lo for m in mems]),
        )
        # A member's rows sit at ``starts[member] + within`` in the
        # breakpoint table and at ``(within, slot)`` in its bucket.
        within = np.arange(d_lo.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        starts, offsets, _, _ = self._bp_cat("lo")
        first = starts[np.asarray(indices, dtype=np.int64)]
        offsets[np.repeat(first, sizes) + within] = d_lo
        member_bucket = [self._bucket_of[index] for index in indices]
        row_bucket = np.repeat(member_bucket, sizes)
        row_slot = np.repeat([self._slot_of[index] for index in indices], sizes)
        for bucket in dict.fromkeys(member_bucket):
            sel = row_bucket == bucket
            self._lo_bundle(bucket)["d_lo"][within[sel], row_slot[sel]] = d_lo[sel]
        self._lo_probes.update(zip(indices, xs))
        if self._lo_derived:
            for index in indices:
                self._lo_derived.pop(index, None)
        # Excess terms on the real rows only: a padding row's
        # ``0 * max(inf - 0, 0)`` would be NaN.
        terms = (c_lo / t_lo * np.maximum(t_lo - d_lo, 0.0)).tolist()
        bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
        return [
            (d_lo[lo:hi], _task_order_sum(terms[lo:hi]))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def snapshot(self, index: int) -> CompiledTaskSet:
        """The snapshot whose columns this population holds for member ``index``.

        The member itself, or — after :meth:`probe_lo_deadline_factors` —
        its probe snapshot, derived with
        :meth:`CompiledTaskSet.with_hi_lo_deadline_factor` on first use:
        only members whose work leaves the fused path pay for one.
        """
        x = self._lo_probes.get(index)
        if x is None:
            return self.members[index]
        derived = self._lo_derived.get(index)
        if derived is None:
            derived = self.members[index].with_hi_lo_deadline_factor(x)
            self._lo_derived[index] = derived
        return derived

    def _check_kind(self, kind: str) -> None:
        if kind not in ("dbf", "adb", "lo"):
            raise ValueError(f"unknown kind: {kind!r}")
        if kind != "lo" and self._lo_probes:
            raise ValueError(
                f"{kind!r} demand on a population probed at LO deadline factors"
            )

    # ------------------------------------------------------------------
    # Fused multi-set demand kernels
    # ------------------------------------------------------------------
    def fuses(self, member_index: int, n_points: int) -> bool:
        """Would :meth:`eval_many` fuse an ``n_points``-delta item?

        ``False`` means the item alone fills a whole evaluation chunk and
        eval_many would delegate it to the member's per-set kernel.
        Lockstep scans use this to route such items through the member's
        *pruned* evaluators (``window_peak``/``lo_demand_ok``) instead —
        same verdicts and trajectories, with stripe pruning intact.
        """
        return n_points * self._bucket_of[member_index] < _CHUNK_CELLS

    def eval_many(
        self,
        kind: str,
        items: "Sequence[Tuple[int, np.ndarray]]",
        *,
        drop_terminated_carryover: bool = False,
    ) -> List[np.ndarray]:
        """Fused demand evaluation across member sets.

        ``items`` is a sequence of ``(member_index, deltas)`` pairs;
        returns the per-item demand arrays (``total_dbf_lo`` for kind
        ``"lo"``, ``total_dbf_hi`` for ``"dbf"``, ``total_adb_hi`` for
        ``"adb"``), each bit-identical to the member's own kernel call.
        One fused ``(P, deltas)`` chunked pass runs per bucket, so the
        call count scales with buckets, not sets.

        Items whose delta array alone fills a whole evaluation chunk
        gain nothing from fusion (there is no call overhead left to
        amortize) and would pay for the bucket padding rows — they are
        delegated to the member's own per-set kernel (its probe
        snapshot's, :meth:`snapshot`), which returns bit-identical
        demand by the kernel contract.
        """
        self._check_kind(kind)
        results: List[np.ndarray] = [np.empty(0)] * len(items)
        by_bucket: Dict[int, List[int]] = {}
        arrays: List[np.ndarray] = []
        for pos, (member_index, deltas) in enumerate(items):
            d = np.atleast_1d(np.asarray(deltas, dtype=float))
            arrays.append(d)
            if not d.size:
                continue
            bucket = self._bucket_of[member_index]
            if d.size * bucket >= _CHUNK_CELLS:
                member = self.snapshot(member_index)
                if kind == "lo":
                    out = member.total_dbf_lo(d)
                elif kind == "dbf":
                    out = member.total_dbf_hi(d)
                else:
                    out = member.total_adb_hi(
                        d, drop_terminated_carryover=drop_terminated_carryover
                    )
                results[pos] = np.asarray(out, dtype=float)
                continue
            by_bucket.setdefault(bucket, []).append(pos)
        start = time.perf_counter()
        for bucket, positions in by_bucket.items():
            deltas_cat = np.concatenate([arrays[p] for p in positions])
            cols = np.repeat(
                np.fromiter(
                    (self._slot_of[items[p][0]] for p in positions),
                    dtype=np.intp,
                    count=len(positions),
                ),
                np.fromiter(
                    (arrays[p].size for p in positions),
                    dtype=np.int64,
                    count=len(positions),
                ),
            )
            totals = self._eval_bucket(
                kind, bucket, deltas_cat, cols,
                drop_terminated_carryover=drop_terminated_carryover,
            )
            offset = 0
            for p in positions:
                size = arrays[p].size
                results[p] = totals[offset : offset + size]
                offset += size
        PERF.kernel_seconds += time.perf_counter() - start
        return results

    def _eval_bucket(
        self,
        kind: str,
        bucket: int,
        deltas: np.ndarray,
        cols: np.ndarray,
        *,
        drop_terminated_carryover: bool,
    ) -> np.ndarray:
        # ``cols`` is piecewise-constant by construction (``eval_many``
        # concatenates whole per-item delta arrays).  Chunk windows that
        # span few constant-column runs (large items) broadcast
        # ``(bucket, 1)`` parameter column views against each run's delta
        # block; windows spanning many runs (many small items) gather the
        # window's columns of *all* parameter matrices in one ``np.take``
        # over a vertically stacked matrix, then evaluate the whole
        # window in a single fused call over the row-slice views.  Both
        # run the same elementary float ops as the per-set kernels:
        # ``np.take`` writes a fresh C-ordered gather (a ``mat[:, sel]``
        # fancy index would come back F-ordered), its row slices are
        # C-contiguous views, and ufunc results are fresh C-contiguous
        # arrays — keeping ``np.add.reduce(axis=0)`` on the sequential
        # row-order path the bit-exactness contract requires.  Each
        # output column's sum is independent of its neighbours, so the
        # window partition never matters.
        if kind == "lo":
            lo_mats = self._lo_bundle(bucket)
            parts = (lo_mats["d_lo"], lo_mats["t_lo"], lo_mats["c_lo"])

            def rows(block: np.ndarray, param: Any) -> np.ndarray:
                jobs = CompiledTaskSet._floor_div_rows(
                    block - param(0), param(1)
                )
                jobs += 1.0
                np.maximum(jobs, 0.0, out=jobs)
                jobs *= param(2)
                return jobs

        else:
            hi_mats = self._hi_bundle(bucket)
            if kind == "dbf":
                gap_kind = hi_mats["gap"]
                body = hi_mats["c_hi"]
            else:
                gap_kind = hi_mats["gap_star"]
                body = (
                    hi_mats["c_hi_drop"]
                    if drop_terminated_carryover
                    else hi_mats["c_hi"]
                )
            parts = (
                hi_mats["t_hi"],
                hi_mats["t_hi_mult"],
                gap_kind,
                hi_mats["one_plus"],
                hi_mats["c_lo"],
                hi_mats["chd"],
                body,
            )
            adb = kind == "adb"

            def rows(block: np.ndarray, param: Any) -> np.ndarray:
                k = CompiledTaskSet._floor_div_rows(block, param(0))
                window = block - k * param(1)
                window -= param(2)
                carry = CompiledTaskSet._carry_rows(
                    block, window, param(3), param(4), param(5)
                )
                if adb:
                    k += 1.0
                k *= param(6)
                k += carry
                return k

        def reduce_rows(block: np.ndarray, param: Any) -> np.ndarray:
            if block.size == 1:
                # Same widening trick as the per-set kernels: keep the
                # (P, 1) reduction on the row-sequential path.  The
                # ``(bucket, 1)`` parameter columns broadcast against
                # the duplicated 2-point block unchanged.
                wide = np.add.reduce(
                    rows(np.concatenate([block, block]), param), axis=0
                )
                return wide[:1]
            return np.add.reduce(rows(block, param), axis=0)

        # Only ADB_HI reads the flag; the "lo" stack is _lo_bundle's.
        stack_key = (kind, bucket, kind == "adb" and drop_terminated_carryover)
        stack = self._eval_stacks.get(stack_key)
        if stack is None:
            stack = np.concatenate(parts, axis=0)
            self._eval_stacks[stack_key] = stack

        totals = np.zeros_like(deltas)
        chunk = max(1, _CHUNK_CELLS // bucket)
        edges = np.concatenate(
            ([0], np.flatnonzero(np.diff(cols)) + 1, [cols.size])
        )
        for lo in range(0, deltas.size, chunk):
            hi = min(lo + chunk, deltas.size)
            first = int(np.searchsorted(edges, lo, side="right")) - 1
            last = int(np.searchsorted(edges, hi, side="left"))
            if last - first <= _GATHER_RUNS:
                for r in range(first, last):
                    seg_lo = max(lo, int(edges[r]))
                    seg_hi = min(hi, int(edges[r + 1]))
                    if seg_hi <= seg_lo:
                        continue
                    col = int(cols[seg_lo])

                    def param(i: int, col: int = col) -> np.ndarray:
                        return parts[i][:, col : col + 1]

                    totals[seg_lo:seg_hi] = reduce_rows(
                        deltas[seg_lo:seg_hi], param
                    )
            else:
                gathered = np.take(stack, cols[lo:hi], axis=1)

                def param(i: int, g: np.ndarray = gathered) -> np.ndarray:
                    return g[i * bucket : (i + 1) * bucket]

                totals[lo:hi] = reduce_rows(deltas[lo:hi], param)
        PERF.cells += bucket * deltas.size
        PERF.kernel_evals += 1
        return totals

    # ------------------------------------------------------------------
    # Fused breakpoint generation
    # ------------------------------------------------------------------
    def _bp_cat(
        self, kind: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All members' ``(offset, period)`` lattice pairs, concatenated.

        Returns ``(starts, offsets, periods, carry)`` where member ``i``'s
        pairs occupy ``offsets[starts[i]:starts[i + 1]]`` and ``carry[i]``
        flags a member with points outside the lattice
        (:meth:`CompiledTaskSet._carry_points`).  Built once per kind, so
        a lockstep round's pair collection is pure array gathers instead
        of per-item table lookups.
        """
        cat = self._bp_cats.get(kind)
        if cat is None:
            starts = np.empty(self.size + 1, dtype=np.int64)
            starts[0] = 0
            carry = np.zeros(self.size, dtype=bool)
            offs: List[np.ndarray] = []
            pers: List[np.ndarray] = []
            for i, member in enumerate(self.members):
                member._ensure_breakpoint_table(kind)
                off = member._bp_off[kind]
                offs.append(off)
                pers.append(member._bp_per[kind])
                starts[i + 1] = starts[i] + off.size
                carry[i] = member._bp_once[kind].size > 0
            cat = (
                starts,
                np.concatenate(offs) if offs else np.empty(0),
                np.concatenate(pers) if pers else np.empty(0),
                carry,
            )
            self._bp_cats[kind] = cat
        return cat

    def breakpoints_many(
        self, items: "Sequence[Tuple[int, float, float]]", *, kind: str = "dbf"
    ) -> List[np.ndarray]:
        """Per-item ``breakpoints_in(lo, hi, kind=...)``, one fused pass.

        ``items`` is a sequence of ``(member_index, window_lo, window_hi)``
        triples.  All items' ``(offset, period)`` lattice pairs are
        gathered from the cached per-kind table (:meth:`_bp_cat`) with
        per-pair window bounds and owner tags, expanded through the same
        ``repeat``/``cumsum`` arithmetic as :func:`_lattice_points`, then
        sorted by ``(owner, point)`` and de-duplicated within each owner
        run with the per-set semantics (exact dedup == ``np.unique``,
        then the relative-1e-12 merge for the HI kinds, reset at owner
        boundaries) — so every returned array is bit-identical to the
        member's own ``breakpoints_in``.  Candidate budgets are per set
        and stay with the caller.  Items denser than ``_FUSE_POINTS``
        lattice points, and items of members with points outside the
        lattice, delegate to the member's own generator (its probe
        snapshot's, :meth:`snapshot`; same output).
        """
        self._check_kind(kind)
        n_items = len(items)
        results: List[np.ndarray] = [np.empty(0)] * n_items
        if not n_items:
            return results
        starts_tab, off_cat, per_cat, carry_tab = self._bp_cat(kind)
        midx = np.fromiter(
            (item[0] for item in items), dtype=np.int64, count=n_items
        )
        wlo = np.fromiter(
            (item[1] for item in items), dtype=float, count=n_items
        )
        whi = np.fromiter(
            (item[2] for item in items), dtype=float, count=n_items
        )
        sizes = starts_tab[midx + 1] - starts_tab[midx]
        carry = carry_tab[midx]
        if carry.any():
            for pos in np.flatnonzero(carry):
                results[int(pos)] = self.snapshot(
                    int(midx[pos])
                ).breakpoints_in(float(wlo[pos]), float(whi[pos]), kind=kind)
            sizes = np.where(carry, 0, sizes)
        total_pairs = int(sizes.sum())
        if total_pairs == 0:
            return results
        item_starts = np.cumsum(sizes) - sizes
        item_of_pair = np.repeat(np.arange(n_items), sizes)
        pair_idx = np.repeat(starts_tab[midx] - item_starts, sizes) + np.arange(
            total_pairs
        )
        off = off_cat[pair_idx]
        per = per_cat[pair_idx]
        lo_pair = wlo[item_of_pair]
        hi_pair = whi[item_of_pair]
        # Same elementary float ops as the per-item collection: the
        # window bounds are broadcast per pair, so every k_min/k_max
        # value is identical to the member's own enumeration.
        k_min = np.maximum(0.0, np.floor((lo_pair - off) / per))
        k_max = np.floor((hi_pair - off) / per + 1e-12)
        counts = (k_max - k_min + 1.0).astype(np.int64)
        np.maximum(counts, 0, out=counts)
        ccnt = np.concatenate(([0], np.cumsum(counts)))
        bnd = np.concatenate((item_starts, [total_pairs]))
        item_cnt = ccnt[bnd[1:]] - ccnt[bnd[:-1]]
        dense = np.flatnonzero(item_cnt > _FUSE_POINTS)
        owner_pair = item_of_pair
        if dense.size:
            # A window this dense dominates the round on its own; the
            # per-set generator skips the owner-tagged fused temporaries
            # and returns the identical points.
            for pos in dense:
                results[int(pos)] = self.snapshot(
                    int(midx[pos])
                ).breakpoints_in(float(wlo[pos]), float(whi[pos]), kind=kind)
            keep_pair = item_cnt[item_of_pair] <= _FUSE_POINTS
            off = off[keep_pair]
            per = per[keep_pair]
            k_min = k_min[keep_pair]
            counts = counts[keep_pair]
            lo_pair = lo_pair[keep_pair]
            hi_pair = hi_pair[keep_pair]
            owner_pair = item_of_pair[keep_pair]
        start = time.perf_counter()
        total = int(counts.sum())
        if total == 0:
            PERF.kernel_seconds += time.perf_counter() - start
            return results
        pair = np.repeat(np.arange(off.size), counts)
        starts = np.cumsum(counts) - counts
        within = np.arange(total) - np.repeat(starts, counts)
        points = (k_min[pair] + within) * per[pair] + off[pair]
        owner = owner_pair[pair]
        keep = (points > lo_pair[pair]) & (points <= hi_pair[pair])
        points = points[keep]
        owner = owner[keep]
        if points.size:
            # ``owner`` is already non-decreasing (pairs are expanded in
            # item order and boolean filtering preserves order), so all a
            # two-key lexsort would do is order points within each owner
            # run — per-run direct sorts are far cheaper than one
            # indirect sort over every item's points.
            run_bounds = np.searchsorted(owner, np.arange(len(items) + 1))
            for pos in range(len(items)):
                seg = points[int(run_bounds[pos]) : int(run_bounds[pos + 1])]
                if seg.size > 1:
                    seg.sort()
            # Exact dedup within each owner run — np.unique's semantics,
            # exact comparison IS the spec (bit parity with the per-set
            # generator).
            boundary = np.empty(points.size, dtype=bool)
            boundary[0] = True
            boundary[1:] = owner[1:] != owner[:-1]
            keep = boundary.copy()
            keep[1:] |= points[1:] != points[:-1]  # repro-lint: ignore[RL002] adjacent-duplicate drop mirrors the oracle's set-literal dedup
            points = points[keep]
            owner = owner[keep]
            if kind != "lo":
                boundary = np.empty(points.size, dtype=bool)
                boundary[0] = True
                boundary[1:] = owner[1:] != owner[:-1]
                keep = boundary.copy()
                keep[1:] |= np.diff(points) > 1e-12 * np.maximum(
                    1.0, points[1:]
                )
                points = points[keep]
                owner = owner[keep]
        PERF.candidates += int(points.size)
        bounds = np.searchsorted(owner, np.arange(len(items) + 1))
        for pos in range(len(items)):
            segment = points[bounds[pos] : bounds[pos + 1]]
            if segment.size:
                results[pos] = segment
        PERF.kernel_seconds += time.perf_counter() - start
        return results


def compile_population(
    tasksets: "Sequence[Union[TaskSet, CompiledTaskSet]]",
) -> CompiledPopulation:
    """Compile many task sets into one population SoA layout.

    Members already compiled (or derived snapshots) are adopted as-is;
    plain ``TaskSet`` members go through the normal cached
    :func:`compile_taskset` path, so population compiles share the same
    registry as per-set compiles.
    """
    members = tuple(compile_taskset(taskset) for taskset in tasksets)
    return CompiledPopulation._from_members(members)


# ---------------------------------------------------------------------------
# Scalar oracle engine
# ---------------------------------------------------------------------------
class ScalarEvaluator:
    """The pre-compiled-path evaluator: per-task loops from dbf/points.

    Exposes the same surface as :class:`CompiledTaskSet` so the scan code
    in ``speedup.py`` / ``resetting.py`` / ``schedulability.py`` is
    engine-agnostic.  Property tests and ``bench_kernels.py`` run the
    scans through this evaluator to compare against the fused kernels.
    """

    __slots__ = ("taskset", "n", "_scalars")

    def __init__(self, taskset: TaskSet) -> None:
        if not isinstance(taskset, TaskSet):
            raise ModelError(
                "the scalar engine needs a TaskSet "
                f"(got {type(taskset).__name__}); derived compiled snapshots "
                "have no task objects to walk"
            )
        self.taskset = taskset
        self.n = len(taskset)
        self._scalars: Dict[str, float] = {}

    def _scalar(self, key: str, compute: Callable[[], float]) -> float:
        value = self._scalars.get(key)
        if value is None:
            value = compute()
            self._scalars[key] = value
        return value

    @property
    def rate(self) -> float:
        return self._scalar("rate", lambda: hi_mode_rate(self.taskset))

    @property
    def dbf_excess(self) -> float:
        return self._scalar("dbf_excess", lambda: dbf_hi_excess_bound(self.taskset))

    def adb_excess(self, *, drop_terminated_carryover: bool = False) -> float:
        key = f"adb_excess_{drop_terminated_carryover}"
        return self._scalar(
            key,
            lambda: adb_hi_excess_bound(
                self.taskset, drop_terminated_carryover=drop_terminated_carryover
            ),
        )

    @property
    def lo_rate(self) -> float:
        return self._scalar(
            "lo_rate",
            lambda: sum(t.utilization(Criticality.LO) for t in self.taskset),
        )

    @property
    def lo_excess(self) -> float:
        return self._scalar(
            "lo_excess",
            lambda: sum(
                t.utilization(Criticality.LO) * max(t.t_lo - t.d_lo, 0.0)
                for t in self.taskset
            ),
        )

    @property
    def lo_max_period(self) -> float:
        return self._scalar(
            "lo_max_period",
            lambda: max(t.t_lo for t in self.taskset) if self.n else 0.0,
        )

    @property
    def lo_density(self) -> float:
        return self._scalar(
            "lo_density", lambda: sum(1.0 / t.t_lo for t in self.taskset)
        )

    @property
    def d_lo(self) -> np.ndarray:
        return np.array([t.d_lo for t in self.taskset], dtype=float)

    @property
    def t_lo(self) -> np.ndarray:
        return np.array([t.t_lo for t in self.taskset], dtype=float)

    def total_dbf_lo(self, delta: ArrayLike) -> ArrayLike:
        return total_dbf_lo(self.taskset, delta)

    def total_dbf_hi(self, delta: ArrayLike) -> ArrayLike:
        return total_dbf_hi(self.taskset, delta)

    def total_adb_hi(
        self, delta: ArrayLike, *, drop_terminated_carryover: bool = False
    ) -> ArrayLike:
        return total_adb_hi(
            self.taskset, delta, drop_terminated_carryover=drop_terminated_carryover
        )

    def window_peak(
        self, candidates: np.ndarray, best_ratio: float = 0.0
    ) -> Tuple[float, float]:
        """Exhaustive window peak: evaluate every candidate, take the
        first argmax — the reference behaviour the pruned compiled
        version reproduces bit for bit."""
        demand = np.asarray(self.total_dbf_hi(candidates), dtype=float)
        ratios = demand / candidates
        idx = int(np.argmax(ratios))
        return float(ratios[idx]), float(candidates[idx])

    def lo_demand_ok(
        self, candidates: np.ndarray, speed: float, rtol: float
    ) -> bool:
        """Exhaustive LO-mode supply check (the pre-pruning behaviour)."""
        demand = np.asarray(self.total_dbf_lo(candidates), dtype=float)
        return not bool(np.any(demand > speed * candidates * (1.0 + rtol) + rtol))

    def candidate_density(self, kind: str = "dbf") -> float:
        if kind == "lo":
            return self.lo_density
        return pts.candidate_density(self.taskset, kind)

    def max_finite_period(self) -> float:
        return pts.max_finite_period(self.taskset)

    def initial_window(self) -> float:
        return pts.initial_window(self.taskset)

    def clamp_window(
        self, start: float, desired_end: float, *, kind: str = "dbf",
        max_points: int = 200_000,
    ) -> float:
        return pts.clamp_window(
            self.taskset, start, desired_end, kind=kind, max_points=max_points
        )

    def breakpoints_in(
        self,
        lo: float,
        hi: float,
        *,
        kind: str = "dbf",
        budget: Optional[CandidateBudget] = None,
    ) -> np.ndarray:
        if kind == "lo":
            return pts.dbf_lo_breakpoints_in(self.taskset, lo, hi)
        return pts.breakpoints_in(self.taskset, lo, hi, kind=kind, budget=budget)


ENGINES = ("compiled", "scalar")

Evaluator = Union[CompiledTaskSet, ScalarEvaluator]


def get_evaluator(
    taskset: Union[TaskSet, CompiledTaskSet], engine: str = "compiled"
) -> Evaluator:
    """Resolve the demand evaluator for a scan.

    ``"compiled"`` (default) compiles/reuses the struct-of-arrays fast
    path; ``"scalar"`` walks the per-task oracle loops (for property
    tests and old-vs-new benchmarks).
    """
    if engine == "compiled":
        return compile_taskset(taskset)
    if engine == "scalar":
        if isinstance(taskset, CompiledTaskSet):
            if taskset.taskset is None:
                raise ModelError(
                    "cannot run the scalar engine on a derived compiled "
                    "snapshot: no backing TaskSet"
                )
            taskset = taskset.taskset
        return ScalarEvaluator(taskset)
    raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")


# ---------------------------------------------------------------------------
# Fingerprint-keyed analysis memo
# ---------------------------------------------------------------------------
@dataclass
class AnalysisMemo:
    """Small LRU memo of scan results keyed on task-set fingerprints.

    The tuning and sensitivity loops repeatedly analyse task-set contents
    they have seen before (bisection endpoints, the gamma=1 probe shared
    by ``max_tolerable_gamma`` and ``min_speedup_margin``, uniform-x
    starting points).  Every analysis here is a deterministic pure
    function of the task-set *content*, so results can be memoised under
    ``(operation, fingerprint, params)`` — the same canonicalisation the
    batch pipeline's :mod:`result cache <repro.pipeline.cache>` uses.

    Only the compiled engine consults the memo: the scalar oracle path
    stays memo-free so old-vs-new comparisons always recompute.
    """

    maxsize: int = 4096
    _store: _BoundedRegistry = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._store = _BoundedRegistry(self.maxsize)

    def lookup(self, key: Tuple[Any, ...]) -> Optional[Any]:
        value = self._store.get(key)
        if value is None:
            PERF.memo_misses += 1
        else:
            PERF.memo_hits += 1
        return value

    def store(self, key: Tuple[Any, ...], value: Any) -> None:
        self._store.put(key, value)

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)


#: Process-wide memo shared by min_speedup / resetting_time /
#: lo_mode_schedulable on the compiled path.
MEMO = AnalysisMemo()


def clear_memo() -> None:
    """Drop the shared analysis memo (tests/benchmarks)."""
    MEMO.clear()
