"""Compiled demand kernels: the struct-of-arrays fast path of the scans.

The Theorem-2 / Theorem-4 analyses evaluate the piecewise-linear demand
functions ``DBF_LO`` (Eq. 4), ``DBF_HI`` (Eq. 7) and ``ADB_HI`` (Eq. 10)
at up to millions of candidate interval lengths.  The reference
implementation in :mod:`repro.analysis.dbf` walks Python ``MCTask``
objects task by task, so for the synthetic sweeps and the tuning loops
per-task Python overhead, not arithmetic, dominates wall-clock.

Two evaluators replace those loops, and share every kernel concern:

* :class:`CompiledTaskSet` is one set's struct-of-arrays snapshot
  (``c_lo``/``c_hi``/``d_lo``/``d_hi``/``t_lo``/``t_hi`` plus
  terminated/criticality masks) with the fused kernels ``total_dbf_lo``,
  ``total_dbf_hi`` and ``total_adb_hi``, the breakpoint generator
  ``breakpoints_in`` and column derivations (``with_*``) that rescale
  columns instead of rebuilding ``MCTask`` objects.
* :class:`CompiledPopulation` lays many snapshots out in padded height
  buckets for the lockstep scans of :mod:`repro.analysis.population`.
* Both call the same module functions: the row formulas
  (:func:`_dbf_lo_rows`, :func:`_hi_rows`) and the widened column sum
  (:func:`_column_sum`); the HI parameter columns of full task rows
  (:func:`_hi_columns`); the breakpoint tables
  (:func:`_breakpoint_table`); the lattice expansion
  (:func:`_lattice_counts`, :func:`_lattice_expand`) with its dedup and
  near-duplicate merge (:func:`_thinned`); the stripe layout of the
  pruned scans (:func:`_stripes`); the stripe-pruned Theorem-2 window
  peak (:func:`window_peaks`, many windows in columns or one); and the
  LO supply line
  (:func:`lo_supply_threshold`).  :func:`compile_tasksets` is the one
  compile path.

**Bit-exactness contract.**  Every kernel mirrors the scalar oracle's
elementary floating-point operations — same slacked floor
(:data:`~repro.analysis.dbf.FLOOR_SLACK`), same extended-``mod``
expansion, same task-order summation (``np.add.reduce`` over axis 0 adds
rows sequentially, exactly like the scalar per-task accumulation) — so
the compiled and scalar paths agree to the last bit, not merely within a
tolerance.  ``tests/test_kernels.py`` property-tests this equivalence.

Compilation is cached *on the task set* and in a bounded registry keyed
by its content fingerprint (the result cache's canonicalisation), so
equal-content sets compile once.  Derived snapshots do not enter the
registry.  :class:`AnalysisMemo` memoises the per-set scan entry points
by content, for the tuning and sensitivity loops that revisit a set.
:data:`PERF` counts kernel calls, cells, breakpoints and kernel seconds.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import (
    Any, Callable, Dict, Generator, List, Mapping, Optional, Sequence, Tuple,
    TypeVar, Union, cast,
)

import numpy as np

from repro.analysis import points as pts
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

#: Population bucket sizing: every set with at most this many tasks
#: shares one bucket as tall as its tallest such member, so a fused pass
#: over the small sets of the figs 6-7 sweeps is one kernel call, not one
#: per task count (padding rows are cheap cells; per-call overhead is
#: what small sets pay for).  Larger sets keep power-of-two heights, so
#: one large outlier never pads a group's small sets to its height.
_SHARED_BUCKET_MAX = 16

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

#: Tolerance of the LO-mode supply comparison (:func:`lo_supply_threshold`)
#: and of the LO scan's rate shortcut and horizon in
#: :mod:`repro.analysis.schedulability`, which imports it.
LO_SUPPLY_RTOL = 1e-9

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
        Candidates whose demand evaluation the stripe-pruned scans
        (:func:`window_peaks`, :meth:`CompiledTaskSet.lo_demand_ok`)
        proved unnecessary.
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
        """The counters as a plain dict (JSON-ready), in field order."""
        return dict(vars(self))

    def reset(self) -> None:
        for counter in fields(self):
            setattr(self, counter.name, counter.default)

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
# Scan generators and their per-set driver
# ---------------------------------------------------------------------------
_R = TypeVar("_R")

#: A scan written once as a generator: it yields ``(phase, payload)``
#: requests for the demand arithmetic it needs, receives each answer
#: back, and returns its result.  :func:`drive` answers one scan on one
#: evaluator; the lockstep scans of :mod:`repro.analysis.population`
#: answer every scan parked at a phase with one fused call.
Steps = Generator[Tuple[str, Any], Any, _R]


def drive(steps: "Steps[_R]", answers: Mapping[str, Callable[[Any], Any]]) -> _R:
    """Run one scan generator to its result, answering each request
    ``(phase, payload)`` with ``answers[phase](payload)``.  An error the
    generator raises propagates to the caller."""
    reply: Any = None
    while True:
        try:
            phase, payload = steps.send(reply)
        except StopIteration as done:
            return cast(_R, done.value)
        reply = answers[phase](payload)


def window_peaks(
    candidates: np.ndarray,
    bounds: np.ndarray,
    best: np.ndarray,
    demand: Callable[[Any], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """The stripe-pruned peak of ``DBF_HI(Delta) / Delta`` over many
    windows' breakpoints at once.

    Window ``j`` holds the ascending candidates
    ``candidates[bounds[j]:bounds[j + 1]]`` (at least one) and the scan's
    running best ratio ``best[j]``.  ``demand(selection)`` returns
    ``DBF_HI`` at ``candidates[selection]`` as a float array; it is
    called at most twice.  The first pass takes every candidate of a
    window with fewer than ``3 * _STRIPE`` of them, and the coarse
    candidates (every ``_STRIPE``-th, and the last) of the others.  A
    stripe of in-between candidates is filled in by the second pass only
    when its upper bound ``DBF_HI(c_right) / Delta_first`` (demand is
    nondecreasing, division is monotone) can still reach ``max(best[j],
    coarse peak)`` within the ``_PRUNE_GUARD`` margin; a window whose
    stripes all stay live is evaluated whole.

    Returns ``(ratio, delta)`` per window: the first candidate attaining
    the maximum ratio *among the candidates whose demand was evaluated*.
    Every skipped candidate has a ratio strictly below both the running
    best and its window's maximum, so the supremum scan's ``(best_ratio,
    best_delta)`` trajectory — including first-argmax tie-breaking — is
    bit-identical to the scalar engine's exhaustive evaluation.
    :meth:`CompiledTaskSet.window_peak` calls it on one window with the
    set's own kernel, the Theorem-2 lockstep on a round's windows with
    fused population passes.
    """
    sizes = bounds[1:] - bounds[:-1]
    striped = sizes >= 3 * _STRIPE
    if not striped.any():
        ratios = demand(slice(None)) / candidates
        at = _first_max(ratios, sizes)
        return ratios[at], candidates[at]
    # A window below three stripes is one stripe per candidate: all of
    # it is coarse, and nothing is left for the second pass.
    coarse, starts, count = _stripes(bounds[:-1], sizes, 1 + (_STRIPE - 1) * striped)
    found = demand(coarse)
    ratios = found / candidates[coarse]
    at = _first_max(ratios, count)
    top, index = ratios[at], coarse[at]
    bound = found / candidates[starts] * (1.0 + _PRUNE_GUARD)
    live = (bound >= np.maximum(best, top).repeat(count)) & striped.repeat(count)
    heads = count.cumsum() - count
    whole = np.logical_and.reduceat(live, heads)
    # The second pass, stripe by stripe: a whole window's stripes with
    # their coarse candidates, a pruned window's live stripes without.
    span = (coarse - starts + whole.repeat(count)) * live
    lengths = np.add.reduceat(span, heads)
    PERF.pruned += int(np.add.reduce((sizes - count - lengths)[~whole]))
    chosen = _spans(starts, span)
    if chosen.size:
        ratios = demand(chosen) / candidates[chosen]
        runs = lengths.nonzero()[0]
        at = _first_max(ratios, lengths[runs])
        # Exact tie-break: on ratio equality prefer the earlier
        # breakpoint so the pruned scan reports the same critical
        # delta as the scalar oracle's left-to-right argmax.
        found, place, held = ratios[at], chosen[at], top[runs]
        wins = (found > held) | (
            (found == held)  # repro-lint: ignore[RL002] first-strict-maximum tie-break is exact by spec
            & (place < index[runs])
        )
        top[runs] = np.where(wins, found, held)
        index[runs] = np.where(wins, place, index[runs])
    return top, candidates[index]


#: The empty position array.
_NO_INDEX = np.empty(0, dtype=np.int64)


def _first_max(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The position of the first maximum of each run of ``values``, as
    ``np.argmax`` finds it in one; the runs have the non-zero
    ``lengths``, in order, and finite values."""
    if lengths.size <= 1:
        return values.argmax(keepdims=True) if lengths.size else _NO_INDEX
    heads = lengths.cumsum() - lengths
    top = np.maximum.reduceat(values, heads).repeat(lengths)
    positions = np.where(
        values == top,  # repro-lint: ignore[RL002] a first-argmax is exact by spec
        np.arange(values.size),
        values.size,
    )
    first = np.minimum.reduceat(positions, heads)
    assert first.max() < values.size, "a run without a finite maximum"
    return first


def _spans(first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions ``first[k], ..., first[k] + sizes[k] - 1`` of every
    span ``k``, in order (one ``repeat``/``cumsum`` expansion)."""
    if sizes.size <= 1:
        return np.arange(first[0], first[0] + sizes[0]) if sizes.size else _NO_INDEX
    ends = sizes.cumsum()
    return (first - ends + sizes).repeat(sizes) + np.arange(ends[-1])


def _stripes(
    first: np.ndarray, sizes: np.ndarray, width: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stripes of windows of ``sizes[k] > 0`` candidates at positions
    ``first[k], ...``, ``width[k]`` wide: the coarse positions (each
    stripe's last, so every ``width[k]``-th candidate and the window's
    last), the start of each stripe, and each window's stripe count, in
    window order."""
    count = (sizes + width - 1) // width
    wide = width.repeat(count)
    starts = first.repeat(count) + wide * _spans(np.zeros_like(count), count)
    return np.minimum(starts + wide - 1, (first + sizes - 1).repeat(count)), starts, count


def _stripe_interior(coarse: np.ndarray, starts: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The candidates inside the ``live`` stripes, coarse positions
    excluded, ascending."""
    return _spans(starts[live], coarse[live] - starts[live])


def lo_supply_threshold(speed: ArrayLike, delta: ArrayLike) -> ArrayLike:
    """The LO-mode supply line a window's ``DBF_LO(Delta)`` must not
    exceed: ``speed * Delta`` within :data:`LO_SUPPLY_RTOL`.  Floats or
    arrays (one speed per point)."""
    return speed * delta * (1.0 + LO_SUPPLY_RTOL) + LO_SUPPLY_RTOL


# ---------------------------------------------------------------------------
# Row formulas and tables: the arithmetic both evaluators share
# ---------------------------------------------------------------------------
# CompiledTaskSet calls these on its own (n, 1) columns, CompiledPopulation
# on (P, 1) bucket column views or gathered (P, points) blocks.  Every
# operation is elementwise, so a row's values never depend on its block.


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


def _carry_rows(
    block: np.ndarray, k: np.ndarray, t_hi_mult: np.ndarray, gap: np.ndarray,
    one_plus: np.ndarray, c_lo: np.ndarray, chd: np.ndarray,
) -> np.ndarray:
    """Eq. (5)/(6) carry-over demand after ``k = floor(Delta / T(HI))`` jobs.

    The window is the extended mod ``Delta - k*T(HI)`` less ``gap``; the
    multiply uses the zeroed-period column, so ``k*T`` is 0 (not NaN) on
    ``T(HI) = inf`` rows, matching the scalar ``a mod inf = a`` branch.
    Value-identical to ``carry_over_demand(.., _w_slack(..))``:
    ``where(w >= -FLOOR_SLACK*(1+T+|Delta|), min(max(w,0),C(LO))+CHD, 0)``.
    """
    window = block - k * t_hi_mult
    window -= gap
    slack = one_plus + np.abs(block)
    slack *= FLOOR_SLACK
    np.negative(slack, out=slack)
    demand = np.maximum(window, 0.0)
    np.minimum(demand, c_lo, out=demand)
    demand += chd
    return np.where(window >= slack, demand, 0.0)


def _dbf_lo_rows(
    block: np.ndarray, d_lo: np.ndarray, t_lo: np.ndarray, c_lo: np.ndarray
) -> np.ndarray:
    """Eq. (4) per task: ``max(floor((Delta - D(LO)) / T(LO)) + 1, 0) * C(LO)``."""
    jobs = _floor_div_rows(block - d_lo, t_lo)
    jobs += 1.0
    np.maximum(jobs, 0.0, out=jobs)
    jobs *= c_lo
    return jobs


def _hi_rows(
    block: np.ndarray, t_hi: np.ndarray, t_hi_mult: np.ndarray, gap: np.ndarray,
    one_plus: np.ndarray, c_lo: np.ndarray, chd: np.ndarray, body: np.ndarray,
    adb: bool,
) -> np.ndarray:
    """Eq. (7) per task (``DBF_HI``, ``gap = D(HI) - D(LO)``) or, with
    ``adb``, Eq. (10) (``ADB_HI``, ``gap = T(HI) - D(LO)`` and one more
    job): ``k * body`` plus the carry-over demand."""
    k = _floor_div_rows(block, t_hi)
    carry = _carry_rows(block, k, t_hi_mult, gap, one_plus, c_lo, chd)
    if adb:
        k += 1.0
    k *= body  # k becomes the body term
    k += carry
    return k


def _column_sum(
    rows: Callable[..., np.ndarray], block: np.ndarray, params: Tuple[Any, ...]
) -> np.ndarray:
    """Per-point total of ``rows(block, *params)`` over its rows.

    ``np.add.reduce`` over axis 0 of a 2-D matrix adds the rows one after
    another, like the scalar oracle's task-order accumulation.  A
    one-point block is widened to two identical points: NumPy sums an
    ``(n, 1)`` matrix pairwise, which differs once ``n >= 8``.
    """
    if block.size == 1:
        wide = rows(np.concatenate([block, block]), *params)
        return np.add.reduce(wide, axis=0)[:1]
    return np.add.reduce(rows(block, *params), axis=0)


#: Padding value of each HI parameter column (:func:`_hi_columns`): a
#: padding row's job count is 0, its carry window ``-inf`` and its
#: ``c_hi``/``c_lo``/``chd`` zero, so it adds +0.0 under every kind.
_HI_PADDING = {
    "t_hi": np.inf, "t_hi_mult": 0.0, "gap": np.inf, "gap_star": np.inf,
    "one_plus": 1.0, "c_lo": 0.0, "chd": 0.0, "c_hi": 0.0, "c_hi_drop": 0.0,
}


def _hi_columns(
    c_lo: np.ndarray, c_hi: np.ndarray, d_lo: np.ndarray, d_hi: np.ndarray,
    t_hi: np.ndarray, hi_inf: np.ndarray, terminated: np.ndarray,
) -> Dict[str, np.ndarray]:
    """The ``DBF_HI``/``ADB_HI`` parameter columns of full task rows.

    Terminated rows keep their real parameters: ``t_hi = inf`` sends the
    job count to 0 and ``gap = d_hi - d_lo = inf`` (resp. ``gap_star =
    t_hi - d_lo = inf``) sends the carry window to ``-inf``, so the row
    formula itself yields +0.0 for ``DBF_HI`` and ``(0 + 1) * C(HI)``
    for ``ADB_HI``, the oracle's values.  ``c_hi_drop`` zeroes those
    rows for the ``drop_terminated_carryover`` flavour.
    """
    finite = np.where(hi_inf, 0.0, t_hi)
    return {
        "t_hi": t_hi, "t_hi_mult": finite, "gap": d_hi - d_lo,
        "gap_star": t_hi - d_lo, "one_plus": 1.0 + finite, "c_lo": c_lo,
        "chd": c_hi - c_lo, "c_hi": c_hi, "c_hi_drop": np.where(terminated, 0.0, c_hi),
    }


def _hi_params(
    cols: Mapping[str, np.ndarray], kind: str, drop_terminated_carryover: bool
) -> Tuple[np.ndarray, ...]:
    """The parameter columns :func:`_hi_rows` takes for ``kind`` "dbf"
    or "adb", in its argument order (the ``adb`` flag excluded)."""
    if kind == "dbf":
        gap, body = cols["gap"], cols["c_hi"]
    else:
        gap = cols["gap_star"]
        body = cols["c_hi_drop"] if drop_terminated_carryover else cols["c_hi"]
    return (
        cols["t_hi"], cols["t_hi_mult"], gap, cols["one_plus"],
        cols["c_lo"], cols["chd"], body,
    )


def _breakpoint_table(
    kind: str, c_lo: np.ndarray, d_lo: np.ndarray, d_hi: np.ndarray, t_hi: np.ndarray,
    hi_inf: np.ndarray, terminated: np.ndarray, owner: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Every row's in-period ``DBF_HI`` (``kind`` "dbf") or ``ADB_HI``
    ("adb") lattice offsets, from parameter rows.

    Offsets are derived with the same float arithmetic as
    :func:`repro.analysis.points.dbf_hi_offsets` /
    :func:`~repro.analysis.points.adb_hi_offsets`: per row, the distinct
    offsets in ``[0, period]``.  Returns ``(offsets, periods, terms,
    owners, term_owners)``: the ``(offset, period)`` pieces; the density
    term ``count / period`` of each row with a lattice, in task order,
    for a sequential Python sum; and, given per-row ``owner`` tags, the
    tag of each piece and of each term (``None`` without tags).
    """
    sel = ~(terminated | hi_inf) if kind == "dbf" else ~hi_inf
    p = t_hi[sel]
    gap = (d_hi[sel] if kind == "dbf" else p) - d_lo[sel]
    gap2 = gap + c_lo[sel]
    keep_gap = (gap >= 0.0) & (gap <= p) & (gap != p)
    keep_gap2 = (gap2 >= 0.0) & (gap2 <= p) & (gap2 != p) & (gap2 != gap)
    keeps: Tuple[Optional[np.ndarray], ...]
    if kind == "dbf":
        counts = keep_gap.astype(np.int64) + keep_gap2 + 1
        offsets = [gap[keep_gap], gap2[keep_gap2], p]
        periods = [p[keep_gap], p[keep_gap2], p]
        keeps = (keep_gap, keep_gap2, None)
    else:
        # ADB offsets also include 0.0 for every task; dedup the gap
        # offsets against it exactly like the scalar set literal —
        # exact comparison IS the spec here (bit parity with dbf.py).
        keep_gap &= gap != 0.0  # repro-lint: ignore[RL002] exact zero-gap dedup mirrors the scalar oracle's set semantics
        keep_gap2 &= gap2 != 0.0  # repro-lint: ignore[RL002] exact zero-gap dedup mirrors the scalar oracle's set semantics
        counts = keep_gap.astype(np.int64) + keep_gap2 + 2
        offsets = [np.zeros_like(p), gap[keep_gap], gap2[keep_gap2], p]
        periods = [p, p[keep_gap], p[keep_gap2], p]
        keeps = (None, keep_gap, keep_gap2, None)
    tags: Optional[np.ndarray] = None
    owners: Optional[np.ndarray] = None
    if owner is not None:
        tags = owner[sel]
        owners = np.concatenate([tags if keep is None else tags[keep] for keep in keeps])
    return np.concatenate(offsets), np.concatenate(periods), counts / p, owners, tags


def _lattice_counts(
    off: np.ndarray, per: np.ndarray, lo: ArrayLike, hi: ArrayLike
) -> Tuple[np.ndarray, np.ndarray]:
    """Each ``(offset, period)`` pair's first lattice index ``k`` and
    point count over ``(lo, hi]``; bounds are scalars or one per pair."""
    k_min = np.maximum(0.0, np.floor((lo - off) / per))
    k_max = np.floor((hi - off) / per + 1e-12)
    counts = (k_max - k_min + 1.0).astype(np.int64)
    np.maximum(counts, 0, out=counts)
    return k_min, counts


def _lattice_expand(
    off: np.ndarray, per: np.ndarray, k_min: np.ndarray, counts: np.ndarray,
    lo: ArrayLike, hi: ArrayLike, tags: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The points ``k * per + off`` of every pair's index range inside
    ``(lo, hi]`` (bounds as in :func:`_lattice_counts`), unsorted, and,
    given per-pair ``tags``, the tag of each point: one flat
    ``repeat``/``cumsum`` expansion, no Python loop of ``np.arange``."""
    total = int(counts.sum())
    if total == 0:
        return _NO_POINTS, None if tags is None else tags[:0]
    pair = np.repeat(np.arange(off.size), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(starts, counts)
    points = (k_min[pair] + within) * per[pair] + off[pair]
    if isinstance(lo, np.ndarray):
        keep = (points > lo[pair]) & (points <= hi[pair])
    else:
        keep = (points > lo) & (points <= hi)
    return points[keep], None if tags is None else tags[pair[keep]]


def _thinned(
    points: np.ndarray, first: Optional[np.ndarray] = None, *, near: bool = False
) -> np.ndarray:
    """Keep-mask of sorted ``points``: drop exact adjacent repeats
    (``np.unique``'s dedup, the oracle's set semantics) or, with
    ``near``, merge points within a relative 1e-12 into their predecessor
    (the ``points.breakpoints_in`` merge: no zero-length segments).
    ``first`` flags each window's first point, where both start over."""
    keep = np.empty(points.size, dtype=bool)
    keep[:1] = True
    if near:
        keep[1:] = np.diff(points) > 1e-12 * np.maximum(1.0, points[1:])
    else:
        keep[1:] = points[1:] != points[:-1]  # repro-lint: ignore[RL002] exact dedup is np.unique's semantics
    if first is not None:
        keep |= first
    return keep


def _sorted_unique(points: np.ndarray) -> np.ndarray:
    """``np.unique`` of a float array: sort, then :func:`_thinned`.

    ``np.unique`` itself imports ``numpy.ma`` on first use (NumPy 2.4),
    which every freshly forked pool worker would pay for inside its chunk.
    """
    points = np.sort(points)
    return points[_thinned(points)]


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
        # (n, 1) HI-mode kernel columns (_hi_columns), built lazily on
        # first HI demand evaluation
        "_hi_cols",
        # scalars mirroring the python-sum order of dbf.py / points.py;
        # the HI-mode ones are built on first use (_hi_scalars)
        "_hi",
        "lo_rate",
        "lo_excess",
        "lo_max_period",
        "lo_density",
        "_lo_span",
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
        # The HI-mode columns are deferred to first use — LO-only probes
        # (one derived compile per exact-x bisection step) never touch
        # the HI kernels.
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
        self._lo_span: Optional[float] = None
        self._hi: Optional[Tuple[float, float, float, float, float]] = None

    @property
    def lo_span(self) -> float:
        """The periodic cap of the LO scan horizon (:func:`_period_span`
        of ``t_lo``), computed on first use: only a scan that gets past
        the LO shortcuts needs it, and ``float(lcm)`` can overflow."""
        if self._lo_span is None:
            self._lo_span = _period_span(self.t_lo.tolist())
        return self._lo_span

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

    def _hi_kernel_cols(self) -> Dict[str, np.ndarray]:
        """The :func:`_hi_columns` of this set's full task rows as
        ``(n, 1)`` columns, built on first use.

        Terminated rows flow through the row formula to exactly +0.0
        (``DBF_HI``) or ``C(HI)`` (``ADB_HI``), the oracle's per-task
        values, so the reduction over all ``n`` rows matches the
        oracle's task-order accumulation bit for bit.
        """
        cols = self._hi_cols
        if cols is None:
            cols = {
                name: col.reshape(-1, 1)
                for name, col in _hi_columns(
                    self.c_lo, self.c_hi, self.d_lo, self.d_hi, self.t_hi,
                    self.hi_inf, self.terminated,
                ).items()
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

        The ``(offset, period)`` pairs of :func:`_breakpoint_table`, so a
        window enumeration is a single expansion instead of a
        per-task/per-offset loop.  The ``dbf`` kind also keeps the points
        that occur once (:meth:`_carry_points`).
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
        off, per, terms, _, _ = _breakpoint_table(
            kind, self.c_lo, self.d_lo, self.d_hi, self.t_hi, self.hi_inf,
            self.terminated,
        )
        self._bp_off[kind] = off
        self._bp_per[kind] = per
        self._density[kind] = float(sum(terms.tolist()))

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
        self,
        delta: ArrayLike,
        rows: Callable[..., np.ndarray],
        params: Tuple[Any, ...],
    ) -> ArrayLike:
        """``rows`` summed over this set's tasks at every ``delta``, in
        chunks of at most ``_CHUNK_CELLS`` cells (:func:`_column_sum`)."""
        start = time.perf_counter()
        d = np.atleast_1d(np.asarray(delta, dtype=float))
        total = np.zeros_like(d)
        if self.n:
            chunk = max(1, _CHUNK_CELLS // self.n)
            for lo in range(0, d.size, chunk):
                total[lo : lo + chunk] = _column_sum(rows, d[lo : lo + chunk], params)
            PERF.cells += self.n * d.size
        PERF.kernel_evals += 1
        PERF.kernel_seconds += time.perf_counter() - start
        if np.isscalar(delta) or (isinstance(delta, np.ndarray) and delta.ndim == 0):
            return float(total.reshape(-1)[0])
        return total

    def total_dbf_lo(self, delta: ArrayLike) -> ArrayLike:
        """Fused Eq. (4): system LO-mode demand at every ``delta``."""
        return self._fused_total(
            delta, _dbf_lo_rows, (self._d_lo_col, self._t_lo_col, self._c_lo_col)
        )

    def total_dbf_hi(self, delta: ArrayLike) -> ArrayLike:
        """Fused Eq. (7) / Lemma 1: system HI-mode demand (Theorem 2)."""
        params = _hi_params(self._hi_kernel_cols(), "dbf", False)
        return self._fused_total(delta, _hi_rows, params + (False,))

    def total_adb_hi(
        self, delta: ArrayLike, *, drop_terminated_carryover: bool = False
    ) -> ArrayLike:
        """Fused Eq. (10) / Theorem 4: system arrived demand (Eq. 11);
        a terminated task adds ``C(HI)``, or +0.0 with
        ``drop_terminated_carryover``."""
        params = _hi_params(self._hi_kernel_cols(), "adb", drop_terminated_carryover)
        return self._fused_total(delta, _hi_rows, params + (True,))

    def window_peak(
        self, candidates: np.ndarray, best_ratio: float = 0.0
    ) -> Tuple[float, float]:
        """Peak of ``DBF_HI(Delta) / Delta`` over a window's breakpoints:
        :func:`window_peaks` on this one window, with this set's own
        kernel."""
        ratio, delta = window_peaks(
            candidates,
            np.array([0, candidates.size]),
            np.array([best_ratio]),
            lambda chosen: np.asarray(self.total_dbf_hi(candidates[chosen]), dtype=float),
        )
        return float(ratio[0]), float(delta[0])

    def lo_demand_ok(self, candidates: np.ndarray, speed: float) -> bool:
        """``DBF_LO(Delta) <= lo_supply_threshold(speed, Delta)`` everywhere?

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
        if m < 3 * _STRIPE:
            demand = np.asarray(self.total_dbf_lo(candidates), dtype=float)
            return not bool(np.any(demand > lo_supply_threshold(speed, candidates)))
        coarse, starts, _ = _stripes(np.zeros(1, dtype=np.int64), np.array([m]), np.array([_STRIPE]))
        d_coarse = np.asarray(self.total_dbf_lo(candidates[coarse]), dtype=float)
        if np.any(d_coarse > lo_supply_threshold(speed, candidates[coarse])):
            return False
        live = d_coarse * (1.0 + _PRUNE_GUARD) > lo_supply_threshold(
            speed, candidates[starts]
        )
        interior = _stripe_interior(coarse, starts, live)
        PERF.pruned += int(m - coarse.size - interior.size)
        if not interior.size:
            return True
        d_interior = np.asarray(
            self.total_dbf_lo(candidates[interior]), dtype=float
        )
        return not bool(
            np.any(d_interior > lo_supply_threshold(speed, candidates[interior]))
        )

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
        hc = self._hi_kernel_cols()
        block = np.array([float(delta)], dtype=float)
        k = _floor_div_rows(block, hc["t_hi"])
        carry = _carry_rows(
            block, k, hc["t_hi_mult"], hc["gap"], hc["one_plus"], hc["c_lo"],
            hc["chd"],
        )
        r = carry[self.is_hi, 0]
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
    ) -> np.ndarray:
        """Sorted, de-duplicated system breakpoints in ``(lo, hi]``.

        One expansion materialises every lattice point ``k * T + offset``
        across all (task, offset) pairs at once (:func:`_lattice_expand`);
        the result is bit-equal to :func:`repro.analysis.points.breakpoints_in`
        (``kind`` "dbf" / "adb") and
        :func:`~repro.analysis.points.dbf_lo_breakpoints_in` (``kind`` "lo").
        """
        if kind not in ("dbf", "adb", "lo"):
            raise ValueError(f"unknown kind: {kind!r}")
        self._ensure_breakpoint_table(kind)
        start = time.perf_counter()
        off = self._bp_off[kind]
        per = self._bp_per[kind]
        k_min, counts = _lattice_counts(off, per, lo, hi)
        points = _sorted_unique(_lattice_expand(off, per, k_min, counts, lo, hi)[0])
        once = self._bp_once[kind]
        if once.size:
            once = once[(once > lo) & (once <= hi)]
            points = _sorted_unique(np.concatenate((points, once)))
        if points.size and kind != "lo":
            points = points[_thinned(points, near=True)]
        PERF.candidates += int(points.size)
        PERF.kernel_seconds += time.perf_counter() - start
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


def _period_span(periods: Sequence[float]) -> float:
    """The periodic cap of the LO scan horizon, without the deadline.

    ``float(hyperperiod)`` for integral periods — which raises
    ``OverflowError`` once the hyperperiod exceeds the float range — and
    ``1e4`` times the largest period otherwise.
    """
    if all(float(p).is_integer() for p in periods):
        lcm = 1
        for p in periods:
            lcm = math.lcm(lcm, int(p))
        return float(lcm)
    return 1e4 * max(periods)


# ---------------------------------------------------------------------------
# Compile cache
# ---------------------------------------------------------------------------
class _BoundedRegistry:
    """Tiny LRU map (fingerprint -> compiled snapshot / memoised result)."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            self._data.move_to_end(key)
        except KeyError:
            return default
        return self._data[key]

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
    that mutates one in place must not reuse it across analyses.  A
    miss compiles through :func:`compile_tasksets`, the one compile path.
    """
    if isinstance(taskset, CompiledTaskSet):
        return taskset
    compiled = getattr(taskset, _COMPILED_ATTR, None)
    if compiled is not None:
        return compiled
    return compile_tasksets([taskset])[0]


def compile_tasksets(
    tasksets: Sequence[Union[TaskSet, CompiledTaskSet]],
) -> List[CompiledTaskSet]:
    """Compile many task sets in one pass (cached like :func:`compile_taskset`).

    Returns the same snapshots ``[compile_taskset(ts) for ts in tasksets]``
    would — same instance-attribute and registry caching — and cold
    misses share one extraction pass: each task's parameters are read
    once (feeding both the parameter matrix and, unless the set's key
    already memoised it, the content digest), all
    missed sets' rows go through a *single* ``np.array`` call, and every
    snapshot's parameter columns are views into the shared matrix.
    Population-scale front-ends compile hundreds of small sets per call,
    where the per-set ``np.array``/attribute-access overhead dominates
    the compile cost.
    """
    out: List[Optional[CompiledTaskSet]] = [None] * len(tasksets)
    miss: List[Tuple[int, Any, str, List[Tuple[Any, ...]]]] = []
    dupes: List[Tuple[int, Any, str]] = []
    # This call's snapshots by fingerprint: registry hits, and the misses
    # (None until compiled below).  Duplicates resolve from here, since
    # the misses' registry entries may evict the very snapshots they need.
    found: Dict[str, Optional[CompiledTaskSet]] = {}
    for pos, ts in enumerate(tasksets):
        cached = ts if isinstance(ts, CompiledTaskSet) else getattr(ts, _COMPILED_ATTR, None)
        if cached is not None:
            out[pos] = cached
            continue
        rows = [
            (t.name, t.crit.value, t.c_lo, t.c_hi, t.d_lo, t.d_hi, t.t_lo, t.t_hi)
            for t in ts
        ]
        fingerprint = taskset_fingerprint(ts, rows)
        cached = _COMPILED_REGISTRY.get(fingerprint)
        if cached is not None or fingerprint in found:
            found.setdefault(fingerprint, cached)
            dupes.append((pos, ts, fingerprint))
            continue
        found[fingerprint] = None
        miss.append((pos, ts, fingerprint, rows))
    if miss:
        with trace.span("kernels.compile", n_sets=len(miss)):
            flat = [row for _, _, _, rows in miss for row in rows]
            cols = np.array([row[2:] for row in flat], dtype=float).reshape(-1, 6).T.copy()
            hi_flags = np.array([row[1] == "HI" for row in flat], dtype=bool)
            hi_inf = np.isinf(cols[5])
            terminated = ~hi_flags & hi_inf & np.isinf(cols[3])
            end = 0
            for pos, ts, fingerprint, rows in miss:
                start, end = end, end + len(rows)
                compiled = CompiledTaskSet._from_arrays(
                    tuple([row[0] for row in rows]), hi_flags[start:end],
                    *cols[:, start:end], taskset=ts, fingerprint=fingerprint,
                    hi_inf=hi_inf[start:end], terminated=terminated[start:end],
                )
                found[fingerprint] = compiled
                out[pos] = _attach(ts, fingerprint, compiled)
    for pos, ts, fingerprint in dupes:
        compiled = found[fingerprint]
        assert compiled is not None
        out[pos] = _attach(ts, fingerprint, compiled)  # refreshes its LRU slot
    return cast(List[CompiledTaskSet], out)


def _attach(taskset: TaskSet, fingerprint: str, compiled: CompiledTaskSet) -> CompiledTaskSet:
    """Register ``compiled`` under ``fingerprint`` and cache it on ``taskset``."""
    _COMPILED_REGISTRY.put(fingerprint, compiled)
    try:
        setattr(taskset, _COMPILED_ATTR, compiled)
    except (AttributeError, TypeError):  # pragma: no cover - exotic subclasses
        pass
    return compiled


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

    Members are grouped into height *buckets*: every set with
    ``n <= _SHARED_BUCKET_MAX`` tasks shares one bucket whose height is
    the tallest such member's (at least 1: members may be empty), larger
    sets land in power-of-two buckets (``P = 2^ceil(log2 n)``) so ragged
    large populations cannot explode the bucket count.
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
        # every member's LO rows, concatenated once (probe_lo_deadline_factors)
        "_lo_rows",
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
        shared = max(
            [1] + [m.n for m in members if m.n <= _SHARED_BUCKET_MAX]
        )
        for index, member in enumerate(members):
            if member.n <= _SHARED_BUCKET_MAX:
                height = shared
            else:
                height = 1 << (member.n - 1).bit_length()
            slots = bucket_members.setdefault(height, [])
            bucket_of.append(height)
            slot_of.append(len(slots))
            slots.append(index)
        self._bucket_of = np.array(bucket_of, dtype=np.int64)
        self._slot_of = np.array(slot_of, dtype=np.int64)
        self._bucket_members = bucket_members
        # Parameter matrices are built lazily per (bucket, kind): a pure
        # min_speedup batch never pays for the LO or ADB layouts.
        self._lo_mats = {}
        self._hi_mats = {}
        self._bp_cats = {}
        self._eval_stacks = {}
        self._lo_rows = None
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
    def _concat(self, bucket: int) -> Callable[[str], np.ndarray]:
        """:func:`_stacked` over the bucket's members."""
        return _stacked([self.members[index] for index in self._bucket_members[bucket]])

    def _padded(
        self, bucket: int, columns: Mapping[str, Tuple[float, np.ndarray]]
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """The bucket's padded ``(P, sets)`` parameter matrices, in one pass.

        ``columns`` maps each parameter to its neutral padding value and
        the bucket members' concatenated rows.  The matrices are the
        leading-axis slices of one C-contiguous ``(parameters, P, sets)``
        block, set to the padding values first; one fancy-index
        assignment then puts each member's rows at the top of its slot.
        Returns the matrices and the block.
        """
        sizes = np.fromiter(
            (self.members[index].n for index in self._bucket_members[bucket]),
            dtype=np.int64,
        )
        block = np.empty((len(columns), bucket, sizes.size))
        block[...] = np.array([pad for pad, _ in columns.values()])[:, None, None]
        rows = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        slots = np.repeat(np.arange(sizes.size), sizes)
        block[:, rows, slots] = [values for _, values in columns.values()]
        return dict(zip(columns, block)), block

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
        cat = self._concat(bucket)
        mats, block = self._padded(
            bucket,
            {
                "d_lo": (0.0, cat("d_lo")),
                "t_lo": (np.inf, cat("t_lo")),
                "c_lo": (0.0, cat("c_lo")),
            },
        )
        self._lo_mats[bucket] = mats
        self._eval_stacks[("lo", bucket, False)] = block.reshape(3 * bucket, -1)
        return mats

    def _hi_bundle(self, bucket: int) -> Dict[str, np.ndarray]:
        """``(P, sets)`` DBF_HI/ADB_HI parameters: the :func:`_hi_columns`
        of the bucket members' concatenated full task rows, padded with
        :data:`_HI_PADDING`, so padding rows evaluate to +0.0 under every
        kind and flag."""
        mats = self._hi_mats.get(bucket)
        if mats is not None:
            return mats
        cat = self._concat(bucket)
        cols = _hi_columns(
            cat("c_lo"), cat("c_hi"), cat("d_lo"), cat("d_hi"), cat("t_hi"),
            cat("hi_inf"), cat("terminated"),
        )
        mats, _ = self._padded(
            bucket, {name: (_HI_PADDING[name], col) for name, col in cols.items()}
        )
        self._hi_mats[bucket] = mats
        return mats

    # ------------------------------------------------------------------
    # Batched member preparation
    # ------------------------------------------------------------------
    def prepare_tables(self, kind: str) -> None:
        """Batch-build every member's ``kind`` breakpoint table.

        One :func:`_breakpoint_table` pass over the pending members'
        concatenated rows, grouped by member: each member gets the pairs
        and density its lazy ``_ensure_breakpoint_table`` would build, in
        the same order, without hundreds of tiny per-member array
        constructions.  Members that already built the table keep it
        untouched; lockstep scans call this up front so the per-round
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
        sizes = np.fromiter((m.n for m in pending), dtype=np.int64, count=len(pending))
        owner = np.repeat(np.arange(len(pending)), sizes)
        cat = _stacked(pending)
        terminated = cat("terminated")
        hi_inf = cat("hi_inf")
        off, per, terms, own, term_own = _breakpoint_table(
            kind, cat("c_lo"), cat("d_lo"), cat("d_hi"), cat("t_hi"), hi_inf,
            terminated, owner,
        )
        assert own is not None and term_own is not None
        # A stable sort by owner groups the pieces per member, keeping
        # each member's piece order.
        order = np.argsort(own, kind="stable")
        off = off[order]
        per = per[order]
        members = np.arange(len(pending) + 1)
        bounds = np.searchsorted(own[order], members).tolist()
        term_bounds = np.searchsorted(term_own, members).tolist()
        terms_list = terms.tolist()
        # Members owning a non-terminated T(HI) = inf row keep DBF_HI
        # points that occur once (see CompiledTaskSet._carry_points).
        carry = set(owner[~terminated & hi_inf].tolist()) if kind == "dbf" else set()
        for i, member in enumerate(pending):
            member._bp_once[kind] = member._carry_points() if i in carry else _NO_POINTS
            member._bp_off[kind] = off[bounds[i] : bounds[i + 1]]
            member._bp_per[kind] = per[bounds[i] : bounds[i + 1]]
            member._density[kind] = float(
                sum(terms_list[term_bounds[i] : term_bounds[i + 1]])
            )

    # ------------------------------------------------------------------
    # Eq.-(13) probes in place (the exact-x bisection)
    # ------------------------------------------------------------------
    def _lo_columns(self) -> Dict[str, np.ndarray]:
        """Every member's Eq.-(13) inputs, concatenated once in member
        order (a probe round gathers its rows from these)."""
        cols = self._lo_rows
        if cols is None:
            cat = _stacked(self.members)
            cols = {name: cat(name) for name in ("c_lo", "t_lo", "d_lo", "d_hi", "is_hi")}
            self._lo_rows = cols
        return cols

    def probe_lo_deadline_factors(
        self, indices: Sequence[int], xs: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Point members' LO-kind tables at Eq.-(13) probe factors.

        Member ``indices[k]``'s ``D(LO)`` column becomes the one
        ``members[indices[k]].with_hi_lo_deadline_factor(xs[k])`` holds —
        the same elementwise operations, run on rows gathered from the
        population's concatenated columns — in the ``"lo"`` parameter
        matrices (and with them the stacked ``"lo"`` evaluation matrix)
        and in the ``"lo"`` breakpoint table.  Only this population's own
        tables are written, never a member: per-set fallbacks go through
        :meth:`snapshot`, which derives the probe snapshot on first use.
        The HI-kind tables keep the members' columns, so a probed
        population serves LO demand only (:meth:`eval_many` and
        :meth:`breakpoints_many` refuse the HI kinds).

        Returns columns ``(d_lo, bounds, lo_excess, max_d_lo)``: the
        probed ``D(LO)`` rows, member ``k``'s at
        ``d_lo[bounds[k]:bounds[k + 1]]``, and per member the two LO-mode
        aggregates that depend on ``x``, its ``lo_excess`` and its largest
        ``D(LO)``.  Both are reductions over one padded ``(rows, members)``
        block; the excess terms add row by row, in task order, like
        :meth:`CompiledTaskSet._compile_scalars`.
        """
        for x in xs:
            if not 0 < x <= 1:
                raise ModelError(f"x must be in (0, 1], got {x}")
        idx = np.asarray(indices, dtype=np.int64)
        if not idx.size:
            return _NO_POINTS, np.zeros(1, dtype=np.int64), _NO_POINTS, _NO_POINTS
        starts, offsets, _, _ = self._bp_cat("lo")
        sizes = starts[idx + 1] - starts[idx]
        bounds = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        member = np.repeat(np.arange(idx.size), sizes)
        # A member's rows sit at ``starts[member] + within`` in the
        # concatenated columns and the breakpoint table, and at
        # ``(within, slot)`` in its bucket.
        within = np.arange(bounds[-1]) - bounds[member]
        rows = starts[idx][member] + within
        cols = self._lo_columns()
        c_lo = cols["c_lo"][rows]
        t_lo = cols["t_lo"][rows]
        d_lo = _eq13_d_lo(
            np.asarray(xs, dtype=float)[member],
            cols["is_hi"][rows],
            cols["d_hi"][rows],
            c_lo,
            cols["d_lo"][rows],
        )
        offsets[rows] = d_lo
        row_bucket = self._bucket_of[idx][member]
        row_slot = self._slot_of[idx][member]
        for bucket in self._bucket_members:
            sel = row_bucket == bucket
            if sel.any():
                self._lo_bundle(bucket)["d_lo"][within[sel], row_slot[sel]] = d_lo[sel]
        self._lo_probes.update(zip(idx.tolist(), xs))
        if self._lo_derived:
            for index in idx.tolist():
                self._lo_derived.pop(index, None)
        # Excess terms on the real rows only: a padding row's
        # ``0 * max(inf - 0, 0)`` would be NaN.  At least two columns, as
        # in ``_column_sum``: NumPy sums a ``(P, 1)`` block pairwise.
        shape = (int(sizes.max(initial=0)), max(idx.size, 2))
        excess = np.zeros(shape)
        excess[within, member] = c_lo / t_lo * np.maximum(t_lo - d_lo, 0.0)
        longest = np.full(shape, -np.inf)
        longest[within, member] = d_lo
        return (
            d_lo,
            bounds,
            np.add.reduce(excess, axis=0)[: idx.size],
            longest.max(axis=0, initial=-np.inf)[: idx.size],
        )

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
    def fuses(self, member_index: Any, n_points: Any) -> Any:
        """Would :meth:`eval_many` fuse an ``n_points``-delta item?

        ``False`` means the item alone fills a whole evaluation chunk and
        eval_many would delegate it to the member's per-set kernel.
        Lockstep scans use this to route such items through the member's
        *pruned* evaluators (``window_peak``/``lo_demand_ok``) instead —
        same verdicts and trajectories, with stripe pruning intact.
        Takes one item or arrays of them.
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
        A list wrapper over :meth:`eval_flat`, so the call count scales
        with buckets, not sets.

        Items whose delta array alone fills a whole evaluation chunk
        gain nothing from fusion (there is no call overhead left to
        amortize) and would pay for the bucket padding rows — they are
        delegated to the member's own per-set kernel (its probe
        snapshot's, :meth:`snapshot`), which returns bit-identical
        demand by the kernel contract.
        """
        self._check_kind(kind)
        arrays = [np.atleast_1d(np.asarray(deltas, dtype=float)) for _, deltas in items]
        results: List[np.ndarray] = [np.empty(0)] * len(items)
        midx = np.fromiter((index for index, _ in items), dtype=np.int64, count=len(items))
        sizes = np.fromiter((a.size for a in arrays), dtype=np.int64, count=len(items))
        fused = self.fuses(midx, sizes)
        for pos in np.flatnonzero(~fused).tolist():
            member = self.snapshot(int(midx[pos]))
            if kind == "lo":
                out = member.total_dbf_lo(arrays[pos])
            elif kind == "dbf":
                out = member.total_dbf_hi(arrays[pos])
            else:
                out = member.total_adb_hi(
                    arrays[pos], drop_terminated_carryover=drop_terminated_carryover
                )
            results[pos] = np.asarray(out, dtype=float)
        together = np.flatnonzero(fused & (sizes > 0)).tolist()
        if together:
            totals = self.eval_flat(
                kind,
                np.repeat(midx[together], sizes[together]),
                np.concatenate([arrays[pos] for pos in together]),
                drop_terminated_carryover=drop_terminated_carryover,
            )
            offset = 0
            for pos in together:
                size = arrays[pos].size
                results[pos] = totals[offset : offset + size]
                offset += size
        return results

    def eval_flat(
        self,
        kind: str,
        members: np.ndarray,
        deltas: np.ndarray,
        *,
        drop_terminated_carryover: bool = False,
    ) -> np.ndarray:
        """Demand at every ``deltas[j]`` for member ``members[j]``: the
        flat form of :meth:`eval_many`, one fused pass per bucket and no
        per-set delegation (callers route chunk-filling windows, see
        :meth:`fuses`).  Points of one item must be adjacent."""
        self._check_kind(kind)
        start = time.perf_counter()
        buckets = self._bucket_of[members]
        slots = self._slot_of[members]
        totals = np.empty(deltas.size)
        for bucket in self._bucket_members:
            sel = buckets == bucket
            if sel.any():
                totals[sel] = self._eval_bucket(
                    kind, bucket, deltas[sel], slots[sel],
                    drop_terminated_carryover=drop_terminated_carryover,
                )
        PERF.kernel_seconds += time.perf_counter() - start
        return totals

    def _eval_bucket(
        self,
        kind: str,
        bucket: int,
        deltas: np.ndarray,
        cols: np.ndarray,
        *,
        drop_terminated_carryover: bool,
    ) -> np.ndarray:
        # ``cols`` is piecewise-constant by construction (``eval_flat``
        # takes each item's points adjacent).  Chunk windows that
        # span few constant-column runs (large items) broadcast
        # ``(bucket, 1)`` parameter column views against each run's delta
        # block; windows spanning many runs (many small items) gather the
        # window's columns of *all* parameter matrices in one ``np.take``
        # over a vertically stacked matrix, then evaluate the whole
        # window in a single fused call over the row-slice views.  Both
        # run the per-set kernels' row formulas and column sum
        # (:func:`_column_sum`): ``np.take`` writes a fresh C-ordered
        # gather (a ``mat[:, sel]`` fancy index would come back
        # F-ordered), its row slices are C-contiguous views, and ufunc
        # results are fresh C-contiguous arrays — keeping
        # ``np.add.reduce(axis=0)`` on the sequential row-order path the
        # bit-exactness contract requires.  Each output column's sum is
        # independent of its neighbours, so the window partition never
        # matters.
        rows: Callable[..., np.ndarray]
        flags: Tuple[bool, ...]
        if kind == "lo":
            lo_mats = self._lo_bundle(bucket)
            rows, flags = _dbf_lo_rows, ()
            parts: Tuple[np.ndarray, ...] = (
                lo_mats["d_lo"], lo_mats["t_lo"], lo_mats["c_lo"],
            )
        else:
            rows, flags = _hi_rows, (kind == "adb",)
            parts = _hi_params(self._hi_bundle(bucket), kind, drop_terminated_carryover)

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
                    views = tuple(part[:, col : col + 1] for part in parts)
                    totals[seg_lo:seg_hi] = _column_sum(
                        rows, deltas[seg_lo:seg_hi], views + flags
                    )
            else:
                gathered = np.take(stack, cols[lo:hi], axis=1)
                views = tuple(
                    gathered[i * bucket : (i + 1) * bucket] for i in range(len(parts))
                )
                totals[lo:hi] = _column_sum(rows, deltas[lo:hi], views + flags)
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
        triples; every returned array is bit-identical to the member's
        own ``breakpoints_in``.  A list wrapper over
        :meth:`breakpoints_flat`: the windows it leaves alone go to the
        member's own generator (its probe snapshot's, :meth:`snapshot`;
        same output).  Candidate budgets are charged by each member's
        scan generator.
        """
        self._check_kind(kind)
        n_items = len(items)
        results: List[np.ndarray] = [np.empty(0)] * n_items
        if not n_items:
            return results
        midx = np.fromiter((item[0] for item in items), dtype=np.int64, count=n_items)
        wlo = np.fromiter((item[1] for item in items), dtype=float, count=n_items)
        whi = np.fromiter((item[2] for item in items), dtype=float, count=n_items)
        points, owner, alone = self.breakpoints_flat(kind, midx, wlo, whi)
        for pos in alone.tolist():
            results[pos] = self.snapshot(int(midx[pos])).breakpoints_in(
                float(wlo[pos]), float(whi[pos]), kind=kind
            )
        if points.size:
            bounds = np.searchsorted(owner, np.arange(n_items + 1)).tolist()
            for pos in range(n_items):
                if bounds[pos] < bounds[pos + 1]:
                    results[pos] = points[bounds[pos] : bounds[pos + 1]]
        return results

    def breakpoints_flat(
        self, kind: str, members: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every window's breakpoints in one flat lattice expansion.

        Window ``j`` is ``(lo[j], hi[j]]`` of member ``members[j]``.  All
        windows' ``(offset, period)`` lattice pairs are gathered from the
        cached per-kind table (:meth:`_bp_cat`) with per-pair window
        bounds and owner tags, expanded by :func:`_lattice_expand`
        like :meth:`CompiledTaskSet.breakpoints_in`, sorted within each
        window and de-duplicated with the per-set semantics
        (:func:`_thinned`, exact and then near for the HI kinds, reset
        at window boundaries).

        Returns ``(points, owner, alone)``: the points, ``owner[i]`` the
        window of ``points[i]`` (non-decreasing), and the windows left to
        the member's own ``breakpoints_in`` — members with points outside
        the lattice, and windows denser than ``_FUSE_POINTS`` lattice
        points, where the per-set generator skips the owner-tagged
        temporaries.  Their points are not in ``points``.
        """
        self._check_kind(kind)
        n_items = members.size
        starts_tab, off_cat, per_cat, carry_tab = self._bp_cat(kind)
        sizes = starts_tab[members + 1] - starts_tab[members]
        alone = carry_tab[members]
        sizes = np.where(alone, 0, sizes)
        total_pairs = int(sizes.sum())
        if total_pairs == 0:
            return _NO_POINTS, np.empty(0, dtype=np.int64), np.flatnonzero(alone)
        item_starts = np.cumsum(sizes) - sizes
        item_of_pair = np.repeat(np.arange(n_items), sizes)
        pair_idx = np.repeat(starts_tab[members] - item_starts, sizes) + np.arange(
            total_pairs
        )
        off = off_cat[pair_idx]
        per = per_cat[pair_idx]
        lo_pair = lo[item_of_pair]
        hi_pair = hi[item_of_pair]
        # The window bounds are broadcast per pair, so every lattice index
        # is the member's own enumeration's (:meth:`breakpoints_in`).
        k_min, counts = _lattice_counts(off, per, lo_pair, hi_pair)
        ccnt = np.concatenate(([0], np.cumsum(counts)))
        bnd = np.concatenate((item_starts, [total_pairs]))
        dense = ccnt[bnd[1:]] - ccnt[bnd[:-1]] > _FUSE_POINTS
        owner_pair = item_of_pair
        if dense.any():
            alone |= dense
            keep_pair = ~dense[item_of_pair]
            off = off[keep_pair]
            per = per[keep_pair]
            k_min = k_min[keep_pair]
            counts = counts[keep_pair]
            lo_pair = lo_pair[keep_pair]
            hi_pair = hi_pair[keep_pair]
            owner_pair = item_of_pair[keep_pair]
        start = time.perf_counter()
        points, tagged = _lattice_expand(
            off, per, k_min, counts, lo_pair, hi_pair, owner_pair
        )
        assert tagged is not None
        owner = tagged
        if points.size:
            # ``owner`` is already non-decreasing (pairs are expanded in
            # window order and boolean filtering preserves order), so all a
            # two-key lexsort would do is order points within each owner
            # run — per-run direct sorts are far cheaper than one
            # indirect sort over every window's points.
            run_bounds = np.searchsorted(owner, np.arange(n_items + 1)).tolist()
            for pos in range(n_items):
                if run_bounds[pos + 1] - run_bounds[pos] > 1:
                    points[run_bounds[pos] : run_bounds[pos + 1]].sort()
            first = np.empty(points.size, dtype=bool)
            first[0] = True
            first[1:] = owner[1:] != owner[:-1]
            keep = _thinned(points, first)
            points, owner = points[keep], owner[keep]
            if kind != "lo":
                keep = _thinned(points, first[keep], near=True)
                points, owner = points[keep], owner[keep]
        PERF.candidates += int(points.size)
        PERF.kernel_seconds += time.perf_counter() - start
        return points, owner, np.flatnonzero(alone)


def _stacked(members: Sequence[CompiledTaskSet]) -> Callable[[str], np.ndarray]:
    """``cat(name)``: the ``members``' ``name`` columns, concatenated in
    member order (every row of a member is one row of the result)."""
    return lambda name: np.concatenate([getattr(m, name) for m in members])


def compile_population(
    tasksets: "Sequence[Union[TaskSet, CompiledTaskSet]]",
) -> CompiledPopulation:
    """Compile many task sets into one population SoA layout.

    Members already compiled (or derived snapshots) are adopted as-is;
    plain ``TaskSet`` members go through :func:`compile_tasksets`, so
    population compiles share the same registry as per-set compiles.
    """
    return CompiledPopulation._from_members(tuple(compile_tasksets(tasksets)))


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
    def lo_span(self) -> float:
        return self._scalar("lo_span", lambda: _period_span(self.t_lo.tolist()))

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

    def lo_demand_ok(self, candidates: np.ndarray, speed: float) -> bool:
        """Exhaustive LO-mode supply check (the pre-pruning behaviour)."""
        demand = np.asarray(self.total_dbf_lo(candidates), dtype=float)
        return not bool(np.any(demand > lo_supply_threshold(speed, candidates)))

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
    ) -> np.ndarray:
        if kind == "lo":
            return pts.dbf_lo_breakpoints_in(self.taskset, lo, hi)
        return pts.breakpoints_in(self.taskset, lo, hi, kind=kind)


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
#: Marks an absent memo key (a stored result may be ``None``).
_ABSENT = object()


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

    def lookup(self, key: Tuple[Any, ...], default: Any = None) -> Any:
        """The stored value (a stored ``None`` too), or ``default`` when
        ``key`` is absent; only an absent key counts as a miss."""
        value = self._store.get(key, _ABSENT)
        if value is _ABSENT:
            PERF.memo_misses += 1
            return default
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
