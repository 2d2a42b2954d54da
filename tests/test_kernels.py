"""Property and parity tests for the compiled demand kernels.

The contract of :mod:`repro.analysis.kernels` is *bit-exactness*: the
struct-of-arrays fast path must reproduce the scalar ``dbf.py`` /
``points.py`` oracle down to the last ulp — including the
``FLOOR_SLACK`` right-continuity edge, terminated tasks
(``T(HI) = inf``), degraded tasks, and the stripe-pruned scan
shortcuts.  These tests pin that contract with hypothesis-generated
small sets, seeded random populations, and full old-path vs new-path
result equality on a 200-set parity population.
"""

import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import dbf, kernels, points
from repro.analysis.kernels import (
    MEMO,
    ScalarEvaluator,
    clear_compile_cache,
    clear_memo,
    compile_taskset,
)
from repro.analysis.per_task_tuning import (
    _dominant_carryover_task,
    tune_per_task_deadlines,
)
from repro.analysis.resetting import resetting_time
from repro.analysis.schedulability import lo_mode_schedulable
from repro.analysis.speedup import min_speedup
from repro.model.fingerprint import (
    FINGERPRINT_VERSION,
    digest_task_rows,
    taskset_fingerprint,
)
from repro.model.task import Criticality, MCTask
from repro.model.taskset import TaskSet
from repro.model.transform import scale_wcet_uncertainty, shorten_hi_deadlines
from repro.pipeline.request import AnalysisRequest, evaluate_request


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_memo()
    clear_compile_cache()
    yield
    clear_memo()
    clear_compile_cache()


# ----------------------------------------------------------------------
# Seeded mixed populations (HI + terminated + degraded + carry-only LO)
# ----------------------------------------------------------------------
def make_set(n, seed, name):
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n):
        kind = rng.choice(["hi", "term", "degr", "carry"], p=[0.5, 0.2, 0.15, 0.15])
        t = rng.uniform(10, 200)
        c_lo = rng.uniform(0.5, 0.08 * t)
        d_lo = rng.uniform(max(c_lo, 0.6 * t), t)
        if kind == "hi":
            c_hi = c_lo * rng.uniform(1.2, 2.0)
            d_hi = rng.uniform(max(d_lo, c_hi), t)
            tasks.append(MCTask(f"t{i}", Criticality.HI, c_lo, c_hi, d_lo, d_hi, t, t))
        elif kind == "term":
            tasks.append(
                MCTask(f"t{i}", Criticality.LO, c_lo, c_lo, d_lo, math.inf, t, math.inf)
            )
        elif kind == "carry":
            # T(HI) = inf with a finite D(HI): one carried job, whose
            # breakpoints lie outside the period lattice.
            d_hi = rng.uniform(d_lo, 2 * t)
            tasks.append(
                MCTask(f"t{i}", Criticality.LO, c_lo, c_lo, d_lo, d_hi, t, math.inf)
            )
        else:
            t_hi = rng.uniform(t, 2 * t)
            d_hi = rng.uniform(max(d_lo, c_lo), t_hi)
            tasks.append(
                MCTask(f"t{i}", Criticality.LO, c_lo, c_lo, d_lo, d_hi, t, t_hi)
            )
    return TaskSet(tasks, name)


def parity_population(count):
    sizes = np.random.default_rng(2024).integers(3, 60, size=count)
    return [make_set(int(n), 1000 + i, f"p{i}") for i, n in enumerate(sizes)]


# ----------------------------------------------------------------------
# Kernels == scalar oracle (hypothesis over seeds + probe points)
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=25),
)
def test_fused_kernels_match_scalar_oracle(seed, n):
    ts = make_set(n, seed, "hyp")
    compiled = compile_taskset(ts)
    rng = np.random.default_rng(seed)
    probes = rng.uniform(0.0, 600.0, size=17)
    # Breakpoint-aligned probes hit the FLOOR_SLACK right-continuity
    # edge; exact deadlines/periods land on the jump instants.
    aligned = points.breakpoints_in(ts, 0.0, 500.0)[:32]
    for deltas in (probes, aligned):
        if deltas.size == 0:
            continue
        assert np.array_equal(compiled.total_dbf_lo(deltas), dbf.total_dbf_lo(ts, deltas))
        assert np.array_equal(compiled.total_dbf_hi(deltas), dbf.total_dbf_hi(ts, deltas))
        for drop in (False, True):
            assert np.array_equal(
                compiled.total_adb_hi(deltas, drop_terminated_carryover=drop),
                dbf.total_adb_hi(ts, deltas, drop_terminated_carryover=drop),
            )
    # Scalar (0-d) evaluation goes through the widened single-column path.
    for delta in (0.0, float(probes[0]), *aligned[:3].tolist()):
        assert compiled.total_dbf_hi(delta) == dbf.total_dbf_hi(ts, delta)
    # The same rows, fused beside another set in a two-member population,
    # on many-point and one-point items.
    sets = (ts, make_set(7, seed + 1, "other"))
    pop = kernels.compile_population(sets)
    items = [(0, probes), (1, probes), (0, probes[:1]), (1, probes[1:2])]
    items += [(0, aligned), (0, aligned[:1])] if aligned.size else []
    for kind, drop in (("lo", False), ("dbf", False), ("adb", False), ("adb", True)):
        fused = pop.eval_many(kind, items, drop_terminated_carryover=drop)
        for (index, deltas), demand in zip(items, fused):
            if kind == "lo":
                expected = dbf.total_dbf_lo(sets[index], deltas)
            elif kind == "dbf":
                expected = dbf.total_dbf_hi(sets[index], deltas)
            else:
                expected = dbf.total_adb_hi(
                    sets[index], deltas, drop_terminated_carryover=drop
                )
            assert np.array_equal(demand, expected)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=25),
)
def test_breakpoint_tables_match_points_module(seed, n):
    ts = make_set(n, seed, "hyp")
    compiled = compile_taskset(ts)
    windows = [(0.0, 250.0), (250.0, 900.0), (1e-9, 10.0)]
    for lo, hi in windows:
        assert np.array_equal(
            compiled.breakpoints_in(lo, hi, kind="dbf"),
            points.breakpoints_in(ts, lo, hi, kind="dbf"),
        )
        assert np.array_equal(
            compiled.breakpoints_in(lo, hi, kind="adb"),
            points.breakpoints_in(ts, lo, hi, kind="adb"),
        )
        assert np.array_equal(
            compiled.breakpoints_in(lo, hi, kind="lo"),
            points.dbf_lo_breakpoints_in(ts, lo, hi),
        )
    for kind in ("dbf", "adb"):
        assert compiled.candidate_density(kind) == points.candidate_density(ts, kind)
    # Fresh snapshots beside another set: one batched table build
    # (prepare_tables), then fused windows.
    clear_compile_cache()
    sets = (make_set(n, seed, "hyp"), make_set(7, seed + 1, "other"))
    pop = kernels.compile_population(sets)
    items = [(index, lo, hi) for lo, hi in windows for index in (0, 1)]
    for kind in ("dbf", "adb", "lo"):
        pop.prepare_tables(kind)
        for (index, lo, hi), found in zip(items, pop.breakpoints_many(items, kind=kind)):
            if kind == "lo":
                expected = points.dbf_lo_breakpoints_in(sets[index], lo, hi)
            else:
                expected = points.breakpoints_in(sets[index], lo, hi, kind=kind)
            assert np.array_equal(found, expected)
    for kind in ("dbf", "adb"):
        for taskset, member in zip(sets, pop.members):
            assert member.candidate_density(kind) == points.candidate_density(taskset, kind)


def test_scan_shortcuts_match_exhaustive_evaluation():
    """Stripe pruning must not change any peak/verdict (seeded, m >> stripe)."""
    for seed in range(8):
        ts = make_set(50, 7000 + seed, f"sc{seed}")
        compiled = compile_taskset(ts)
        oracle = ScalarEvaluator(ts)
        candidates = compiled.breakpoints_in(0.0, 2000.0, kind="dbf")
        assert candidates.size >= 3 * kernels._STRIPE
        assert compiled.window_peak(candidates) == oracle.window_peak(candidates)
        lo_cands = compiled.breakpoints_in(0.0, 2000.0, kind="lo")
        peak_ratio = oracle.window_peak(lo_cands if lo_cands.size else candidates)[0]
        for speed in (0.5, 0.9 * peak_ratio, peak_ratio, 1.1 * peak_ratio, 4.0):
            assert compiled.lo_demand_ok(lo_cands, speed) == oracle.lo_demand_ok(
                lo_cands, speed
            )


def test_dominant_carryover_matches_scalar_loop():
    for seed in range(10):
        ts = make_set(30, 8000 + seed, f"dc{seed}")
        for delta in (0.0, 3.7, 25.0, 111.3, 500.0):
            fast = _dominant_carryover_task(ts, delta, engine="compiled")
            slow = _dominant_carryover_task(ts, delta, engine="scalar")
            if slow is None:
                assert fast is None
            else:
                assert fast is not None and fast.name == slow.name


# ----------------------------------------------------------------------
# Fingerprints and snapshot identity
# ----------------------------------------------------------------------
def test_digest_task_rows_pins_reference_encoding():
    ts = make_set(6, 42, "ref")
    parts = [b"repro-taskset-fingerprint:%d\x00" % FINGERPRINT_VERSION]
    for t in sorted(ts, key=lambda task: task.name):
        encoded = t.name.encode("utf-8")
        parts.append(len(encoded).to_bytes(4, "little"))
        parts.append(encoded)
        parts.append(b"\x01" if t.crit is Criticality.HI else b"\x00")
        parts.append(
            struct.pack("<6d", t.c_lo, t.c_hi, t.d_lo, t.d_hi, t.t_lo, t.t_hi)
        )
    expected = hashlib.sha256(b"".join(parts)).hexdigest()
    assert taskset_fingerprint(ts) == expected
    assert digest_task_rows(
        (t.name, t.crit.value, t.c_lo, t.c_hi, t.d_lo, t.d_hi, t.t_lo, t.t_hi)
        for t in sorted(ts, key=lambda task: task.name)
    ) == expected


def test_fingerprint_invariances_and_sensitivity():
    ts = make_set(8, 43, "base")
    reordered = TaskSet(list(reversed(list(ts))), "base")
    renamed = TaskSet(list(ts), "another-name")
    assert taskset_fingerprint(reordered) == taskset_fingerprint(ts)
    assert taskset_fingerprint(renamed) == taskset_fingerprint(ts)
    first = list(ts)[0]
    nudged = TaskSet(
        [
            MCTask(
                first.name, first.crit, first.c_lo, first.c_hi,
                np.nextafter(first.d_lo, 0.0), first.d_hi, first.t_lo, first.t_hi,
            ),
            *list(ts)[1:],
        ],
        "base",
    )
    assert taskset_fingerprint(nudged) != taskset_fingerprint(ts)


def test_compiled_fingerprint_matches_equivalent_taskset():
    ts = make_set(10, 44, "fp")
    compiled = compile_taskset(ts)
    assert compiled.fingerprint == taskset_fingerprint(ts)
    if ts.hi_tasks:
        x = 0.8
        derived = compiled.with_hi_lo_deadline_factor(x)
        assert derived.fingerprint == taskset_fingerprint(shorten_hi_deadlines(ts, x))
        gamma = 1.1
        derived = compiled.with_wcet_uncertainty(gamma)
        assert derived.fingerprint == taskset_fingerprint(
            scale_wcet_uncertainty(ts, gamma)
        )
        target = ts.hi_tasks[0]
        new_d_lo = max(target.c_lo, 0.9 * target.d_lo)
        derived = compiled.with_lo_deadline(target.name, new_d_lo)
        moved = ts.map(
            lambda t: t.with_lo_deadline(new_d_lo) if t.name == target.name else t
        )
        assert derived.fingerprint == taskset_fingerprint(moved)


def test_compile_cache_shares_equal_content():
    a = make_set(7, 45, "one")
    b = make_set(7, 45, "two")  # same tasks, different set name
    assert compile_taskset(a) is compile_taskset(b)
    clear_compile_cache()
    c = make_set(7, 45, "three")
    assert compile_taskset(c) is not None


# ----------------------------------------------------------------------
# Memo behaviour (satellite: fingerprint-keyed dedup)
# ----------------------------------------------------------------------
def test_memo_tokens_and_hit_semantics():
    ts = make_set(9, 46, "memo")
    compiled = compile_taskset(ts)
    assert compiled.memo_token == compiled.fingerprint
    if ts.hi_tasks:
        derived = compiled.with_hi_lo_deadline_factor(0.9)
        assert derived.memo_token == (compiled.fingerprint, "xfac", 0.9)
    # Falsy stored values must still read back as hits.
    MEMO.store(("k", 1), False)
    assert MEMO.lookup(("k", 1)) is False
    assert MEMO.lookup(("k", 2)) is None


def test_repeated_analyses_hit_the_memo():
    ts = make_set(12, 47, "hits")
    first = min_speedup(ts)
    before = kernels.perf_snapshot()
    twin = make_set(12, 47, "hits-twin")  # equal content, new instance
    again = min_speedup(twin)
    after = kernels.perf_snapshot()
    assert again == first
    assert after["memo_hits"] == before["memo_hits"] + 1
    assert after["kernel_evals"] == before["kernel_evals"]


# ----------------------------------------------------------------------
# Old-path vs new-path equality on the seeded parity population
# ----------------------------------------------------------------------
def test_min_speedup_and_resetting_parity_population():
    for ts in parity_population(200):
        clear_memo()
        assert (
            min_speedup(ts, engine="scalar").to_dict()
            == min_speedup(ts, engine="compiled").to_dict()
        )
        for s in (1.5, 3.0):
            assert (
                resetting_time(ts, s, engine="scalar").to_dict()
                == resetting_time(ts, s, engine="compiled").to_dict()
            )
        for speed in (0.8, 1.0):
            assert lo_mode_schedulable(ts, speed, engine="scalar") == (
                lo_mode_schedulable(ts, speed, engine="compiled")
            )


def test_analysis_report_parity():
    """Full AnalysisReport byte-identity between the two engines."""
    for i, ts in enumerate(parity_population(20)):
        clear_memo()
        reports = {}
        for engine in ("scalar", "compiled"):
            request = AnalysisRequest(
                taskset=ts,
                speedup=2.0,
                reset_budget=40.0,
                auto_x="exact" if i % 2 else None,
                per_task=(i % 4 == 1),
                engine=engine,
            )
            reports[engine] = json.dumps(
                evaluate_request(request).to_dict(), sort_keys=True
            )
        assert reports["scalar"] == reports["compiled"]


def test_request_key_ignores_engine():
    ts = make_set(5, 48, "key")
    scalar_key = AnalysisRequest(taskset=ts, speedup=2.0, engine="scalar").key
    compiled_key = AnalysisRequest(taskset=ts, speedup=2.0, engine="compiled").key
    assert scalar_key == compiled_key


def test_per_task_tuning_parity():
    ts = make_set(14, 49, "tune")
    fast = tune_per_task_deadlines(ts, engine="compiled")
    slow = tune_per_task_deadlines(ts, engine="scalar")
    if fast is None or slow is None:
        assert fast is None and slow is None
        return
    assert fast.s_min == slow.s_min
    assert fast.uniform_s_min == slow.uniform_s_min
    assert fast.moves == slow.moves
    assert fast.history == slow.history
