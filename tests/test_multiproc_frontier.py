"""Tests for the multiprocessor speedup frontier.

Covers the PR's satellite regressions (``max_s_min`` finiteness, the
heterogeneous-provisioning clamp, the EDF-VD tolerance contract), the
new baselines (EDF-VD with degraded quality, the dual-rate fluid
bound), hypothesis properties of the partitioning heuristics, the
kernel-backed vs scalar admission byte-identity acceptance criterion,
and the multiproc pipeline surface (request validation, report
roundtrip, figM, CLI).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.resetting import ResettingResult
from repro.analysis.schedulability import lo_mode_schedulable
from repro.analysis.speedup import SpeedupResult, min_speedup
from repro.baselines.edf_vd import (
    edf_vd_schedulable,
    edf_vd_virtual_deadline_factor,
)
from repro.baselines.edf_vd_degraded import (
    degraded_lo_utilization,
    edf_vd_degraded_schedulable,
    rung_quality,
)
from repro.baselines.fluid import (
    fluid_schedulable,
    fluid_speedup_bound,
)
from repro.generator.taskgen import GeneratorConfig, generate_taskset
from repro.model.task import MCTask, ModelError
from repro.model.taskset import TaskSet
from repro.multiproc import partition as partition_mod
from repro.multiproc.partition import (
    CoreDesign,
    PartitionedDesign,
    PartitioningError,
    min_cores,
    partition_tasks,
    partition_tasks_edf_vd_degraded,
    partitioned_design,
)
from repro.pipeline.request import AnalysisReport, AnalysisRequest, evaluate_request
from repro.sim.degradation import Rung

_CONFIG = GeneratorConfig()


def _workload(u_bound, cores, seed, name="w"):
    """A merged multi-core workload like figM builds."""
    rng = np.random.default_rng(seed)
    per_core = [
        generate_taskset(u_bound, rng, _CONFIG, name=f"{name}c{k}")
        for k in range(cores)
    ]
    return TaskSet([t for ts in per_core for t in ts], name=name)


def _assignment(parts):
    return {t.name: i for i, p in enumerate(parts) for t in p}


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------


def _core(index, taskset, s_min, delta_r=None):
    reset = (
        None
        if delta_r is None
        else ResettingResult(
            delta_r=delta_r,
            speedup=2.0,
            at_breakpoint=True,
            demand_at_crossing=0.0,
        )
    )
    return CoreDesign(
        index=index,
        taskset=taskset,
        s_min=SpeedupResult(
            s_min=s_min,
            critical_delta=None,
            exact=True,
            upper_bound=s_min,
            candidates_examined=0,
        ),
        resetting=reset,
    )


class TestMaxSMinFiniteness:
    """Regression: ``max_s_min`` must skip non-finite per-core values."""

    def test_inf_core_excluded(self):
        ts = TaskSet([MCTask.lo("l", c=1, d_lo=10, t_lo=10)])
        design = PartitionedDesign(
            cores=[_core(0, ts, 1.25), _core(1, ts, float("inf"))],
            speedup_cap=2.0,
        )
        assert design.max_s_min == 1.25

    def test_nan_core_excluded(self):
        ts = TaskSet([MCTask.lo("l", c=1, d_lo=10, t_lo=10)])
        design = PartitionedDesign(
            cores=[_core(0, ts, float("nan")), _core(1, ts, 1.5)],
            speedup_cap=2.0,
        )
        assert design.max_s_min == 1.5

    def test_all_nonfinite_gives_zero(self):
        ts = TaskSet([MCTask.lo("l", c=1, d_lo=10, t_lo=10)])
        design = PartitionedDesign(
            cores=[_core(0, ts, float("inf"))], speedup_cap=2.0
        )
        assert design.max_s_min == 0.0

    def test_empty_cores_ignored(self):
        design = PartitionedDesign(
            cores=[_core(0, TaskSet([]), 0.0)], speedup_cap=2.0
        )
        assert design.max_s_min == 0.0


class TestProvisioningClamp:
    """Regression: heterogeneous provisioning never evaluates below 1."""

    @pytest.fixture
    def light_set(self):
        return TaskSet(
            [
                MCTask.hi("h", c_lo=1, c_hi=1.2, d_lo=50, d_hi=100, period=100),
                MCTask.lo("l", c=1, d_lo=100, t_lo=100),
            ]
        )

    def test_light_core_provisioned_at_speedup(self, light_set, monkeypatch):
        # Force the exact analysis to report s_min < 1 (Example-1 style)
        # so the clamp is exercised regardless of the fixture's numbers.
        fake = SpeedupResult(
            s_min=0.5,
            critical_delta=None,
            exact=True,
            upper_bound=0.5,
            candidates_examined=0,
        )
        monkeypatch.setattr(partition_mod, "min_speedup", lambda ts, **kw: fake)
        speeds = []
        real = partition_mod.resetting_time

        def recording(ts, s, **kw):
            speeds.append(s)
            return real(ts, s, **kw)

        monkeypatch.setattr(partition_mod, "resetting_time", recording)
        design = partitioned_design(light_set, 1, evaluate_at_cap=False)
        # 0.5 * 1.01 would be a slowdown; the clamp lifts it above 1.
        assert speeds == [pytest.approx(1.0 + 1e-6)]
        assert design.cores[0].resetting is not None

    def test_at_cap_uses_cap(self, light_set, monkeypatch):
        speeds = []
        real = partition_mod.resetting_time

        def recording(ts, s, **kw):
            speeds.append(s)
            return real(ts, s, **kw)

        monkeypatch.setattr(partition_mod, "resetting_time", recording)
        partitioned_design(light_set, 1, speedup_cap=2.0, evaluate_at_cap=True)
        assert speeds == [2.0]


class TestEdfVdTolerance:
    """Regression: the headroom guard resolves at one ``_RTOL``."""

    def _set(self, u_lo_lo, u_hi_lo):
        tasks = []
        if u_lo_lo > 0:
            tasks.append(MCTask.lo("l", c=u_lo_lo * 10, d_lo=10, t_lo=10))
        if u_hi_lo > 0:
            tasks.append(
                MCTask.hi(
                    "h",
                    c_lo=u_hi_lo * 10,
                    c_hi=min(u_hi_lo * 10 * 1.0001, 10),
                    d_lo=10,
                    d_hi=10,
                    period=10,
                )
            )
        return TaskSet(tasks)

    def test_full_lo_with_negligible_hi_is_feasible(self):
        # headroom == 0 exactly, u_hi_lo below tolerance: x = 1.
        ts = self._set(1.0, 0.0)
        assert edf_vd_virtual_deadline_factor(ts) == 1.0

    def test_full_lo_with_real_hi_is_infeasible(self):
        ts = self._set(1.0 - 5e-10, 0.3)  # headroom 5e-10 <= _RTOL
        assert edf_vd_virtual_deadline_factor(ts) is None

    def test_just_inside_boundary_unchanged(self):
        ts = self._set(0.9, 0.05)
        x = edf_vd_virtual_deadline_factor(ts)
        assert x is not None and abs(x - 0.5) < 1e-9

    def test_same_verdict_both_sides_of_boundary(self):
        # A hair above vs a hair below U^LO_LO = 1 (within _RTOL) must
        # agree — the old code split them across different tolerances.
        lo = edf_vd_virtual_deadline_factor(self._set(1.0 - 1e-10, 0.2))
        hi = edf_vd_virtual_deadline_factor(self._set(1.0, 0.2))
        assert lo is None and hi is None


# ----------------------------------------------------------------------
# EDF-VD with degraded quality
# ----------------------------------------------------------------------


class TestRungQuality:
    def test_mapping(self):
        assert rung_quality(Rung.NONE, 2.0) == 1.0
        assert rung_quality(Rung.EXTEND, 2.0) == 1.0
        assert rung_quality(Rung.DEGRADE, 2.0) == 0.5
        assert rung_quality(Rung.TERMINATE, 2.0) == 0.0
        assert rung_quality(Rung.KILL, 2.0) == 0.0

    def test_y_inf_degrades_to_zero(self):
        assert rung_quality(Rung.DEGRADE, float("inf")) == 0.0

    def test_y_below_one_rejected(self):
        with pytest.raises(ValueError, match="y must be >= 1"):
            rung_quality(Rung.DEGRADE, 0.5)


class TestDegradedUtilization:
    @pytest.fixture
    def mixed(self):
        return TaskSet(
            [
                MCTask.hi("h", c_lo=2, c_hi=4, d_lo=10, d_hi=10, period=10),
                MCTask.lo("a", c=2, d_lo=10, t_lo=10),
                MCTask.lo("b", c=4, d_lo=20, t_lo=20),
            ]
        )

    def test_default_rung_is_degrade(self, mixed):
        # U^LO of LO tasks = 0.4; all at DEGRADE with y=2 -> 0.2.
        assert degraded_lo_utilization(mixed, y=2.0) == pytest.approx(0.2)

    def test_explicit_rungs(self, mixed):
        u = degraded_lo_utilization(
            mixed, y=2.0, rungs={"a": Rung.NONE, "b": Rung.TERMINATE}
        )
        assert u == pytest.approx(0.2)  # a keeps 0.2, b sheds all

    def test_unknown_task_rejected(self, mixed):
        with pytest.raises(ValueError, match="unknown task"):
            degraded_lo_utilization(mixed, rungs={"zz": Rung.DEGRADE})

    def test_hi_task_rejected(self, mixed):
        with pytest.raises(ValueError, match="LO tasks only"):
            degraded_lo_utilization(mixed, rungs={"h": Rung.DEGRADE})


class TestEdfVdDegraded:
    def test_terminate_recovers_classic(self):
        # Rung TERMINATE everywhere must coincide with classic EDF-VD.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            ts = generate_taskset(0.85, rng, _CONFIG, name=f"s{seed}")
            rungs = {t.name: Rung.TERMINATE for t in ts.lo_tasks}
            got = edf_vd_degraded_schedulable(ts, rungs=rungs)
            ref = edf_vd_schedulable(ts)
            assert got.schedulable == ref.schedulable, ts.name
            assert got.u_lo_degraded == 0.0

    def test_y_inf_equals_terminate(self):
        rng = np.random.default_rng(7)
        ts = generate_taskset(0.9, rng, _CONFIG, name="yinf")
        inf_y = edf_vd_degraded_schedulable(ts, y=float("inf"))
        term = edf_vd_degraded_schedulable(
            ts, rungs={t.name: Rung.TERMINATE for t in ts.lo_tasks}
        )
        assert inf_y.schedulable == term.schedulable

    def test_degraded_implies_classic(self):
        # Keeping partial LO service is never *easier* than termination.
        for seed in range(60):
            rng = np.random.default_rng(1000 + seed)
            ts = generate_taskset(0.9, rng, _CONFIG, name=f"m{seed}")
            if edf_vd_degraded_schedulable(ts, y=2.0).schedulable:
                assert edf_vd_schedulable(ts).schedulable

    def test_plain_edf_short_circuit(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=1, c_hi=2, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=2, d_lo=10, t_lo=10),
            ]
        )
        result = edf_vd_degraded_schedulable(ts)
        assert result.schedulable and result.plain_edf and result.x is None

    def test_quality_monotone_in_y(self):
        # Larger y (more degradation) only ever helps schedulability.
        for seed in range(40):
            rng = np.random.default_rng(2000 + seed)
            ts = generate_taskset(0.9, rng, _CONFIG, name=f"y{seed}")
            if edf_vd_degraded_schedulable(ts, y=1.5).schedulable:
                assert edf_vd_degraded_schedulable(ts, y=4.0).schedulable


# ----------------------------------------------------------------------
# Fluid reference bound
# ----------------------------------------------------------------------


class TestFluid:
    def test_speedup_bound(self):
        assert fluid_speedup_bound() == pytest.approx(4.0 / 3.0)

    def test_bad_core_count_rejected(self):
        ts = TaskSet([MCTask.lo("l", c=1, d_lo=10, t_lo=10)])
        with pytest.raises(ValueError):
            fluid_schedulable(ts, 0)

    def test_light_set_fits_one_core(self):
        ts = TaskSet(
            [
                MCTask.hi("h", c_lo=1, c_hi=2, d_lo=10, d_hi=10, period=10),
                MCTask.lo("l", c=2, d_lo=10, t_lo=10),
            ]
        )
        result = fluid_schedulable(ts, 1)
        assert result.schedulable
        assert all(0.0 < r <= 1.0 for r in result.hi_rates)

    def test_monotone_in_cores(self):
        for seed in range(25):
            ts = _workload(0.8, 2, seed=3000 + seed, name=f"f{seed}")
            if fluid_schedulable(ts, 2).schedulable:
                assert fluid_schedulable(ts, 3).schedulable

    def test_deterministic(self):
        ts = _workload(0.7, 3, seed=42, name="det")
        a = fluid_schedulable(ts, 3)
        b = fluid_schedulable(ts, 3)
        assert a == b

    def test_overload_rejected(self):
        ts = _workload(0.9, 4, seed=5, name="over")
        assert not fluid_schedulable(ts, 1).schedulable


# ----------------------------------------------------------------------
# Partitioning properties (hypothesis)
# ----------------------------------------------------------------------


@st.composite
def mc_tasksets(draw):
    n_hi = draw(st.integers(min_value=0, max_value=4))
    n_lo = draw(st.integers(min_value=1 if n_hi == 0 else 0, max_value=4))
    tasks = []
    for i in range(n_hi):
        period = draw(st.floats(min_value=4.0, max_value=50.0))
        c_lo = draw(st.floats(min_value=0.5, max_value=period / 3))
        gamma = draw(st.floats(min_value=1.0, max_value=2.0))
        c_hi = min(gamma * c_lo, period)
        tasks.append(
            MCTask.hi(
                f"h{i}", c_lo=c_lo, c_hi=c_hi, d_lo=period, d_hi=period, period=period
            )
        )
    for i in range(n_lo):
        period = draw(st.floats(min_value=4.0, max_value=50.0))
        c = draw(st.floats(min_value=0.5, max_value=period / 2))
        tasks.append(MCTask.lo(f"l{i}", c=c, d_lo=period, t_lo=period))
    return TaskSet(tasks, name="hyp")


class TestPartitionProperties:
    @settings(max_examples=40, deadline=None)
    @given(mc_tasksets(), st.integers(min_value=1, max_value=4))
    def test_every_task_assigned_exactly_once(self, ts, n_cores):
        try:
            parts = partition_tasks(ts, n_cores, speedup_cap=2.0)
        except PartitioningError:
            return
        names = sorted(t.name for p in parts for t in p)
        assert names == sorted(t.name for t in ts)

    @settings(max_examples=30, deadline=None)
    @given(mc_tasksets(), st.integers(min_value=1, max_value=4))
    def test_admission_invariant_post_hoc(self, ts, n_cores):
        # Every nonempty core must itself pass the admission it was
        # built under: LO-feasible and s_min within the cap.
        cap = 2.0
        try:
            parts = partition_tasks(ts, n_cores, speedup_cap=cap)
        except PartitioningError:
            return
        for core in parts:
            if len(core):
                assert lo_mode_schedulable(core)
                assert min_speedup(core).s_min <= cap * (1.0 + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        mc_tasksets(),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["first_fit", "worst_fit", "best_fit"]),
    )
    def test_engines_byte_identical(self, ts, n_cores, heuristic):
        try:
            pop = partition_tasks(
                ts, n_cores, heuristic=heuristic, engine="compiled"
            )
        except PartitioningError:
            with pytest.raises(PartitioningError):
                partition_tasks(ts, n_cores, heuristic=heuristic, engine="scalar")
            return
        sca = partition_tasks(ts, n_cores, heuristic=heuristic, engine="scalar")
        assert _assignment(pop) == _assignment(sca)

    @settings(max_examples=25, deadline=None)
    @given(
        mc_tasksets(),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["first_fit", "worst_fit", "best_fit"]),
    )
    def test_heuristics_deterministic(self, ts, n_cores, heuristic):
        try:
            first = partition_tasks(ts, n_cores, heuristic=heuristic)
        except PartitioningError:
            return
        second = partition_tasks(ts, n_cores, heuristic=heuristic)
        assert _assignment(first) == _assignment(second)

    def test_validation_errors(self):
        ts = TaskSet([MCTask.lo("l", c=1, d_lo=10, t_lo=10)])
        with pytest.raises(PartitioningError):
            partition_tasks(ts, 0)
        with pytest.raises(PartitioningError):
            partition_tasks(ts, 2, heuristic="middle_fit")
        with pytest.raises(PartitioningError):
            partition_tasks(ts, 2, speedup_cap=0.0)
        with pytest.raises(PartitioningError):
            partition_tasks(ts, 2, engine="quantum")

    def test_min_cores_respects_engine_and_matches(self):
        ts = _workload(0.5, 2, seed=14, name="mc")
        pop = min_cores(ts, speedup_cap=2.0, engine="compiled")
        sca = min_cores(ts, speedup_cap=2.0, engine="scalar")
        assert pop == sca >= 1

    def test_min_cores_unpartitionable_raises(self):
        # One task per core max, more tasks than allowed cores.
        tasks = [
            MCTask.hi(f"h{i}", c_lo=5, c_hi=9.5, d_lo=10, d_hi=10, period=10)
            for i in range(3)
        ]
        with pytest.raises(PartitioningError):
            min_cores(TaskSet(tasks), speedup_cap=1.1, max_cores=2)

    def test_degraded_partitioning(self):
        ts = _workload(0.5, 2, seed=23, name="dg")
        parts = partition_tasks_edf_vd_degraded(ts, 2, y=2.0)
        names = sorted(t.name for p in parts for t in p)
        assert names == sorted(t.name for t in ts)
        for core in parts:
            if len(core):
                assert edf_vd_degraded_schedulable(core, y=2.0).schedulable


class TestEngineByteIdentityPopulation:
    """Acceptance criterion: kernel-backed admission reproduces the
    scalar partitioning decisions exactly on a seeded 200-set population."""

    def test_200_seeded_sets(self):
        mismatches = []
        for i in range(200):
            ts = _workload(0.6, 2, seed=9000 + i, name=f"p{i}")
            try:
                pop = _assignment(partition_tasks(ts, 2, engine="compiled"))
            except PartitioningError:
                pop = None
            try:
                sca = _assignment(partition_tasks(ts, 2, engine="scalar"))
            except PartitioningError:
                sca = None
            if pop != sca:
                mismatches.append(ts.name)
        assert not mismatches, mismatches


# ----------------------------------------------------------------------
# Pipeline surface
# ----------------------------------------------------------------------


class TestMultiprocRequest:
    @pytest.fixture
    def workload(self):
        return _workload(0.5, 2, seed=77, name="req")

    def test_forbidden_knobs_rejected(self, workload):
        for kwargs in (
            {"speedup": 2.0},
            {"reset_budget": 5.0},
            {"auto_x": "exact"},
            {"lo_test": True},
            {"closed_form": True},
            {"per_task": True},
        ):
            with pytest.raises(ModelError, match="no meaning for a multiproc"):
                AnalysisRequest(
                    taskset=workload, cores=2, speedup_cap=2.0, **kwargs
                )

    def test_cap_required_with_cores(self, workload):
        with pytest.raises(ModelError, match="positive speedup_cap"):
            AnalysisRequest(taskset=workload, cores=2)

    def test_cap_without_cores_rejected(self, workload):
        with pytest.raises(ModelError, match="multiproc requests"):
            AnalysisRequest(taskset=workload, speedup_cap=2.0)

    def test_bad_heuristic_rejected(self, workload):
        with pytest.raises(ModelError, match="heuristic"):
            AnalysisRequest(
                taskset=workload, cores=2, speedup_cap=2.0, heuristic="zz"
            )

    def test_bad_degraded_y_rejected(self, workload):
        with pytest.raises(ModelError, match="degraded_y"):
            AnalysisRequest(
                taskset=workload, cores=2, speedup_cap=2.0, degraded_y=0.5
            )

    def test_uniproc_payload_has_no_multiproc_keys(self, workload):
        # Cache-key stability: pre-existing uniprocessor requests must
        # fingerprint exactly as before this PR.
        payload = AnalysisRequest(taskset=workload).options_payload()
        for key in ("cores", "speedup_cap", "heuristic", "degraded_y"):
            assert key not in payload

    def test_multiproc_payload_carries_design_knobs(self, workload):
        payload = AnalysisRequest(
            taskset=workload, cores=2, speedup_cap=2.0, heuristic="worst_fit"
        ).options_payload()
        assert payload["cores"] == 2
        assert payload["speedup_cap"] == 2.0
        assert payload["heuristic"] == "worst_fit"


class TestMultiprocReport:
    @pytest.fixture
    def report(self):
        ts = _workload(0.5, 2, seed=78, name="rep")
        return evaluate_request(
            AnalysisRequest(taskset=ts, cores=2, speedup_cap=2.0, x=0.5)
        )

    def test_multiproc_block(self, report):
        info = report.multiproc
        assert info is not None
        assert info["cores"] == 2
        assert info["speedup_cap"] == 2.0
        assert isinstance(info["speedup_ok"], bool)
        assert isinstance(info["degraded_ok"], bool)
        assert isinstance(info["fluid_ok"], bool)
        if info["speedup_ok"]:
            assert info["used_cores"] >= 1

    def test_ok_tracks_speedup_verdict(self, report):
        assert report.ok == bool(report.multiproc["speedup_ok"])

    def test_roundtrip(self, report):
        clone = AnalysisReport.from_dict(report.to_dict())
        assert clone.multiproc == report.multiproc
        assert clone.to_dict() == report.to_dict()

    def test_record_columns(self, report):
        record = report.to_record()
        assert record["cores"] == 2
        assert "speedup_ok" in record and "fluid_ok" in record


class TestFigM:
    def test_tiny_grid(self):
        from repro.experiments import figM

        cells = figM.run(
            u_bounds=(0.5,),
            core_counts=(2,),
            speedup_caps=(2.0,),
            sets_per_point=3,
            seed=7,
        )
        assert len(cells) == 1
        assert len(cells[0].samples) == 3
        text = figM.render(cells)
        assert "Figure M" in text and "degraded" in text and "fluid" in text

    def test_jobs_invariant(self):
        from repro.experiments import figM

        kwargs = dict(
            u_bounds=(0.6,),
            core_counts=(2,),
            speedup_caps=(2.0, 3.0),
            sets_per_point=4,
            seed=9,
        )
        one = figM.render(figM.run(jobs=1, **kwargs))
        four = figM.render(figM.run(jobs=4, **kwargs))
        assert one == four


class TestCliMultiproc:
    def test_quick_smoke(self, capsys):
        from repro.cli import main

        assert main(["multiproc", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure M" in out
        assert "spd@" in out
