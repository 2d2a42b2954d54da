"""Unit tests for the dual-criticality task model (Section II)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.model.task import Criticality, MCTask, ModelError


class TestConstruction:
    def test_hi_task_valid(self):
        t = MCTask.hi("t", c_lo=2, c_hi=4, d_lo=4, d_hi=8, period=8)
        assert t.crit is Criticality.HI
        assert t.t_hi == t.t_lo == 8

    def test_lo_task_defaults_keep_service(self):
        t = MCTask.lo("t", c=2, d_lo=6, t_lo=6)
        assert t.d_hi == 6 and t.t_hi == 6
        assert t.c_hi == t.c_lo == 2

    def test_lo_task_degraded(self):
        t = MCTask.lo("t", c=2, d_lo=6, t_lo=6, d_hi=9, t_hi=12)
        assert t.d_hi == 9 and t.t_hi == 12

    def test_hi_needs_equal_periods(self):
        with pytest.raises(ModelError, match="T\\(HI\\) == T\\(LO\\)"):
            MCTask(
                name="t", crit=Criticality.HI, c_lo=1, c_hi=2,
                d_lo=4, d_hi=8, t_lo=8, t_hi=10,
            )

    def test_hi_needs_d_lo_not_greater(self):
        with pytest.raises(ModelError, match="D\\(LO\\) <= D\\(HI\\)"):
            MCTask.hi("t", c_lo=1, c_hi=2, d_lo=9, d_hi=8, period=9)

    def test_hi_needs_c_hi_at_least_c_lo(self):
        with pytest.raises(ModelError, match="C\\(HI\\) >= C\\(LO\\)"):
            MCTask.hi("t", c_lo=3, c_hi=2, d_lo=4, d_hi=8, period=8)

    def test_lo_needs_equal_wcets(self):
        with pytest.raises(ModelError, match="C\\(HI\\) == C\\(LO\\)"):
            MCTask(
                name="t", crit=Criticality.LO, c_lo=1, c_hi=2,
                d_lo=4, d_hi=4, t_lo=4, t_hi=4,
            )

    def test_constrained_deadline_enforced(self):
        with pytest.raises(ModelError, match="D\\(LO\\) <= T\\(LO\\)"):
            MCTask.lo("t", c=1, d_lo=10, t_lo=6)

    def test_wcet_within_deadline(self):
        with pytest.raises(ModelError, match="C\\(LO\\) <= D\\(LO\\)"):
            MCTask.lo("t", c=7, d_lo=6, t_lo=6)

    def test_positive_parameters(self):
        with pytest.raises(ModelError):
            MCTask.lo("t", c=0, d_lo=6, t_lo=6)
        with pytest.raises(ModelError):
            MCTask.lo("t", c=-1, d_lo=6, t_lo=6)

    def test_terminated_lo_task(self):
        t = MCTask.lo("t", c=2, d_lo=6, t_lo=6, d_hi=math.inf, t_hi=math.inf)
        assert t.terminated_in_hi

    def test_hi_cannot_be_terminated(self):
        with pytest.raises(ModelError):
            MCTask(
                name="t", crit=Criticality.HI, c_lo=1, c_hi=2,
                d_lo=4, d_hi=math.inf, t_lo=8, t_hi=8,
            )

    def test_implicit_constructors(self):
        hi = MCTask.implicit_hi("h", c_lo=1, c_hi=2, period=10, x=0.5)
        assert hi.d_lo == 5 and hi.d_hi == 10
        lo = MCTask.implicit_lo("l", c=1, period=10, y=2)
        assert lo.d_hi == 20 and lo.t_hi == 20

    def test_implicit_constructor_bounds(self):
        with pytest.raises(ModelError):
            MCTask.implicit_hi("h", 1, 2, 10, x=0.0)
        with pytest.raises(ModelError):
            MCTask.implicit_lo("l", 1, 10, y=0.5)


class TestAccessors:
    def setup_method(self):
        self.hi = MCTask.hi("h", c_lo=2, c_hi=4, d_lo=4, d_hi=8, period=8)
        self.lo = MCTask.lo("l", c=2, d_lo=6, t_lo=6, d_hi=9, t_hi=12)

    def test_per_mode_accessors(self):
        assert self.hi.wcet(Criticality.LO) == 2
        assert self.hi.wcet(Criticality.HI) == 4
        assert self.hi.deadline(Criticality.LO) == 4
        assert self.hi.deadline(Criticality.HI) == 8
        assert self.lo.period(Criticality.HI) == 12

    def test_utilization(self):
        assert self.hi.utilization(Criticality.LO) == pytest.approx(0.25)
        assert self.hi.utilization(Criticality.HI) == pytest.approx(0.5)
        assert self.lo.utilization(Criticality.HI) == pytest.approx(2 / 12)

    def test_terminated_utilization_zero(self):
        t = MCTask.lo("t", c=2, d_lo=6, t_lo=6, d_hi=math.inf, t_hi=math.inf)
        assert t.utilization(Criticality.HI) == 0.0
        assert t.density(Criticality.HI) == 0.0

    def test_density(self):
        assert self.hi.density(Criticality.LO) == pytest.approx(0.5)

    def test_gamma(self):
        assert self.hi.gamma == pytest.approx(2.0)
        assert self.lo.gamma == pytest.approx(1.0)

    def test_predicates(self):
        assert self.hi.is_hi and not self.hi.is_lo
        assert self.lo.is_lo and not self.lo.is_hi
        assert not self.lo.terminated_in_hi

    def test_implicit_deadline_detection(self):
        implicit = MCTask.implicit_hi("h", 1, 2, 10, x=0.5)
        assert implicit.implicit_deadline
        assert self.hi.implicit_deadline, "HI implicitness refers to D(HI) == T"
        constrained_hi = MCTask.hi("c", 1, 2, d_lo=4, d_hi=7, period=8)
        assert not constrained_hi.implicit_deadline
        lo_implicit = MCTask.implicit_lo("l", 1, 10, y=2)
        assert lo_implicit.implicit_deadline
        assert not self.lo.implicit_deadline, "degraded D(HI)=9 != T(HI)=12"
        terminated = MCTask.lo("t", c=1, d_lo=10, t_lo=10, d_hi=math.inf, t_hi=math.inf)
        assert terminated.implicit_deadline


class TestDerivedCopies:
    def test_with_degraded_service(self):
        lo = MCTask.lo("l", c=2, d_lo=6, t_lo=6)
        degraded = lo.with_degraded_service(d_hi=9, t_hi=12)
        assert degraded.d_hi == 9 and degraded.t_hi == 12
        assert lo.d_hi == 6, "original must be unchanged"

    def test_with_degraded_service_rejects_hi(self):
        hi = MCTask.hi("h", 1, 2, 4, 8, 8)
        with pytest.raises(ModelError):
            hi.with_degraded_service(d_hi=9, t_hi=12)

    def test_with_lo_deadline(self):
        hi = MCTask.hi("h", 1, 2, 4, 8, 8)
        assert hi.with_lo_deadline(3).d_lo == 3

    def test_with_lo_deadline_rejects_lo(self):
        lo = MCTask.lo("l", c=2, d_lo=6, t_lo=6)
        with pytest.raises(ModelError):
            lo.with_lo_deadline(3)

    def test_scaled(self):
        hi = MCTask.hi("h", 1, 2, 4, 8, 8)
        scaled = hi.scaled(1000.0)
        assert scaled.c_lo == 1000 and scaled.t_hi == 8000
        assert scaled.utilization(Criticality.HI) == pytest.approx(
            hi.utilization(Criticality.HI)
        )

    def test_scaled_rejects_nonpositive(self):
        hi = MCTask.hi("h", 1, 2, 4, 8, 8)
        with pytest.raises(ModelError):
            hi.scaled(0.0)

    def test_str_mentions_termination(self):
        t = MCTask.lo("t", c=2, d_lo=6, t_lo=6, d_hi=math.inf, t_hi=math.inf)
        assert "terminated" in str(t)
        assert "t[LO]" in str(t)


class TestCriticalityOrdering:
    def test_lo_below_hi(self):
        assert Criticality.LO < Criticality.HI
        assert not Criticality.HI < Criticality.LO

    def test_str(self):
        assert str(Criticality.HI) == "HI"


# A valid HI and a valid LO task; each case below breaks one (or two) of
# their fields.
_HI = dict(name="t", crit=Criticality.HI, c_lo=1.0, c_hi=2.0, d_lo=3.0, d_hi=4.0, t_lo=4.0, t_hi=4.0)
_LO = dict(name="t", crit=Criticality.LO, c_lo=1.0, c_hi=1.0, d_lo=3.0, d_hi=4.0, t_lo=4.0, t_hi=4.0)

_REAL = "must be a real number, got {} ({}); pass a float (math.inf is only legal for D(HI)/T(HI) of LO tasks)"
_NAN = (
    "is NaN — timing parameters must be well-defined numbers; check the "
    "upstream computation or input file for a 0/0 or missing value"
)

#: (id, base task, overrides, exact message), one row per check of
#: ``MCTask.__post_init__`` in the order it runs them.  A HI task has no
#: check of its own for an infinite D(HI): the three ``hi-d_hi-inf``
#: rows pin the earlier checks that reject it.
MESSAGE_TABLE = [
    ("name-not-str", _HI, dict(name=7), "task name must be a non-empty string, got 7"),
    ("name-empty", _HI, dict(name=""), "task name must be a non-empty string, got ''"),
    (
        "crit-not-criticality", _HI, dict(crit="HI"),
        "t: crit must be a Criticality (Criticality.LO or Criticality.HI), got 'HI'",
    ),
    *[
        (f"{attr}-bool", _HI, {attr: True}, f"t: {label} " + _REAL.format("True", "bool"))
        for attr, label in (("c_lo", "C(LO)"), ("c_hi", "C(HI)"), ("d_lo", "D(LO)"),
                            ("d_hi", "D(HI)"), ("t_lo", "T(LO)"), ("t_hi", "T(HI)"))
    ],
    ("c_lo-str", _HI, dict(c_lo="1"), "t: C(LO) " + _REAL.format("'1'", "str")),
    ("t_hi-none", _LO, dict(t_hi=None), "t: T(HI) " + _REAL.format("None", "NoneType")),
    *[
        (f"{attr}-nan", _HI, {attr: math.nan}, f"t: {label} {_NAN}")
        for attr, label in (("c_lo", "C(LO)"), ("c_hi", "C(HI)"), ("d_lo", "D(LO)"),
                            ("d_hi", "D(HI)"), ("t_lo", "T(LO)"), ("t_hi", "T(HI)"))
    ],
    ("c_lo-negative-int", _HI, dict(c_lo=-1), "t: C(LO) must be non-negative, got -1.0"),
    ("d_hi-negative", _LO, dict(d_hi=-0.5), "t: D(HI) must be non-negative, got -0.5"),
    ("t_hi-minus-inf", _LO, dict(t_hi=-math.inf), "t: T(HI) must be non-negative, got -inf"),
    ("c_lo-zero", _HI, dict(c_lo=0.0), "t: C(LO) must be positive"),
    ("c_hi-zero", _HI, dict(c_hi=0), "t: C(HI) must be positive"),
    ("d_lo-zero", _HI, dict(d_lo=0.0), "t: D(LO) must be positive"),
    ("t_lo-zero", _HI, dict(t_lo=0.0), "t: T(LO) must be positive"),
    ("c_lo-inf", _HI, dict(c_lo=math.inf), "t: C(LO) must be finite"),
    ("c_hi-inf", _HI, dict(c_hi=math.inf), "t: C(HI) must be finite"),
    ("d_lo-inf", _HI, dict(d_lo=math.inf), "t: D(LO) must be finite"),
    ("t_lo-inf", _HI, dict(t_lo=math.inf), "t: T(LO) must be finite"),
    ("d_lo-over-t_lo", _HI, dict(d_lo=5.0), "t: D(LO) <= T(LO) required"),
    ("d_hi-over-t_hi", _LO, dict(d_hi=5.0), "t: D(HI) <= T(HI) required"),
    ("c_lo-over-d_lo", _LO, dict(c_lo=3.5, c_hi=3.5), "t: C(LO) <= D(LO) required"),
    ("hi-periods-differ", _HI, dict(t_hi=5.0), "t: HI task needs T(HI) == T(LO)"),
    ("hi-d_lo-over-d_hi", _HI, dict(d_lo=4.0, d_hi=3.5), "t: HI task needs D(LO) <= D(HI)"),
    ("hi-d_hi-inf", _HI, dict(d_hi=math.inf), "t: D(HI) <= T(HI) required"),
    ("hi-d_hi-inf-t_hi-inf", _HI, dict(d_hi=math.inf, t_hi=math.inf), "t: HI task needs T(HI) == T(LO)"),
    (
        "hi-d_hi-inf-periods-inf", _HI, dict(d_hi=math.inf, t_hi=math.inf, t_lo=math.inf),
        "t: T(LO) must be finite",
    ),
    ("hi-c_hi-below-c_lo", _HI, dict(c_lo=2.0, c_hi=1.5), "t: HI task needs C(HI) >= C(LO)"),
    ("hi-c_hi-over-d_hi", _HI, dict(c_hi=4.5), "t: C(HI) <= D(HI) required"),
    ("lo-t_hi-below-t_lo", _LO, dict(d_hi=3.0, t_hi=3.0), "t: LO task needs T(HI) >= T(LO)"),
    ("lo-d_hi-below-d_lo", _LO, dict(d_hi=2.0), "t: LO task needs D(HI) >= D(LO)"),
    ("lo-wcets-differ", _LO, dict(c_hi=2.0), "t: LO task needs C(HI) == C(LO)"),
    # Two faults: the check that runs first wins.
    ("nan-c_lo-and-negative-t_lo", _HI, dict(c_lo=math.nan, t_lo=-1.0), f"t: C(LO) {_NAN}"),
    (
        "negative-c_lo-and-bool-c_hi", _HI, dict(c_lo=-2.0, c_hi=True),
        "t: C(LO) must be non-negative, got -2.0",
    ),
    ("zero-c_lo-and-str-t_lo", _HI, dict(c_lo=0.0, t_lo="4"), "t: T(LO) " + _REAL.format("'4'", "str")),
    ("zero-c_lo-and-zero-c_hi", _HI, dict(c_lo=0.0, c_hi=0.0), "t: C(LO) must be positive"),
    ("inf-c_lo-and-zero-c_hi", _HI, dict(c_lo=math.inf, c_hi=0.0), "t: C(HI) must be positive"),
    ("inf-c_lo-and-d_lo-over-t_lo", _HI, dict(c_lo=math.inf, d_lo=5.0), "t: C(LO) must be finite"),
    ("c_lo-over-d_lo-and-hi-periods", _HI, dict(c_lo=3.5, t_hi=5.0), "t: C(LO) <= D(LO) required"),
    ("empty-name-and-bad-crit", _HI, dict(name="", crit=None), "task name must be a non-empty string, got ''"),
    (
        "bad-crit-and-nan-c_lo", _HI, dict(crit="LO", c_lo=math.nan),
        "t: crit must be a Criticality (Criticality.LO or Criticality.HI), got 'LO'",
    ),
]


class TestMessages:
    """The exact first message for each invalid task.

    Failure payloads and the service's 400 bodies carry these texts, so
    they are pinned byte for byte.
    """

    @pytest.mark.parametrize(
        "base, overrides, message",
        [row[1:] for row in MESSAGE_TABLE],
        ids=[row[0] for row in MESSAGE_TABLE],
    )
    def test_message(self, base, overrides, message):
        with pytest.raises(ModelError) as raised:
            MCTask(**{**base, **overrides})
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "value", [3, np.float64(3.0), Fraction(3, 1), 3.0], ids=["int", "float64", "fraction", "float"]
    )
    def test_real_numbers_are_stored_as_floats(self, value):
        task = MCTask(**{**_HI, "d_lo": value})
        assert type(task.d_lo) is float and task.d_lo == 3.0
