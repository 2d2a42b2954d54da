"""Tests for the design-report generator."""

import pytest

from repro.model.task import MCTask
from repro.model.taskset import TaskSet
from repro.report import build_report

TABLE1_PREAMBLE = """\
# Design report: table1

task      chi      C(LO)    C(HI)    D(LO)    D(HI)    T(LO)    T(HI)
---------------------------------------------------------------------
tau1      HI           1        3        1        4        4        4
tau2      LO           2        2        4        4        4        4

Utilizations: U_LO(system) = 0.750, U_HI(system) = 1.250, max gamma = 3

## Offline analysis
* LO mode feasible at nominal speed: **True**
* Theorem 2 minimum speedup: **1.33333**
"""


class TestReport:
    def test_schedulable_design(self, table1):
        text = build_report(table1, s=2.0, reset_budget=6.0)
        assert "# Design report" in text
        assert "Theorem 2 minimum speedup: **1.33333**" in text
        assert "resetting time at s = 2: **6**" in text
        assert "Within recovery budget 6: **True**" in text
        assert "Validation verdict: **PASS**" in text
        assert "First overrun episode" in text

    def test_sensitivity_section(self, table1):
        text = build_report(table1, s=2.0)
        assert "Speedup headroom" in text
        assert "Max tolerable WCET ratio" in text

    def test_unschedulable_design_skips_simulation(self, table1):
        text = build_report(table1, s=1.2)
        assert "HI mode feasible at s = 1.2: **False**" in text
        assert "Skipped" in text
        assert "Validation verdict" not in text

    def test_infeasible_requirement(self):
        ts = TaskSet([MCTask.hi("h", c_lo=2, c_hi=4, d_lo=8, d_hi=8, period=8)])
        text = build_report(ts, s=3.0)
        assert "inf" in text
        assert "Skipped" in text

    def test_golden_schedulable_design(self, table1):
        text = build_report(table1, s=2.0, reset_budget=6.0)
        assert text == TABLE1_PREAMBLE + """\
* HI mode feasible at s = 2: **True**
* Corollary 5 resetting time at s = 2: **6**
* Within recovery budget 6: **True**

## Sensitivity
* Speedup headroom at s = 2: **0.666667**
* Max tolerable WCET ratio gamma: **2.999**

## Simulated worst case
```
task          chi    rel   fin  miss   R_mean    R_max     late
---------------------------------------------------------------
tau1          HI      21    20     0        2        2       -2
tau2          LO      21    20     0        3        3       -1
mode switches: 20, max episode: 2, boosted: 40, fallbacks: 0
LO service ratio: 1.000
```

First overrun episode: t = 1 .. 3 (bound 6)
```
tau1          |################................################................########|
tau2          |................########........................########................|
mode          |LLLLLLLLHHHHHHHHHHHHHHHHLLLLLLLLLLLLLLLLHHHHHHHHHHHHHHHHLLLLLLLLLLLLLLLL|
               t=0 .. 9
```

Validation verdict: **PASS**"""

    def test_golden_below_s_min(self, table1):
        text = build_report(table1, s=1.2, reset_budget=100.0)
        assert text == TABLE1_PREAMBLE + """\
* HI mode feasible at s = 1.2: **False**

## Sensitivity
* Speedup headroom at s = 1.2: **-0.133333**

## Simulated worst case
Skipped: the configuration is not schedulable at the requested speedup."""

    def test_golden_lo_infeasible(self, lo_overload):
        # Delta_R = 5.5 is within 100, but the design fails LO mode.
        text = build_report(lo_overload, s=2.0, reset_budget=100.0)
        assert text == """\
# Design report: lo_overload

task      chi      C(LO)    C(HI)    D(LO)    D(HI)    T(LO)    T(HI)
---------------------------------------------------------------------
h         HI           1        2        4       10       10       10
a         LO           5        5        8       16        8       16
b         LO           4        4       10       20       10       20

Utilizations: U_LO(system) = 1.125, U_HI(system) = 0.712, max gamma = 2

## Offline analysis
* LO mode feasible at nominal speed: **False**
* Theorem 2 minimum speedup: **0.785714**
* HI mode feasible at s = 2: **True**
* Corollary 5 resetting time at s = 2: **5.5**
* Within recovery budget 100: **False**

## Sensitivity
* Speedup headroom at s = 2: **1.21429**

## Simulated worst case
Skipped: the configuration is not schedulable at the requested speedup."""

    def test_cli_report_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiments.table1 import table1_taskset
        from repro.io import save_taskset

        path = tmp_path / "set.json"
        save_taskset(table1_taskset(), path)
        assert main(["analyze", "--taskset", str(path), "--report"]) == 0
        out = capsys.readouterr().out
        assert "Validation verdict" in out
