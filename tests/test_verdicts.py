"""One HI-mode verdict: every front end decides it the same way.

``speedup_schedulable``, ``hi_mode_schedulable``, a per-item request
(``api.analyze``) and a grouped lockstep request all read
:meth:`~repro.analysis.speedup.SpeedupResult.admits` on one Theorem-2
scan under one candidate budget.  So they agree at every speed, also
where the budget cuts the scan short and only the certified upper bound
may admit a speed.
"""

import math

import numpy as np
import pytest

from repro import api
from repro.analysis.schedulability import hi_mode_schedulable
from repro.analysis.speedup import DEFAULT_MAX_CANDIDATES, min_speedup, speedup_schedulable
from repro.experiments.table1 import table1_taskset
from repro.generator.fms import fms_taskset
from repro.model.transform import shorten_hi_deadlines
from repro.pipeline import AnalysisRequest
from repro.pipeline.grouping import evaluate_chunk_grouped
from tests.conftest import multi_window_set, random_implicit_taskset


def _cases():
    cases = [
        ("table1", table1_taskset(), None),
        ("fms", fms_taskset(), None),
        ("fms_prepared", shorten_hi_deadlines(fms_taskset(), 0.5), None),
    ]
    # 159 candidates prove the multi-window set's s_min: 50 and 100 cut
    # the scan, 200 does not.
    for budget in (50, 100, 200, None):
        cases.append((f"multi_window-{budget}", multi_window_set(), budget))
    for seed in range(30):
        rng = np.random.default_rng(9100 + seed)
        ts = random_implicit_taskset(rng, n_hi=1 + seed % 3, n_lo=seed % 3)
        cases.append((f"seeded-{seed}", ts, None))
    return cases


CASES = _cases()


@pytest.mark.parametrize(
    "taskset,budget", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_hi_verdicts_agree(taskset, budget):
    s_min = min_speedup(taskset).s_min
    speeds = [2.0, 0.379]
    if math.isfinite(s_min) and s_min > 0.0:
        speeds += [s_min * (1.0 + 1e-6), s_min * (1.0 - 1e-6), s_min]
    cap = DEFAULT_MAX_CANDIDATES if budget is None else budget
    requests = [
        AnalysisRequest(taskset, speedup=s, max_candidates=budget, resetting="never")
        for s in speeds
    ]
    grouped = [report.hi_ok for report in evaluate_chunk_grouped(requests)]
    for s, grouped_ok in zip(speeds, grouped):
        verdict = speedup_schedulable(taskset, s, max_candidates=cap)
        per_item = api.analyze(
            taskset, speedup=s, max_candidates=budget, resetting="never"
        ).hi_ok
        assert per_item is verdict, s
        assert grouped_ok is verdict, s
        if budget is None:
            assert hi_mode_schedulable(taskset, s) is verdict, s
    result = min_speedup(taskset, max_candidates=cap)
    if result.exact and len(speeds) > 2:
        assert speedup_schedulable(taskset, s_min, max_candidates=cap)
        assert not speedup_schedulable(taskset, s_min * (1.0 - 1e-6), max_candidates=cap)
